"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

from nilwitness import GF, Q, AddMul, Matrix, RowScript, Scale, Swap, VerificationError

GF2 = GF(2)
GF3 = GF(3)
GF5 = GF(5)


def qmat(rows) -> Matrix:
    """Rational matrix from ints, Fractions, or scalar tokens like '-3/2'."""
    return Matrix(Q, [[Q.parse(e) if isinstance(e, str) else e for e in row] for row in rows])


def column(field, entries) -> Matrix:
    return Matrix.column(field, [field.parse(e) if isinstance(e, str) else e for e in entries])


def random_rational(rng, lo=-5, hi=5, max_den=4, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        if nonzero and num == 0:
            continue
        return Q.scalar(num, rng.randint(1, max_den))


def random_scalar(rng, field, nonzero=False):
    if field == Q:
        return random_rational(rng, nonzero=nonzero)
    start = 1 if nonzero else 0
    return field.scalar(rng.randrange(start, field.modulus))


def random_matrix(rng, field, m, n) -> Matrix:
    return Matrix(field, [[random_scalar(rng, field) for _ in range(n)] for _ in range(m)])


def random_rowop(rng, field, m):
    kind = rng.choice(("swap", "scale", "addmul")) if m > 1 else "scale"
    if kind == "swap":
        i, j = rng.sample(range(1, m + 1), 2)
        return Swap(i, j)
    if kind == "scale":
        return Scale(rng.randint(1, m), random_scalar(rng, field, nonzero=True))
    i, j = rng.sample(range(1, m + 1), 2)
    return AddMul(i, random_scalar(rng, field), j)


def random_script(rng, field, m, length=10) -> RowScript:
    return RowScript(random_rowop(rng, field, m) for _ in range(length))


def random_invertible(rng, field, n, length=10) -> Matrix:
    """Product of `length` random elementary operations applied to I."""
    return Matrix.identity(field, n).apply(random_script(rng, field, n, length))


def random_singular(rng, field, n) -> Matrix:
    """Guaranteed rank-deficient: invertible @ (one row zeroed) @ invertible."""
    dead_row = rng.randrange(n)
    middle = Matrix(
        field,
        [
            [field.zero()] * n if i == dead_row else [random_scalar(rng, field) for _ in range(n)]
            for i in range(n)
        ],
    )
    return random_invertible(rng, field, n) @ middle @ random_invertible(rng, field, n)


def random_of_rank(rng, field, n, rank) -> Matrix:
    """Exactly rank `rank`: invertible @ diag(1 .. 1, 0 .. 0) @ invertible."""
    one, zero = field.one(), field.zero()
    middle = Matrix(field, [[one if i == j < rank else zero for j in range(n)] for i in range(n)])
    return random_invertible(rng, field, n) @ middle @ random_invertible(rng, field, n)


def random_strictly_triangular(rng, field, n, upper=True) -> Matrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            inside = j > i if upper else j < i
            row.append(random_scalar(rng, field) if inside else field.zero())
        rows.append(row)
    return Matrix(field, rows)


def is_strictly_lower(matrix: Matrix) -> bool:
    return all(
        e.is_zero() for i, row in enumerate(matrix.rows) for j, e in enumerate(row) if j >= i
    )


def is_strictly_upper(matrix: Matrix) -> bool:
    return all(
        e.is_zero() for i, row in enumerate(matrix.rows) for j, e in enumerate(row) if j <= i
    )


def naive_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Triple-loop product; the oracle never touches Matrix.__matmul__."""
    assert a.ncols == b.nrows
    rows = []
    for i in range(1, a.nrows + 1):
        row = []
        for j in range(1, b.ncols + 1):
            acc = a.field.zero()
            for k in range(1, a.ncols + 1):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return Matrix(a.field, rows)


def hand_apply(rows, ops):
    """Row operations replayed by the bare hand rule on plain Fractions.

    ops: ("swap", i, j) | ("scale", i, c) | ("addmul", i, c, j), 1-based.
    """
    rows = [[Fraction(e) for e in row] for row in rows]
    for op in ops:
        if op[0] == "swap":
            _, i, j = op
            rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
        elif op[0] == "scale":
            _, i, c = op
            rows[i - 1] = [Fraction(c) * e for e in rows[i - 1]]
        else:
            _, i, c, j = op
            rows[i - 1] = [e + Fraction(c) * f for e, f in zip(rows[i - 1], rows[j - 1])]
    return rows


def reference_verify(cert) -> None:
    """The reduce-and-power certificate check, kept as a differential oracle.

    Re-reduces both matrices and powers N; accepts any nilpotent mate of the
    right index, where WitnessCertificate.verify() accepts only the pivot-shift
    form that witness() emits.
    """
    n = cert.source.nrows
    if not 1 <= cert.index <= n:
        raise VerificationError(f"index {cert.index} outside 1..{n}")
    if cert.index != n - cert.nullity + 1:
        raise VerificationError(
            f"index {cert.index} != n - nullity + 1 = {n - cert.nullity + 1}"
        )
    prev_power = cert.nilpotent ** (cert.index - 1)
    if not (prev_power @ cert.nilpotent).is_zero():
        raise VerificationError(f"N^{cert.index} is not zero")
    if prev_power.is_zero():
        raise VerificationError(f"N^{cert.index - 1} already vanishes")
    if cert.source.rref().rref != cert.rref_common:
        raise VerificationError("input RREF differs from the recorded common RREF")
    if cert.nilpotent.rref().rref != cert.rref_common:
        raise VerificationError("nilpotent RREF differs from the recorded common RREF")
    if cert.source.apply(cert.script_m_to_n) != cert.nilpotent:
        raise VerificationError("script does not replay the input to the nilpotent matrix")
    # rref_common is a checked RREF by now, so its leading entries mark the pivots
    rows = [row for row in cert.rref_common.rows if any(row)]
    leads = {next(j for j, e in enumerate(row) if e) for row in rows}
    free = [j for j in range(n) if j not in leads]
    vectors = cert.kernel.vectors
    if len(vectors) != cert.nullity or len(free) != cert.nullity:
        raise VerificationError(
            f"{len(vectors)} kernel vectors and {len(free)} free columns "
            f"for nullity {cert.nullity}"
        )
    units = Matrix.identity(cert.source.field, cert.nullity).rows
    for v, unit in zip(vectors, units):
        if not (cert.source @ v).is_zero() or not (cert.nilpotent @ v).is_zero():
            raise VerificationError("kernel basis vector not annihilated by both matrices")
        if tuple(v.entries[f] for f in free) != unit:
            raise VerificationError("kernel vector is not the special solution of its column")
