"""Constructing a nilpotent matrix row-equivalent to any singular square
matrix, with a machine-checkable certificate.

The construction: take the special-solution kernel basis k_1 ... k_l of the
input M, extend it by standard basis columns z_1 ... z_{n-l} at the pivot
positions, and build the shift map

    z_1 -> z_2 -> ... -> z_{n-l} -> k_1 -> 0,      k_j -> 0 for all j.

On this basis the map needs no inverse: N = C @ R, with R = rref(M) and
C = [z_2 ... z_{n-l}, k_1, 0 ... 0]. N is nilpotent of index n - l + 1 and
shares its null space with M, hence (null space determines the reduced
form) N and M have the same RREF and are row equivalent. The certificate
bundles N, its index, the shared kernel, the common RREF, and an explicit
elementary-row script taking M to N; every claim is re-checked directly.

The module also carries the classical 3x3 catalog of reduced forms and the
hand-derived nilpotent mates of its rank-1 and rank-2 representatives,
which double as regression fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidParams,
    LinalgError,
    NonSingular,
    NotRowEquivalent,
    NotSquare,
    SingularBasis,
    SingularMatrix,
    VerificationError,
)
from .fields import Q, Field, Scalar
from .kernel import (
    ExtensionBasis,
    KernelBasis,
    extend_to_basis,  # not called here; the benchmark tracer wraps it as this module's attribute
    special_solutions,
)
from .matrix import AddMul, Matrix, RowScript, Scale, Swap, is_rref


@dataclass(frozen=True)
class WitnessCertificate:
    """Evidence that `nilpotent` is a nilpotent matrix row-equivalent to `source`."""

    source: Matrix
    nilpotent: Matrix
    index: int
    nullity: int
    kernel: KernelBasis
    rref_common: Matrix
    script_m_to_n: RowScript

    def verify(self) -> None:
        """Re-check every certificate claim; raise VerificationError on failure.

        No reduction, power or inverse is taken: the shift structure is read
        off the certificate. With R = rref_common, its pivots p_1..p_r and
        free columns f_1..f_l (read off R's nonzero rows) and K = k_1..k_l
        the kernel vectors, the checks are:

        - 1 <= index <= n and index = n - nullity + 1;
        - nilpotent and rref_common are n x n over the source's field, and
          every kernel vector is n x 1;
        - R is in RREF with exactly r = n - nullity nonzero rows;
        - K holds exactly l vectors and k_j is the special solution of f_j
          over the source's field: 1 at f_j, 0 at the other free columns,
          -R[i][f_j] at p_i;
        - N e_{p_i} = e_{p_{i+1}} for i < r, N e_{p_r} = k_1, and N K = 0;
        - replaying the script on the source gives N.

        The basis {e_{p_i}} with K is unit triangular after a permutation, so
        the images make N similar to one Jordan block J_{r+1} beside an
        (l - 1)-square zero block: nilpotent of index exactly r + 1, rank r,
        null space span K = null R, hence rref(N) = R. Every script op is
        invertible, so the replay makes the source row equivalent to N and
        rref(source) = R as well. Cost: O(n(r + l) + n^2 l) entry reads plus
        one script replay. Only the pivot-shift form that witness() emits is
        accepted; any other nilpotent mate is rejected, even one that is row
        equivalent to the source.
        """
        n = self.source.nrows
        field = self.source.field
        if not 1 <= self.index <= n:
            raise VerificationError(f"index {self.index} outside 1..{n}")
        if self.index != n - self.nullity + 1:
            raise VerificationError(
                f"index {self.index} != n - nullity + 1 = {n - self.nullity + 1}"
            )
        for name, m in (("nilpotent", self.nilpotent), ("recorded RREF", self.rref_common)):
            if m.field != field or (m.nrows, m.ncols) != (n, n):
                raise VerificationError(f"{name} is {m.nrows}x{m.ncols} over {m.field}")
        vectors = self.kernel.vectors
        if len(vectors) != self.nullity:
            raise VerificationError(f"{len(vectors)} kernel vectors for nullity {self.nullity}")
        for v in vectors:
            if (v.nrows, v.ncols) != (n, 1):
                raise VerificationError(f"kernel vector is {v.nrows}x{v.ncols}, not {n}x1")
        if not is_rref(self.rref_common):
            raise VerificationError("recorded RREF is not in reduced row echelon form")
        rows = [row for row in self.rref_common.rows if any(row)]
        if len(rows) != n - self.nullity:
            raise VerificationError(
                f"recorded RREF has rank {len(rows)}, not n - nullity = {n - self.nullity}"
            )
        pivots = [next(j for j, e in enumerate(row) if e) for row in rows]
        free = [j for j in range(n) if j not in pivots]
        one, zero = field.one(), field.zero()
        for f, v in zip(free, vectors):
            special = [zero] * n
            special[f] = one
            for p, row in zip(pivots, rows):
                special[p] = -row[f]
            if v.entries != tuple(special):
                raise VerificationError("kernel vector is not the special solution of its column")
        # the chain e_{p_1} -> ... -> e_{p_r} -> k_1, read as columns of N
        chain = [tuple(one if i == p else zero for i in range(n)) for p in pivots[1:]]
        chain.append(vectors[0].entries)
        for p, image in zip(pivots, chain):
            if tuple(row[p] for row in self.nilpotent.rows) != image:
                raise VerificationError("nilpotent does not shift the pivot columns in a chain")
        for v in vectors:
            support = [(c, e) for c, e in enumerate(v.entries) if e]
            if any(sum((row[c] * e for c, e in support), zero) for row in self.nilpotent.rows):
                raise VerificationError("kernel vector not annihilated by the nilpotent matrix")
        try:
            replayed = self.source.apply(self.script_m_to_n)
        except LinalgError as exc:
            raise VerificationError(f"script does not replay on the input: {exc}") from exc
        if replayed != self.nilpotent:
            raise VerificationError("script does not replay the input to the nilpotent matrix")

    def to_report(self) -> str:
        """Labeled text report; matrices and script use the standard file formats."""
        from .textio import matrix_to_text, script_to_text

        parts = [
            "[input]",
            matrix_to_text(self.source),
            "[nilpotent]",
            matrix_to_text(self.nilpotent),
            "[index]",
            str(self.index),
            "[nullity]",
            str(self.nullity),
            "[rref]",
            matrix_to_text(self.rref_common),
            "[script]",
        ]
        script_text = script_to_text(self.script_m_to_n)
        if script_text:
            parts.append(script_text)
        return "\n".join(parts)


def build_shift_nilpotent(basis: ExtensionBasis) -> Matrix:
    """The matrix of the shift map on an extension basis.

    With basis columns B = [z_1 ... z_{n-l}, k_1 ... k_l], the image columns
    are C = [z_2 ... z_{n-l}, k_1, 0 ... 0] and the map is N = C B^-1. The
    prescribed images (N z_i = z_{i+1}, N z_{n-l} = k_1, N k_j = 0) are
    re-verified by direct multiplication before returning. This general form
    takes any ExtensionBasis; witness() uses the pivot basis, where N = C @ R.
    """
    z = basis.z_vectors
    ks = basis.kernel.vectors
    if not ks:
        raise InvalidParams("kernel is empty; a nonsingular matrix has no shift witness")
    if not z:
        raise InvalidParams("kernel spans the space; the shift construction needs l < n")
    field = z[0].field
    n = z[0].nrows
    zero_col = (field.zero(),) * n
    image_cols = [v.entries for v in z[1:]] + [ks[0].entries] + [zero_col] * len(ks)
    images = Matrix.from_columns(field, image_cols)
    assembled = basis.assembled()
    try:
        shift = images @ assembled.inverse()
    except SingularMatrix as exc:  # unreachable for a valid ExtensionBasis
        raise SingularBasis(str(exc)) from exc
    zero_vec = Matrix.column(field, zero_col)
    prescribed = list(z[1:]) + [ks[0]] + [zero_vec] * len(ks)
    for src, image in zip(z + ks, prescribed):
        if shift @ src != image:
            raise VerificationError("shift matrix does not realize the prescribed images")
    return shift


def nilpotent_index(matrix: Matrix) -> int | None:
    """Smallest k >= 1 with M^k = 0, or None when M is not nilpotent.

    The search stops at k = n: by Cayley-Hamilton a nilpotent n x n matrix
    already satisfies M^n = 0, so no larger exponent can succeed.
    """
    if not matrix.is_square:
        raise NotSquare(f"nilpotency of a {matrix.nrows}x{matrix.ncols} matrix")
    n = matrix.nrows
    power = matrix
    for k in range(1, n + 1):
        if power.is_zero():
            return k
        if k < n:
            power = power @ matrix
    return None


def witness(matrix: Matrix) -> WitnessCertificate:
    """Certificate for: this singular matrix is row equivalent to a nilpotent one.

    N = C @ R is the shift matrix on the pivot-extended kernel basis, read off
    the one reduction R of M; nilpotent of index n - l + 1 (rank 0 gives C = 0,
    N = 0, index 1). All certificate invariants are verified before returning.
    """
    if not matrix.is_square:
        raise NotSquare(f"witness of a {matrix.nrows}x{matrix.ncols} matrix")
    n = matrix.nrows
    reduced = matrix.rref()
    if reduced.rank == n:
        raise NonSingular(
            f"matrix has full rank {n}: only a singular matrix is row equivalent "
            "to a nilpotent matrix"
        )
    kern = special_solutions(reduced)
    # C B^-1 = C @ R: rows 1..r of B^-1 are R's nonzero rows; C is 0 past column r
    units = Matrix.identity(matrix.field, n).rows
    heads = [units[p - 1] for p in reduced.pivot_cols[1:]] + [kern.vectors[0].entries]
    zero_col = (matrix.field.zero(),) * n
    images = Matrix.from_columns(matrix.field, heads[: reduced.rank] + [zero_col] * kern.nullity)
    nilpotent = images @ reduced.rref
    certificate = WitnessCertificate(
        source=matrix,
        nilpotent=nilpotent,
        index=n - kern.nullity + 1,
        nullity=kern.nullity,
        kernel=kern,
        rref_common=reduced.rref,
        script_m_to_n=reduced.script + nilpotent.rref().script.inverse(),
    )
    certificate.verify()
    return certificate


def witness_script(a: Matrix, b: Matrix) -> RowScript:
    """An explicit elementary-row script taking a to b.

    Composes a's reduction script with the inverse of b's: a -> RREF -> b.
    Raises NotRowEquivalent when the reduced forms differ.
    """
    ra = a.rref()
    rb = b.rref()
    if ra.rref != rb.rref:
        raise NotRowEquivalent("matrices have different reduced forms")
    return ra.script + rb.script.inverse()


def row_equivalent(a: Matrix, b: Matrix) -> bool:
    """Whether the two matrices are related by elementary row operations."""
    if a.field != b.field:
        raise FieldMismatch(f"comparing {a.field} and {b.field} matrices")
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatch(
            f"comparing {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols} matrices"
        )
    return a.rref().rref == b.rref().rref


# ---------------------------------------------------------------------------
# The 3x3 catalog of reduced forms and their hand-derived nilpotent mates.
# ---------------------------------------------------------------------------

# (rank, form) -> parameter names the form uses
_CATALOG_PARAMS = {
    (1, 1): ("a", "b"),
    (1, 2): ("c",),
    (1, 3): (),
    (2, 1): ("a", "b"),
    (2, 2): ("a",),
    (2, 3): (),
}


def _coerce_params(field_hint, **params) -> tuple[Field, dict[str, Scalar]]:
    field = field_hint
    for value in params.values():
        if isinstance(value, Scalar):
            if field is None:
                field = value.field
            elif value.field != field:
                raise FieldMismatch("catalog parameters over different fields")
    if field is None:
        field = Q
    return field, {name: field.scalar(value) for name, value in params.items()}


def catalog_3x3(rank: int, form: int, a=None, b=None, c=None) -> Matrix:
    """The displayed 3x3 reduced forms of rank 1 and rank 2.

    Forms are numbered left to right within each rank. Exactly the
    parameters that appear in the chosen form must be supplied:
    (1,1) uses a,b; (1,2) uses c; (2,1) uses a,b; (2,2) uses a;
    forms (1,3) and (2,3) are parameter-free.
    """
    key = (rank, form)
    if key not in _CATALOG_PARAMS:
        raise InvalidParams(f"no catalog entry for rank {rank}, form {form}")
    wanted = _CATALOG_PARAMS[key]
    given = {name: value for name, value in (("a", a), ("b", b), ("c", c)) if value is not None}
    if tuple(given) != wanted:
        raise InvalidParams(
            f"rank {rank} form {form} takes parameters {list(wanted)}, got {list(given)}"
        )
    field, p = _coerce_params(None, **given)
    one, zero = field.one(), field.zero()
    if key == (1, 1):
        rows = [[one, p["a"], p["b"]], [zero] * 3, [zero] * 3]
    elif key == (1, 2):
        rows = [[zero, one, p["c"]], [zero] * 3, [zero] * 3]
    elif key == (1, 3):
        rows = [[zero, zero, one], [zero] * 3, [zero] * 3]
    elif key == (2, 1):
        rows = [[one, zero, p["a"]], [zero, one, p["b"]], [zero] * 3]
    elif key == (2, 2):
        rows = [[one, p["a"], zero], [zero, zero, one], [zero] * 3]
    else:
        rows = [[zero, one, zero], [zero, zero, one], [zero] * 3]
    result = Matrix(field, rows)
    if not is_rref(result):  # structural post-check, never expected to fire
        raise VerificationError("catalog form failed the RREF structural check")
    return result


def _pair(a, b) -> tuple[Field, Scalar, Scalar]:
    field, p = _coerce_params(None, a=a, b=b)
    return field, p["a"], p["b"]


def rank2_nilpotent(a, b) -> Matrix:
    """The nilpotent mate of the generic rank-2 form [[1,0,a],[0,1,b],[0,0,0]].

    Valid for a != 0 (the entries divide by a); the a = 0 companion is
    rank2_nilpotent_a0. Nilpotent of index 3, with the same RREF as the
    generic form for the same parameters.
    """
    field, sa, sb = _pair(a, b)
    if sa.is_zero():
        raise DivisionByZero("the generic rank-2 mate needs a != 0; use rank2_nilpotent_a0")
    one = field.one()
    return Matrix(
        field,
        [
            [-one, field.zero(), -sa],
            [-(sb / sa), field.zero(), -sb],
            [-((sb - one) / sa), one, one],
        ],
    )


def rank2_nilpotent_script_candidates(a, b) -> tuple[RowScript, RowScript]:
    """Both sign variants of the reduction script from the generic rank-2 form.

    The first three operations are fixed: swap rows 2 and 3, subtract (b/a)
    of row 1 from row 2, negate row 1. The final operation adds a multiple
    of row 2 to row 3 whose sign is ambiguous in the classical presentation;
    returns (minus variant, plus variant) with coefficients -(b-1)/b and
    +(b-1)/b. Needs a != 0 and b != 0.
    """
    field, sa, sb = _pair(a, b)
    if sa.is_zero() or sb.is_zero():
        raise DivisionByZero("the reduction script needs a != 0 and b != 0")
    one = field.one()
    base = (
        Swap(2, 3),
        AddMul(2, -(sb / sa), 1),
        Scale(1, -one),
    )
    coeff = (sb - one) / sb
    minus = RowScript(base + (AddMul(3, -coeff, 2),))
    plus = RowScript(base + (AddMul(3, coeff, 2),))
    return minus, plus


def rank2_nilpotent_script(a, b) -> RowScript:
    """The sign variant that actually maps the generic rank-2 form to its mate.

    Resolved by replay: each candidate is applied to the form and compared
    with rank2_nilpotent(a, b). Exactly one must match (when b = 1 the final
    coefficient vanishes and the variants coincide).
    """
    minus, plus = rank2_nilpotent_script_candidates(a, b)
    field, sa, sb = _pair(a, b)
    start = catalog_3x3(2, 1, a=sa, b=sb)
    target = rank2_nilpotent(sa, sb)
    matches = [s for s in (minus, plus) if start.apply(s) == target]
    if len(matches) == 1:
        return matches[0]
    if len(matches) == 2 and minus == plus:
        return plus
    raise VerificationError(
        f"{len(matches)} of 2 sign variants reproduce the nilpotent mate; cannot resolve"
    )


def rank2_nilpotent_a0_candidates(b) -> tuple[Matrix, Matrix]:
    """Both sign variants of the a = 0 companion [[0,0,0],[1,-b,±b²],[0,1,b]].

    Returns (plus variant, minus variant); rank2_nilpotent_a0 resolves which
    one actually shares its null space with [[1,0,0],[0,1,b],[0,0,0]].
    """
    field, p = _coerce_params(None, b=b)
    sb = p["b"]
    one, zero = field.one(), field.zero()
    bsq = sb * sb
    plus = Matrix(field, [[zero] * 3, [one, -sb, bsq], [zero, one, sb]])
    minus = Matrix(field, [[zero] * 3, [one, -sb, -bsq], [zero, one, sb]])
    return plus, minus


def rank2_nilpotent_a0(b) -> Matrix:
    """The nilpotent mate of the rank-2 form with a = 0.

    The sign of the (2, 3) entry is resolved by the null-space oracle: the
    returned matrix annihilates the kernel of [[1,0,0],[0,1,b],[0,0,0]] and
    shares its RREF. At b = 0 both signs collapse to the pure shift matrix.
    """
    from .kernel import same_null_space

    field, p = _coerce_params(None, b=b)
    sb = p["b"]
    target = catalog_3x3(2, 1, a=field.zero(), b=sb)
    plus, minus = rank2_nilpotent_a0_candidates(sb)
    matches = [m for m in (plus, minus) if same_null_space(m, target)]
    if len(matches) == 1:
        return matches[0]
    if len(matches) == 2 and plus == minus:
        return plus
    raise VerificationError(
        f"{len(matches)} of 2 sign variants share the null space; cannot resolve"
    )
