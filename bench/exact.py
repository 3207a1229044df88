"""The benchmark's own exact arithmetic, independent of nilwitness.

Matrices are lists of rows. Over Q (``p is None``) entries are ints or
Fractions; over GF(p) they are ints in [0, p). Nothing here imports the
library, so a defect in the library cannot hide itself from the checks
that use this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# Rank over Q is bounded below by the rank mod this prime, so a matrix of
# full rank mod RANK_PRIME has full rank over Q.
RANK_PRIME = (1 << 61) - 1

# Entries of the random rational factors lie in [-Q_ENTRY, Q_ENTRY].
Q_ENTRY = 9


def _reduce(row, p):
    return [x % p for x in row] if p else row


def rref(rows, p):
    """Gauss-Jordan reduction; returns the reduced rows and 0-based pivot columns."""
    rows = [_reduce(list(r), p) for r in rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / Fraction(rows[r][c])
        rows[r] = _reduce([x * inv for x in rows[r]], p)
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = _reduce([x - f * y for x, y in zip(rows[i], rows[r])], p)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(rows, p):
    return len(rref(rows, p)[1])


def matmul(a, b, p):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(_reduce(acc, p))
    return out


def is_zero(rows) -> bool:
    return not any(x for row in rows for x in row)


def nilpotent_index(rows, p):
    """Smallest k >= 1 with rows^k = 0, or None; the search stops at k = n.

    Over Q the matrix is first scaled to integers by the lcm of its
    denominators, which changes no power's vanishing and avoids Fraction
    arithmetic in the product chain.
    """
    if p is None:
        d = lcm(*(Fraction(x).denominator for row in rows for x in row))
        rows = [[int(x * d) for x in row] for row in rows]
    power = rows
    for k in range(1, len(rows) + 1):
        if is_zero(power):
            return k
        power = matmul(power, rows, p)
    return None


def replay(rows, ops, p):
    """Apply ("swap", i, j), ("scale", i, c), ("addmul", i, c, j) ops; 1-based rows.

    Raises ValueError for an op that is not invertible or names a missing row.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    for op in ops:
        kind, i = op[0], op[1]
        j = op[2] if kind == "swap" else op[3] if kind == "addmul" else i
        if not (1 <= i <= m and 1 <= j <= m):
            raise ValueError(f"row index out of range in {op!r}")
        if kind == "swap":
            if i == j:
                raise ValueError(f"swap of a row with itself: {op!r}")
            rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
        elif kind == "scale":
            if not op[2]:
                raise ValueError(f"scale by zero: {op!r}")
            rows[i - 1] = _reduce([op[2] * x for x in rows[i - 1]], p)
        elif kind == "addmul":
            if i == j:
                raise ValueError(f"addmul of a row onto itself: {op!r}")
            c = op[2]
            rows[i - 1] = _reduce([x + c * y for x, y in zip(rows[i - 1], rows[j - 1])], p)
        else:
            raise ValueError(f"unknown op {op!r}")
    return rows


def parse_value(token: str, p):
    """A canonical scalar token: a reduced fraction over Q, a residue in [0, p) over GF(p)."""
    if p is None:
        value = Fraction(token)
        if str(value) != token:
            raise ValueError(f"non-canonical rational {token!r}")
        return value
    value = int(token)
    if not 0 <= value < p or str(value) != token:
        raise ValueError(f"non-canonical residue {token!r} mod {p}")
    return value


# ---- seeded inputs --------------------------------------------------------


def _random_rows(rng, m, n, p):
    if p is None:
        return [[rng.randint(-Q_ENTRY, Q_ENTRY) for _ in range(n)] for _ in range(m)]
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def full_rank_rows(rng, m, n, p):
    """A random m x n matrix of rank min(m, n), by rejection."""
    while True:
        rows = _random_rows(rng, m, n, p)
        if rank(rows, p or RANK_PRIME) == min(m, n):
            return rows


def exact_rank(rng, n, r, p):
    """A random n x n matrix of rank exactly r.

    It is A B with A an n x r and B an r x n matrix of rank r: the product
    P diag(I_r, 0) Q of two random invertible matrices, keeping only the
    columns of P and rows of Q that survive. The nullity n - r is therefore
    fixed by the caller, which a plain random product would not give (over
    GF(2) it often loses rank).
    """
    return matmul(full_rank_rows(rng, n, r, p), full_rank_rows(rng, r, n, p), p)


def non_nilpotent(rng, n, r, p):
    """A random n x n matrix A B of rank r that is not nilpotent.

    With B A invertible, (A B)^k = A (B A)^(k-1) B keeps rank r for every k.
    """
    while True:
        a = full_rank_rows(rng, n, r, p)
        b = full_rank_rows(rng, r, n, p)
        if rank(matmul(b, a, p), p or RANK_PRIME) == r:
            return matmul(a, b, p)
