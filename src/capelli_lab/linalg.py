"""Exact linear algebra over cyclotomic scalars.

Plain Gaussian elimination; every pivot decision is an exact zero test,
so ranks and inverses are certificates rather than estimates.
"""

from __future__ import annotations

from .cyclo import Cyclo


class SingularMatrix(ValueError):
    """Matrix inversion requested for a singular matrix."""


def identity_matrix(m: int, conductor: int) -> list[list[Cyclo]]:
    one = Cyclo.one(conductor)
    zero = Cyclo.zero(conductor)
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _gauss_jordan(rows, ncols) -> int:
    """Reduce `rows` in place to reduced row echelon form over the first
    `ncols` columns; returns the number of pivots."""
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def rank(matrix) -> int:
    """Rank of a matrix of Cyclo entries (all sharing one conductor)."""
    if not matrix:
        return 0
    return _gauss_jordan([list(r) for r in matrix], len(matrix[0]))


def p_family(m: int, conductor: int) -> list[tuple[list[list[Cyclo]], list[list[Cyclo]]]]:
    """Permutation matrices plus one transvection, as (P, P^-1) pairs with
    each inverse from `mat_inverse`: generates the general linear group,
    so conjugation checks over this family are meaningful coverage
    without random search."""
    from itertools import permutations

    family = []
    one = Cyclo.one(conductor)
    zero = Cyclo.zero(conductor)
    for perm in permutations(range(m)):
        family.append([[one if perm[i] == j else zero for j in range(m)] for i in range(m)])
    if m >= 2:
        transvection = [[one if i == j else zero for j in range(m)] for i in range(m)]
        transvection[0][1] = one
        family.append(transvection)
    return [(p, mat_inverse(p)) for p in family]


def mat_inverse(matrix) -> list[list[Cyclo]]:
    """Exact inverse; raises SingularMatrix when no inverse exists."""
    m = len(matrix)
    conductor = matrix[0][0].conductor
    eye = identity_matrix(m, conductor)
    aug = [list(row) + eye[i] for i, row in enumerate(matrix)]
    if _gauss_jordan(aug, m) < m:
        raise SingularMatrix("matrix has no inverse")
    return [row[m:] for row in aug]
