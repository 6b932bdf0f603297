"""Determinants over noncommutative rings, and polynomials in a central z.

The column and double determinants share one prefix-sharing expansion
(`_expand`): the terms of each permutation sum are grown one factor at a
time from the left, and every ordered prefix that uses the same rows and
columns is summed before the next factor is multiplied on.  Factors stay
in exactly the defining order; no step assumes the entries commute.
Entries may be anything ring-like: they must support +, -, *, unary -,
bool (nonzero test), ==, and scalar multiplication by ints and Fractions
from the left.

The shifted, conjugated and double-determinant builders are written once
here for any such ring, and serve the group algebra (capelli) and the
Weyl algebra (weyl) alike: the Capelli element of an irrep and the
operator Capelli determinant are the same `capelli_zpoly` of different
matrices, their conjugation checks the same `conjugated_capelli_zpolys`,
and their row and double determinant variants the same `shift_variants`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations


class SizeLimit(ValueError):
    """Matrix size beyond the enumeration limit."""


SIZE_LIMIT = 6


def _check_size(matrix):
    m = len(matrix)
    if m > SIZE_LIMIT:
        raise SizeLimit(f"matrix size {m} exceeds limit {SIZE_LIMIT}")
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix is not square")
    return m


def _expand(matrix, free_columns, diagonal_terms=None):
    """Sum over permutations s (and, with free_columns, t) of
    sgn(s) [sgn(t)] * a[s(0)][t(0)] * ... * a[s(m-1)][t(m-1)], where t is
    the identity unless free_columns; with diagonal_terms, factor k of a
    diagonal entry is a[r][r] + diagonal_terms[k].

    A state after k factors is (rows used, columns used), as bit masks,
    and holds the signed sum of every ordered k-factor prefix that uses
    exactly those rows and columns.  Step k multiplies each state's sum
    on the right by one entry of an unused row (and an unused column, or
    column k) and adds it into the state that entry leads to.  Every term
    of the full sum extends exactly one prefix per level, so the only
    ring law used is right distributivity, (x + y) * z = x*z + y*z; the
    factor order of each term is untouched.

    The sign is kept incrementally: appending row r after the rows used
    adds #{used rows > r} inversions to s, and appending column c adds
    #{used columns > c} to t.  Level k holds C(m, k) states, each extended
    by m - k entries (C(m, k)^2 and (m - k)^2 with free columns), and only
    levels k >= 1 multiply.
    """
    m = _check_size(matrix)
    if diagonal_terms is not None and len(diagonal_terms) != m:
        raise ValueError("need one diagonal term per factor position")
    level = {(0, 0): None}
    for k in range(m):
        entries = matrix
        if diagonal_terms is not None:
            shift = diagonal_terms[k]
            entries = [[entry + shift if i == j else entry for j, entry in enumerate(row)]
                       for i, row in enumerate(matrix)]
        following = {}
        for (rows, cols), acc in level.items():
            for c in range(m) if free_columns else (k,):
                if cols >> c & 1:
                    continue
                cols_after = cols | 1 << c
                col_odd = (cols >> c).bit_count() & 1
                for r in range(m):
                    if rows >> r & 1:
                        continue
                    entry = entries[r][c]
                    term = entry if acc is None else acc * entry
                    key = (rows | 1 << r, cols_after)
                    odd = ((rows >> r).bit_count() + col_odd) & 1
                    prev = following.get(key)
                    if prev is None:
                        following[key] = -term if odd else term
                    else:
                        following[key] = prev - term if odd else prev + term
        level = following
    (total,) = level.values()
    return total


def coldet(matrix):
    """Column determinant: sum of sgn(s) * a[s(1)][1] * a[s(2)][2] * ...

    Expanded with column k forced at step k, so it costs the sum over
    1 <= k < m of C(m, k) * (m - k) ring products: 2, 9 and 28 at
    m = 2, 3, 4, against (m - 1) * m! for the permutation sum."""
    return _expand(matrix, False)


def rowdet(matrix):
    """Row determinant: sum of sgn(s) * a[1][s(1)] * a[2][s(2)] * ...,
    which is the column determinant of the transpose."""
    m = _check_size(matrix)
    return coldet([[row[j] for row in matrix] for j in range(m)])


def _double_sum(matrix, diagonal_terms):
    total = _expand(matrix, True, diagonal_terms)
    return Fraction(1, math.factorial(len(matrix))) * total


def doubledet(matrix):
    """Double determinant: (1/m!) * sum over (s, t) of
    sgn(st) * a[s(1)][t(1)] * ... * a[s(m)][t(m)], factors in index order.

    Expanded with rows and columns both free, so it costs the sum over
    1 <= k < m of (C(m, k) * (m - k))^2 ring products: 4, 45 and 304 at
    m = 2, 3, 4, against (m - 1) * m!^2 for the sum over pairs.
    Requires the entries to admit exact division by m! (Fraction action).
    """
    return _double_sum(matrix, None)


def positioned_doubledet(matrix, diagonal_terms):
    """Double determinant of a matrix with factor-position diagonal shifts:
    (1/m!) * sum over (s, t) of sgn(st) * prod over i of
    (a[s(i)][t(i)] + delta_{s(i), t(i)} * diagonal_terms[i]).

    For column and row determinants, adding a diagonal matrix and shifting
    the i-th factor are the same thing, because the (i, i) entry can only
    occur as the i-th factor.  In the symmetrized double sum a diagonal
    entry wanders through every factor position, so the two readings
    genuinely differ; this is the per-position one.
    """
    return _double_sum(matrix, diagonal_terms)


# -- diagonal shift patterns ------------------------------------------------


def natural_shift(m: int) -> list[int]:
    """Diagonal (m-1, m-2, ..., 0) as used with the column determinant."""
    return list(range(m - 1, -1, -1))


def natural_star(m: int) -> list[int]:
    """Diagonal (0, 1, ..., m-1) as used with the row determinant."""
    return list(range(m))


def natural_sigma(m: int, sigma) -> list[int]:
    """Diagonal (sigma(m), sigma(m-1), ..., sigma(1)) for sigma in S_m,
    given in one-line notation on 1..m."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of 1..{m}: {sigma}")
    return [sigma[m - 1 - i] for i in range(m)]


# -- polynomials in a central variable ---------------------------------------


class ZPoly:
    """Polynomial in a central variable z over an arbitrary ring.

    Coefficients keep their ring's multiplication order; z itself
    commutes with everything.  Trailing zero coefficients are trimmed so
    equality is coefficient-wise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def constant(value) -> "ZPoly":
        return ZPoly([value])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, power: int):
        return self.coeffs[power] if power < len(self.coeffs) else None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        out = []
        for i in range(max(len(a), len(b))):
            if i >= len(a):
                out.append(b[i])
            elif i >= len(b):
                out.append(a[i])
            else:
                out.append(a[i] + b[i])
        return ZPoly(out)

    def __neg__(self):
        return ZPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZPoly([])
        slots: list = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                prod = a * b
                k = i + j
                slots[k] = prod if slots[k] is None else slots[k] + prod
        if all(s is None for s in slots):
            return ZPoly([])
        return ZPoly(_fill(slots))

    def __rmul__(self, scalar):
        return ZPoly([scalar * c for c in self.coeffs])

    def map_coeffs(self, fn) -> "ZPoly":
        return ZPoly([fn(c) for c in self.coeffs])

    def shift(self, c) -> "ZPoly":
        """P(z + c) for a central scalar c, by repeated synthetic division
        (Taylor shift): pass k rewrites a_j += c * a_(j+1) for j from the
        top down to k, so only scalar multiples and sums of coefficients
        are formed, never a ring product."""
        if not c:
            return self
        coeffs = list(self.coeffs)
        for k in range(len(coeffs) - 1):
            for j in range(len(coeffs) - 2, k - 1, -1):
                coeffs[j] = coeffs[j] + c * coeffs[j + 1]
        return ZPoly(coeffs)

    def __call__(self, value):
        """Evaluate at a central scalar value."""
        if not self.coeffs:
            raise ValueError("cannot evaluate the empty zero polynomial without a ring zero")
        acc = self.coeffs[0]
        power = value
        for c in self.coeffs[1:]:
            acc = acc + power * c
            power = power * value
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            zpart = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            cs = str(c)
            if zpart and cs == "1":
                term = zpart
            elif zpart and cs == "-1":
                term = "-" + zpart
            elif zpart:
                term = f"({cs})*{zpart}" if (" " in cs) else f"{cs}*{zpart}"
            else:
                term = f"({cs})" if " " in cs else cs
            parts.append(term)
        return " + ".join(parts)

    def __repr__(self):
        return f"ZPoly({self})"


def _fill(slots):
    # replace gaps (all-cancelled powers) with a ring zero built from a neighbor
    witness = next(s for s in slots if s is not None)
    zero = witness - witness
    return [zero if s is None else s for s in slots]


# -- shifted matrices over any ring -------------------------------------------
#
# `one` is the ring's identity; a scalar s acts as s * one and entry * s.


def add_diagonal(matrix, diag, one):
    """M + diag(d_1 * one, ..., d_m * one); a zero shift leaves its entry as is."""
    return [
        [entry + diag[i] * one if i == j and diag[i] else entry for j, entry in enumerate(row)]
        for i, row in enumerate(matrix)
    ]


def minus_z(matrix, one):
    """M - zI with z-polynomial entries."""
    minus_one = -one
    return [
        [ZPoly([entry, minus_one]) if i == j else ZPoly([entry]) for j, entry in enumerate(row)]
        for i, row in enumerate(matrix)
    ]


def capelli_zpoly(matrix, alpha, one):
    """Column determinant of M + alpha * (m-1, ..., 0) - zI: the Capelli
    determinant, as a z-polynomial with coefficients in M's ring."""
    shift = [alpha * d for d in natural_shift(len(matrix))]
    return coldet(minus_z(add_diagonal(matrix, shift, one), one))


def conjugate(matrix, p, p_inv):
    """P * M * P^-1 for a scalar matrix P with inverse p_inv."""
    m = len(matrix)
    zero = matrix[0][0] - matrix[0][0]
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = zero
            for k in range(m):
                for l in range(m):
                    s = p[i][k] * p_inv[l][j]
                    if s:
                        acc = acc + matrix[k][l] * s
            row.append(acc)
        out.append(row)
    return out


def conjugated_capelli_zpolys(matrix, alpha, one, family):
    """capelli_zpoly of P * M * P^-1 for each (P, P^-1) pair in `family`,
    in order: the conjugation checks of both rings."""
    return [capelli_zpoly(conjugate(matrix, p, p_inv), alpha, one) for p, p_inv in family]


def shift_variants(matrix, alpha, one):
    """The determinant variants of the Capelli determinant, as
    z-polynomials at shift constant c = 0.

    Returns (row, variants).  row is the row determinant of
    M + alpha * (0, ..., m-1) - zI.  variants holds, for each sigma in S_m
    in `permutations` order, (sigma, positioned, attached): the double
    determinant with the shifts alpha * (sigma(m), ..., sigma(1)) and -z
    attached to the factor positions (`positioned_doubledet`), and the
    plain double determinant of M + alpha * diag(sigma(m), ..., sigma(1))
    - zI, with the shifts baked into the matrix.

    A shift constant c is read off these expansions, not expanded again:
    P_c(z) = P_0(z + c).  In every reading c enters only through the
    diagonal terms d_i * one - (z + c), every other factor is free of z
    and c, and z and c are central, so the expansion at c is the
    expansion at 0 with z + c written for z.  `ZPoly.shift` makes that
    substitution exactly.
    """
    m = len(matrix)

    def minus_z_shifted(shift):
        return minus_z(add_diagonal(matrix, shift, one), one)

    row = rowdet(minus_z_shifted([alpha * d for d in natural_star(m)]))
    lifted = [[ZPoly([entry]) for entry in line] for line in matrix]
    minus_one = -one
    variants = []
    for sigma in permutations(range(1, m + 1)):
        shift = [alpha * d for d in natural_sigma(m, sigma)]
        positioned = positioned_doubledet(lifted, [ZPoly([d * one, minus_one]) for d in shift])
        variants.append((sigma, positioned, doubledet(minus_z_shifted(shift))))
    return row, variants
