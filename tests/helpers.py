"""Independent oracles for the test suite.

Everything here is deliberately naive and separate from the package
implementation: permutation composition from scratch, polynomial
reduction from scratch, group-table line checks as first written,
convolution straight off the definition, the Leibniz determinant and the
double determinant as permutation sums, a free-word ring, a direct
differential-action evaluator, irrep validation by one matrix
product per pair, and the determinant variants built directly at a shift
constant c.  Tests compare package output against these.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from capelli_lab import linalg
from capelli_lab.algebra import AlgebraElement
from capelli_lab.cyclo import Cyclo
from capelli_lab.groups import NotAGroup
from capelli_lab.irreps import E_matrix
from capelli_lab.ncdet import (
    ZPoly,
    add_diagonal,
    doubledet,
    minus_z,
    natural_sigma,
    natural_star,
    positioned_doubledet,
    rowdet,
)
from capelli_lab.reports import Report
from capelli_lab.weyl import WeylOp, build_generic, capelli_zpoly


# -- permutations (1-based one-line notation) --------------------------------


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[x] - 1] for x in range(len(p)))


def brute_closure(degree, generators):
    identity = tuple(range(1, degree + 1))
    elements = {identity}
    frontier = {identity}
    while frontier:
        nxt = set()
        for a in frontier:
            for g in generators:
                b = compose(a, g)
                if b not in elements:
                    elements.add(b)
                    nxt.add(b)
        frontier = nxt
    return elements


# -- integer/fraction polynomials (dense, constant first) ----------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    num = [Fraction(v) for v in num]
    den = [Fraction(v) for v in den]
    dd = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    quot = [Fraction(0)] * max(len(num) - dd, 1)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / den[-1]
        if c:
            quot[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def reduce_mod(poly, modulus):
    """Remainder of poly modulo a monic modulus, as Fractions."""
    _, rem = poly_divmod(list(poly), list(modulus))
    rem = list(rem) + [Fraction(0)] * (len(modulus) - 1 - len(rem))
    return [Fraction(v) for v in rem[: len(modulus) - 1]]


def _divmod_monic(num, den):
    # den monic; exact long division over the integers
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            quot[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_by_division(n):
    """Phi_n as x^n - 1 divided by Phi_d for each proper divisor d in turn."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_by_division(d))
            assert rem == [0]
    return tuple(num)


def zeta_power_coeffs(conductor, power, phi):
    """Coefficients of zeta^power in the power basis mod phi."""
    mono = [0] * (power % conductor) + [1]
    return reduce_mod(mono, phi)


# -- naive group-algebra convolution ----------------------------------------------


def naive_convolve(table, a, b, zero):
    n = len(table)
    out = [zero] * n
    for g in range(n):
        for h in range(n):
            out[table[g][h]] = out[table[g][h]] + a[g] * b[h]
    return out


# -- Leibniz determinant (field entries) --------------------------------------------


def leibniz_det(matrix):
    m = len(matrix)
    total = None
    for perm in permutations(range(m)):
        sign = _perm_sign(perm)
        term = matrix[perm[0]][0]
        for col in range(1, m):
            term = term * matrix[perm[col]][col]
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def double_sum_by_permutations(matrix, diagonal_terms=None):
    """(1/m!) * sum over (s, t) of sgn(st) * prod over i of a[s(i)][t(i)],
    factors in index order, term by term over all m!^2 pairs; with
    diagonal_terms, factor i of a diagonal entry also picks up
    diagonal_terms[i].  The double determinant as ncdet computed it
    before the prefix-sharing expansion."""
    m = len(matrix)
    total = None
    for sigma in permutations(range(m)):
        ssign = _perm_sign(sigma)
        for tau in permutations(range(m)):
            term = None
            for i in range(m):
                entry = matrix[sigma[i]][tau[i]]
                if diagonal_terms is not None and sigma[i] == tau[i]:
                    entry = entry + diagonal_terms[i]
                term = entry if term is None else term * entry
            if ssign * _perm_sign(tau) < 0:
                term = -term
            total = term if total is None else total + term
    return Fraction(1, math.factorial(m)) * total


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# -- free noncommutative words over the rationals -------------------------------------


class FreeWord:
    """Formal linear combinations of words in named symbols; the perfect
    ring for checking that determinant formulas respect factor order."""

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @staticmethod
    def symbol(name):
        return FreeWord({(name,): Fraction(1)})

    @staticmethod
    def const(value):
        return FreeWord({(): Fraction(value)}) if value else FreeWord()

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return FreeWord(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FreeWord({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FreeWord({w: c * other for w, c in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return FreeWord(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FreeWord({w: other * c for w, c in self.terms.items()})
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return "FreeWord(" + " + ".join(
            f"{c}*{''.join(w) or '1'}" for w, c in sorted(self.terms.items())
        ) + ")" if self.terms else "FreeWord(0)"


# -- direct differential action ---------------------------------------------------------


def act(op_terms, alpha, poly):
    """Apply sum of c * x^A d^B terms to {multidegree: coeff}, with d
    acting as alpha * d/dx; written independently of the package."""
    out = {}
    for (xdeg, ddeg), c in op_terms.items():
        for pdeg, pc in poly.items():
            if any(b > p for b, p in zip(ddeg, pdeg)):
                continue
            factor = Fraction(1)
            for b, p in zip(ddeg, pdeg):
                for step in range(b):
                    factor *= (p - step) * alpha
            new = tuple(p - b + a for p, b, a in zip(pdeg, ddeg, xdeg))
            out[new] = out.get(new, 0) + c * pc * factor
    return {k: v for k, v in out.items() if v}


# -- group axioms by exhaustion ------------------------------------------------------------


def brute_associative(table):
    """(a*b)*c == a*(b*c) for every triple: the full O(n^3) scan."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def table_lines_reference(table, from_file):
    """The shape, range and Latin-square checks of a group table as they
    stood before validation moved to one set per row: each entry through
    int() (after the file route's type check), a min/max range scan per
    row, then one set per row and per column, row i before column i.
    Returns the table as tuples or raises what that code raised."""
    if from_file and not all(isinstance(row, list) and {int}.issuperset(map(type, row))
                             for row in table):
        raise ValueError("field 'table' must be a list of rows of integers")
    n = len(table)
    rows = []
    for row in table:
        row = tuple(map(int, row))
        if len(row) != n or min(row) < 0 or max(row) >= n:
            raise NotAGroup("table is not n x n over 0..n-1")
        rows.append(row)
    table = tuple(rows)
    columns = tuple(zip(*table))
    for i in range(n):
        if len(set(table[i])) != n:
            raise NotAGroup("row is not a permutation", witness=i)
        if len(set(columns[i])) != n:
            raise NotAGroup("column is not a permutation", witness=i)
    return table


def matrix_product(a, b):
    """Row-by-column product using only the entries' own + and *."""
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for k in range(1, m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def brute_homomorphism(table, matrices):
    """rho(g*h) == rho(g) rho(h) for every pair (g, h)."""
    n = len(table)
    return all(
        matrix_product(matrices[g], matrices[h]) == matrices[table[g][h]]
        for g in range(n) for h in range(n)
    )


# -- irrep validation pair by pair ----------------------------------------------------------


def mat_conj_transpose(a):
    return [[a[j][i].conjugate() for j in range(len(a))] for i in range(len(a[0]))]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def validate_per_pair(irrep):
    """irreps.validate as one Cyclo matrix product per pair (g, s), s a
    generator, and per element for unitarity: the same report, witnesses
    included, reached without the coordinate lists."""
    report = Report()
    group = irrep.group
    mats = irrep.matrices
    n = group.order

    ident = linalg.identity_matrix(irrep.degree, irrep.conductor)
    report.add("identity-image", irrep.label, mat_eq(mats[group.identity], ident))

    witness = None
    for s in group.generators:
        for g in range(n):
            if not mat_eq(linalg.mat_mul(mats[g], mats[s]), mats[group.mul(g, s)]):
                witness = (group.element_names[g], group.element_names[s])
                break
        if witness:
            break
    report.add("homomorphism", irrep.label, witness is None,
               f"fails at pair {witness}" if witness else "")

    witness = None
    for g in range(n):
        if not mat_eq(linalg.mat_mul(mats[g], mat_conj_transpose(mats[g])), ident):
            witness = group.element_names[g]
            break
    report.add("unitarity", irrep.label, witness is None,
               f"fails at {witness}" if witness else "")

    norm = character_inner_product_per_element(irrep, irrep)
    report.add("irreducibility", irrep.label, norm == 1, f"<chi,chi> = {norm}")
    return report


def character_inner_product_per_element(a, b):
    """(1/|G|) * sum over g of chi_a(g) * conj(chi_b(g)), one Cyclo product per g."""
    group = a.group
    target = math.lcm(a.conductor, b.conductor)
    acc = Cyclo.zero(target)
    for g in range(group.order):
        acc = acc + a.character(g).promote(target) * b.character(g).promote(target).conjugate()
    return Fraction(1, group.order) * acc


# -- determinant variants built directly at a shift constant c -----------------------------
#
# ncdet.shift_variants expands each variant once, at c = 0, and its callers
# read c off by ZPoly.shift; these build each variant at c itself, as the
# package did before.


def positioned_shift_doubledet(matrix, diag, c, one):
    """positioned_doubledet of M over z-polynomials, factor position i of
    each diagonal entry picking up (d_i - c) * one - z."""
    lifted = [[ZPoly([entry]) for entry in row] for row in matrix]
    minus_one = -one
    return positioned_doubledet(lifted, [ZPoly([(d - c) * one, minus_one]) for d in diag])


def _algebra_one(irrep):
    return AlgebraElement.identity(irrep.group, irrep.conductor)


def shifted_matrix(irrep, diag, z_shift=Fraction(0)):
    """E + alpha*diag(...) - (z + z_shift) I over z-polynomials with
    algebra-element coefficients."""
    one = _algebra_one(irrep)
    shift = [irrep.alpha * d - z_shift for d in diag]
    return minus_z(add_diagonal(E_matrix(irrep), shift, one), one)


def positioned_double_det(irrep, sigma, shift_constant):
    """Double determinant of E with alpha * (sigma(m), ..., sigma(1))
    attached to the factor positions, each diagonal hit also picking up
    -(z + c)."""
    shift = [irrep.alpha * d for d in natural_sigma(irrep.degree, sigma)]
    return positioned_shift_doubledet(E_matrix(irrep), shift, Fraction(shift_constant),
                                      _algebra_one(irrep))


def matrix_attached_double_det(irrep, sigma, shift_constant):
    """Plain double determinant of E + alpha * diag(sigma(m), ..., sigma(1))
    - (z + c) I."""
    return doubledet(shifted_matrix(irrep, natural_sigma(irrep.degree, sigma),
                                    Fraction(shift_constant)))


def det_equalities_direct(m):
    """weyl.verify_det_equalities(m) with both double determinants built
    at c = 1 rather than read off the c = 0 expansion: the same rows."""
    report = Report()
    alpha = Fraction(1)
    ctx, _, _, pi = build_generic(m, alpha)
    one = WeylOp.one(ctx)

    cd = capelli_zpoly(pi, alpha)
    rd = rowdet(minus_z(add_diagonal(pi, [alpha * d for d in natural_star(m)], one), one))
    report.add("coldet-eq-rowdet", f"m={m}", cd == rd)

    for sigma in permutations(range(1, m + 1)):
        shift = [alpha * d for d in natural_sigma(m, sigma)]
        dd = positioned_shift_doubledet(pi, shift, Fraction(1), one)
        report.add("doubledet-positioned", f"m={m} sigma={sigma}", dd == cd,
                   "" if dd == cd else f"difference {dd - cd}")
        naive = doubledet(minus_z(add_diagonal(pi, [d - 1 for d in shift], one), one))
        report.measure(
            "doubledet-matrix", f"m={m} sigma={sigma}",
            "matches coldet" if naive == cd else f"differs by {naive - cd}",
        )
    return report
