"""Independent oracles for the test suite.

Everything here is deliberately naive and separate from the package
implementation: permutation composition from scratch, polynomial
reduction from scratch, group-table line checks row by row in plain
Python, group and irrep files read whole by json.loads, convolution
straight off the definition, the Leibniz determinant and the double
determinant as permutation sums, a free-word ring, a direct
differential-action evaluator, the catalog irreps from generator images
closed under matrix products, irrep validation by one matrix product per
pair, the determinant variants built directly at a shift
constant c, and an irrep's X and D as Weyl operators with one variable
per group element, with the relations checked by commutators.  Tests
compare package output against these; FAST_PATHS at the end names, for
each fast path of the package, its oracle and the test that compares
them.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from capelli_lab import linalg
from capelli_lab.algebra import AlgebraElement
from capelli_lab.catalog import catalog_group
from capelli_lab.cyclo import CONDUCTOR_LIMIT, Cyclo
from capelli_lab.groups import Group, NotAGroup, _greedy_generators, exponent
from capelli_lab.irreps import E_matrix, Irrep
from capelli_lab.ncdet import (
    ZPoly,
    add_diagonal,
    capelli_zpoly,
    doubledet,
    minus_z,
    natural_sigma,
    natural_star,
    positioned_doubledet,
    rowdet,
)
from capelli_lab.reports import Report
from capelli_lab.weyl import WeylContext, WeylOp, build_generic, commutator


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


def table_lines_reference(table):
    """The line checks of a group table one row at a time, as a file's
    rows arrive: the first row's length is the order n; each row must be a
    list of integers, then of length n over 0..n-1, then a permutation;
    an (n+1)-th row or a missing one is refused; then the columns, in
    index order.  Returns the table as tuples or raises what the package
    must raise."""
    rows = []
    n = None
    for i, row in enumerate(table):
        if not (isinstance(row, (list, tuple)) and all(type(v) is int for v in row)):
            raise ValueError("field 'table' must be a list of rows of integers")
        if n is None:
            n = len(row)
        if i == n or len(row) != n or not all(0 <= v < n for v in row):
            raise NotAGroup("table is not n x n over 0..n-1")
        if len(set(row)) != n:
            raise NotAGroup("row is not a permutation", witness=i)
        rows.append(tuple(row))
    if not rows:
        raise NotAGroup("empty table")
    if len(rows) != n:
        raise NotAGroup("table is not n x n over 0..n-1")
    for j in range(n):
        if len({row[j] for row in rows}) != n:
            raise NotAGroup("column is not a permutation", witness=j)
    return tuple(rows)


# -- the file route before tables were read row by row -------------------------------------
#
# json.loads over the whole file, then the checks of groups.group_from_dict
# and irreps.irrep_from_dict as they stood then: the differential tests in
# tests/test_jsonread.py compare the streamed route's decision and exit code
# with these.  Only the decision is kept: the group checks below run in
# any order, so the table checks are the naive ones.


def parent_load_group(raw, max_order):
    """The group of a file's bytes as the whole-file route built it; a
    refusal raises ValueError or KeyError (exit 2)."""
    try:
        data = json.loads(raw)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("table"), list):
        raise ValueError("a group is an object with a 'table' list")
    table = data["table"]
    n = len(table)
    if n > max_order:
        raise ValueError(f"group order {n} exceeds limit {max_order}")
    if type(data["order"]) is not int or n != data["order"]:
        raise ValueError("order")
    if not isinstance(data["name"], str):
        raise ValueError("name")
    names = data["elements"]
    if not (isinstance(names, list) and all(isinstance(e, str) for e in names)):
        raise ValueError("elements")
    rows = table_lines_reference(table)
    if len(names) != n:
        raise ValueError("names")
    identity = next((e for e in range(n) if rows[e] == tuple(range(n))
                     and all(rows[g][e] == g for g in range(n))), None)
    if identity is None:
        raise ValueError("identity")
    inverses = tuple(rows[g].index(identity) for g in range(n))
    if any(rows[inverses[g]][g] != identity for g in range(n)) or not brute_associative(rows):
        raise ValueError("inverse or associativity")
    return Group(data["name"], n, tuple(names), rows, identity, inverses,
                 _greedy_generators(rows))


def parent_load_irrep(raw, group):
    """The irrep of a file's bytes as the whole-file route read it; a
    refusal raises ValueError or KeyError (exit 3)."""
    try:
        data = json.loads(raw)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("matrices"), list):
        raise ValueError("an irrep is an object with a 'matrices' list")
    if not (isinstance(data.get("label"), str) and data.get("group") == group.name
            and len(data["matrices"]) == group.order):
        raise ValueError("label, group or count")
    declared, degree = data["conductor"], data["degree"]
    if not all(type(v) is int and v > 0 for v in (declared, degree)):
        raise ValueError("conductor or degree")
    target = math.lcm(declared, exponent(group))
    if target > CONDUCTOR_LIMIT:
        raise ValueError("conductor")
    matrices = []
    for mat in data["matrices"]:
        if not (isinstance(mat, list) and len(mat) == degree
                and all(isinstance(row, list) and len(row) == degree for row in mat)):
            raise ValueError("matrix block is not degree x degree")
        matrices.append(tuple(tuple(Cyclo.from_dict(v).promote(target) for v in row)
                              for row in mat))
    return Irrep(data["label"], group, degree, tuple(matrices))


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


# -- catalog irreps from generator images ---------------------------------------------------


def irrep_from_generators(group, label, gen_indices, gen_matrices, degree=1):
    """Extend generator images multiplicatively through the Cayley table,
    breadth first, with entries (Cyclo or rational) at the group exponent;
    `degree` is read off the images when there are any."""
    n = exponent(group)
    gens = [tuple(tuple(v.promote(n) if isinstance(v, Cyclo) else Cyclo.rational(v, n)
                        for v in row) for row in mat) for mat in gen_matrices]
    degree = len(gens[0]) if gens else degree
    one, zero = Cyclo.one(n), Cyclo.zero(n)
    mats = {group.identity: tuple(tuple(one if i == j else zero for j in range(degree))
                                  for i in range(degree))}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for t, tm in zip(gen_indices, gens):
                h = group.mul(g, t)
                if h not in mats:
                    mats[h] = matrix_product(mats[g], tm)
                    nxt.append(h)
        frontier = nxt
    assert len(mats) == group.order, f"generators reach {len(mats)} of {group.order} elements"
    return Irrep(str(label), group, degree, tuple(mats[g] for g in range(group.order)))


def catalog_by_generators(name):
    """The irreps of catalog group `name` from the generator images they
    were first written as, in catalog label order."""
    group = catalog_group(name)
    n = exponent(group)
    index = {element: g for g, element in enumerate(group.element_names)}

    def build(generators, rows):
        gens = [index[g] for g in generators]
        return [irrep_from_generators(group, label, gens, images) for label, *images in rows]

    if name == "C1":
        return build((), [("triv",)])
    if name.startswith("C"):
        cycle = "(" + "".join(map(str, range(1, n + 1))) + ")"
        return build((cycle,), [("triv" if k == 0 else f"chi{k}", [[Cyclo.zeta(n, k)]])
                                for k in range(n)])
    if name == "V4":
        return build(("(12)(34)", "(13)(24)"), [
            ("triv", [[1]], [[1]]), ("chi10", [[-1]], [[1]]),
            ("chi01", [[1]], [[-1]]), ("chi11", [[-1]], [[-1]])])
    if name == "S3":
        w = Cyclo.zeta(n, n // 3)  # a primitive cube root
        return build(("(123)", "(12)"), [
            ("triv", [[1]], [[1]]), ("sgn", [[1]], [[-1]]),
            ("std", [[w, 0], [0, w * w]], [[0, 1], [1, 0]])])
    if name == "D4":
        i = Cyclo.zeta(n, n // 4)
        return build(("(1234)", "(13)"), [
            ("triv", [[1]], [[1]]), ("sgn_s", [[1]], [[-1]]),
            ("sgn_r", [[-1]], [[1]]), ("sgn_rs", [[-1]], [[-1]]),
            ("std", [[i, 0], [0, -i]], [[0, 1], [1, 0]])])
    if name == "Q8":
        i = Cyclo.zeta(n, n // 4)
        return build(("i", "j"), [
            ("triv", [[1]], [[1]]), ("chi_i", [[1]], [[-1]]),
            ("chi_j", [[-1]], [[1]]), ("chi_k", [[-1]], [[-1]]),
            ("std", [[i, 0], [0, -i]], [[0, 1], [-1, 0]])])
    if name == "A4":
        w = Cyclo.zeta(n, n // 3)
        # rotations of the cube acting on its four space diagonals
        return build(("(12)(34)", "(234)"), [
            ("triv", [[1]], [[1]]), ("omega", [[1]], [[w]]), ("omega_sq", [[1]], [[w * w]]),
            ("std", [[1, 0, 0], [0, -1, 0], [0, 0, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
    if name == "S4":
        w = Cyclo.zeta(n, n // 3)
        # dim2 through the quotient onto the pairings of {1,2,3,4}; std_sgn the
        # cube rotations permuting the space diagonals, std its twist by sign
        cube_s = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
        cube_c = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        return build(("(12)", "(1243)"), [
            ("triv", [[1]], [[1]]), ("sgn", [[-1]], [[-1]]),
            ("dim2", [[0, w * w], [w, 0]], [[0, 1], [1, 0]]),
            ("std_sgn", cube_s, cube_c),
            ("std", [[-v for v in row] for row in cube_s], [[-v for v in row] for row in cube_c])])
    raise KeyError(name)


def conjugated_by(irrep, p):
    """P * matrix(g) * P^-1 for every g, P an invertible rational matrix;
    not validated."""
    p = [[Cyclo.rational(v, irrep.conductor) for v in row] for row in p]
    p_inv = linalg.mat_inverse(p)
    return Irrep(irrep.label, irrep.group, irrep.degree, tuple(
        tuple(map(tuple, matrix_product(matrix_product(p, mat), p_inv)))
        for mat in irrep.matrices))


def non_unitary_conjugate(irrep):
    """The irrep conjugated by a P that is rational, upper triangular and,
    from degree 2, not unitary: the same irrep in another matrix form,
    whose entries gain denominators."""
    m = irrep.degree
    return conjugated_by(irrep, [[Fraction(i + 2 * j + 1, 2) if i <= j else 0 for j in range(m)]
                                 for i in range(m)])


# -- irrep validation pair by pair ----------------------------------------------------------


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def inverses_by_search(group):
    """Per element g, the h with g * h = e, found by scanning g's row of
    the table rather than read off group.inverses."""
    return [group.table[g].index(group.identity) for g in range(group.order)]


def validate_per_pair(irrep):
    """irreps.validate as one Cyclo matrix product per pair (g, s), s a
    generator: the same report, witnesses included, reached without the
    coordinate lists."""
    report = Report()
    group = irrep.group
    mats = irrep.matrices
    n = group.order

    ident = linalg.identity_matrix(irrep.degree, irrep.conductor)
    report.add("identity-image", irrep.label, mat_eq(mats[group.identity], ident))

    witness = None
    for s in group.generators:
        for g in range(n):
            if not mat_eq(matrix_product(mats[g], mats[s]), mats[group.mul(g, s)]):
                witness = (group.element_names[g], group.element_names[s])
                break
        if witness:
            break
    report.add("homomorphism", irrep.label, witness is None,
               f"fails at pair {witness}" if witness else "")

    norm = character_inner_product_per_element(irrep, irrep)
    report.add("irreducibility", irrep.label, norm == 1, f"<chi,chi> = {norm}")
    return report


def character_inner_product_per_element(a, b):
    """(1/|G|) * sum over g of chi_a(g) * chi_b(g^-1), one Cyclo product per g."""
    group = a.group
    target = math.lcm(a.conductor, b.conductor)
    acc = Cyclo.zero(target)
    for g, h in enumerate(inverses_by_search(group)):
        acc = acc + a.character(g).promote(target) * b.character(h).promote(target)
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

    cd = capelli_zpoly(pi, alpha, one)
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


# -- an irrep's X and D as operators, one variable per group element -----------------------
#
# weyl.verify_rep_relations takes [D_ij, X_kl] as orthogonality sums of matrix
# coefficients and never builds these operators; the oracle below builds them
# and takes every commutator, as the package did before.


def build_rep(irrep):
    """One variable per group element, [d_g, x_h] = delta_gh;
    X_ij = sum over g of matrix(g^-1)_ji * x_g (for a unitary irrep, the
    conjugated entries) and D_ij = sum over g of matrix(g)_ij * d_g."""
    group = irrep.group
    ctx = WeylContext(tuple(group.element_names))
    m = irrep.degree
    xm = [[WeylOp.zero(ctx) for _ in range(m)] for _ in range(m)]
    dm = [[WeylOp.zero(ctx) for _ in range(m)] for _ in range(m)]
    for g, h in enumerate(inverses_by_search(group)):
        mat, at_inverse = irrep.matrices[g], irrep.matrices[h]
        for i in range(m):
            for j in range(m):
                if at_inverse[j][i]:
                    xm[i][j] = xm[i][j] + WeylOp.x(ctx, g, at_inverse[j][i])
                if mat[i][j]:
                    dm[i][j] = dm[i][j] + WeylOp.d(ctx, g, mat[i][j])
    return ctx, xm, dm


def rep_relations_by_commutators(irrep):
    """weyl.verify_rep_relations by commutators of the built operators: the
    vanishing relations over unordered distinct pairs, the mixed one over
    all index 4-tuples, each witness the first failing tuple."""
    report = Report()
    ctx, xm, dm = build_rep(irrep)
    m = irrep.degree
    alpha = irrep.alpha
    zero = WeylOp.zero(ctx)
    ok_xx = ok_dd = ok_dx = True
    witness = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    if (k, l) > (i, j):
                        if ok_xx and commutator(xm[i][j], xm[k][l]) != zero:
                            ok_xx, witness["xx"] = False, (i, j, k, l)
                        if ok_dd and commutator(dm[i][j], dm[k][l]) != zero:
                            ok_dd, witness["dd"] = False, (i, j, k, l)
                    expected = WeylOp.scalar(ctx, alpha) if (i == k and j == l) else zero
                    if ok_dx and commutator(dm[i][j], xm[k][l]) != expected:
                        ok_dx, witness["dx"] = False, (i, j, k, l)
    report.add("x-commute", irrep.label, ok_xx, str(witness.get("xx", "")))
    report.add("d-commute", irrep.label, ok_dd, str(witness.get("dd", "")))
    report.add("d-x-relation", irrep.label, ok_dx,
               str(witness.get("dx", "")) or f"alpha = {alpha}")
    return report


# -- the fast paths of the package and their oracles ---------------------------------------
#
# One row per fast path: (fast path, oracle, test).  The fast path and the
# oracle are dotted names, importable from capelli_lab, from this module or
# from a test module; the test is the pytest node id that compares them.
# tests/test_fast_paths.py checks that every name resolves and every test is
# defined; scripts/mutants.py holds the mutants these tests must kill.

FAST_PATHS = (
    ("capelli_lab.ncdet.coldet", "helpers.leibniz_det",
     "tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums"),
    ("capelli_lab.ncdet.rowdet", "helpers.leibniz_det",
     "tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums"),
    ("capelli_lab.ncdet.doubledet", "helpers.double_sum_by_permutations",
     "tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums"),
    ("capelli_lab.ncdet.positioned_doubledet", "helpers.double_sum_by_permutations",
     "tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums"),
    ("capelli_lab.ncdet.ZPoly.shift", "test_ncdet._shift_by_binomials",
     "tests/test_ncdet.py::test_zpoly_shift_against_binomial_expansion"),
    ("capelli_lab.ncdet.shift_variants", "helpers.double_sum_by_permutations",
     "tests/test_ncdet.py::test_shift_variants_match_permutation_sums_at_any_c"),
    ("capelli_lab.capelli.verify_det_variants", "helpers.positioned_double_det",
     "tests/test_capelli.py::test_double_dets_at_zero_shifted_match_direct_expansion"),
    ("capelli_lab.weyl.verify_det_equalities", "helpers.det_equalities_direct",
     "tests/test_weyl.py::test_det_equalities_match_direct_build_at_one"),
    ("capelli_lab.weyl.commutator", "capelli_lab.weyl.WeylOp.__mul__",
     "tests/test_weyl.py::test_commutator_matches_product_oracle"),
    ("capelli_lab.weyl.WeylOp.__mul__", "helpers.act",
     "tests/test_weyl.py::test_product_and_commutator_act_by_composition"),
    ("capelli_lab.weyl.build_generic", "helpers.act",
     "tests/test_weyl.py::test_generic_grid_is_x_and_alpha_d"),
    ("capelli_lab.weyl.verify_rep_relations", "helpers.rep_relations_by_commutators",
     "tests/test_weyl.py::test_rep_relations_match_commutator_oracle"),
    ("capelli_lab.weyl.verify_rep_identity", "helpers.build_rep",
     "tests/test_weyl.py::test_derived_identities_match_direct_route"),
    ("capelli_lab.irreps.validate", "helpers.validate_per_pair",
     "tests/test_irreps.py::test_validate_matches_per_pair_oracle"),
    ("capelli_lab.irreps.validate", "helpers.brute_homomorphism",
     "tests/test_irreps.py::test_homomorphism_check_matches_all_pairs_oracle"),
    ("capelli_lab.irreps.character_inner_product", "helpers.character_inner_product_per_element",
     "tests/test_irreps.py::test_character_inner_product_matches_per_element_oracle"),
    ("capelli_lab.irreps.induced_irrep", "helpers.catalog_by_generators",
     "tests/test_induction.py::test_catalog_irreps_equal_generator_image_oracle"),
    ("capelli_lab.groups.build_group_from_table", "helpers.table_lines_reference",
     "tests/test_groups.py::test_table_checks_match_reference"),
    ("capelli_lab.groups.load_group", "helpers.parent_load_group",
     "tests/test_jsonread.py::test_group_files_match_the_whole_file_route"),
    ("capelli_lab.irreps.load_irrep", "helpers.parent_load_irrep",
     "tests/test_jsonread.py::test_irrep_files_match_the_whole_file_route"),
    ("capelli_lab.groups.build_group_from_table", "helpers.brute_associative",
     "tests/test_groups.py::test_every_loop_up_to_order_6_matches_full_scan"),
    ("capelli_lab.algebra.AlgebraElement.__mul__", "helpers.naive_convolve",
     "tests/test_algebra.py::test_convolution_against_oracle"),
    ("capelli_lab.cyclo.cyclotomic_polynomial", "helpers.cyclotomic_by_division",
     "tests/test_cyclo.py::test_cyclotomic_polynomial_against_divide_out_loop"),
    ("capelli_lab.cyclo.Cyclo.inverse", "capelli_lab.cyclo.Cyclo.__mul__",
     "tests/test_cyclo.py::test_multiplicative_inverse"),
)
