"""Symbolic Weyl algebra with exact normal ordering.

Operators are stored normal-ordered: a sparse map from (x-multidegree,
d-multidegree) pairs to coefficients, with all multiplication operators
to the left of all differentiations.  The algebra is over Q, and a
coefficient is kept as it is given: an int or a Fraction in every
operator the package builds.  A scalar type with a field of its own (a
`Cyclo` of a test oracle) enforces that field when two coefficients
meet.  There is one algebra, [d, x] = 1, and its single reordering rule
is d^b x^a = sum over k of C(b,k) * falling(a,k) * x^(a-k) d^(b-k) per
variable, distinct variables commuting.  Canonical form makes operator
equality a term-by-term comparison, which is strictly stronger than
agreeing on any bounded-degree polynomial.

The rule lives in one helper, `_add_reordered`: a product expands
every term pair through it, a commutator only the pairs where a d
variable meets an x variable.  The k = 0 term of a pair is its plain
concatenation, the same monomial and coefficient whichever operand
comes first, so in a*b - b*a it cancels pair for pair; `commutator`
never forms it, nor the pairs that have nothing else, and so never
forms the two full products.

Every operator the package builds lives on an m x m grid of formal
entries (`build_generic`).  The grid algebra at alpha, [d_ij, x_kl] =
alpha * delta_ik * delta_jl, is not a second algebra: alpha is a scalar
on d, and x and alpha * d generate it inside this one.  An irrep's X and
D are combinations of one variable per group element, X_kl of the
matrix(g^-1)_lk and D_ij of the matrix(g)_ij, and satisfy the grid
relations with alpha = group order / degree in any matrix form; those
relations are scalar orthogonality sums of its matrix coefficients, which
`irreps.orthogonality_witness` checks without building an operator
(`verify_rep_relations`).  Its Pi relations and Capelli identity are the
generic ones at (m, alpha = |G|/m), carried over by the
homomorphism x_ij -> X_ij, d_ij -> D_ij that the relations define
(`verify_rep_identity`).

The Capelli determinants of Pi (shifted, conjugated, row, column and
double) are built by the ring-generic functions in ncdet, the same ones
the group-algebra side applies to its E matrix; `verify_det_equalities`
reads its shift constant c = 1 off the c = 0 expansions of
`ncdet.shift_variants`, as `capelli.verify_det_variants` reads 1 and alpha.
The Pi relations and the centrality of the Capelli coefficients are the
witness searches of ncdet with `commutator` as the bracket, the same
searches the group-algebra side runs on E with its products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from . import linalg, ncdet
from .cyclo import format_sum
from .irreps import Irrep, orthogonality_witness
from .ncdet import SizeLimit, add_diagonal, coldet, natural_shift
from .reports import CheckResult, Report

# the size limits, read at call time: the generic grid (build_generic and
# weyl-capelli), the three determinants (det-equalities) and the
# centrality and conjugation checks (weyl-central)
GENERIC_SIZE_LIMIT = 3
THEOREM_M_LIMIT = 2
CENTRAL_M_LIMIT = 2
# the sample alphas of the generic identities (weyl-capelli, weyl-central)
GENERIC_ALPHAS = (Fraction(1), Fraction(3), Fraction(5, 2))


class ContextMismatch(ValueError):
    pass


@dataclass(frozen=True)
class WeylContext:
    names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.names)


def _add_reordered(out: dict, base, xa, da, xb, db, hot, drop_plain: bool) -> None:
    """Add base * x^xa d^da x^xb d^db, normal-ordered, to `out`.

    The one home of the reordering rule: at each hot variable v (da[v]
    and xb[v] both nonzero) the k-th term of d^b x^a carries
    C(b, k) * falling(a, k) (math.perm) and lowers both degrees by k.
    The first k-tuple is all zeros, the plain concatenation
    x^(xa+xb) d^(da+db); `drop_plain` leaves it out.
    """
    add = int.__add__
    xs0 = tuple(map(add, xa, xb))
    ds0 = tuple(map(add, da, db))
    ranges = [range(min(da[v], xb[v]) + 1) for v in hot]
    for ks in islice(product(*ranges), 1 if drop_plain else 0, None):
        key = (xs0, ds0)
        coeff = base
        if any(ks):
            mult = 1
            xs, ds = list(xs0), list(ds0)
            for v, k in zip(hot, ks):
                if k:
                    mult *= math.comb(da[v], k) * math.perm(xb[v], k)
                    xs[v] -= k
                    ds[v] -= k
            key = (tuple(xs), tuple(ds))
            coeff = base * mult
        cur = out.get(key)
        acc = coeff if cur is None else cur + coeff
        if acc:
            out[key] = acc
        elif cur is not None:
            del out[key]


class WeylOp:
    __slots__ = ("context", "terms")

    def __init__(self, context: WeylContext, terms: dict):
        self.context = context
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: WeylContext) -> "WeylOp":
        return WeylOp(ctx, {})

    @staticmethod
    def _monomial(ctx: WeylContext, x_var, d_var, coeff) -> "WeylOp":
        # coeff * x_(x_var) * d_(d_var); a None variable leaves its factor out
        xdeg, ddeg = (tuple(int(v == var) for v in range(ctx.size)) for var in (x_var, d_var))
        return WeylOp(ctx, {(xdeg, ddeg): coeff} if coeff else {})

    @staticmethod
    def one(ctx: WeylContext) -> "WeylOp":
        return WeylOp.scalar(ctx, 1)

    @staticmethod
    def x(ctx: WeylContext, var: int, coeff=1) -> "WeylOp":
        return WeylOp._monomial(ctx, var, None, coeff)

    @staticmethod
    def d(ctx: WeylContext, var: int, coeff=1) -> "WeylOp":
        return WeylOp._monomial(ctx, None, var, coeff)

    @staticmethod
    def scalar(ctx: WeylContext, value) -> "WeylOp":
        return WeylOp._monomial(ctx, None, None, value)

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if other.context is not self.context:
            raise ContextMismatch("operators from different Weyl contexts")

    def __add__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            acc = c if cur is None else cur + c
            if acc:
                out[key] = acc
            elif cur is not None:
                del out[key]
        return WeylOp(self.context, out)

    def __neg__(self):
        return WeylOp(self.context, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "WeylOp":
        if scalar == 1:
            return self
        if not scalar:
            return WeylOp.zero(self.context)
        return WeylOp(self.context, {k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, WeylOp):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for (xa, da), ca in self.terms.items():
            da_support = [v for v, e in enumerate(da) if e]
            for (xb, db), cb in other.terms.items():
                hot = [v for v in da_support if xb[v]]
                _add_reordered(out, ca * cb, xa, da, xb, db, hot, False)
        return WeylOp(self.context, out)

    __rmul__ = __mul__  # reached only with a scalar on the left, which commutes

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self.context is other.context and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        names = self.context.names

        def powers(letter, exponents):
            return [f"{letter}{names[v]}" + (f"^{e}" if e > 1 else "")
                    for v, e in enumerate(exponents) if e]

        return format_sum((c, "*".join(powers("x", xd) + powers("d", dd)))
                          for (xd, dd), c in sorted(self.terms.items()))

    def __repr__(self):
        return f"WeylOp({self})"


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """a*b - b*a, without forming either product.

    Expanding a pair of terms by the reordering rule, the all-zero
    k-tuple gives the plain concatenation x^(xa+xb) d^(da+db) with
    coefficient ca*cb, the same in a*b and in b*a, so it cancels pair for
    pair and is never formed.  The rest comes only from pairs where a d
    variable of the left term meets an x variable of the right one; an
    index of the right operand's terms by x variable finds exactly those
    pairs, each once.
    """
    a._check(b)
    out: dict = {}
    _add_cross_terms(out, a, b, False)
    _add_cross_terms(out, b, a, True)
    return WeylOp(a.context, out)


def _add_cross_terms(out: dict, left: WeylOp, right: WeylOp, negate: bool) -> None:
    """Add the terms of left*right with some k != 0 to `out`, negated
    if `negate`."""
    right_terms = list(right.terms.items())
    by_x_var: dict = {}
    for j, ((xb, _), _) in enumerate(right_terms):
        for v, e in enumerate(xb):
            if e:
                by_x_var.setdefault(v, []).append(j)
    for (xa, da), ca in left.terms.items():
        support = [v for v, e in enumerate(da) if e and v in by_x_var]
        if not support:
            continue
        if negate:
            ca = -ca
        for j in set().union(*(by_x_var[v] for v in support)):
            (xb, db), cb = right_terms[j]
            hot = [v for v in support if xb[v]]
            _add_reordered(out, ca * cb, xa, da, xb, db, hot, True)


# -- matrix builders --------------------------------------------------------------


def build_generic(m: int, alpha) -> tuple[WeylContext, list, list, list]:
    """The m x m grid of variables with X = (x_ij), D = (alpha * d_ij)
    and Pi = transpose(X) * D: [D_ij, X_kl] = alpha * delta_ik * delta_jl,
    the grid algebra at alpha."""
    if m > GENERIC_SIZE_LIMIT:
        raise SizeLimit(f"generic size {m} exceeds limit {GENERIC_SIZE_LIMIT}")
    ctx = WeylContext(tuple(f"{i+1}{j+1}" for i in range(m) for j in range(m)))
    xm = [[WeylOp.x(ctx, i * m + j) for j in range(m)] for i in range(m)]
    dm = [[WeylOp.d(ctx, i * m + j, alpha) for j in range(m)] for i in range(m)]
    return ctx, xm, dm, transpose_product(ctx, xm, dm)


def transpose_product(ctx, xm, dm):
    """Pi = transpose(X) * D, the one formula for every Pi."""
    m = len(xm)
    return [[sum((xm[k][i] * dm[k][j] for k in range(m)), WeylOp.zero(ctx)) for j in range(m)]
            for i in range(m)]


# -- relation verifiers --------------------------------------------------------------


def verify_rep_relations(irrep: Irrep) -> Report:
    """[X,X] = 0, [D,D] = 0, [D_ij, X_kl] = (|G|/degree) delta delta.

    X_kl = sum over g of matrix(g^-1)_lk * x_g and D_ij = sum over g of
    matrix(g)_ij * d_g, with one variable per group element; for a unitary
    irrep matrix(g^-1)_lk is conj(matrix(g)_kl), and no matrix form is
    required.  No operator is built.  The x_g commute with each other, and
    so do the d_g, so X entries commute with X entries and D entries with D
    entries whatever the matrices: the first two rows hold by
    construction.  [d_g, x_h] = delta_gh makes [D_ij, X_kl] the scalar sum
    over g of matrix(g)_ij * matrix(g^-1)_lk, the orthogonality sum of
    matrix coefficients, which `irreps.orthogonality_witness` checks; the
    witness is its first failing (i, j, k, l).
    """
    report = Report()
    witness = orthogonality_witness(irrep)
    report.add("x-commute", irrep.label, True, "")
    report.add("d-commute", irrep.label, True, "")
    report.add("d-x-relation", irrep.label, witness is None,
               f"alpha = {irrep.alpha}" if witness is None else str(witness))
    return report


def verify_pi_relations(pi, alpha, label="generic") -> Report:
    """[Pi_ij, Pi_kl] = alpha * (delta_jk Pi_il - delta_il Pi_kj), by
    `ncdet.gl_relation_witness` with the commutator as the bracket."""
    report = Report()
    witness = ncdet.gl_relation_witness(
        pi, Fraction(alpha), lambda i, j, k, l: commutator(pi[i][j], pi[k][l]))
    report.add("pi-relations", label, witness is None,
               "" if witness is None else f"tuple {tuple(x + 1 for x in witness)}")
    return report


# -- Capelli identity and element ------------------------------------------------------


def verify_capelli(xm, dm, pi, alpha, label="generic") -> Report:
    """coldet(Pi + alpha*(m-1,...,0)) = coldet(X) * coldet(D)."""
    report = Report()
    ctx = pi[0][0].context
    m = len(pi)
    lhs = coldet(add_diagonal(pi, [Fraction(alpha) * d for d in natural_shift(m)], WeylOp.one(ctx)))
    rhs = coldet(xm) * coldet(dm)
    report.add("capelli-identity", label, lhs == rhs)
    return report


def verify_rep_identity(irrep: Irrep, identity: str, relations: Report | None = None) -> Report:
    """The irrep's `identity` ("pi-relations" or "capelli-identity"),
    derived from the generic one at (m, alpha) = (degree, |G|/degree).

    The grid Weyl algebra A at alpha is presented by the generators x_ij,
    d_ij and the relations [x, x] = 0, [d, d] = 0, [d_ij, x_kl] =
    alpha * delta_ik * delta_jl.  For alpha != 0 (here alpha = |G|/m > 0)
    it is the subalgebra of the algebra at 1 generated by x_ij and
    alpha * d_ij, the X and D of `build_generic`: its PBW monomials
    x^a D^b = alpha^|b| * x^a d^b are nonzero multiples of distinct
    normal-ordered monomials, so they stay independent, and a `WeylOp`
    holds exactly the coordinates in that basis.  The generic identity
    checked in normal form therefore holds in A itself.
    `relations` (by default `verify_rep_relations(irrep)`) checks the same
    relations for the irrep's X and D; once they all pass, x_ij -> X_ij,
    d_ij -> D_ij extends to an algebra homomorphism phi out of A.  phi
    maps the generic Pi to the irrep's Pi, since `transpose_product`
    gives both, and each identity is a ring expression in X, D and Pi,
    so phi carries it over.  If a relation fails there is no phi, and the
    result is `fail` naming that relation; a degree above
    GENERIC_SIZE_LIMIT is `skipped`.
    """
    report = Report()
    try:
        _, xm, dm, pi = build_generic(irrep.degree, irrep.alpha)
    except SizeLimit as exc:
        report.results.append(CheckResult(identity, irrep.label, "skipped", str(exc)))
        return report
    broken = (verify_rep_relations(irrep) if relations is None else relations).failures()
    if broken:
        report.add(identity, irrep.label, False,
                   f"not derived: {broken[0].check} fails at {broken[0].detail}")
        return report
    if identity == "pi-relations":
        [generic] = verify_pi_relations(pi, irrep.alpha).results
    else:
        [generic] = verify_capelli(xm, dm, pi, irrep.alpha).results
    route = f"generic m={irrep.degree} alpha={irrep.alpha}"
    ok = generic.status == "pass"
    report.add(identity, irrep.label, ok, f"derived from {route} by x_ij -> X_ij, d_ij -> D_ij"
               if ok else f"{route} fails {generic.detail}".rstrip())
    return report


def verify_capelli_properties(pi, alpha, label="generic") -> Report:
    """The z-polynomial commutes with every Pi entry and is invariant
    under conjugation by the permutation + transvection family, read
    over Q."""
    report = Report()
    ctx = pi[0][0].context
    alpha, one = Fraction(alpha), WeylOp.one(ctx)
    cz = ncdet.capelli_zpoly(pi, alpha, one)
    entry = ncdet.noncommuting_entry(pi, cz.coeffs, lambda a, b: not commutator(a, b))
    witness = "" if entry is None else f"[Pi_{entry[0] + 1}{entry[1] + 1}, C(z)] != 0"
    report.add("capelli-central", label, entry is None, witness)

    family = [tuple([[v.as_rational() for v in row] for row in mat] for mat in pair)
              for pair in linalg.p_family(len(pi), 1)]
    got = ncdet.conjugated_capelli_zpolys(pi, alpha, one, family)
    for idx, poly in enumerate(got):
        report.add("capelli-conjugation", f"{label}#P{idx}", poly == cz)
    return report


# -- three determinants --------------------------------------------------------------


def verify_det_equalities(m: int) -> Report:
    """Column, row and double determinant of the generic Pi at alpha = 1.

    The three-way equality: the column determinant with shifts
    (m-1, ..., 0), the row determinant with shifts (0, ..., m-1), and for
    every permutation the symmetrized double determinant with the permuted
    shift sequence attached to factor positions and the variable moved to
    z + 1.  The other parse of the double form, with the shift pattern
    baked into the matrix before the double sum, coincides in size 1 but
    differs by a multiple of Pi_11 - Pi_22 in size 2; it is evaluated and
    recorded as a measurement so the difference is visible.  Both double
    forms come from `ncdet.shift_variants` at c = 0 and are read at z + 1
    by `ZPoly.shift`.
    """
    if m > THEOREM_M_LIMIT:
        raise SizeLimit(f"double determinant over operators limited to size {THEOREM_M_LIMIT}")
    report = Report()
    alpha = Fraction(1)
    ctx, _, _, pi = build_generic(m, alpha)

    one = WeylOp.one(ctx)
    cd = ncdet.capelli_zpoly(pi, alpha, one)
    rd, variants = ncdet.shift_variants(pi, alpha, one)
    report.add("coldet-eq-rowdet", f"m={m}", cd == rd)

    for sigma, positioned, attached in variants:
        dd = positioned.shift(1)
        report.add("doubledet-positioned", f"m={m} sigma={sigma}", dd == cd,
                   "" if dd == cd else f"difference {dd - cd}")
        naive = attached.shift(1)
        report.measure(
            "doubledet-matrix", f"m={m} sigma={sigma}",
            "matches coldet" if naive == cd else f"differs by {naive - cd}",
        )
    return report
