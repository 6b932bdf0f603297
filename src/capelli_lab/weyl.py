"""Symbolic Weyl algebra with exact normal ordering.

Operators are stored normal-ordered: a sparse map from (x-multidegree,
d-multidegree) pairs to cyclotomic coefficients, with all multiplication
operators to the left of all differentiations.  The single reordering
rule is d^b x^a = sum over k of C(b,k) * falling(a,k) * alpha^k *
x^(a-k) d^(b-k) per variable, distinct variables commuting.  Canonical
form makes operator equality a term-by-term comparison, which is
strictly stronger than agreeing on any bounded-degree polynomial.

The rule lives in one helper, `_add_reordered`: a product expands
every term pair through it, a commutator only the pairs where a d
variable meets an x variable.  The k = 0 term of a pair is its plain
concatenation, the same monomial and coefficient whichever operand
comes first, so in a*b - b*a it cancels pair for pair; `commutator`
never forms it, nor the pairs that have nothing else, and so never
forms the two full products.

Two variable layouts occur: an m x m grid of formal entries (the
generic setting, any alpha), and one variable per group element (the
representation setting, base alpha 1, where the matrix combinations
X, D built from a unitary irrep satisfy the grid relations with
alpha = group order / degree).  The representation side checks only
those relations; its Pi relations and Capelli identity are the generic
ones at (m, alpha = |G|/m), carried over by the homomorphism
x_ij -> X_ij, d_ij -> D_ij that the relations define (`verify_rep_identity`).

The Capelli determinants of Pi (shifted, conjugated, row, column and
double) are built by the ring-generic functions in ncdet, the same ones
the group-algebra side applies to its E matrix; `verify_det_equalities`
reads its shift constant c = 1 off the c = 0 expansions of
`ncdet.shift_variants`, as `capelli.verify_det_variants` reads 1 and alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from . import linalg, ncdet
from .cyclo import Cyclo
from .irreps import Irrep
from .ncdet import SizeLimit, ZPoly, add_diagonal, coldet, natural_shift
from .reports import CheckResult, Report

GENERIC_SIZE_LIMIT = 3
THEOREM_M_LIMIT = 2
# the sample alphas of the generic identities (weyl-capelli, weyl-central)
GENERIC_ALPHAS = (Fraction(1), Fraction(3), Fraction(5, 2))


class ContextMismatch(ValueError):
    pass


@dataclass(frozen=True)
class WeylContext:
    names: tuple[str, ...]
    alpha: Fraction
    conductor: int = 1

    @property
    def size(self) -> int:
        return len(self.names)


def _falling(a: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= a - i
    return out


def _add_reordered(out: dict, alpha, base, xa, da, xb, db, hot, drop_plain: bool) -> None:
    """Add base * x^xa d^da x^xb d^db, normal-ordered, to `out`.

    The one home of the reordering rule: at each hot variable v (da[v]
    and xb[v] both nonzero) the k-th term of d^b x^a carries
    C(b, k) * falling(a, k) * alpha^k and lowers both degrees by k.  The
    first k-tuple is all zeros, the plain concatenation
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
                    mult *= math.comb(da[v], k) * _falling(xb[v], k) * alpha**k
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
    def one(ctx: WeylContext) -> "WeylOp":
        empty = (0,) * ctx.size
        return WeylOp(ctx, {(empty, empty): Cyclo.one(ctx.conductor)})

    @staticmethod
    def x(ctx: WeylContext, var: int, coeff=1) -> "WeylOp":
        empty = (0,) * ctx.size
        deg = tuple(1 if v == var else 0 for v in range(ctx.size))
        c = coeff if isinstance(coeff, Cyclo) else Cyclo.rational(coeff, ctx.conductor)
        return WeylOp(ctx, {(deg, empty): c} if c else {})

    @staticmethod
    def d(ctx: WeylContext, var: int, coeff=1) -> "WeylOp":
        empty = (0,) * ctx.size
        deg = tuple(1 if v == var else 0 for v in range(ctx.size))
        c = coeff if isinstance(coeff, Cyclo) else Cyclo.rational(coeff, ctx.conductor)
        return WeylOp(ctx, {(empty, deg): c} if c else {})

    @staticmethod
    def scalar(ctx: WeylContext, value) -> "WeylOp":
        empty = (0,) * ctx.size
        c = value if isinstance(value, Cyclo) else Cyclo.rational(value, ctx.conductor)
        return WeylOp(ctx, {(empty, empty): c} if c else {})

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
        if isinstance(scalar, Cyclo):
            s = scalar.promote(self.context.conductor) if scalar.conductor != self.context.conductor else scalar
        else:
            s = Cyclo.rational(scalar, self.context.conductor)
        if not s:
            return WeylOp.zero(self.context)
        return WeylOp(self.context, {k: s * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        if not isinstance(other, WeylOp):
            return NotImplemented
        self._check(other)
        alpha = self.context.alpha
        out: dict = {}
        for (xa, da), ca in self.terms.items():
            da_support = [v for v, e in enumerate(da) if e]
            for (xb, db), cb in other.terms.items():
                hot = [v for v in da_support if xb[v]]
                _add_reordered(out, alpha, ca * cb, xa, da, xb, db, hot, False)
        return WeylOp(self.context, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return self.context is other.context and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.context.names
        rendered = []
        for (xd, dd) in sorted(self.terms.keys()):
            c = self.terms[(xd, dd)]
            monos = []
            for v, e in enumerate(xd):
                if e:
                    monos.append(f"x{names[v]}" + (f"^{e}" if e > 1 else ""))
            for v, e in enumerate(dd):
                if e:
                    monos.append(f"d{names[v]}" + (f"^{e}" if e > 1 else ""))
            body = "*".join(monos)
            cs = str(c)
            if not body:
                rendered.append(cs if " " not in cs else f"({cs})")
            elif cs == "1":
                rendered.append(body)
            elif cs == "-1":
                rendered.append("-" + body)
            else:
                rendered.append((f"({cs})" if " " in cs else cs) + "*" + body)
        return " + ".join(rendered).replace("+ -", "- ")

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
    alpha = left.context.alpha
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
            _add_reordered(out, alpha, ca * cb, xa, da, xb, db, hot, True)


# -- action on commutative polynomials ------------------------------------------


def apply_to_polynomial(op: WeylOp, poly: dict) -> dict:
    """Act on a polynomial {x-multidegree: coefficient}, with each d
    variable acting as alpha * d/dx.  A semantic cross-check of the
    normal ordering, independent of operator multiplication."""
    alpha = op.context.alpha
    out: dict = {}
    for (xd, dd), c in op.terms.items():
        for pdeg, pc in poly.items():
            if any(b > p for b, p in zip(dd, pdeg)):
                continue
            mult = Fraction(1)
            for b, p in zip(dd, pdeg):
                if b:
                    mult *= _falling(p, b) * alpha**b
            new = tuple(p - b + a for p, b, a in zip(pdeg, dd, xd))
            coeff = c * pc * mult
            cur = out.get(new)
            acc = coeff if cur is None else cur + coeff
            if acc:
                out[new] = acc
            elif cur is not None:
                del out[new]
    return out


# -- matrix builders --------------------------------------------------------------


def build_generic(m: int, alpha) -> tuple[WeylContext, list, list, list]:
    """The m x m grid of variables with X = (x_ij), D = (d_ij) and
    Pi = transpose(X) * D."""
    if m > GENERIC_SIZE_LIMIT:
        raise SizeLimit(f"generic size {m} exceeds limit {GENERIC_SIZE_LIMIT}")
    names = tuple(f"{i+1}{j+1}" for i in range(m) for j in range(m))
    ctx = WeylContext(names, Fraction(alpha), 1)
    xm = [[WeylOp.x(ctx, i * m + j) for j in range(m)] for i in range(m)]
    dm = [[WeylOp.d(ctx, i * m + j) for j in range(m)] for i in range(m)]
    pi = transpose_product(ctx, xm, dm)
    return ctx, xm, dm, pi


def build_rep(irrep: Irrep) -> tuple[WeylContext, list, list]:
    """One variable per group element; X uses conjugated matrix entries,
    D the plain ones."""
    group = irrep.group
    names = tuple(group.element_names)
    ctx = WeylContext(names, Fraction(1), irrep.conductor)
    m = irrep.degree
    xm = [[WeylOp.zero(ctx) for _ in range(m)] for _ in range(m)]
    dm = [[WeylOp.zero(ctx) for _ in range(m)] for _ in range(m)]
    for g in range(group.order):
        mat = irrep.matrices[g]
        for i in range(m):
            for j in range(m):
                v = mat[i][j]
                if v:
                    xm[i][j] = xm[i][j] + WeylOp.x(ctx, g, v.conjugate())
                    dm[i][j] = dm[i][j] + WeylOp.d(ctx, g, v)
    return ctx, xm, dm


def transpose_product(ctx, xm, dm):
    """Pi = transpose(X) * D, the one formula for every Pi."""
    m = len(xm)
    pi = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = WeylOp.zero(ctx)
            for k in range(m):
                acc = acc + xm[k][i] * dm[k][j]
            row.append(acc)
        pi.append(row)
    return pi


# -- relation verifiers --------------------------------------------------------------


def verify_rep_relations(irrep: Irrep) -> Report:
    """[X,X] = 0, [D,D] = 0, [D_ij, X_kl] = (|G|/degree) delta delta.

    The two vanishing checks run over unordered distinct pairs (the
    commutator is antisymmetric and vanishes identically on equal
    operands); the mixed relation runs over all index 4-tuples.
    """
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
                    expected = (
                        WeylOp.scalar(ctx, alpha) if (i == k and j == l) else zero
                    )
                    if ok_dx and commutator(dm[i][j], xm[k][l]) != expected:
                        ok_dx, witness["dx"] = False, (i, j, k, l)
    report.add("x-commute", irrep.label, ok_xx, str(witness.get("xx", "")))
    report.add("d-commute", irrep.label, ok_dd, str(witness.get("dd", "")))
    report.add("d-x-relation", irrep.label, ok_dx,
               str(witness.get("dx", "")) or f"alpha = {alpha}")
    return report


def verify_pi_relations(pi, alpha, label="generic") -> Report:
    """[Pi_ij, Pi_kl] = alpha * (delta_jk Pi_il - delta_il Pi_kj).

    Both sides are antisymmetric under swapping (i,j) with (k,l), and for
    (i,j) = (k,l) both sides are identically zero in any ring, so only
    unordered distinct pairs carry content.
    """
    report = Report()
    m = len(pi)
    ctx = pi[0][0].context
    alpha = Fraction(alpha)
    ok = True
    witness = ""
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    if (k, l) <= (i, j):
                        continue
                    lhs = commutator(pi[i][j], pi[k][l])
                    rhs = WeylOp.zero(ctx)
                    if j == k:
                        rhs = rhs + pi[i][l].scale(alpha)
                    if i == l:
                        rhs = rhs - pi[k][j].scale(alpha)
                    if lhs != rhs:
                        ok = False
                        witness = f"tuple {(i + 1, j + 1, k + 1, l + 1)}"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("pi-relations", label, ok, witness)
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
    alpha * delta_ik * delta_jl.  Its normal-ordered monomials form a PBW
    basis, and a `WeylOp` holds exactly the coordinates in that basis, so
    the generic identity checked in normal form holds in A itself.
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
        ctx, xm, dm, pi = build_generic(irrep.degree, irrep.alpha)
    except SizeLimit as exc:
        report.results.append(CheckResult(identity, irrep.label, "skipped", str(exc)))
        return report
    broken = (verify_rep_relations(irrep) if relations is None else relations).failures()
    if broken:
        report.add(identity, irrep.label, False,
                   f"not derived: {broken[0].check} fails at {broken[0].detail}")
        return report
    if identity == "pi-relations":
        [generic] = verify_pi_relations(pi, ctx.alpha).results
    else:
        [generic] = verify_capelli(xm, dm, pi, ctx.alpha).results
    route = f"generic m={irrep.degree} alpha={ctx.alpha}"
    ok = generic.status == "pass"
    report.add(identity, irrep.label, ok, f"derived from {route} by x_ij -> X_ij, d_ij -> D_ij"
               if ok else f"{route} fails {generic.detail}".rstrip())
    return report


def capelli_zpoly(pi, alpha) -> ZPoly:
    """The characteristic-style column determinant as a z-polynomial."""
    return ncdet.capelli_zpoly(pi, Fraction(alpha), WeylOp.one(pi[0][0].context))


def verify_capelli_properties(pi, alpha, label="generic") -> Report:
    """The z-polynomial commutes with every Pi entry and is invariant
    under conjugation by the permutation + transvection family."""
    report = Report()
    ctx = pi[0][0].context
    m = len(pi)
    cz = capelli_zpoly(pi, alpha)
    ok = True
    witness = ""
    for i in range(m):
        for j in range(m):
            for coeff in cz.coeffs:
                if commutator(pi[i][j], coeff):
                    ok = False
                    witness = f"[Pi_{i+1}{j+1}, C(z)] != 0"
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("capelli-central", label, ok, witness)

    family = linalg.p_family(m, ctx.conductor)
    got = ncdet.conjugated_capelli_zpolys(pi, Fraction(alpha), WeylOp.one(ctx), family)
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

    cd = capelli_zpoly(pi, alpha)
    rd, variants = ncdet.shift_variants(pi, alpha, WeylOp.one(ctx))
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
