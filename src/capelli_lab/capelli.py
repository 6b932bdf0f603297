"""Capelli elements of the group algebra and the identities they satisfy.

The Capelli element of an irrep is the column determinant of the E
matrix shifted by alpha*(m-1, m-2, ..., 0) on the diagonal minus z; it
is a z-polynomial with group-algebra coefficients.  The closed form
says it collapses to u-polynomial times identity plus character element
times the next u-polynomial; evaluating at points that miss the roots
of that next u-polynomial, and one set-level exceptional combination of
points (see `center_basis`), yields a basis of the center, one element
per irrep.

The determinant-variant checks at the bottom compare the column form
against the row form (which matches exactly) and against the symmetrized
double determinant with permuted diagonal shifts.  A diagonal shift can
be read two ways there: attached to the factor positions of each product
(for column and row determinants this is the same as adding a diagonal
matrix, since the (i, i) entry only ever occurs as factor i), or baked
into the matrix before the double sum runs.  The positioned reading
reproduces the Capelli element for every shift permutation with shift
constant alpha; the matrix reading does so only in degree 1.  Both
outcomes are measured and reported rather than assumed.

Every determinant here (the Capelli element, its conjugates P E P^-1 and
the row and double determinant variants, expanded once at shift constant
c = 0 and read at each candidate c by `ZPoly.shift`) comes from the
ring-generic routines in ncdet, applied to E with the group algebra's
identity; the Weyl side applies the same routines to Pi.  So does the
check that the element commutes with E (`ncdet.noncommuting_entry`).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import AlgebraElement, character_element
from .cyclo import format_sum
from .groups import conjugacy_classes
from .irreps import E_matrix, Irrep, IrrepSet
from .ncdet import (ZPoly, capelli_zpoly, conjugated_capelli_zpolys, noncommuting_entry,
                    shift_variants)
from .reports import Report


class BadK(ValueError):
    """Evaluation point hits a root of the relevant u-polynomial."""


DEFAULT_K = Fraction(-1)


# -- u polynomials ------------------------------------------------------------


def u_factor(irrep: Irrep, i: int) -> ZPoly:
    """alpha * (m - i) - z for 1 <= i <= m, over exact rationals."""
    m = irrep.degree
    if not 1 <= i <= m:
        raise IndexError(f"factor index {i} outside 1..{m}")
    return ZPoly([irrep.alpha * (m - i), Fraction(-1)])


def u_product(irrep: Irrep, count: int) -> ZPoly:
    """Product of the last `count` factors: u_m * u_(m-1) * ... ;
    the empty product is 1."""
    m = irrep.degree
    if not 0 <= count <= m:
        raise IndexError(f"factor count {count} outside 0..{m}")
    acc = ZPoly([Fraction(1)])
    for i in range(m, m - count, -1):
        acc = acc * u_factor(irrep, i)
    return acc


# -- the Capelli element -------------------------------------------------------


def _one(irrep: Irrep) -> AlgebraElement:
    return AlgebraElement.identity(irrep.group, irrep.conductor)


def capelli_element(irrep: Irrep) -> ZPoly:
    """Column determinant of E + alpha*(m-1,...,0) - zI, a z-polynomial
    with group-algebra coefficients."""
    return capelli_zpoly(E_matrix(irrep), irrep.alpha, _one(irrep))


def capelli_via_subsets(irrep: Irrep) -> ZPoly:
    """Independent expansion: sum over subsets T of {1..m} of
    (-alpha)^(|T|-1) * E_(max T, max T) * product of u_s over s not in T,
    with the empty subset contributing the full u-product times identity.
    """
    m = irrep.degree
    em = E_matrix(irrep)
    one = _one(irrep)
    alpha = irrep.alpha
    total = u_product(irrep, m).map_coeffs(lambda c: c * one)
    for mask in range(1, 1 << m):
        members = [s for s in range(1, m + 1) if mask & (1 << (s - 1))]
        top = max(members)
        scalar = (-alpha) ** (len(members) - 1)
        poly = ZPoly([scalar * em[top - 1][top - 1]])
        for s in range(1, m + 1):
            if s not in members:
                poly = poly * u_factor(irrep, s).map_coeffs(lambda c: c * one)
        total = total + poly
    return total


def verify_closed_form(irrep: Irrep) -> Report:
    """The determinant must equal u^(m) + character * u^(m-1) exactly,
    and the subset expansion must reproduce it term for term."""
    report = Report()
    one = _one(irrep)
    direct = capelli_element(irrep)
    chi = character_element(irrep)
    closed = u_product(irrep, irrep.degree).map_coeffs(lambda c: c * one) + u_product(
        irrep, irrep.degree - 1
    ).map_coeffs(lambda c: c * chi)
    ok = direct == closed
    report.add("closed-form", irrep.label, ok,
               "" if ok else f"det: {render_capelli(direct)} vs closed: {render_capelli(closed)}")
    subsets = capelli_via_subsets(irrep)
    ok = direct == subsets
    report.add("subset-expansion", irrep.label, ok,
               "" if ok else f"det: {render_capelli(direct)} vs subsets: {render_capelli(subsets)}")
    return report


def verify_centrality(irrep: Irrep, irrep_set: IrrepSet | None = None) -> Report:
    """Every z-coefficient central; the element commutes with every E
    entry of its own irrep and of every inequivalent one."""
    report = Report()
    poly = capelli_element(irrep)
    bad = [(k, c) for k, c in enumerate(poly.coeffs) if not c.is_central()]
    report.add("coefficients-central", irrep.label, not bad, "" if not bad else (
        f"the coefficient of z^{bad[0][0]} does not commute with "
        f"{irrep.group.element_names[bad[0][1].noncommuting_element()]}"))

    others = [irrep] if irrep_set is None else list(irrep_set.irreps)
    for other in others:
        entry = noncommuting_entry(E_matrix(other), poly.coeffs, lambda a, b: a * b == b * a)
        witness = "" if entry is None else (
            f"[E^{other.label}_{entry[0] + 1}{entry[1] + 1}, C(z)] != 0")
        report.add("commutes-with-E", f"{irrep.label}|{other.label}", entry is None, witness)
    return report


# -- conjugation invariance ------------------------------------------------------


def verify_conjugation_invariance(irrep: Irrep) -> Report:
    """The column determinant of P E P^-1 + alpha*shift - zI equals the
    Capelli element, for each P of `linalg.p_family`."""
    report = Report()
    reference = capelli_element(irrep)
    family = linalg.p_family(irrep.degree, irrep.conductor)
    got = conjugated_capelli_zpolys(E_matrix(irrep), irrep.alpha, _one(irrep), family)
    for idx, poly in enumerate(got):
        report.add("conjugation-invariance", f"{irrep.label}#P{idx}", poly == reference)
    return report


# -- center bases ------------------------------------------------------------------


def choose_k(irrep: Irrep, k=None) -> Fraction:
    """An evaluation point avoiding the roots of u^(m-1), which are the
    nonnegative multiples 0, alpha, ..., (m-2)*alpha; the default -1 is
    always safe.  This is the per-irrep condition only: `center_basis`
    also rejects one set-level combination of points."""
    if k is None:
        return DEFAULT_K
    k = Fraction(k)
    m = irrep.degree
    for i in range(2, m + 1):
        if irrep.alpha * (m - i) - k == 0:
            raise BadK(f"u_{i}({k}) = 0 for irrep {irrep.label}")
    return k


def center_basis(irrep_set: IrrepSet, k_by_label=None):
    """Capelli elements evaluated at points k_rho: count must equal the
    class count and the class-sum coordinates must have full exact rank.

    By the closed form C^rho(k) = u^(m-1)(k) * ((alpha (m-1) - k) 1 +
    chi_rho), with chi_rho alpha times a primitive central idempotent and
    1 the sum of those idempotents.  In the idempotent basis the values
    form a permuted diagonal (the alpha_rho) plus a rank-one term, so by
    the matrix determinant lemma they are a basis exactly when every k_rho
    passes `choose_k` and, for a complete set, sum_rho k_rho m_rho / |G|
    != 1 + sum_rho (m_rho - 1).  BadK is raised when either fails; a
    default of -1 everywhere passes both.  (Without every irrep, a
    coordinate no value hits makes the values independent anyway.)
    """
    report = Report()
    group = irrep_set.group
    classes = conjugacy_classes(group)
    ks = [choose_k(irrep, None if k_by_label is None else k_by_label.get(irrep.label))
          for irrep in irrep_set.irreps]
    degrees = [irrep.degree for irrep in irrep_set.irreps]
    exceptional = 1 + sum(m - 1 for m in degrees)
    if (sum(m * m for m in degrees) == group.order
            and sum(k * m for k, m in zip(ks, degrees)) / group.order == exceptional):
        raise BadK(f"sum of k * degree / |G| is {exceptional} = 1 + sum of (degree - 1)")
    elements = []
    for irrep, k in zip(irrep_set.irreps, ks):
        value = capelli_element(irrep)(k)
        elements.append(value)
        report.add("basis-element-central", irrep.label, value.is_central())
    _rank_check(report, "capelli-basis", elements, classes)
    return elements, report


def character_basis(irrep_set: IrrepSet):
    report = Report()
    classes = conjugacy_classes(irrep_set.group)
    elements = [character_element(r) for r in irrep_set.irreps]
    for irrep, el in zip(irrep_set.irreps, elements):
        report.add("character-central", irrep.label, el.is_central())
    _rank_check(report, "character-basis", elements, classes)
    return elements, report


def _rank_check(report, name, elements, classes):
    rows = [e.coordinates_in_class_sums(classes) for e in elements]
    rk = linalg.rank(rows)
    report.add(
        name, "set",
        rk == len(classes) and len(elements) == len(classes),
        f"{len(elements)} elements, rank {rk}, classes {len(classes)}",
    )


# -- row and double determinant variants -----------------------------------------------


def verify_det_variants(irrep: Irrep) -> Report:
    """Row determinant must reproduce the Capelli element exactly.

    The double determinant carries diagonal shifts, and there are two ways
    to read them: attached to factor positions (the reading under which
    the identity is a theorem; for column and row determinants the two
    readings coincide, which is what makes the notation ambiguous) or
    baked into the matrix before the double sum.  Both are evaluated
    against candidate shift constants 1 and alpha, per shift permutation,
    and the outcomes recorded: the positioned reading matches at alpha for
    every permutation and every irrep, the matrix reading only in degree 1.
    `shift_variants` expands each reading once, at c = 0, and each
    candidate is read off that expansion by `ZPoly.shift`.
    """
    report = Report()
    reference = capelli_element(irrep)
    row_variant, variants = shift_variants(E_matrix(irrep), irrep.alpha, _one(irrep))
    report.add("rowdet-variant", irrep.label, row_variant == reference)

    candidates = {"1": Fraction(1), "alpha": Fraction(irrep.alpha)}
    for sigma, positioned, attached in variants:
        for name, at_zero in (("doubledet-positioned", positioned), ("doubledet-matrix", attached)):
            matching = [lbl for lbl, c in candidates.items() if at_zero.shift(c) == reference]
            report.measure(
                name, f"{irrep.label}#sigma={sigma}",
                f"matching shifts: {matching if matching else 'none'}",
            )
    return report


# -- rendering ----------------------------------------------------------------------


def render_capelli(poly: ZPoly) -> str:
    """Group the z-polynomial by group element: (z^2 - 5*z)*e + z*(123) + ...
    An element's coefficient is its z-polynomial, or the constant when that
    has degree 0, so a constant sum is parenthesized once."""
    if not poly.coeffs:
        return "0"
    group = poly.coeffs[0].group
    terms = []
    for g, name in enumerate(group.element_names):
        p = ZPoly([c.coeffs[g] for c in poly.coeffs])
        if p:
            terms.append((p.coeffs[0] if p.degree == 0 else p, name))
    return format_sum(terms)
