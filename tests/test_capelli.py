import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab import linalg
from capelli_lab.algebra import AlgebraElement, character_element
from capelli_lab.capelli import (
    BadK,
    capelli_element,
    capelli_via_subsets,
    center_basis,
    character_basis,
    choose_k,
    render_capelli,
    u_factor,
    u_product,
    verify_centrality,
    verify_closed_form,
    verify_conjugation_invariance,
    verify_det_variants,
)
from capelli_lab.catalog import catalog_group, catalog_irreps, catalog_names
from capelli_lab.cyclo import Cyclo
from capelli_lab.groups import build_group_from_table, conjugacy_classes, group_from_dict
from capelli_lab.irreps import E_matrix, Irrep, irrep_from_dict
from capelli_lab.ncdet import ZPoly, natural_sigma, natural_star, rowdet, shift_variants
from helpers import (
    double_sum_by_permutations,
    mat_eq,
    matrix_attached_double_det,
    matrix_product,
    naive_convolve,
    positioned_double_det,
    shifted_matrix,
)

S3 = catalog_irreps("S3")
STD = S3.by_label("std")


def s3_algebra(mapping):
    names = {n: i for i, n in enumerate(STD.group.element_names)}
    coeffs = [Cyclo.zero(6)] * 6
    for name, v in mapping.items():
        coeffs[names[name]] = Cyclo.rational(v, 6)
    return AlgebraElement(STD.group, coeffs)


# -- u polynomials ------------------------------------------------------------


def test_u_factor_s3_standard():
    # m = 2, alpha = 3
    assert u_factor(STD, 1) == ZPoly([Fraction(3), Fraction(-1)])
    assert u_factor(STD, 2) == ZPoly([Fraction(0), Fraction(-1)])


def test_u_factor_last_index_is_minus_z():
    for name in ("C4", "A4"):
        for irrep in catalog_irreps(name).irreps:
            assert u_factor(irrep, irrep.degree) == ZPoly([Fraction(0), Fraction(-1)])


def test_u_factor_range_checked():
    with pytest.raises(IndexError):
        u_factor(STD, 0)
    with pytest.raises(IndexError):
        u_factor(STD, 3)


def test_u_product_empty_is_one():
    assert u_product(STD, 0) == ZPoly([Fraction(1)])


def test_u_product_s3_standard():
    # u^(2) = (-z)(3 - z) = z^2 - 3z, u^(1) = -z
    assert u_product(STD, 2) == ZPoly([Fraction(0), Fraction(-3), Fraction(1)])
    assert u_product(STD, 1) == ZPoly([Fraction(0), Fraction(-1)])


# -- the Capelli element ---------------------------------------------------------


def test_capelli_element_of_trivial_irrep():
    for name in ("C4", "S3", "Q8"):
        irrep_set = catalog_irreps(name)
        triv = irrep_set.by_label("triv")
        poly = capelli_element(triv)
        group = triv.group
        all_ones = AlgebraElement(group, [Cyclo.one(triv.conductor)] * group.order)
        assert poly == ZPoly([all_ones, -AlgebraElement.identity(group, triv.conductor)])


def test_capelli_element_of_sign_irrep():
    sgn = S3.by_label("sgn")
    poly = capelli_element(sgn)
    expected_const = character_element(sgn)
    assert poly.coeffs[0] == expected_const
    assert poly.coeffs[1] == -AlgebraElement.identity(sgn.group, 6)
    assert poly.degree == 1


def test_capelli_element_standard_matches_frozen_value():
    poly = capelli_element(STD)
    # frozen from the closed form: (z^2 - 5z) e + z (123) + z (132)
    assert poly.degree == 2
    assert poly.coeffs[0] == s3_algebra({})
    assert poly.coeffs[1] == s3_algebra({"e": -5, "(123)": 1, "(132)": 1})
    assert poly.coeffs[2] == s3_algebra({"e": 1})


def test_capelli_element_standard_against_convolution_oracle():
    # expand (E11 + 3 - z)(E22 - z) - E21 E12 with oracle convolutions
    em = E_matrix(STD)
    group = STD.group
    zero = Cyclo.zero(6)
    one_el = AlgebraElement.identity(group, 6)

    def conv(a, b):
        return AlgebraElement(group, naive_convolve(group.table, a.coeffs, b.coeffs, zero))

    a = em[0][0] + 3 * one_el  # constant part of the (1,1) entry
    d = em[1][1]
    # z-degree bookkeeping done by hand:
    #   constant: a*d - E21*E12;  z: -(a + d);  z^2: identity
    const = conv(a, d) - conv(em[1][0], em[0][1])
    linear = -(a + d)
    expected = ZPoly([const, linear, one_el])
    assert capelli_element(STD) == expected


@pytest.mark.parametrize("label", ["triv", "sgn", "std"])
def test_capelli_via_subsets_matches_determinant_s3(label):
    irrep = S3.by_label(label)
    assert capelli_via_subsets(irrep) == capelli_element(irrep)


def test_capelli_via_subsets_matches_on_degree_three():
    a4_std = catalog_irreps("A4").by_label("std")
    assert capelli_via_subsets(a4_std) == capelli_element(a4_std)


def test_closed_form_s3_standard_and_q8():
    assert verify_closed_form(STD).ok
    assert verify_closed_form(catalog_irreps("Q8").by_label("std")).ok


def test_closed_form_every_degree_one_is_trivial_match():
    for name in ("C6", "V4"):
        for irrep in catalog_irreps(name).irreps:
            assert verify_closed_form(irrep).ok


def _relabelled_elementary_character(k, seed):
    """C2^k under xor, relabelled by a seeded permutation, with the character
    x -> (-1)^popcount(x & 0b1010...) as an irrep over Q."""
    n = 1 << k
    perm = list(range(n))
    random.Random(seed).shuffle(perm)  # element x gets index perm[x]
    table = [[0] * n for _ in range(n)]
    values = [0] * n
    for a in range(n):
        values[perm[a]] = (-1) ** bin(a & 0b10101010).count("1")
        for b in range(n):
            table[perm[a]][perm[b]] = perm[a ^ b]
    group = group_from_dict({"name": f"C2^{k}", "order": n,
                             "elements": [str(x) for x in range(n)], "table": table})
    return irrep_from_dict(group, {
        "label": "chi", "group": group.name, "degree": 1, "conductor": 1,
        "matrices": [[[{"conductor": 1, "coeffs": [v]}]] for v in values]})


def test_closed_form_products_do_not_grow_with_the_group(monkeypatch):
    # a degree-1 closed form scales the mostly zero identity element and
    # compares whole elements; neither may cost a product per group element
    counts = []
    multiply = Cyclo.__mul__

    def counted(self, other):
        counts[-1] += 1
        return multiply(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    for k, seed in ((6, 64), (8, 256)):
        irrep = _relabelled_elementary_character(k, seed)
        counts.append(0)
        assert verify_closed_form(irrep).ok
    assert counts[0] == counts[1] > 0


def test_degree_and_leading_coefficient():
    # consequence of the closed form: degree m, leading coefficient (-1)^m e
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            poly = capelli_element(irrep)
            m = irrep.degree
            assert poly.degree == m
            lead = AlgebraElement.identity(irrep.group, irrep.conductor)
            if m % 2:
                lead = -lead
            assert poly.coeffs[m] == lead


def test_centrality_s3_standard():
    report = verify_centrality(STD, S3)
    assert report.ok
    checked = {r.irrep for r in report.results if r.check == "commutes-with-E"}
    assert checked == {"std|triv", "std|sgn", "std|std"}


def test_centrality_d4():
    d4 = catalog_irreps("D4")
    assert verify_centrality(d4.by_label("std"), d4).ok


# -- conjugation invariance ---------------------------------------------------------


def test_conjugation_invariance_identity_p():
    ident = linalg.identity_matrix(2, STD.conductor)
    assert verify_conjugation_invariance(STD, ident).ok


def test_conjugation_invariance_family_s3():
    report = verify_conjugation_invariance(STD)
    assert report.ok
    assert len(report.results) == 3  # two permutation matrices and a transvection


def test_conjugation_invariance_transvection_q8():
    q8std = catalog_irreps("Q8").by_label("std")
    conductor = q8std.conductor
    p = linalg.identity_matrix(2, conductor)
    p[0][1] = Cyclo.one(conductor)
    assert verify_conjugation_invariance(q8std, p).ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_p_family_pairs_are_inverse(m):
    family = linalg.p_family(m, 3)
    assert len(family) == math.factorial(m) + (m >= 2)
    for p, p_inv in family:
        assert mat_eq(matrix_product(p, p_inv), linalg.identity_matrix(m, 3))


def test_conjugation_rejects_singular_p():
    p = [[Cyclo.zero(6), Cyclo.zero(6)], [Cyclo.zero(6), Cyclo.zero(6)]]
    with pytest.raises(linalg.SingularMatrix):
        verify_conjugation_invariance(STD, p)


# -- evaluation points and bases -------------------------------------------------------


def test_choose_k_degree_one_accepts_anything():
    triv = S3.by_label("triv")
    assert choose_k(triv, 12345) == 12345
    assert choose_k(triv) == Fraction(-1)


def test_choose_k_rejects_root():
    with pytest.raises(BadK):
        choose_k(STD, 0)
    a4_std = catalog_irreps("A4").by_label("std")  # roots are 0 and alpha = 4
    with pytest.raises(BadK):
        choose_k(a4_std, 4)
    assert choose_k(a4_std, 1) == 1


def test_choose_k_default_avoids_all_roots():
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            k = choose_k(irrep)
            evaluated = u_product(irrep, irrep.degree - 1)(k)
            assert evaluated != 0


def test_center_basis_trivial_group():
    elements, report = center_basis(catalog_irreps("C1"))
    assert report.ok
    group = catalog_group("C1")
    assert elements == [AlgebraElement(group, [Cyclo.rational(2, 1)])]


def test_center_basis_s3_and_q8():
    for name, classes in (("S3", 3), ("Q8", 5)):
        elements, report = center_basis(catalog_irreps(name))
        assert report.ok, str(report)
        assert len(elements) == classes


def test_center_basis_with_custom_k():
    elements, report = center_basis(S3, {"std": Fraction(7, 2)})
    assert report.ok


def _full_rank_at(irrep_set, ks):
    """The oracle: exact rank of the class-sum coordinates of the Capelli
    elements evaluated at ks, with no condition on the points."""
    classes = conjugacy_classes(irrep_set.group)
    values = [capelli_element(r)(k) for r, k in zip(irrep_set.irreps, ks)]
    conductor = irrep_set.conductor
    rows = [[c.promote(conductor) for c in v.coordinates_in_class_sums(classes)]
            for v in values]
    return linalg.rank(rows) == len(classes)


def _predicted_bad_z(irrep_set):
    degrees = [r.degree for r in irrep_set.irreps]
    return Fraction(irrep_set.group.order * (1 + sum(m - 1 for m in degrees)), sum(degrees))


@pytest.mark.parametrize("name", catalog_names())
def test_center_basis_rejects_exceptional_common_z(name):
    irrep_set = catalog_irreps(name)
    z = _predicted_bad_z(irrep_set)
    ks = [z] * len(irrep_set.irreps)
    assert all(choose_k(r, z) == z for r in irrep_set.irreps)  # each point alone is fine
    assert not _full_rank_at(irrep_set, ks)
    with pytest.raises(BadK):
        center_basis(irrep_set, {r.label: z for r in irrep_set.irreps})


POINTS = st.sampled_from([Fraction(v) for v in (-1, 0, 1, 2, 3, 4, 6, 8)]
                         + [Fraction(5, 2), Fraction(8, 3), Fraction(-7, 3)])


@given(st.sampled_from(("C3", "V4", "S3", "D4", "Q8", "A4")), st.data())
@settings(max_examples=80, deadline=None)
def test_center_basis_raises_exactly_when_rank_fails(name, data):
    irrep_set = catalog_irreps(name)
    irreps = irrep_set.irreps
    ks = [data.draw(POINTS) for _ in irreps]
    if data.draw(st.booleans()):
        # solve for the last point so that the set-level condition is hit
        order, degrees = irrep_set.group.order, [r.degree for r in irreps]
        target = order * (1 + sum(m - 1 for m in degrees))
        ks[-1] = Fraction(target - sum(k * m for k, m in zip(ks, degrees)) + ks[-1] * degrees[-1],
                          degrees[-1])
    try:
        _, report = center_basis(irrep_set, {r.label: k for r, k in zip(irreps, ks)})
    except BadK:
        assert not _full_rank_at(irrep_set, ks)
    else:
        assert report.ok and _full_rank_at(irrep_set, ks)


def test_character_basis_c2():
    elements, report = character_basis(catalog_irreps("C2"))
    assert report.ok
    group = catalog_group("C2")
    one = Cyclo.one(2)
    assert elements[0] == AlgebraElement(group, [one, one])
    assert elements[1] == AlgebraElement(group, [one, -one])


def test_character_basis_s3_a4():
    for name, classes in (("S3", 3), ("A4", 4)):
        elements, report = character_basis(catalog_irreps(name))
        assert report.ok, str(report)
        assert len(elements) == classes


# -- determinant variants ----------------------------------------------------------------


def test_det_variants_degree_one():
    # for a 1x1 irrep both readings coincide and match with shift alpha
    c4 = catalog_irreps("C4")
    chi = c4.by_label("chi1")  # alpha = 4
    report = verify_det_variants(chi)
    assert report.ok
    by_check = {}
    for r in report.results:
        by_check.setdefault(r.check, []).append(r)
    assert by_check["rowdet-variant"][0].status == "pass"
    assert len(by_check["doubledet-positioned"]) == 1
    assert by_check["doubledet-positioned"][0].detail == "matching shifts: ['alpha']"
    assert by_check["doubledet-matrix"][0].detail == "matching shifts: ['alpha']"


def test_det_variants_trivial_group_both_shifts_match():
    report = verify_det_variants(catalog_irreps("C1").by_label("triv"))
    for r in report.results:
        if r.check.startswith("doubledet"):
            assert r.detail == "matching shifts: ['1', 'alpha']"


def test_det_variants_s3_standard():
    report = verify_det_variants(STD)
    assert report.ok
    by_check = {}
    for r in report.results:
        by_check.setdefault(r.check, []).append(r)
    assert by_check["rowdet-variant"][0].status == "pass"
    # attaching the permuted shifts to factor positions recovers alpha for
    # both sigma patterns; baking them into the matrix works for neither
    positioned = by_check["doubledet-positioned"]
    assert len(positioned) == 2
    assert all(r.detail == "matching shifts: ['alpha']" for r in positioned)
    naive = by_check["doubledet-matrix"]
    assert len(naive) == 2
    assert all(r.detail == "matching shifts: none" for r in naive)


def test_positioned_double_det_matches_capelli_at_alpha():
    for name, label in (("S3", "std"), ("Q8", "std"), ("A4", "std")):
        irrep = catalog_irreps(name).by_label(label)
        m = irrep.degree
        sigma = tuple(range(1, m + 1))
        assert positioned_double_det(irrep, sigma, irrep.alpha) == capelli_element(irrep)
        assert positioned_double_det(irrep, sigma, Fraction(1)) != capelli_element(irrep)
        if m >= 2:
            assert matrix_attached_double_det(irrep, sigma, irrep.alpha) != capelli_element(irrep)


def _shift_oracle_irreps():
    # every catalog irrep of degree <= 2, plus the two of degree 3 named below
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            if irrep.degree <= 2 or (name, irrep.label) in (("A4", "std"), ("S4", "std")):
                yield pytest.param(irrep, id=f"{name}/{irrep.label}")


def _variants(irrep):
    one = AlgebraElement.identity(irrep.group, irrep.conductor)
    return shift_variants(E_matrix(irrep), irrep.alpha, one)


@pytest.mark.parametrize("irrep", _shift_oracle_irreps())
def test_double_dets_at_zero_shifted_match_direct_expansion(irrep):
    # verify_det_variants reads both candidates off the c = 0 expansion
    row, variants = _variants(irrep)
    assert row == rowdet(shifted_matrix(irrep, natural_star(irrep.degree)))
    assert [sigma for sigma, _, _ in variants] == list(permutations(range(1, irrep.degree + 1)))
    for sigma, positioned, attached in variants:
        for at_zero, expand in ((positioned, positioned_double_det),
                                (attached, matrix_attached_double_det)):
            for c in (Fraction(0), Fraction(1), Fraction(irrep.alpha)):
                assert at_zero.shift(c) == expand(irrep, sigma, c), (expand.__name__, sigma, c)


def test_a4_double_dets_at_zero_match_permutation_sums():
    irrep = catalog_irreps("A4").by_label("std")
    one = AlgebraElement.identity(irrep.group, irrep.conductor)
    lifted = [[ZPoly([entry]) for entry in row] for row in E_matrix(irrep)]
    _, variants = _variants(irrep)
    for sigma, at_zero, attached_at_zero in variants:
        diag = natural_sigma(irrep.degree, sigma)
        positioned = [ZPoly([irrep.alpha * d * one, -one]) for d in diag]
        assert at_zero == double_sum_by_permutations(lifted, positioned)
        attached = shifted_matrix(irrep, diag)
        assert attached_at_zero == double_sum_by_permutations(attached)


# -- verifiers must be able to fail ---------------------------------------------------------


def tampered_std():
    # swap the matrices of two non-identity elements: no longer a
    # homomorphism, so the product relations behind every identity break
    from capelli_lab.irreps import Irrep

    mats = list(STD.matrices)
    mats[1], mats[2] = mats[2], mats[1]
    return Irrep("tampered", STD.group, 2, tuple(mats))


def test_closed_form_fails_loudly_on_tampered_irrep():
    report = verify_closed_form(tampered_std())
    assert not report.ok
    failure = report.failures()[0]
    assert "vs" in failure.detail  # both sides rendered


def test_rowdet_variant_fails_on_tampered_irrep():
    report = verify_det_variants(tampered_std())
    by_check = {r.check: r for r in report.results}
    assert by_check["rowdet-variant"].status == "fail"


def test_centrality_fails_on_tampered_irrep():
    report = verify_centrality(tampered_std())
    assert not report.ok


# -- rendering ----------------------------------------------------------------------------


def test_render_standard_capelli():
    text = render_capelli(capelli_element(STD))
    assert text == "(-5*z + z^2)*e + z*(123) + z*(132)"


def test_render_evaluated_element():
    value = capelli_element(STD)(Fraction(-1))
    assert str(value) == "6*e - (123) - (132)"


def test_render_prints_element_names_verbatim():
    """An element name holding "+ -" is printed as it stands: the terms
    are joined term by term, not by rewriting the joined text."""
    group = build_group_from_table("C2", ["e", "a + -b"], [[0, 1], [1, 0]])
    sgn = Irrep("sgn", group, 1, (((Cyclo.rational(1, 2),),), ((Cyclo.rational(-1, 2),),)))
    assert render_capelli(capelli_element(sgn)) == "(1 - z)*e - a + -b"


def test_zpoly_str_joins_a_negative_term_with_minus():
    assert str(ZPoly([1, -1])) == "1 - z"
    assert str(ZPoly([Fraction(-1, 2), 0, 3])) == "-1/2 + 3*z^2"
    assert str(ZPoly([Cyclo(3, [1, 1])])) == "(1 + ζ3)"


def test_capelli_element_dataclass_str():
    # the Capelli element is the z-polynomial itself, with no wrapper
    element = capelli_element(STD)
    assert isinstance(element, ZPoly)
    assert "z^2" in str(element)
