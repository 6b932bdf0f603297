from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab.algebra import (
    AlgebraElement,
    GroupMismatch,
    NotAClass,
    NotCentral,
    character_element,
    class_sum,
)
from capelli_lab.catalog import catalog_group, catalog_irreps, catalog_names
from capelli_lab.cyclo import ConductorMismatch, Cyclo
from capelli_lab.groups import build_group_from_table, conjugacy_classes, exponent
from helpers import naive_convolve

S3 = catalog_group("S3")
S3_NAMES = {name: i for i, name in enumerate(S3.element_names)}


def s3_element(mapping):
    coeffs = [Cyclo.zero(6)] * 6
    for name, value in mapping.items():
        coeffs[S3_NAMES[name]] = Cyclo.rational(value, 6)
    return AlgebraElement(S3, coeffs)


def sign_of(name):
    return 1 if name in ("e", "(123)", "(132)") else -1


def test_identity_is_neutral():
    e = AlgebraElement.identity(S3)
    a = s3_element({"e": 2, "(12)": -3, "(123)": Fraction(1, 2)})
    assert e * a == a
    assert a * e == a


def test_basis_convolution_follows_cayley_table():
    for g in range(S3.order):
        for h in range(S3.order):
            prod = AlgebraElement.basis(S3, g) * AlgebraElement.basis(S3, h)
            assert prod == AlgebraElement.basis(S3, S3.mul(g, h))


def test_sign_sum_squares_to_six_times_itself():
    sgn = s3_element({name: sign_of(name) for name in S3.element_names})
    direct = sgn * sgn
    # oracle: all 36 products accumulated straight off the definition
    oracle = naive_convolve(S3.table, sgn.coeffs, sgn.coeffs, Cyclo.zero(6))
    assert list(direct.coeffs) == oracle
    assert direct == 6 * sgn


def test_equality_across_conductors_promotes():
    a = s3_element({"e": 2, "(12)": -3, "(123)": Fraction(1, 2)})
    lifted = AlgebraElement(S3, [c.promote(12) for c in a.coeffs])
    assert lifted.conductor == 12 and a.conductor == 6
    assert a == lifted and lifted == a
    zeta = Cyclo.zeta(12)
    shifted = AlgebraElement(S3, [lifted.coeffs[0] + zeta, *lifted.coeffs[1:]])
    assert a != shifted and shifted != a
    assert AlgebraElement.identity(S3, 1) == AlgebraElement.identity(S3)


def test_scaling_by_one_and_zero_entries():
    a = s3_element({"e": 2, "(12)": -3})
    assert a.scale(1) is a and a.scale(Fraction(1)) is a
    assert a.scale(Fraction(1, 2)) == s3_element({"e": 1, "(12)": Fraction(-3, 2)})
    assert a.scale(Cyclo.one(6)) == a
    assert 0 * a == AlgebraElement.zero(S3)


def test_scaling_by_another_field_is_refused():
    # a Cyclo scalar is not promoted into the element's field, even where
    # it would fit (zeta_3 into Q(zeta_6))
    a = s3_element({"e": 2, "(12)": -3})
    with pytest.raises(ConductorMismatch):
        a.scale(Cyclo.zeta(3))
    zeta = Cyclo.zeta(6)
    assert a.scale(Cyclo.zeta(3).promote(6)) == a.scale(zeta).scale(zeta)


def test_group_mismatch_rejected():
    with pytest.raises(GroupMismatch):
        AlgebraElement.identity(S3) * AlgebraElement.identity(catalog_group("C4"))


def test_identity_is_central():
    assert AlgebraElement.identity(S3).is_central()


def test_transposition_class_sum_is_central():
    transpositions = [i for i, n in enumerate(S3.element_names) if n.count("(") == 1 and len(n) == 4]
    total = AlgebraElement.zero(S3)
    for g in transpositions:
        total = total + AlgebraElement.basis(S3, g)
    assert total.is_central()


def test_single_transposition_not_central():
    a = AlgebraElement.basis(S3, S3_NAMES["(12)"])
    assert not a.is_central()
    # witness: conjugation by (13) moves it
    b = AlgebraElement.basis(S3, S3_NAMES["(13)"])
    assert a * b != b * a


def test_noncommuting_element_is_the_first_by_products():
    """On every basis element of S3 and on the sum of one transposition
    and a 3-cycle: the first g with g*a != a*g, found by products."""
    basis = [AlgebraElement.basis(S3, g) for g in range(S3.order)]
    mixed = basis[S3_NAMES["(12)"]] + basis[S3_NAMES["(123)"]]
    for a in basis + [mixed]:
        first = next((g for g, b in enumerate(basis) if a * b != b * a), None)
        assert a.noncommuting_element() == first
        assert a.is_central() == (first is None)


def test_class_sum_of_identity_class():
    assert class_sum(S3, (S3.identity,)) == AlgebraElement.identity(S3)


def test_class_sum_of_three_cycles():
    cls = tuple(sorted(S3_NAMES[n] for n in ("(123)", "(132)")))
    expected = s3_element({"(123)": 1, "(132)": 1})
    assert class_sum(S3, cls) == expected


def test_class_sum_rejects_non_class():
    with pytest.raises(NotAClass):
        class_sum(S3, (S3_NAMES["(12)"], S3_NAMES["(123)"]))


@pytest.mark.parametrize("name", catalog_names())
def test_class_sums_are_central_everywhere(name):
    group = catalog_group(name)
    for cls in conjugacy_classes(group):
        assert class_sum(group, cls).is_central()


def test_coordinates_of_identity():
    coords = AlgebraElement.identity(S3).coordinates_in_class_sums()
    assert coords == [1, 0, 0]


def test_coordinates_of_all_ones():
    total = s3_element({name: 1 for name in S3.element_names})
    assert total.coordinates_in_class_sums() == [1, 1, 1]


def test_coordinates_of_standard_character():
    irreps = catalog_irreps("S3")
    chi = character_element(irreps.by_label("std"))
    # classes ordered: identity, 3-cycles, transpositions
    assert chi.coordinates_in_class_sums() == [2, -1, 0]


def test_coordinates_reject_non_central():
    with pytest.raises(NotCentral):
        AlgebraElement.basis(S3, S3_NAMES["(12)"]).coordinates_in_class_sums()


def test_character_element_of_trivial_and_sign():
    irreps = catalog_irreps("S3")
    assert character_element(irreps.by_label("triv")) == s3_element(
        {name: 1 for name in S3.element_names}
    )
    assert character_element(irreps.by_label("sgn")) == s3_element(
        {name: sign_of(name) for name in S3.element_names}
    )


def test_character_element_of_standard():
    irreps = catalog_irreps("S3")
    chi = character_element(irreps.by_label("std"))
    assert chi == s3_element({"e": 2, "(123)": -1, "(132)": -1})


@pytest.mark.parametrize("name", catalog_names())
def test_character_elements_are_central(name):
    for irrep in catalog_irreps(name).irreps:
        assert character_element(irrep).is_central()


def test_class_sum_products_have_nonneg_integer_structure_constants():
    for name in ("S3", "Q8", "A4"):
        group = catalog_group(name)
        classes = conjugacy_classes(group)
        sums = [class_sum(group, cls) for cls in classes]
        for x in sums:
            for y in sums:
                assert x * y == y * x
                for coord in (x * y).coordinates_in_class_sums(classes):
                    value = coord.as_rational()
                    assert value is not None and value.denominator == 1 and value >= 0


# -- property tests ----------------------------------------------------------------


@st.composite
def algebra_elements(draw, group=S3):
    n = exponent(group)
    coeffs = [
        Cyclo.rational(draw(st.integers(-4, 4)), n) for _ in range(group.order)
    ]
    return AlgebraElement(group, coeffs)


@given(algebra_elements(), algebra_elements(), algebra_elements())
@settings(max_examples=40)
def test_convolution_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(algebra_elements(), algebra_elements())
@settings(max_examples=40)
def test_convolution_against_oracle(a, b):
    # two independent factors: a and a + 1 commute, so they would not
    # tell a*b from b*a
    oracle = naive_convolve(S3.table, a.coeffs, b.coeffs, Cyclo.zero(6))
    assert list((a * b).coeffs) == oracle


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_class_sum_combinations_round_trip(weights):
    # random center element: coordinates recover the class-sum weights
    classes = conjugacy_classes(S3)
    total = AlgebraElement.zero(S3)
    for w, cls in zip(weights, classes):
        total = total + w * class_sum(S3, cls)
    assert total.is_central()
    assert total.coordinates_in_class_sums(classes) == weights


@pytest.mark.xfail(strict=True, reason=(
    "cyclo.format_sum takes the joining sign from a term's text; deciding it from the "
    "coefficient also changes the rendered Q8 Capelli elements in perfbench/golden.json "
    "(element '-1' etc.), so the fix waits for a benchmark change"))
def test_element_names_that_start_with_a_minus_print_verbatim():
    # the joining sign should come from the coefficient, never from the name
    c2 = build_group_from_table("C2", ["e", "-c"], [[0, 1], [1, 0]])
    e, c = AlgebraElement.basis(c2, 0), AlgebraElement.basis(c2, 1)
    assert str(e + c) == "e + -c"
    assert str(e - c) == "e - -c"
    assert str(e + c.scale(2)) == "e + 2*-c"
