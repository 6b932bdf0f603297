import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab.cyclo import (
    ConductorMismatch,
    Cyclo,
    NotDivisible,
    cyclo_degree,
    cyclotomic_polynomial,
    format_sum,
)
from helpers import cyclotomic_by_division, poly_divmod, poly_mul, reduce_mod


def test_cyclotomic_polynomial_first_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_polynomial_6_against_division_oracle():
    # x^6 - 1 divided by Phi1 * Phi2 * Phi3, all done with the naive oracle
    denom = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    quot, rem = poly_divmod([-1, 0, 0, 0, 0, 0, 1], denom)
    assert rem == [0]
    assert [Fraction(c) for c in cyclotomic_polynomial(6)] == quot
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_polynomial_against_divide_out_loop():
    for n in list(range(1, 301)) + [840, 997, 1000]:
        assert cyclotomic_polynomial(n) == cyclotomic_by_division(n), n


def test_cyclotomic_degrees_are_totients():
    totients = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 12: 4}
    for n, phi in totients.items():
        assert cyclo_degree(n) == phi


def test_zeta4_squared_is_minus_one():
    z = Cyclo.zeta(4)
    assert z * z == -1


def test_zeta3_power_sum_vanishes():
    z = Cyclo.zeta(3)
    assert 1 + z + z * z == 0


def test_product_reduction_against_oracle():
    # (1 + zeta8)(1 - zeta8) = 1 - zeta8^2, reduced by the oracle
    z = Cyclo.zeta(8)
    got = (1 + z) * (1 - z)
    phi8 = list(cyclotomic_polynomial(8))
    expected = reduce_mod(poly_mul([1, 1], [1, -1]), phi8)
    assert got.coefficients() == expected
    assert got == 1 - Cyclo.zeta(8, 2)


def test_inverse_rational():
    two = Cyclo.rational(2, 4)
    assert two.inverse() == Fraction(1, 2)


@pytest.mark.parametrize("conductor", [1, 12, 997])
@pytest.mark.parametrize("value", [
    Fraction(2), Fraction(-1), Fraction(-7, 3), Fraction(5, 11), Fraction(-1, 997), Fraction(10**30 + 1, 6),
])
def test_inverse_of_a_rational_value_is_its_reciprocal(conductor, value):
    a = Cyclo.rational(value, conductor)
    inv = a.inverse()
    assert inv == Cyclo.rational(1 / value, conductor)
    assert inv.as_rational() == 1 / value
    assert a * inv == 1


def test_inverse_of_a_rational_in_a_large_field_is_fast():
    Cyclo.rational(1, 997)  # build the field's tables outside the timing
    started = time.perf_counter()
    assert Cyclo.rational(2, 997).inverse() == Fraction(1, 2)
    assert time.perf_counter() - started < 0.1


def test_inverse_root_of_unity():
    z = Cyclo.zeta(8)
    assert z.inverse() == Cyclo.zeta(8, 7)


def test_inverse_generic_element():
    # (1 + z)(-z) = -z - z^2 = 1 since 1 + z + z^2 = 0
    a = 1 + Cyclo.zeta(3)
    inv = a.inverse()
    assert a * inv == 1
    assert inv == -Cyclo.zeta(3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(5).inverse()


def test_promote_rational():
    assert Cyclo.rational(3).promote(6) == Cyclo.rational(3, 6)


def test_promote_zeta2():
    assert Cyclo.zeta(2).promote(6) == -Cyclo.one(6)


def test_promote_zeta3_reduces():
    # zeta3 = zeta6^2 = zeta6 - 1 modulo x^2 - x + 1
    got = Cyclo.zeta(3).promote(6)
    assert got == Cyclo.zeta(6) - 1
    assert got.coefficients() == [Fraction(-1), Fraction(1)]


def test_promote_requires_divisibility():
    with pytest.raises(NotDivisible):
        Cyclo.zeta(4).promote(6)


def test_mixed_conductor_arithmetic_rejected():
    with pytest.raises(ConductorMismatch):
        Cyclo.zeta(3) + Cyclo.zeta(4)


def test_equality_across_conductors_by_value():
    assert Cyclo.zeta(3) == Cyclo.zeta(6, 2)
    assert Cyclo.zeta(2) == Cyclo.rational(-1)


def test_serialization_round_trip():
    a = Cyclo(12, [Fraction(1, 2), -2, 0, Fraction(7, 3)])
    data = a.to_dict()
    assert data["conductor"] == 12
    assert len(data["coeffs"]) == cyclo_degree(12)
    assert Cyclo.from_dict(data) == a


def test_serialization_rejects_wrong_length():
    with pytest.raises(ValueError):
        Cyclo.from_dict({"conductor": 4, "coeffs": ["1"]})


@pytest.mark.parametrize("data", [
    1, "1", [1], {"conductor": "4", "coeffs": ["1", "0"]}, {"conductor": 4, "coeffs": "10"},
    {"conductor": 4, "coeffs": [1.5, 0]}, {"conductor": 4, "coeffs": [None, 0]},
    {"conductor": 4, "coeffs": ["1/0", "0"]}, {"conductor": 4, "coeffs": ["1e1000000", "0"]},
    {"conductor": 30030, "coeffs": ["1"]}, {"conductor": 0, "coeffs": []},
    {"conductor": -1, "coeffs": ["1"]}, {"conductor": True, "coeffs": ["1"]},
    {"conductor": 4, "coeffs": ["0.5", "0"]}, {"conductor": 4, "coeffs": [" 1", "0"]},
    {"conductor": 4, "coeffs": ["1/-2", "0"]}, {"conductor": 4, "coeffs": [True, "0"]},
])
def test_deserialization_rejects_wrong_shape(data):
    with pytest.raises(ValueError, match="'(conductor|coeffs)'"):
        Cyclo.from_dict(data)


def test_deserialization_accepts_grammar():
    data = {"conductor": 3, "coeffs": ["-12/08", "+3"]}
    assert Cyclo.from_dict(data) == Cyclo(3, [Fraction(-3, 2), 3])


# README grammar of a coefficient string, written out independently of cyclo._COEFF
GRAMMAR = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")

digit_strings = st.one_of(
    st.text("0123456789", min_size=1, max_size=40),
    st.integers(4290, 4310).map(lambda k: "7" * k),  # around int's 4300-digit string limit
)
coefficients = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(lambda sign, p, zeros, q: f"{sign}{p}/{zeros}{q}" if q else f"{sign}{p}",
              st.sampled_from(["", "+", "-"]), digit_strings, st.text("0", max_size=3),
              st.none() | digit_strings),
    st.sampled_from(["1/007", "007", "-0", "+0/1", "1/0", "1/00", "", " 1", "1.5", "1e3",
                     "+-1", "1/-2", "1/+2", "1_000", "½", "١"]),
    st.sampled_from([True, False, None, 1.0]),
)


def _fraction_route(n, raw):
    # the parse before the integer reader: grammar, then one Fraction per coefficient
    if not all(type(s) is int or (isinstance(s, str) and GRAMMAR.fullmatch(s)) for s in raw):
        raise ValueError("field 'coeffs' must hold integers or strings 'p' or 'p/q', q > 0")
    return Cyclo(n, raw)


def _outcome(parse, *args):
    try:
        value = parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return value.conductor, value.num, value.den


@given(st.sampled_from((1, 3, 4, 5, 8, 12)), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_parse_matches_fraction_route(n, data):
    raw = data.draw(st.lists(coefficients, min_size=cyclo_degree(n), max_size=cyclo_degree(n)))
    got = _outcome(Cyclo.from_dict, {"conductor": n, "coeffs": raw})
    assert got == _outcome(_fraction_route, n, raw)


# -- property tests -------------------------------------------------------------

CONDUCTORS = (1, 3, 4, 5, 6, 8, 12)


@st.composite
def cyclos(draw, conductor=None, conductors=CONDUCTORS):
    n = conductor if conductor is not None else draw(st.sampled_from(conductors))
    d = cyclo_degree(n)
    nums = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    den = draw(st.integers(1, 6))
    return Cyclo(n, [Fraction(v, den) for v in nums])


@st.composite
def cyclo_triples(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    return tuple(draw(cyclos(conductor=n)) for _ in range(3))


@given(cyclo_triples())
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(cyclos(conductors=CONDUCTORS + (2, 7, 9, 15, 16, 24)))
def test_multiplicative_inverse(a):
    if a:
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@given(cyclo_triples(), st.sampled_from((2, 3, 4)))
def test_promotion_commutes_with_arithmetic(triple, factor):
    a, b, _ = triple
    target = a.conductor * factor
    assert (a + b).promote(target) == a.promote(target) + b.promote(target)
    assert (a * b).promote(target) == a.promote(target) * b.promote(target)


@given(cyclos())
def test_promotion_is_injective_on_values(a):
    lifted = a.promote(a.conductor * 2)
    assert lifted == a
    assert (not a) == (not lifted)


# -- rendering -------------------------------------------------------------------


def test_format_sum_rules():
    assert format_sum([]) == "0"
    # a coefficient 1 or -1 before a monomial is dropped; a constant keeps it
    assert format_sum([(1, "x"), (-1, "y"), (1, ""), (-1, "")]) == "x - y + 1 - 1"
    # a coefficient with a space is parenthesized, before a monomial or alone
    assert format_sum([("a - b", "x"), ("a + b", "")]) == "(a - b)*x + (a + b)"
    # a later term with a leading "-" is joined by " - "; the first stays as is
    assert format_sum([(Fraction(-1, 2), "x"), (-3, "y"), (2, "z")]) == "-1/2*x - 3*y + 2*z"
    # a monomial is printed verbatim, whatever it holds
    assert format_sum([(1, "e"), (-1, "a + -b"), (2, "-c")]) == "e - a + -b + 2*-c"


def test_format_sum_gives_the_size_of_an_integer_too_long_to_print():
    # str(int) refuses more than the limit's digits; the sum still renders
    limit = sys.get_int_max_str_digits()
    longest, past = 10**limit - 1, 10**limit
    assert format_sum([(longest, "x")]) == "9" * limit + "*x"
    big = f"<{limit + 1}-digits>"
    assert format_sum([(past, "x"), (-past, ""), (Fraction(-1, past), "y")]) == (
        f"{big}*x - {big} - 1/{big}*y")
    assert str(Cyclo(3, [Fraction(past, 7), Fraction(-past * 10)])) == f"{big}/7 - <{limit + 2}-digits>*ζ3"
