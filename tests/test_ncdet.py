import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab.ncdet import (
    SizeLimit,
    ZPoly,
    capelli_zpoly,
    coldet,
    conjugate,
    doubledet,
    natural_shift,
    natural_sigma,
    natural_star,
    positioned_doubledet,
    rowdet,
)
from capelli_lab.weyl import WeylContext, WeylOp
from helpers import FreeWord, _perm_sign, double_sum_by_permutations, leibniz_det


def words(*names):
    return [FreeWord.symbol(n) for n in names]


def test_column_determinant_2x2_order():
    a, b, c, d = words("a", "b", "c", "d")
    got = coldet([[a, b], [c, d]])
    assert got == a * d - c * b
    assert got != a * d - b * c  # order matters in the free ring


def test_row_determinant_2x2_order():
    a, b, c, d = words("a", "b", "c", "d")
    assert rowdet([[a, b], [c, d]]) == a * d - b * c


def test_determinants_agree_on_commutative_entries():
    matrix = [[Fraction(1), Fraction(2), Fraction(0)],
              [Fraction(-1), Fraction(3), Fraction(5)],
              [Fraction(2), Fraction(2), Fraction(7)]]
    expected = leibniz_det(matrix)
    assert coldet(matrix) == expected
    assert rowdet(matrix) == expected
    assert doubledet(matrix) == expected


def test_rowdet_is_coldet_of_transpose():
    syms = [[FreeWord.symbol(f"a{i}{j}") for j in range(3)] for i in range(3)]
    transpose = [[syms[j][i] for j in range(3)] for i in range(3)]
    assert rowdet(syms) == coldet(transpose)


def test_weyl_matrix_exhibits_order_sensitivity():
    # [[x, d], [x, d]] over one variable: coldet = xd - xd = 0 while
    # rowdet = xd - dx = -alpha
    for alpha in (Fraction(1), Fraction(3)):
        ctx = WeylContext(("1",), alpha)
        x = WeylOp.x(ctx, 0)
        d = WeylOp.d(ctx, 0)
        assert not coldet([[x, d], [x, d]])
        assert rowdet([[x, d], [x, d]]) == WeylOp.scalar(ctx, -alpha)


def test_doubledet_1x1():
    (a,) = words("a")
    assert doubledet([[a]]) == a


def test_positioned_doubledet_with_zero_diagonal_terms_is_doubledet():
    syms = [[FreeWord.symbol(f"a{i}{j}") for j in range(3)] for i in range(3)]
    assert positioned_doubledet(syms, [FreeWord()] * 3) == doubledet(syms)


# -- ring-generic builders ---------------------------------------------------------

F = Fraction


@pytest.mark.parametrize("p, p_inv, expected", [
    # transvection: row 2 added to row 1, then column 1 subtracted from column 2
    ([[F(1), F(1)], [F(0), F(1)]], [[F(1), F(-1)], [F(0), F(1)]],
     lambda a, b, c, d: [[a + c, b + d - a - c], [c, d - c]]),
    # swap: rows and columns exchanged
    ([[F(0), F(1)], [F(1), F(0)]], [[F(0), F(1)], [F(1), F(0)]],
     lambda a, b, c, d: [[d, c], [b, a]]),
])
def test_conjugate_matches_hand_product(p, p_inv, expected):
    a, b, c, d = words("a", "b", "c", "d")
    assert conjugate([[a, b], [c, d]], p, p_inv) == expected(a, b, c, d)


def test_capelli_zpoly_2x2_hand_expansion():
    # coldet [[a + alpha - z, b], [c, d - z]] = (a + alpha - z)(d - z) - c b
    a, b, c, d = words("a", "b", "c", "d")
    one = FreeWord.const(1)
    alpha = F(3)
    got = capelli_zpoly([[a, b], [c, d]], alpha, one)
    shifted = a + alpha * one
    assert got.coeffs == (shifted * d - c * b, -shifted - d, one)


def test_coldet_of_scalar_permutation_matrix_is_sign():
    matrix = [[Fraction(0), Fraction(1), Fraction(0)],
              [Fraction(0), Fraction(0), Fraction(1)],
              [Fraction(1), Fraction(0), Fraction(0)]]
    assert coldet(matrix) == _perm_sign((1, 2, 0))


def test_column_multilinearity_over_scalars():
    syms = [[FreeWord.symbol(f"a{i}{j}") for j in range(2)] for i in range(2)]
    scaled = [[3 * syms[i][0], syms[i][1]] for i in range(2)]
    assert coldet(scaled) == 3 * coldet(syms)


def test_size_limit():
    matrix = [[Fraction(1)] * 7 for _ in range(7)]
    for det in (coldet, rowdet, doubledet):
        with pytest.raises(SizeLimit):
            det(matrix)
    with pytest.raises(SizeLimit):
        positioned_doubledet(matrix, [Fraction(0)] * 7)


def test_shift_patterns():
    assert natural_shift(1) == [0]
    assert natural_shift(3) == [2, 1, 0]
    assert natural_star(3) == [0, 1, 2]
    assert natural_sigma(2, (1, 2)) == [2, 1]
    assert natural_sigma(2, (2, 1)) == [1, 2]
    assert natural_sigma(3, (2, 3, 1)) == [1, 3, 2]
    with pytest.raises(ValueError):
        natural_sigma(2, (1, 1))


# -- ZPoly ------------------------------------------------------------------------


def test_zpoly_trims_trailing_zeros():
    p = ZPoly([Fraction(1), Fraction(0), Fraction(0)])
    assert p.degree == 0
    assert p.coeffs == (Fraction(1),)
    assert not ZPoly([Fraction(0)])


def test_zpoly_arithmetic_over_fractions():
    p = ZPoly([Fraction(1), Fraction(2)])       # 1 + 2z
    q = ZPoly([Fraction(0), Fraction(1), Fraction(3)])  # z + 3z^2
    assert (p + q).coeffs == (Fraction(1), Fraction(3), Fraction(3))
    assert (p * q).coeffs == (Fraction(0), Fraction(1), Fraction(5), Fraction(6))
    assert (p - p).coeffs == ()
    assert p(Fraction(2)) == 5


def test_zpoly_keeps_noncommutative_coefficient_order():
    a, b, c, d = words("a", "b", "c", "d")
    left = ZPoly([a, b])
    right = ZPoly([c, d])
    product = left * right
    assert product.coeffs[0] == a * c
    assert product.coeffs[1] == a * d + b * c
    assert product.coeffs[2] == b * d
    assert product.coeffs[1] != d * a + c * b


def test_zpoly_scalar_action_and_map():
    p = ZPoly([Fraction(2), Fraction(-4)])
    assert (Fraction(1, 2) * p).coeffs == (Fraction(1), Fraction(-2))
    assert p.map_coeffs(lambda v: v * 0).coeffs == ()


def test_zpoly_cancellation_inside_product():
    a = FreeWord.symbol("a")
    one = FreeWord.const(1)
    # (a + z)(a - z) = a^2 + (a - a) z - z^2: the z slot cancels entirely
    p = ZPoly([a, one]) * ZPoly([a, -one])
    assert p.coeffs[0] == a * a
    assert not p.coeffs[1]
    assert p.coeffs[2] == -(one)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_commutative_2x2_against_leibniz(a, b, c, d):
    matrix = [[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]]
    expected = leibniz_det(matrix)
    assert coldet(matrix) == expected
    assert rowdet(matrix) == expected
    assert doubledet(matrix) == expected


# -- the Taylor shift P(z) -> P(z + c) ---------------------------------------------

_word_keys = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)
_free_words = st.dictionaries(_word_keys, st.integers(-3, 3).map(Fraction), max_size=3).map(FreeWord)
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_shifts = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _shift_by_binomials(coeffs, c):
    # sum over k of a_k (z + c)^k: the z^j coefficient is
    # a_j + sum over k > j of binomial(k, j) c^(k - j) a_k
    out = []
    for j in range(len(coeffs)):
        acc = coeffs[j]
        for k in range(j + 1, len(coeffs)):
            acc = acc + (math.comb(k, j) * c ** (k - j)) * coeffs[k]
        out.append(acc)
    return ZPoly(out)


@pytest.mark.parametrize("ring", ["fraction", "free-word"])
@given(data=st.data(), c=_shifts)
def test_zpoly_shift_against_binomial_expansion(ring, data, c):
    coeffs = data.draw(st.lists(_fractions if ring == "fraction" else _free_words, max_size=5))
    poly = ZPoly(coeffs)
    shifted = poly.shift(c)
    assert shifted == _shift_by_binomials(poly.coeffs, c)
    assert shifted.degree == poly.degree
    assert shifted.shift(-c) == poly
    assert poly.shift(0) == poly
    assert poly.shift(Fraction(0)) == poly


def test_zpoly_shift_of_empty_polynomial_and_by_zero():
    assert ZPoly([]).shift(Fraction(5)) == ZPoly([])
    assert ZPoly([]).shift(0) == ZPoly([])
    a, b = words("a", "b")
    poly = ZPoly([a, b])
    assert poly.shift(0) == poly
    # (a + b z) at z + 2 is (a + 2b) + b z, b's factor order untouched
    assert poly.shift(2) == ZPoly([a + b * 2, b])


# -- the prefix-sharing expansion against the permutation sums ---------------------


def _transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def _assert_expansions_match_oracles(matrix, diagonal_terms):
    assert coldet(matrix) == leibniz_det(matrix)
    assert rowdet(matrix) == leibniz_det(_transpose(matrix))
    assert doubledet(matrix) == double_sum_by_permutations(matrix)
    assert positioned_doubledet(matrix, diagonal_terms) == double_sum_by_permutations(
        matrix, diagonal_terms)


def _square(entries, m):
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m)


# entries over three noncommuting symbols; the empty dictionary is a zero entry
_oracle_words = st.dictionaries(st.lists(st.sampled_from("abc"), max_size=2).map(tuple),
                                st.integers(-2, 2).map(Fraction), max_size=2).map(FreeWord)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_free_word_expansions_match_permutation_sums(data, m):
    matrix = data.draw(_square(_oracle_words, m))
    diagonal_terms = data.draw(st.lists(_oracle_words, min_size=m, max_size=m))
    _assert_expansions_match_oracles(matrix, diagonal_terms)


@settings(max_examples=10, deadline=None)
@given(data=st.data(), m=st.integers(1, 5))
def test_fraction_expansions_match_permutation_sums(data, m):
    matrix = data.draw(_square(_fractions, m))
    diagonal_terms = data.draw(st.lists(_fractions, min_size=m, max_size=m))
    _assert_expansions_match_oracles(matrix, diagonal_terms)


_zpoly_words = st.lists(_oracle_words, max_size=2).map(ZPoly)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.integers(1, 3))
def test_zpoly_expansions_match_permutation_sums(data, m):
    matrix = data.draw(_square(_zpoly_words, m))
    diagonal_terms = data.draw(st.lists(_zpoly_words, min_size=m, max_size=m))
    _assert_expansions_match_oracles(matrix, diagonal_terms)


@pytest.mark.parametrize("m, column_products, double_products", [
    (2, 2, 4),
    (3, 9, 45),     # the permutation sums: 12 and 72
    (4, 28, 304),   # the permutation sums: 72 and 1,728
])
def test_free_word_product_counts(monkeypatch, m, column_products, double_products):
    products = []
    plain_mul = FreeWord.__mul__

    def counting_mul(self, other):
        if isinstance(other, FreeWord):
            products.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(FreeWord, "__mul__", counting_mul)
    matrix = [[FreeWord.symbol(f"a{i}{j}") for j in range(m)] for i in range(m)]
    diagonal_terms = [FreeWord.symbol(f"d{i}") for i in range(m)]

    def count(det, *args):
        products.clear()
        det(*args)
        return len(products)

    assert count(coldet, matrix) == column_products
    assert count(rowdet, matrix) == column_products
    assert count(doubledet, matrix) == double_products
    assert count(positioned_doubledet, matrix, diagonal_terms) == double_products
