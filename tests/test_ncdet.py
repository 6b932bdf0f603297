import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab.algebra import AlgebraElement
from capelli_lab.capelli import capelli_element, verify_centrality
from capelli_lab.catalog import catalog_irreps
from capelli_lab.irreps import E_matrix, Irrep, IrrepSet, verify_schur_products
from capelli_lab.ncdet import (
    SizeLimit,
    ZPoly,
    capelli_zpoly,
    coldet,
    conjugate,
    conjugated_capelli_zpolys,
    doubledet,
    gl_relation_witness,
    natural_shift,
    natural_sigma,
    natural_star,
    noncommuting_entry,
    positioned_doubledet,
    rowdet,
    shift_variants,
)
from capelli_lab.weyl import (
    WeylContext,
    WeylOp,
    build_generic,
    commutator,
    verify_capelli_properties,
    verify_pi_relations,
)
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
    # rowdet = xd - dx = -alpha, d scaled by alpha
    for alpha in (Fraction(1), Fraction(3)):
        ctx = WeylContext(("1",))
        x = WeylOp.x(ctx, 0)
        d = WeylOp.d(ctx, 0, alpha)
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


# -- the determinant variants at c = 0, read at any c by ZPoly.shift -----------------


def _minus_z_at(matrix, shift, c, one):
    """M + diag(shift) - (z + c) I, entry by entry."""
    return [[ZPoly([entry + (shift[i] - c) * one, -one]) if i == j else ZPoly([entry])
             for j, entry in enumerate(row)] for i, row in enumerate(matrix)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(3, 2)])
def test_shift_variants_match_permutation_sums_at_any_c(m, alpha):
    matrix = [[FreeWord.symbol(f"a{i}{j}") for j in range(m)] for i in range(m)]
    one = FreeWord.const(1)
    row, variants = shift_variants(matrix, alpha, one)
    assert [sigma for sigma, _, _ in variants] == list(permutations(range(1, m + 1)))
    lifted = [[ZPoly([entry]) for entry in line] for line in matrix]
    star = [alpha * d for d in natural_star(m)]
    for c in (Fraction(0), Fraction(-2, 3)):
        assert row.shift(c) == leibniz_det(_transpose(_minus_z_at(matrix, star, c, one)))
        for sigma, positioned, attached in variants:
            shift = [alpha * d for d in natural_sigma(m, sigma)]
            terms = [ZPoly([(d - c) * one, -one]) for d in shift]
            assert positioned.shift(c) == double_sum_by_permutations(lifted, terms), (sigma, c)
            assert attached.shift(c) == double_sum_by_permutations(
                _minus_z_at(matrix, shift, c, one)), (sigma, c)


def test_conjugated_capelli_zpolys_follow_the_family_order():
    a, b, c, d = words("a", "b", "c", "d")
    one = FreeWord.const(1)
    swap = [[0, 1], [1, 0]]
    identity = [[1, 0], [0, 1]]
    matrix = [[a, b], [c, d]]
    got = conjugated_capelli_zpolys(matrix, Fraction(2), one, [(identity, identity), (swap, swap)])
    assert got == [capelli_zpoly(matrix, Fraction(2), one),
                   capelli_zpoly([[d, c], [b, a]], Fraction(2), one)]


# -- the witness searches both rings share -------------------------------------------


def _first_gl_failure(matrix, alpha, bracket):
    """The first failing gl_m relation by a plain scan of every index 4-tuple."""
    m = len(matrix)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    if (k, l) <= (i, j):
                        continue
                    rhs = FreeWord()
                    if j == k:
                        rhs = rhs + alpha * matrix[i][l]
                    if i == l:
                        rhs = rhs - alpha * matrix[k][j]
                    if bracket(i, j, k, l) != rhs:
                        return (i, j, k, l)
    return None


def _planted_bracket(matrix, alpha, planted):
    """A bracket that satisfies every gl_m relation except at the planted
    tuples, where it is off by a fresh symbol."""
    def bracket(i, j, k, l):
        value = FreeWord()
        if j == k:
            value = value + alpha * matrix[i][l]
        if i == l:
            value = value - alpha * matrix[k][j]
        return value + FreeWord.symbol("p") if (i, j, k, l) in planted else value
    return bracket


def _entry_commutator(matrix):
    return lambda i, j, k, l: matrix[i][j] * matrix[k][l] - matrix[k][l] * matrix[i][j]


_alphas = st.sampled_from([Fraction(1), Fraction(3), Fraction(-5, 2)])


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gl_relation_witness_is_first_hit_of_brute_scan(m, data):
    matrix = data.draw(_square(_oracle_words, m))
    alpha = data.draw(_alphas)
    planted = set(data.draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * 4), max_size=3)))
    for bracket in (_planted_bracket(matrix, alpha, planted), _entry_commutator(matrix)):
        assert gl_relation_witness(matrix, alpha, bracket) == _first_gl_failure(
            matrix, alpha, bracket)


@pytest.mark.parametrize("m", [2, 3])
def test_gl_relation_witness_reads_only_pairs_above_the_diagonal(m):
    matrix = [[FreeWord.symbol(f"a{i}{j}") for j in range(m)] for i in range(m)]
    alpha = Fraction(3)
    last = (m - 1, m - 2, m - 1, m - 1)
    below = [t for t in product(range(m), repeat=4) if t[2:] <= t[:2]]
    assert gl_relation_witness(matrix, alpha, _planted_bracket(matrix, alpha, set())) is None
    assert gl_relation_witness(matrix, alpha, _planted_bracket(matrix, alpha, set(below))) is None
    assert gl_relation_witness(matrix, alpha, _planted_bracket(matrix, alpha, {last})) == last
    assert gl_relation_witness(matrix, alpha, _planted_bracket(
        matrix, alpha, {last, (0, 1, 1, 0)})) == (0, 1, 1, 0)


def _commute(a, b):
    return a * b == b * a


def _first_noncommuting(matrix, values, commute):
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            for v in values:
                if not commute(entry, v):
                    return (i, j)
    return None


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_noncommuting_entry_is_first_hit_of_brute_scan(m, data):
    # the words over a, b, c include constants and the zero, which commute
    matrix = data.draw(_square(_oracle_words, m))
    values = data.draw(st.lists(_oracle_words, max_size=3))
    assert noncommuting_entry(matrix, values, _commute) == _first_noncommuting(
        matrix, values, _commute)


@pytest.mark.parametrize("m", [2, 3])
def test_noncommuting_entry_reads_every_value(m):
    # only the last value fails to commute with the one non-scalar entry
    x = FreeWord.symbol("x")
    matrix = [[FreeWord.const(i + j + 1) for j in range(m)] for i in range(m)]
    matrix[m - 1][m - 2] = x * x + FreeWord.const(2)
    values = [FreeWord.const(3), x, x * x, FreeWord.symbol("y")]
    assert noncommuting_entry(matrix, values, _commute) == (m - 1, m - 2)
    assert noncommuting_entry(matrix, values[:-1], _commute) is None
    assert noncommuting_entry(matrix, [], _commute) is None


@pytest.mark.parametrize("m, alpha", [(1, Fraction(1)), (2, Fraction(1)), (2, Fraction(5, 2)),
                                      (3, Fraction(3))])
def test_witness_searches_find_nothing_on_the_generic_pi(m, alpha):
    ctx, _, _, pi = build_generic(m, alpha)
    assert gl_relation_witness(pi, alpha, lambda i, j, k, l: commutator(pi[i][j], pi[k][l])) is None
    coeffs = capelli_zpoly(pi, alpha, WeylOp.one(ctx)).coeffs
    assert noncommuting_entry(pi, coeffs, lambda a, b: not commutator(a, b)) is None


@pytest.mark.parametrize("name", ["S3", "A4"])
def test_witness_searches_find_nothing_on_std_e(name):
    std = catalog_irreps(name).by_label("std")
    em = E_matrix(std)
    assert gl_relation_witness(em, std.alpha, _entry_commutator(em)) is None
    assert noncommuting_entry(em, capelli_element(std).coeffs, _commute) is None


# each failure detail below was recorded from the per-ring loops that the
# witness searches replaced


@pytest.mark.parametrize("m, expected", [(2, "tuple (1, 2, 2, 1)"), (3, "tuple (1, 3, 3, 1)")])
def test_pi_relations_failure_detail(m, expected):
    _, _, _, pi = build_generic(m, Fraction(1))
    pi[m - 1][m - 1] = pi[m - 1][m - 1] + pi[m - 1][m - 1]
    [result] = verify_pi_relations(pi, 1).results
    assert (result.check, result.status, result.detail) == ("pi-relations", "fail", expected)


@pytest.mark.parametrize("m", [2, 3])
def test_capelli_central_failure_detail(m):
    _, xm, _, pi = build_generic(m, Fraction(1))
    pi[m - 1][0] = pi[m - 1][0] + xm[0][0]
    got = [(r.status, r.detail) for r in verify_capelli_properties(pi, 1).results
           if r.check == "capelli-central"]
    assert got == [("fail", "[Pi_11, C(z)] != 0")]


def _s3_with_std_entry_x3():
    """S3's irreps with entry (0, 1) of std's last matrix times 3: not an
    irrep, and not validated."""
    irreps = catalog_irreps("S3")
    std = irreps.by_label("std")
    mats = [[list(row) for row in mat] for mat in std.matrices]
    mats[-1][0][-1] = 3 * mats[-1][0][-1]
    mutant = Irrep("std", std.group, std.degree, tuple(tuple(map(tuple, mat)) for mat in mats))
    return mutant, IrrepSet(irreps.group, (irreps.by_label("triv"), irreps.by_label("sgn"), mutant))


def test_commutes_with_e_failure_detail():
    mutant, irrep_set = _s3_with_std_entry_x3()
    got = [(r.check, r.irrep, r.status, r.detail)
           for r in verify_centrality(mutant, irrep_set).results]
    assert got == [("coefficients-central", "std", "fail",
                    "the coefficient of z^0 does not commute with (12)"),
                   ("commutes-with-E", "std|triv", "pass", ""),
                   ("commutes-with-E", "std|sgn", "pass", ""),
                   ("commutes-with-E", "std|std", "fail", "[E^std_12, C(z)] != 0")]
    # the named element is a true witness, checked by products
    c0 = capelli_element(mutant).coeffs[0]
    g = AlgebraElement.basis(c0.group, c0.group.element_names.index("(12)"), c0.conductor)
    assert c0 * g != g * c0


def test_schur_failure_details():
    _, irrep_set = _s3_with_std_entry_x3()
    got = [(r.check, r.irrep, r.detail) for r in verify_schur_products(irrep_set).failures()]
    assert got == [("schur-product", "std", "E_11 E_12 != alpha*delta*E_12"),
                   ("schur-cross", "triv|std", "E^triv_11 E^std_12 != 0"),
                   ("schur-cross", "sgn|std", "E^sgn_11 E^std_12 != 0"),
                   ("schur-cross", "std|triv", "E^std_12 E^triv_11 != 0"),
                   ("schur-cross", "std|sgn", "E^std_12 E^sgn_11 != 0")]
