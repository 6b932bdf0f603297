import ast
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab import linalg
from capelli_lab.algebra import AlgebraElement, character_element
from capelli_lab.catalog import catalog_group, catalog_irreps, catalog_names
from capelli_lab.cyclo import ConductorMismatch, Cyclo
from capelli_lab.irreps import (
    E_matrix,
    Irrep,
    IrrepSet,
    character_inner_product,
    irrep_from_dict,
    irrep_to_dict,
    validate,
    validate_complete,
    verify_E_basis,
    verify_schur_products,
)
from helpers import (
    brute_homomorphism,
    character_inner_product_per_element,
    leibniz_det,
    mat_eq,
    matrix_product,
    naive_convolve,
    non_unitary_conjugate,
    validate_per_pair,
)


def test_validate_trivial_everywhere():
    for name in catalog_names():
        report = validate(catalog_irreps(name).by_label("triv"))
        assert report.ok, str(report)


def test_validate_standard_s3():
    assert validate(catalog_irreps("S3").by_label("std")).ok


def test_validate_catches_broken_homomorphism():
    std = catalog_irreps("S3").by_label("std")
    identity_block = tuple(map(tuple, linalg.identity_matrix(2, std.conductor)))
    mats = list(std.matrices)
    mats[3] = identity_block  # overwrite a non-identity element's matrix
    broken = Irrep("broken", std.group, 2, tuple(mats))
    report = validate(broken)
    assert not report.ok
    failed = {r.check for r in report.failures()}
    assert "homomorphism" in failed


def test_validate_catches_non_unitary():
    # s -> [[1, 1], [0, -1]] squares to the identity, so it is a genuine
    # matrix rep of C2 in a non-unitary form; unitarity is not required,
    # and it is refused as reducible
    c2 = catalog_group("C2")
    one = Cyclo.one(2)
    zero = Cyclo.zero(2)
    mats = (
        ((one, zero), (zero, one)),
        ((one, one), (zero, -one)),
    )
    report = validate(Irrep("shear", c2, 2, mats))
    assert [r.check for r in report.results] == ["identity-image", "homomorphism",
                                                 "irreducibility"]
    assert [(r.check, r.detail) for r in report.failures()] == [("irreducibility",
                                                                 "<chi,chi> = 2")]


def homomorphism_cases(irrep):
    """The irrep's matrices, then perturbed copies: one matrix replaced by
    the next element's, or one nonzero entry negated, at each generator and
    at the last element."""
    mats = irrep.matrices
    n = len(mats)
    yield mats
    for g in sorted(set(irrep.group.generators) | {n - 1}):
        if n > 1:
            yield mats[:g] + (mats[(g + 1) % n],) + mats[g + 1:]
        block = [list(row) for row in mats[g]]
        i, j = next((i, j) for i, row in enumerate(block) for j, v in enumerate(row) if v)
        block[i][j] = -block[i][j]
        yield mats[:g] + (tuple(map(tuple, block)),) + mats[g + 1:]


def assert_homomorphism_verdict_matches_oracle(group, mats):
    report = validate(Irrep("case", group, len(mats[0]), mats))
    (result,) = [r for r in report.results if r.check == "homomorphism"]
    assert (result.status == "pass") == brute_homomorphism(group.table, mats)
    if result.status == "fail":
        index = {name: g for g, name in enumerate(group.element_names)}
        g, h = (index[name] for name in ast.literal_eval(result.detail.removeprefix("fails at pair ")))
        assert matrix_product(mats[g], mats[h]) != mats[group.mul(g, h)]


@pytest.mark.parametrize("name", catalog_names())
def test_homomorphism_check_matches_all_pairs_oracle(name):
    for irrep in catalog_irreps(name).irreps:
        for mats in homomorphism_cases(irrep):
            assert_homomorphism_verdict_matches_oracle(irrep.group, mats)


@pytest.mark.parametrize("image", [[[-1]], [[0]], [[1, 0], [0, 0]], [[0, 1], [1, 0]]])
def test_homomorphism_check_on_trivial_group_with_non_identity_image(image):
    # rho(e) = rho(e)^2 is the whole homomorphism property here: it holds
    # for the idempotents 0 and diag(1, 0), fails for -1 and the swap
    c1 = catalog_group("C1")
    mats = (tuple(tuple(Cyclo.rational(v) for v in row) for row in image),)
    assert_homomorphism_verdict_matches_oracle(c1, mats)
    assert not validate(Irrep("odd", c1, len(image), mats)).ok


def report_rows(report):
    return [(r.check, r.irrep, r.status, r.detail) for r in report.results]


def assert_matches_per_pair_oracle(irrep, mats):
    case = Irrep(irrep.label, irrep.group, len(mats[0]), tuple(mats))
    assert report_rows(validate(case)) == report_rows(validate_per_pair(case))


def _with_block(mats, g, edit):
    block = [list(row) for row in mats[g]]
    edit(block)
    return mats[:g] + (tuple(map(tuple, block)),) + mats[g + 1:]


def _negate_first_nonzero(block):
    i, j = next((i, j) for i, row in enumerate(block) for j, v in enumerate(row) if v)
    block[i][j] = -block[i][j]


def _add_one_bottom_left(block):
    block[-1][0] = block[-1][0] + 1


def _copy_first_row_down(block):
    block[1] = list(block[0])


def mutants(irrep):
    """At each element g: the matrices of g and the next element swapped,
    the first nonzero entry negated, the bottom-left entry plus 1, and
    from degree 2 the first row copied into the second (a singular
    matrix, which no representation has)."""
    mats = irrep.matrices
    n = len(mats)
    for g in range(n):
        h = (g + 1) % n
        swapped = list(mats)
        swapped[g], swapped[h] = mats[h], mats[g]
        yield tuple(swapped)
        yield _with_block(mats, g, _negate_first_nonzero)
        yield _with_block(mats, g, _add_one_bottom_left)
        if irrep.degree >= 2:
            yield _with_block(mats, g, _copy_first_row_down)


@pytest.mark.parametrize("name", catalog_names())
def test_validate_matches_per_pair_oracle(name):
    for irrep in catalog_irreps(name).irreps:
        assert_matches_per_pair_oracle(irrep, irrep.matrices)
        for mats in mutants(irrep):
            assert_matches_per_pair_oracle(irrep, mats)


ORACLE_CONDUCTORS = (1, 3, 4, 5, 8, 12)


def _presentations():
    """(catalog irrep, conductor) for each conductor of ORACLE_CONDUCTORS
    whose field holds its values: a multiple of its conductor, or 1 when
    every entry is rational."""
    out = []
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            rational = all(v.as_rational() is not None
                           for mat in irrep.matrices for row in mat for v in row)
            out.extend((irrep, n) for n in ORACLE_CONDUCTORS
                       if n % irrep.conductor == 0 or (n == 1 and rational))
    return out


PRESENTATIONS = _presentations()
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def presented_irreps(draw):
    """A catalog irrep in one of ORACLE_CONDUCTORS, degree >= 2 for half
    the draws, conjugated by an invertible rational upper-triangular P (not
    unitary in general, so the entries gain denominators, and the result
    still validates), then possibly mutated: two matrices swapped, or one
    entry scaled by a rational."""
    irrep, n = draw(st.sampled_from(PRESENTATIONS)
                    | st.sampled_from([(r, n) for r, n in PRESENTATIONS if r.degree >= 2]))
    m = irrep.degree
    mats = tuple(
        tuple(tuple(Cyclo.rational(v.as_rational(), 1) if n == 1 else v.promote(n) for v in row)
              for row in mat)
        for mat in irrep.matrices
    )
    if draw(st.booleans()):
        p = [[Cyclo.rational(draw(small_fractions.filter(bool)) if i == j
                             else draw(small_fractions) if i < j else 0, n)
              for j in range(m)] for i in range(m)]
        p_inv = linalg.mat_inverse(p)
        mats = tuple(matrix_product(matrix_product(p, mat), p_inv) for mat in mats)
    elements = st.integers(0, len(mats) - 1)
    mutation = draw(st.sampled_from(["none", "swap", "scale"]))
    if mutation == "swap":
        g, h = draw(elements), draw(elements)
        swapped = list(mats)
        swapped[g], swapped[h] = mats[h], mats[g]
        mats = tuple(swapped)
    elif mutation == "scale":
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        factor = draw(small_fractions)

        def scale(block):
            block[i][j] = block[i][j] * factor

        mats = _with_block(mats, draw(elements), scale)
    return irrep, mats


@given(presented_irreps())
@settings(max_examples=80, deadline=None)
def test_validate_matches_per_pair_oracle_across_conductors(case):
    irrep, mats = case
    assert_matches_per_pair_oracle(irrep, mats)


def test_validate_reports_non_unitary_conjugate_at_first_failing_element():
    # P = [[1/2, 3/2], [0, 1]] conjugates S3/std to a non-unitary form with
    # denominators, which validates; with one entry of a generator's matrix
    # negated, the failing pair named is the pair-by-pair check's first
    std = catalog_irreps("S3").by_label("std")
    conj = non_unitary_conjugate(std)
    assert max(v.den for mat in conj.matrices for row in mat for v in row) > 1
    report = validate(conj)
    assert report.ok, str(report)
    assert report_rows(report) == report_rows(validate_per_pair(conj))
    broken = Irrep("conj", std.group, 2,
                   _with_block(conj.matrices, std.group.generators[-1], _negate_first_nonzero))
    rows = report_rows(validate(broken))
    assert rows == report_rows(validate_per_pair(broken))
    assert ("homomorphism", "fail") in [(check, status) for check, _, status, _ in rows]


def test_validate_refuses_mixed_conductors():
    std = catalog_irreps("S3").by_label("std")
    mats = list(std.matrices)
    mats[1] = tuple(tuple(v.promote(12) for v in row) for row in mats[1])
    with pytest.raises(ConductorMismatch):
        validate(Irrep("mixed", std.group, 2, tuple(mats)))


def _map_entries(irrep, f):
    return Irrep(irrep.label, irrep.group, irrep.degree, tuple(
        tuple(tuple(map(f, row)) for row in mat) for mat in irrep.matrices))


def _lifted(irrep):
    return _map_entries(irrep, lambda v: v.promote(2 * irrep.conductor))


def test_character_inner_product_matches_per_element_oracle():
    # the pair also lifted to twice their conductor, and b with every entry
    # times 2/3, so that the lists carry denominators; a pair of two
    # conductors is refused, as an IrrepSet refuses it
    for name in catalog_names():
        irreps = catalog_irreps(name).irreps
        for a in irreps:
            for b in irreps:
                thirds = _map_entries(b, lambda v: v * Fraction(2, 3))
                for x, y in ((a, b), (_lifted(a), _lifted(b)), (a, thirds)):
                    got = character_inner_product(x, y)
                    want = character_inner_product_per_element(x, y)
                    assert (got.conductor, got.num, got.den) == (want.conductor, want.num, want.den)
                with pytest.raises(ConductorMismatch):
                    character_inner_product(a, _lifted(b))


def test_irrep_set_refuses_mixed_conductors():
    # every set-level check reads the set's one conductor and promotes nothing
    s3 = catalog_irreps("S3")
    sgn = _map_entries(s3.by_label("sgn"), lambda v: v.promote(12))
    with pytest.raises(ConductorMismatch):
        IrrepSet(s3.group, (s3.by_label("std"), sgn))
    assert IrrepSet(s3.group, (sgn,)).conductor == 12


def test_validate_complete_s3():
    assert validate_complete(catalog_irreps("S3")).ok


def test_validate_complete_catches_missing_irrep():
    full = catalog_irreps("S3")
    partial = IrrepSet(full.group, tuple(r for r in full.irreps if r.label != "sgn"))
    report = validate_complete(partial)
    assert not report.ok
    assert any(r.check == "degree-squares" for r in report.failures())


def test_validate_complete_q8_degrees():
    q8 = catalog_irreps("Q8")
    assert sorted(r.degree for r in q8.irreps) == [1, 1, 1, 1, 2]
    assert validate_complete(q8).ok


def test_reducible_character_rejected():
    # direct sum of trivial and sign of C2 has <chi,chi> = 2
    c2 = catalog_group("C2")
    one = Cyclo.one(2)
    zero = Cyclo.zero(2)
    neg = -one
    mats = (
        ((one, zero), (zero, one)),
        ((one, zero), (zero, neg)),
    )
    report = validate(Irrep("red", c2, 2, mats))
    assert any(r.check == "irreducibility" for r in report.failures())


def test_character_inner_products_orthonormal():
    irreps = catalog_irreps("S3").irreps
    for a in irreps:
        for b in irreps:
            expected = 1 if a.label == b.label else 0
            assert character_inner_product(a, b) == expected


def test_E_matrix_trivial():
    triv = catalog_irreps("S3").by_label("triv")
    em = E_matrix(triv)
    assert len(em) == 1
    total = AlgebraElement(triv.group, [Cyclo.one(6)] * 6)
    assert em[0][0] == total


def test_E_matrix_sign():
    sgn = catalog_irreps("S3").by_label("sgn")
    em = E_matrix(sgn)
    group = sgn.group
    expected = AlgebraElement(group, [sgn.matrices[g][0][0] for g in range(6)])
    assert em[0][0] == expected


def test_E_matrix_diagonal_sums_to_character():
    std = catalog_irreps("S3").by_label("std")
    em = E_matrix(std)
    assert em[0][0] + em[1][1] == character_element(std)


def test_trivial_schur_product_is_order_times_E():
    triv = catalog_irreps("S3").by_label("triv")
    e = E_matrix(triv)[0][0]
    assert e * e == 6 * e


def test_s3_standard_schur_product_example():
    std = catalog_irreps("S3").by_label("std")
    em = E_matrix(std)
    # oracle convolution: E_12 * E_21 = 3 * E_11 since alpha = 6/2
    oracle = naive_convolve(std.group.table, em[0][1].coeffs, em[1][0].coeffs, Cyclo.zero(6))
    assert list((em[0][1] * em[1][0]).coeffs) == oracle
    assert em[0][1] * em[1][0] == 3 * em[0][0]


def test_cross_irrep_products_vanish():
    irreps = catalog_irreps("S3")
    triv = E_matrix(irreps.by_label("triv"))[0][0]
    sgn = E_matrix(irreps.by_label("sgn"))[0][0]
    oracle = naive_convolve(irreps.group.table, triv.coeffs, sgn.coeffs, Cyclo.zero(6))
    assert all(not c for c in oracle)
    assert not (triv * sgn)


@pytest.mark.parametrize("name", ["C4", "S3", "D4", "Q8"])
def test_verify_schur_products(name):
    report = verify_schur_products(catalog_irreps(name))
    assert report.ok, str(report)


def test_verify_E_basis_trivial_group():
    report = verify_E_basis(catalog_irreps("C1"))
    assert report.ok


def test_verify_E_basis_c4_and_s3_with_det_oracle():
    for name in ("C4", "S3"):
        irrep_set = catalog_irreps(name)
        assert verify_E_basis(irrep_set).ok
        group = irrep_set.group
        conductor = irrep_set.conductor
        rows = []
        for irrep in irrep_set.irreps:
            for i in range(irrep.degree):
                for j in range(irrep.degree):
                    rows.append([
                        irrep.matrices[g][i][j].promote(conductor) for g in range(group.order)
                    ])
        assert leibniz_det(rows)  # nonzero determinant certifies full rank


def test_s4_character_table_matches_textbook_values():
    # classes ordered: e, (12)(34)-type, transpositions, 3-cycles, 4-cycles
    # (identity class first, then by least element index in the catalog group)
    from capelli_lab.groups import conjugacy_classes

    s4 = catalog_irreps("S4")
    classes = conjugacy_classes(s4.group)
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    by_size = {}
    for cls_index, size in enumerate(sizes):
        by_size.setdefault(size, []).append(cls_index)
    # identify classes by size + element order: 1, 3, 6, 8, 6 with orders
    # 1, 2, 2, 3, 4
    def class_of(size, order):
        for idx in by_size[size]:
            if s4.group.element_order(reps[idx]) == order:
                return idx
        raise AssertionError((size, order))

    order_of_classes = [
        class_of(1, 1), class_of(3, 2), class_of(6, 2), class_of(8, 3), class_of(6, 4)
    ]
    expected = {
        "triv": [1, 1, 1, 1, 1],
        "sgn": [1, 1, -1, 1, -1],
        "dim2": [2, 2, 0, -1, 0],
        "std": [3, -1, 1, 0, -1],
        "std_sgn": [3, -1, -1, 0, 1],
    }
    for label, values in expected.items():
        irrep = s4.by_label(label)
        got = [irrep.character(reps[idx]) for idx in order_of_classes]
        assert got == values, (label, got)


def test_a4_standard_character():
    a4 = catalog_irreps("A4")
    std = a4.by_label("std")
    from capelli_lab.groups import conjugacy_classes

    classes = conjugacy_classes(a4.group)
    # classes: e (1), double transpositions (3), two classes of 3-cycles (4, 4)
    values = sorted(
        (len(cls), std.character(cls[0]).as_rational()) for cls in classes
    )
    assert values == [(1, 3), (3, -1), (4, 0), (4, 0)]


def test_alpha_is_positive_integer_for_catalog():
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            alpha = irrep.alpha
            assert alpha.denominator == 1 and alpha > 0


def test_irrep_json_round_trip():
    std = catalog_irreps("S3").by_label("std")
    data = json.loads(json.dumps(irrep_to_dict(std)))
    again = irrep_from_dict(std.group, data)
    assert again.degree == 2
    assert again.matrices == std.matrices
    assert validate(again).ok


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_irrep_round_trips_entry_for_entry(name):
    # repeated scalars share one parsed value; each entry must still come
    # back at the same conductor with the same canonical numerators
    for irrep in catalog_irreps(name).irreps:
        data = json.loads(json.dumps(irrep_to_dict(irrep)))
        again = irrep_from_dict(irrep.group, data)
        for mat, mat_again in zip(irrep.matrices, again.matrices):
            for row, row_again in zip(mat, mat_again):
                assert [(v.conductor, v.num, v.den) for v in row] == [
                    (v.conductor, v.num, v.den) for v in row_again]


def test_irrep_json_accepts_larger_conductor():
    # the same irrep presented over a non-minimal cyclotomic field still
    # validates and still satisfies the product relations
    std = catalog_irreps("S3").by_label("std")
    data = irrep_to_dict(std)
    data["conductor"] = 12
    data["matrices"] = [
        [[v.promote(12).to_dict() for v in map(Cyclo.from_dict, row)] for row in mat]
        for mat in data["matrices"]
    ]
    lifted = irrep_from_dict(std.group, data)
    assert lifted.conductor == 12
    assert validate(lifted).ok
    from capelli_lab.capelli import verify_closed_form

    assert verify_closed_form(lifted).ok


def test_irrep_json_rejects_wrong_group():
    std = catalog_irreps("S3").by_label("std")
    data = irrep_to_dict(std)
    data["group"] = "Q8"
    with pytest.raises(ValueError):
        irrep_from_dict(catalog_group("Q8"), data)


def test_irrep_json_counts_matrices_before_reading_scalars():
    # a seventh block is refused by the count before its scalars are read;
    # a missing block is found after the last one
    std = catalog_irreps("S3").by_label("std")
    data = irrep_to_dict(std)
    data["matrices"].append([[{"conductor": 3, "coeffs": []}] * 2] * 2)  # not scalars
    with pytest.raises(ValueError, match="more than 6 matrices for group of order 6"):
        irrep_from_dict(std.group, data)
    data["matrices"] = data["matrices"][:5]
    with pytest.raises(ValueError, match="5 matrices for group of order 6"):
        irrep_from_dict(std.group, data)


def test_irrep_json_rejects_bad_shape():
    std = catalog_irreps("S3").by_label("std")
    data = irrep_to_dict(std)
    data["matrices"][0] = [data["matrices"][0][0]]
    with pytest.raises(ValueError):
        irrep_from_dict(std.group, data)


# -- rank function cross-check ------------------------------------------------------


@st.composite
def small_matrices(draw):
    n = draw(st.sampled_from((3, 4)))
    return [
        [Cyclo.rational(draw(st.integers(-3, 3)), n) for _ in range(3)] for _ in range(3)
    ]


@given(small_matrices())
@settings(max_examples=60)
def test_rank_matches_leibniz_determinant(matrix):
    full = bool(leibniz_det(matrix))
    assert (linalg.rank(matrix) == 3) == full
    if full:
        inv = linalg.mat_inverse(matrix)
        ident = linalg.identity_matrix(3, matrix[0][0].conductor)
        assert mat_eq(matrix_product(matrix, inv), ident)
    else:
        with pytest.raises(linalg.SingularMatrix):
            linalg.mat_inverse(matrix)
