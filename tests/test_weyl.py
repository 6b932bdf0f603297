from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab import ncdet, weyl
from capelli_lab.catalog import catalog_irreps, catalog_names
from capelli_lab.cli import CHECKS, run_checks
from capelli_lab.cyclo import ConductorMismatch, Cyclo, cyclo_degree
from capelli_lab.irreps import Irrep, IrrepSet
from capelli_lab.ncdet import SizeLimit, capelli_zpoly, coldet
from capelli_lab.weyl import (
    GENERIC_SIZE_LIMIT,
    ContextMismatch,
    WeylContext,
    WeylOp,
    build_generic,
    commutator,
    transpose_product,
    verify_capelli,
    verify_capelli_properties,
    verify_det_equalities,
    verify_pi_relations,
    verify_rep_identity,
    verify_rep_relations,
)
from helpers import (
    act,
    build_rep,
    conjugated_by,
    det_equalities_direct,
    non_unitary_conjugate,
    rep_relations_by_commutators,
)

ALPHAS = (Fraction(1), Fraction(3), Fraction(5, 2))


def one_var_ctx():
    return WeylContext(("1",))


def apply(op, poly):
    """op acting on a polynomial, d as d/dx: the test oracle."""
    return act(op.terms, 1, poly)


def rep_matrices(irrep):
    """X, D and Pi of an irrep, for the direct route the tests keep as
    the oracle of the derived one."""
    ctx, xm, dm = build_rep(irrep)
    return xm, dm, transpose_product(ctx, xm, dm)


def test_d_times_x_creates_commutator_term():
    for alpha in ALPHAS:
        ctx, xm, dm, _ = build_generic(2, alpha)
        got = dm[0][0] * xm[0][0]
        expected = xm[0][0] * dm[0][0] + WeylOp.scalar(ctx, alpha)
        assert got == expected


def test_distinct_variables_commute():
    ctx, xm, dm, _ = build_generic(2, Fraction(1))
    assert xm[0][0] * xm[0][1] == xm[0][1] * xm[0][0]
    assert dm[0][0] * xm[0][1] == xm[0][1] * dm[0][0]


def test_d2_x2_normal_form_against_action_oracle():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2 at alpha = 1, checked by acting on
    # monomials x^k for k <= 4 with the independent evaluator
    ctx = one_var_ctx()
    x = WeylOp.x(ctx, 0)
    d = WeylOp.d(ctx, 0)
    lhs = d * d * x * x
    rhs = x * x * d * d + 4 * (x * d) + WeylOp.scalar(ctx, 2)
    assert lhs == rhs
    for k in range(5):
        mono = {(k,): Fraction(1)}
        assert act(lhs.terms, Fraction(1), mono) == act(rhs.terms, Fraction(1), mono)


def test_apply_identity_and_euler():
    ctx = one_var_ctx()
    x = WeylOp.x(ctx, 0)
    d = WeylOp.d(ctx, 0)
    poly = {(3,): Cyclo.rational(1)}
    assert apply(WeylOp.one(ctx), poly) == poly
    assert apply(x * d, poly) == {(3,): Cyclo.rational(3)}


def test_apply_respects_alpha():
    # alpha is a scalar on d: the generic D at 5/2 takes x to 5/2
    _, _, dm, _ = build_generic(1, Fraction(5, 2))
    got = apply(dm[0][0], {(1,): Cyclo.rational(1)})
    assert got == {(0,): Cyclo.rational(Fraction(5, 2))}


def test_build_generic_m1():
    ctx, xm, dm, pi = build_generic(1, Fraction(1))
    assert pi[0][0] == xm[0][0] * dm[0][0]


def test_build_generic_m2_pi_entries():
    ctx, xm, dm, pi = build_generic(2, Fraction(1))
    assert pi[0][0] == xm[0][0] * dm[0][0] + xm[1][0] * dm[1][0]
    assert pi[1][1] == xm[0][1] * dm[0][1] + xm[1][1] * dm[1][1]
    assert pi[0][1] == xm[0][0] * dm[0][1] + xm[1][0] * dm[1][1]
    assert pi[1][0] == xm[0][1] * dm[0][0] + xm[1][1] * dm[1][0]


@pytest.mark.parametrize("alpha", weyl.GENERIC_ALPHAS)
@pytest.mark.parametrize("m", (1, 2))
def test_generic_grid_is_x_and_alpha_d(m, alpha):
    # the grid algebra at alpha inside the one at 1: each entry of D applied
    # at 1 is its d applied at alpha by the independent evaluator, each entry
    # of X is its x, and [D_ij, X_kl] = alpha * delta_ik * delta_jl
    ctx, xm, dm, _ = build_generic(m, alpha)
    n, one = m * m, Cyclo.one(1)
    poly = {(2,) * n: one, tuple(range(1, n + 1)): one}
    empty = (0,) * n
    for i, j in product(range(m), repeat=2):
        unit = tuple(int(v == i * m + j) for v in range(n))
        assert act(dm[i][j].terms, 1, poly) == act({(empty, unit): one}, alpha, poly)
        assert act(xm[i][j].terms, 1, poly) == act({(unit, empty): one}, alpha, poly)
    for i, j, k, l in product(range(m), repeat=4):
        expected = WeylOp.scalar(ctx, alpha if (i, j) == (k, l) else 0)
        assert commutator(dm[i][j], xm[k][l]) == expected


def test_build_generic_size_limit():
    with pytest.raises(SizeLimit):
        build_generic(4, Fraction(1))


def test_build_rep_trivial_and_sign():
    c2 = catalog_irreps("C2")
    ctx, xm, dm = build_rep(c2.by_label("triv"))
    assert xm[0][0] == WeylOp.x(ctx, 0) + WeylOp.x(ctx, 1)
    ctx2, xm2, dm2 = build_rep(c2.by_label("chi1"))
    assert xm2[0][0] == WeylOp.x(ctx2, 0) - WeylOp.x(ctx2, 1)
    assert dm2[0][0] == WeylOp.d(ctx2, 0) - WeylOp.d(ctx2, 1)


def test_build_rep_standard_uses_conjugated_entries():
    # X_ij takes matrix(g^-1)_ji at x_g.  S3/std is unitary with entries 0
    # or roots of unity, so that is conj(matrix(g)_ij), which is 1/v for a
    # root of unity v
    std = catalog_irreps("S3").by_label("std")
    ctx, xm, dm = build_rep(std)
    for g in range(std.group.order):
        for i in range(2):
            for j in range(2):
                v = std.matrices[g][i][j]
                xkey = (tuple(1 if k == g else 0 for k in range(6)), (0,) * 6)
                dkey = ((0,) * 6, tuple(1 if k == g else 0 for k in range(6)))
                assert xm[i][j].terms.get(xkey, Cyclo.zero(6)) == (v.inverse() if v else v)
                assert xm[i][j].terms.get(xkey, Cyclo.zero(6)) == \
                    std.matrices[std.group.inverses[g]][j][i]
                assert dm[i][j].terms.get(dkey, Cyclo.zero(6)) == v


def test_rep_relations_trivial_irrep_gives_group_order():
    c4 = catalog_irreps("C4")
    triv = c4.by_label("triv")
    ctx, xm, dm = build_rep(triv)
    assert commutator(dm[0][0], xm[0][0]) == WeylOp.scalar(ctx, 4)
    assert verify_rep_relations(triv).ok


def test_rep_relations_standard_irreps():
    assert verify_rep_relations(catalog_irreps("S3").by_label("std")).ok  # alpha 3
    assert verify_rep_relations(catalog_irreps("Q8").by_label("std")).ok  # alpha 4


def _with_matrices(irrep, matrices):
    return Irrep(irrep.label, irrep.group, irrep.degree,
                 tuple(tuple(map(tuple, mat)) for mat in matrices))


def _one_entry_scaled(irrep):
    # entry (0, m-1) of the last element's matrix, times 3
    mats = [[list(row) for row in mat] for mat in irrep.matrices]
    mats[-1][0][-1] = 3 * mats[-1][0][-1]
    return _with_matrices(irrep, mats)


def _two_swapped(irrep):
    # the sums over g do not see which element carries which matrix, so
    # this mutant passes on both routes
    mats = list(irrep.matrices)
    mats[0], mats[-1] = mats[-1], mats[0]
    return _with_matrices(irrep, mats)


def _rotated(irrep):
    # conjugation by a rational rotation in the first two coordinates, a
    # unitary form whose entries have denominators 25
    m = irrep.degree
    q = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    if m > 1:
        q[0][0], q[0][1], q[1][0], q[1][1] = (Fraction(3, 5), Fraction(-4, 5),
                                              Fraction(4, 5), Fraction(3, 5))
    return conjugated_by(irrep, q)


MUTANTS = {"one-entry-x3": _one_entry_scaled, "two-swapped": _two_swapped,
           "upper-triangular": non_unitary_conjugate, "rotated": _rotated}


@pytest.mark.parametrize("name", catalog_names())
def test_rep_relations_match_commutator_oracle(name):
    # every row, detail included, against the commutators of the built
    # operators; also on unvalidated mutants, which may fail
    for irrep in catalog_irreps(name).irreps:
        assert verify_rep_relations(irrep).results == rep_relations_by_commutators(irrep).results
        for mutant, make in MUTANTS.items():
            changed = make(irrep)
            got = verify_rep_relations(changed).results
            assert got == rep_relations_by_commutators(changed).results, (irrep.label, mutant)


def test_rep_relation_mutants_fail_where_expected():
    std = catalog_irreps("S3").by_label("std")
    failing = {mutant: [(r.check, r.detail) for r in verify_rep_relations(make(std)).failures()]
               for mutant, make in MUTANTS.items()}
    # a non-unitary form of the irrep still satisfies the relations
    assert failing["two-swapped"] == failing["rotated"] == failing["upper-triangular"] == []
    assert failing["one-entry-x3"] == [("d-x-relation", "(0, 1, 0, 1)")]
    rotated = verify_rep_relations(_rotated(std)).results
    assert [r.detail for r in rotated] == ["", "", "alpha = 3"]
    assert max(v.den for mat in _rotated(std).matrices for row in mat for v in row) == 25


def test_pi_relations_generic_and_rep():
    for alpha in ALPHAS:
        _, _, _, pi = build_generic(2, alpha)
        assert verify_pi_relations(pi, alpha).ok
    std = catalog_irreps("S3").by_label("std")
    _, _, pi = rep_matrices(std)
    assert verify_pi_relations(pi, std.alpha, "std").ok


def test_pi_relations_detect_wrong_alpha():
    _, _, _, pi = build_generic(2, Fraction(1))
    assert not verify_pi_relations(pi, Fraction(2)).ok


def test_capelli_identity_detects_wrong_shift():
    ctx, xm, dm, pi = build_generic(2, Fraction(1))
    assert not verify_capelli(xm, dm, pi, Fraction(2)).ok


def test_capelli_identity_m1():
    ctx, xm, dm, pi = build_generic(1, Fraction(1))
    assert verify_capelli(xm, dm, pi, Fraction(1)).ok
    # direct statement: x d + 0 = x d
    assert pi[0][0] == xm[0][0] * dm[0][0]


def test_capelli_identity_m2_alpha1_display():
    ctx, xm, dm, pi = build_generic(2, Fraction(1))
    lhs = coldet([
        [pi[0][0] + WeylOp.one(ctx), pi[0][1]],
        [pi[1][0], pi[1][1]],
    ])
    rhs = coldet(xm) * coldet(dm)
    assert lhs == rhs


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", (1, 2, 3))
def test_capelli_identity_generic_sweep(m, alpha):
    ctx, xm, dm, pi = build_generic(m, alpha)
    assert verify_capelli(xm, dm, pi, alpha).ok


@pytest.mark.parametrize("name", ("S3", "D4", "Q8"))
def test_capelli_identity_for_degree_two_irreps(name):
    std = catalog_irreps(name).by_label("std")
    assert verify_capelli(*rep_matrices(std), std.alpha).ok


def _route(irrep):
    return f"derived from generic m={irrep.degree} alpha={irrep.alpha} by "


@pytest.mark.parametrize("name", catalog_names())
def test_derived_identities_match_direct_route(name):
    for irrep in catalog_irreps(name).irreps:
        derived = {identity: verify_rep_identity(irrep, identity).results
                   for identity in ("pi-relations", "capelli-identity")}
        for identity, [result] in derived.items():
            assert (result.check, result.irrep, result.status) == (identity, irrep.label, "pass")
            assert result.detail.startswith(_route(irrep)), result.detail
        # the direct expansion reaches every irrep of degree <= 2 and A4/std,
        # not S4's degree-3 irreps
        if irrep.degree > 2 and (name, irrep.label) != ("A4", "std"):
            continue
        xm, dm, pi = rep_matrices(irrep)
        assert verify_pi_relations(pi, irrep.alpha).results[0].status == "pass", irrep.label
        assert verify_capelli(xm, dm, pi, irrep.alpha).results[0].status == "pass", irrep.label


def _scaled(irrep, entries, factor):
    """irrep with entry (i, j) of every matrix times factor, for (i, j) in
    entries: D_ij and X_ij both scale, so [D_ij, X_ij] = factor^2 * alpha."""
    return _with_matrices(irrep, [
        [[v * factor if (i, j) in entries else v for j, v in enumerate(row)]
         for i, row in enumerate(mat)] for mat in irrep.matrices])


@pytest.mark.parametrize("label", ("triv", "std"))
@pytest.mark.parametrize("mutant", ("one-d-entry-x3", "every-d-entry-x2"))
def test_derived_identities_fail_when_relations_fail(mutant, label):
    irrep = catalog_irreps("S3").by_label(label)
    if mutant == "one-d-entry-x3":
        irrep = _scaled(irrep, [(0, 0)], 3)
    else:
        irrep = _scaled(irrep, list(product(range(irrep.degree), repeat=2)), 2)
    relations = verify_rep_relations(irrep)
    assert [r.check for r in relations.failures()] == ["d-x-relation"]
    for identity in ("pi-relations", "capelli-identity"):
        for given_relations in (None, relations):
            [derived] = verify_rep_identity(irrep, identity, given_relations).results
            assert derived.status == "fail"
            assert derived.detail.startswith("not derived: d-x-relation fails at ")
    report = CHECKS["weyl-relations"](IrrepSet(irrep.group, (irrep,)))
    assert {r.check: r.status for r in report.results}["pi-relations"] == "fail"
    capelli = CHECKS["weyl-capelli"](IrrepSet(irrep.group, (irrep,)))
    assert [r.status for r in capelli.results if r.irrep == label] == ["fail"]


def test_rep_identity_above_generic_size_limit_is_skipped():
    # S4's permutation representation on 4 points, as triv + std: degree 4
    std = catalog_irreps("S4").by_label("std")
    zero, one = Cyclo.zero(std.conductor), Cyclo.one(std.conductor)
    wide = Irrep("perm", std.group, 4, tuple(
        ((one, zero, zero, zero),) + tuple((zero,) + row for row in mat) for mat in std.matrices
    ))
    irrep_set = IrrepSet(std.group, (wide,))
    rows = CHECKS["weyl-relations"](irrep_set).results + CHECKS["weyl-capelli"](irrep_set).results
    skipped = [r for r in rows if r.status == "skipped"]
    assert [(r.check, r.irrep) for r in skipped] == [("pi-relations", "perm"),
                                                      ("capelli-identity", "perm")]
    for r in skipped:
        assert r.detail == f"generic size 4 exceeds limit {GENERIC_SIZE_LIMIT}"


def test_weyl_capelli_reads_the_size_limit_at_call_time(monkeypatch):
    # the sample loop and build_generic read one limit, so lowering it
    # lowers the generic rows and crashes nothing
    monkeypatch.setattr(weyl, "GENERIC_SIZE_LIMIT", 2)
    [(_, _, rows)] = run_checks(catalog_irreps("S3"), ["weyl-capelli"])
    assert [(r["check"], r["irrep"]) for r in rows] == [
        ("capelli-identity", f"generic m={m} alpha={a}")
        for m in (1, 2) for a in weyl.GENERIC_ALPHAS
    ] + [("capelli-identity", label) for label in ("triv", "sgn", "std")]
    assert not any(r["detail"].startswith("crashed:") for r in rows)
    assert all(r["status"] == "pass" for r in rows)


def test_capelli_zpoly_m1():
    ctx, xm, dm, pi = build_generic(1, Fraction(1))
    cz = capelli_zpoly(pi, Fraction(1), WeylOp.one(ctx))
    assert cz.degree == 1
    assert cz.coeffs[0] == pi[0][0]
    assert cz.coeffs[1] == -WeylOp.one(ctx)


def test_capelli_zpoly_at_zero_is_identity_lhs():
    for m, alpha in ((2, Fraction(1)), (2, Fraction(3))):
        ctx, xm, dm, pi = build_generic(m, alpha)
        cz = capelli_zpoly(pi, alpha, WeylOp.one(ctx))
        at_zero = cz.coeffs[0]
        assert at_zero == coldet(xm) * coldet(dm)


def test_capelli_zpoly_rep_degree_two():
    std = catalog_irreps("S3").by_label("std")
    _, _, pi = rep_matrices(std)
    cz = capelli_zpoly(pi, std.alpha, WeylOp.one(pi[0][0].context))
    assert cz.degree == 2
    assert cz.coeffs[2] == WeylOp.one(pi[0][0].context)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", (1, 2))
def test_capelli_properties_generic(m, alpha):
    _, _, _, pi = build_generic(m, alpha)
    report = verify_capelli_properties(pi, alpha)
    assert report.ok, str(report)


def test_m1_commutator_with_capelli_poly():
    ctx, xm, dm, pi = build_generic(1, Fraction(1))
    cz = capelli_zpoly(pi, Fraction(1), WeylOp.one(ctx))
    for coeff in cz.coeffs:
        assert not commutator(pi[0][0], coeff)


def test_det_equalities_m1():
    report = verify_det_equalities(1)
    assert report.ok
    by_check = {r.check: r for r in report.results}
    assert by_check["coldet-eq-rowdet"].status == "pass"
    assert by_check["doubledet-positioned"].status == "pass"
    naive = [r for r in report.results if r.check == "doubledet-matrix"]
    assert len(naive) == 1
    assert naive[0].status == "measured"
    assert naive[0].detail == "matches coldet"


def test_det_equalities_m2():
    report = verify_det_equalities(2)
    assert report.ok
    positioned = [r for r in report.results if r.check == "doubledet-positioned"]
    assert len(positioned) == 2  # one per shift permutation
    assert all(r.status == "pass" for r in positioned)
    assert {r.check: r.status for r in report.results}["coldet-eq-rowdet"] == "pass"
    # baking the shifts into the matrix leaves a residual at size 2:
    # recorded, not hidden
    naive = [r for r in report.results if r.check == "doubledet-matrix"]
    assert len(naive) == 2
    assert all(r.status == "measured" and r.detail.startswith("differs by") for r in naive)


@pytest.mark.parametrize("m", [1, 2])
def test_det_equalities_match_direct_build_at_one(m):
    # the rows read c = 1 off the c = 0 expansions; the oracle expands at c = 1
    assert verify_det_equalities(m).results == det_equalities_direct(m).results


def test_det_equalities_size_limit():
    with pytest.raises(SizeLimit):
        verify_det_equalities(3)


def test_scale_by_rational_one_returns_the_operator(monkeypatch):
    # the rule AlgebraElement.scale follows: no Cyclo product for a rational 1
    ctx, xm, dm, pi = build_generic(2, Fraction(3))
    calls = []
    mul = Cyclo.__mul__
    monkeypatch.setattr(Cyclo, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for one in (1, Fraction(1)):
        assert pi[0][1].scale(one) is pi[0][1]
        assert one * pi[0][1] is pi[0][1]
        assert pi[0][1] * one is pi[0][1]
    assert calls == []
    assert pi[0][1].scale(Cyclo.one(1)) == pi[0][1]
    assert pi[0][1].scale(2) == pi[0][1] + pi[0][1]


def test_context_mismatch_rejected():
    a = WeylOp.x(one_var_ctx(), 0)
    b = WeylOp.x(one_var_ctx(), 0)  # distinct context object
    with pytest.raises(ContextMismatch):
        a * b
    with pytest.raises(ContextMismatch):
        commutator(a, b)
    # a Cyclo scalar multiplies the coefficients as given, in its own field
    zeta = Cyclo.zeta(3)
    x = ((1,), (0,))
    assert a.scale(zeta).terms == {x: zeta}
    assert WeylOp.x(a.context, 0, zeta).scale(zeta).terms == {x: zeta * zeta}
    # coefficients of two fields meet only in Cyclo, which refuses them
    with pytest.raises(ConductorMismatch):
        WeylOp.x(a.context, 0, zeta) + WeylOp.x(a.context, 0, Cyclo.zeta(4))


def test_built_operators_hold_rational_coefficients(monkeypatch):
    # the Weyl layer is over Q: X, D and Pi of every generic grid, and the
    # conjugated Pi that weyl-central builds, hold ints and Fractions only
    built = []
    for m in range(1, GENERIC_SIZE_LIMIT + 1):
        for alpha in weyl.GENERIC_ALPHAS:
            _, xm, dm, pi = build_generic(m, alpha)
            built += [e for mat in (xm, dm, pi) for row in mat for e in row]
    conjugated = []
    conjugate = ncdet.conjugate
    monkeypatch.setattr(ncdet, "conjugate",
                        lambda *args: conjugated.append(conjugate(*args)) or conjugated[-1])
    assert CHECKS["weyl-central"](catalog_irreps("C1")).ok
    # per alpha one permutation at m = 1, two and a transvection at m = 2
    assert len(conjugated) == 4 * len(weyl.GENERIC_ALPHAS)
    built += [e for mat in conjugated for row in mat for e in row]
    assert {type(c) for op in built for c in op.terms.values()} <= {int, Fraction}


@pytest.mark.parametrize("name", catalog_names())
def test_commutator_matches_oracle_on_rep_entries(name):
    for irrep in catalog_irreps(name).irreps:
        if irrep.degree > 2:
            continue
        xm, dm, pi = rep_matrices(irrep)
        if name != "S4":
            pairs = product([e for mat in (xm, dm, pi) for row in mat for e in row], repeat=2)
        else:
            # S4's Pi entries have 288 (dim2) or 576 terms, and the oracle's
            # products with them take seconds: every X and D pair, and for
            # dim2 one Pi entry against one X and one D entry
            pairs = list(product([e for mat in (xm, dm) for row in mat for e in row], repeat=2))
            if irrep.degree == 2:
                p = pi[0][1]
                pairs += [pair for e in (xm[0][0], dm[0][0]) for pair in ((p, e), (e, p))]
        for a, b in pairs:
            assert commutator(a, b) == a * b - b * a, irrep.label


# -- property tests -------------------------------------------------------------------


@st.composite
def small_ops(draw):
    ctx = draw(st.shared(st.builds(lambda: WeylContext(("1", "2"))), key="ctx"))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        xdeg = tuple(draw(st.integers(0, 2)) for _ in range(2))
        ddeg = tuple(draw(st.integers(0, 2)) for _ in range(2))
        coeff = Cyclo.rational(draw(st.integers(-3, 3)))
        if coeff:
            terms[(xdeg, ddeg)] = coeff
    return WeylOp(ctx, terms)


@given(small_ops(), small_ops(), small_ops())
@settings(max_examples=60, deadline=None)
def test_weyl_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_ops(), small_ops())
@settings(max_examples=60, deadline=None)
def test_weyl_semantics_compose(a, b):
    poly = {(2, 1): Cyclo.rational(1), (0, 3): Cyclo.rational(-2)}
    via_product = apply(a * b, poly)
    via_steps = apply(a, apply(b, poly))
    assert via_product == via_steps


@st.composite
def op_pairs(draw):
    """Two operators over one context of 1-4 variables, with degrees 0-3
    and coefficients anywhere in Q(zeta_N) for N in 1, 3, 4, 12, and N."""
    size = draw(st.integers(1, 4))
    conductor = draw(st.sampled_from((1, 3, 4, 12)))
    ctx = WeylContext(tuple(str(v + 1) for v in range(size)))
    degree = st.tuples(*[st.integers(0, 3)] * size)
    basis = cyclo_degree(conductor)
    coeff = st.builds(
        lambda nums, den: Cyclo(conductor, [Fraction(n, den) for n in nums]),
        st.lists(st.integers(-3, 3), min_size=basis, max_size=basis),
        st.integers(1, 3),
    )
    ops = []
    for _ in range(2):
        terms = draw(st.dictionaries(st.tuples(degree, degree), coeff, max_size=4))
        ops.append(WeylOp(ctx, {key: c for key, c in terms.items() if c}))
    return (*ops, conductor)


@given(op_pairs())
@settings(max_examples=150, deadline=None)
def test_commutator_matches_product_oracle(ops):
    a, b, _ = ops
    got = commutator(a, b)
    assert got == a * b - b * a
    assert all(got.terms.values())


@given(op_pairs())
@settings(max_examples=100, deadline=None)
def test_product_and_commutator_act_by_composition(ops):
    # apply differentiates directly, so this checks the
    # reordering rule itself, which the product and commutator share
    a, b, conductor = ops
    ctx = a.context
    one = Cyclo.one(conductor)
    poly = {(4,) * ctx.size: one, tuple(range(1, ctx.size + 1)): Cyclo.zeta(conductor) + one}
    ab = apply(a, apply(b, poly))
    ba = apply(b, apply(a, poly))
    assert apply(a * b, poly) == ab
    diff = dict(ab)
    for key, c in ba.items():
        value = diff.pop(key, Cyclo.zero(conductor)) - c
        if value:
            diff[key] = value
    assert apply(commutator(a, b), poly) == diff
