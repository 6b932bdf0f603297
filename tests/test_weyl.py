from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab import weyl
from capelli_lab.catalog import catalog_irreps, catalog_names
from capelli_lab.cli import CHECKS
from capelli_lab.cyclo import Cyclo, cyclo_degree
from capelli_lab.irreps import Irrep, IrrepSet
from capelli_lab.ncdet import SizeLimit, coldet
from capelli_lab.weyl import (
    GENERIC_SIZE_LIMIT,
    ContextMismatch,
    WeylContext,
    WeylOp,
    apply_to_polynomial,
    build_generic,
    build_rep,
    capelli_zpoly,
    commutator,
    transpose_product,
    verify_capelli,
    verify_capelli_properties,
    verify_det_equalities,
    verify_pi_relations,
    verify_rep_identity,
    verify_rep_relations,
)
from helpers import act, det_equalities_direct

ALPHAS = (Fraction(1), Fraction(3), Fraction(5, 2))


def one_var_ctx(alpha=Fraction(1)):
    return WeylContext(("1",), Fraction(alpha))


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
        lhs_terms = {key: c.as_rational() for key, c in lhs.terms.items()}
        rhs_terms = {key: c.as_rational() for key, c in rhs.terms.items()}
        assert act(lhs_terms, Fraction(1), mono) == act(rhs_terms, Fraction(1), mono)


def test_apply_identity_and_euler():
    ctx = one_var_ctx()
    x = WeylOp.x(ctx, 0)
    d = WeylOp.d(ctx, 0)
    poly = {(3,): Cyclo.rational(1)}
    assert apply_to_polynomial(WeylOp.one(ctx), poly) == poly
    assert apply_to_polynomial(x * d, poly) == {(3,): Cyclo.rational(3)}


def test_apply_respects_alpha():
    ctx = one_var_ctx(Fraction(5, 2))
    d = WeylOp.d(ctx, 0)
    got = apply_to_polynomial(d, {(1,): Cyclo.rational(1)})
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
    std = catalog_irreps("S3").by_label("std")
    ctx, xm, dm = build_rep(std)
    for g in range(std.group.order):
        for i in range(2):
            for j in range(2):
                v = std.matrices[g][i][j]
                xkey = (tuple(1 if k == g else 0 for k in range(6)), (0,) * 6)
                dkey = ((0,) * 6, tuple(1 if k == g else 0 for k in range(6)))
                assert xm[i][j].terms.get(xkey, Cyclo.zero(6)) == v.conjugate()
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


def _scale_d(monkeypatch, entries, factor):
    build = weyl.build_rep

    def scaled(irrep):
        ctx, xm, dm = build(irrep)
        for i, j in entries(irrep.degree):
            dm[i][j] = dm[i][j].scale(factor)
        return ctx, xm, dm

    monkeypatch.setattr(weyl, "build_rep", scaled)


@pytest.mark.parametrize("label", ("triv", "std"))
@pytest.mark.parametrize("mutant", ("one-d-entry-x3", "every-d-entry-x2"))
def test_derived_identities_fail_when_relations_fail(monkeypatch, mutant, label):
    if mutant == "one-d-entry-x3":
        _scale_d(monkeypatch, lambda m: [(0, 0)], 3)
    else:
        _scale_d(monkeypatch, lambda m: product(range(m), repeat=2), 2)
    irrep = catalog_irreps("S3").by_label(label)
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


def test_capelli_zpoly_m1():
    ctx, xm, dm, pi = build_generic(1, Fraction(1))
    cz = capelli_zpoly(pi, Fraction(1))
    assert cz.degree == 1
    assert cz.coeffs[0] == pi[0][0]
    assert cz.coeffs[1] == -WeylOp.one(ctx)


def test_capelli_zpoly_at_zero_is_identity_lhs():
    for m, alpha in ((2, Fraction(1)), (2, Fraction(3))):
        ctx, xm, dm, pi = build_generic(m, alpha)
        cz = capelli_zpoly(pi, alpha)
        at_zero = cz.coeffs[0]
        assert at_zero == coldet(xm) * coldet(dm)


def test_capelli_zpoly_rep_degree_two():
    std = catalog_irreps("S3").by_label("std")
    _, _, pi = rep_matrices(std)
    cz = capelli_zpoly(pi, std.alpha)
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
    cz = capelli_zpoly(pi, Fraction(1))
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


def test_context_mismatch_rejected():
    a = WeylOp.x(one_var_ctx(), 0)
    b = WeylOp.x(one_var_ctx(), 0)  # distinct context object
    with pytest.raises(ContextMismatch):
        a * b
    with pytest.raises(ContextMismatch):
        commutator(a, b)


def test_commutator_at_alpha_zero_stores_no_zero_terms():
    # at alpha = 0 every k >= 1 reordering term vanishes, so d and x commute
    ctx = WeylContext(("1", "2"), Fraction(0), 12)
    zeta = Cyclo.zeta(12)
    a = WeylOp.d(ctx, 0, zeta) * WeylOp.d(ctx, 1) + WeylOp.x(ctx, 1)
    b = WeylOp.x(ctx, 0) * WeylOp.x(ctx, 1, 3) + WeylOp.d(ctx, 1, zeta)
    got = commutator(a, b)
    assert got.terms == {}
    assert got == a * b - b * a


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
    ctx = draw(st.shared(st.builds(lambda: WeylContext(("1", "2"), Fraction(1))), key="ctx"))
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
    via_product = apply_to_polynomial(a * b, poly)
    via_steps = apply_to_polynomial(a, apply_to_polynomial(b, poly))
    assert via_product == via_steps


ORACLE_ALPHAS = (Fraction(0), Fraction(1), Fraction(3), Fraction(5, 2))


@st.composite
def op_pairs(draw):
    """Two operators over one context of 1-4 variables, with degrees 0-3
    and coefficients anywhere in Q(zeta_N) for N in 1, 3, 4, 12."""
    size = draw(st.integers(1, 4))
    conductor = draw(st.sampled_from((1, 3, 4, 12)))
    ctx = WeylContext(tuple(str(v + 1) for v in range(size)),
                      draw(st.sampled_from(ORACLE_ALPHAS)), conductor)
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
    return ops


@given(op_pairs())
@settings(max_examples=150, deadline=None)
def test_commutator_matches_product_oracle(ops):
    a, b = ops
    got = commutator(a, b)
    assert got == a * b - b * a
    assert all(got.terms.values())


@given(op_pairs())
@settings(max_examples=100, deadline=None)
def test_product_and_commutator_act_by_composition(ops):
    # apply_to_polynomial differentiates directly, so this checks the
    # reordering rule itself, which the product and commutator share
    a, b = ops
    ctx = a.context
    one = Cyclo.one(ctx.conductor)
    poly = {(4,) * ctx.size: one, tuple(range(1, ctx.size + 1)): Cyclo.zeta(ctx.conductor) + one}
    ab = apply_to_polynomial(a, apply_to_polynomial(b, poly))
    ba = apply_to_polynomial(b, apply_to_polynomial(a, poly))
    assert apply_to_polynomial(a * b, poly) == ab
    diff = dict(ab)
    for key, c in ba.items():
        value = diff.pop(key, Cyclo.zero(ctx.conductor)) - c
        if value:
            diff[key] = value
    assert apply_to_polynomial(commutator(a, b), poly) == diff
