"""Acceptance suite: every criterion at its stated budget, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete.  Everything asserted here is exact arithmetic; the time
budgets are generous ceilings, not performance targets.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import capelli_lab
from capelli_lab.capelli import (
    capelli_element,
    capelli_via_subsets,
    center_basis,
    character_basis,
    verify_centrality,
    verify_closed_form,
    verify_conjugation_invariance,
    verify_det_variants,
)
from capelli_lab.catalog import catalog_irreps, catalog_names
from capelli_lab.groups import conjugacy_classes
from capelli_lab.weyl import (
    GENERIC_ALPHAS,
    build_generic,
    build_rep,
    transpose_product,
    verify_capelli,
    verify_capelli_properties,
    verify_det_equalities,
    verify_pi_relations,
    verify_rep_identity,
    verify_rep_relations,
)


def _finish(number, name, started, budget_seconds):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s (budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_schur_suite():
    from capelli_lab.irreps import verify_E_basis, verify_schur_products

    started = time.monotonic()
    for name in catalog_names():
        irrep_set = catalog_irreps(name)
        products = verify_schur_products(irrep_set)
        assert products.ok, f"{name}: {products.failures()}"
        basis = verify_E_basis(irrep_set)
        assert basis.ok, f"{name}: {basis.failures()}"
    _finish(1, "Schur products and E basis, all catalog groups", started, 30)


def test_criterion_2_closed_form_and_subset_expansion():
    started = time.monotonic()
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            report = verify_closed_form(irrep)
            assert report.ok, f"{name}/{irrep.label}: {report.failures()}"
            # the report covers both the closed form and the subset expansion;
            # assert the expansion identity directly as well
            assert capelli_via_subsets(irrep).poly == capelli_element(irrep).poly
    _finish(2, "closed form + subset expansion, every catalog irrep", started, 30)


def test_criterion_3_centrality_and_commutation():
    started = time.monotonic()
    for name in catalog_names():
        irrep_set = catalog_irreps(name)
        for irrep in irrep_set.irreps:
            report = verify_centrality(irrep, irrep_set)
            assert report.ok, f"{name}/{irrep.label}: {report.failures()}"
    _finish(3, "all Capelli coefficients central, all E-commutators zero", started, 60)


def test_criterion_4_center_bases():
    started = time.monotonic()
    for name in catalog_names():
        irrep_set = catalog_irreps(name)
        classes = conjugacy_classes(irrep_set.group).count
        elements, report = center_basis(irrep_set)  # default k = -1 everywhere
        assert report.ok, f"{name}: {report.failures()}"
        assert len(elements) == classes
        chars, creport = character_basis(irrep_set)
        assert creport.ok, f"{name}: {creport.failures()}"
        assert len(chars) == classes
    _finish(4, "Capelli and character center bases, full rank everywhere", started, 30)


def test_criterion_5_weyl_suite():
    started = time.monotonic()
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            report = verify_rep_relations(irrep)
            assert report.ok, f"{name}/{irrep.label}: {report.failures()}"
            for identity in ("pi-relations", "capelli-identity"):
                derived = verify_rep_identity(irrep, identity, report)
                assert derived.ok, f"{name}/{irrep.label}: {derived.failures()}"
            if irrep.degree > 2:
                continue
            ctx, xm, dm = build_rep(irrep)
            pi_report = verify_pi_relations(transpose_product(ctx, xm, dm), irrep.alpha, irrep.label)
            assert pi_report.ok, f"{name}/{irrep.label}: {pi_report.failures()}"
    for m in (1, 2, 3):
        for alpha in GENERIC_ALPHAS:
            _, xm, dm, pi = build_generic(m, alpha)
            report = verify_capelli(xm, dm, pi, alpha)
            assert report.ok, f"generic m={m} alpha={alpha}"
    for name in ("S3", "D4", "Q8"):
        irrep = catalog_irreps(name).by_label("std")
        ctx, xm, dm = build_rep(irrep)
        report = verify_capelli(xm, dm, transpose_product(ctx, xm, dm), irrep.alpha)
        assert report.ok, f"{name}/std capelli identity"
    for m in (1, 2):
        for alpha in GENERIC_ALPHAS:
            _, _, _, pi = build_generic(m, alpha)
            report = verify_capelli_properties(pi, alpha)
            assert report.ok, f"C(z) properties m={m} alpha={alpha}"
    _finish(5, "Weyl relations, Capelli identities, C(z) properties", started, 300)


def test_criterion_6_section_5_determinant_identities():
    started = time.monotonic()

    # (a) the row-determinant variant reproduces the Capelli element exactly
    # for every catalog irrep
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            report = verify_det_variants(irrep)
            by_check = {}
            for r in report.results:
                by_check.setdefault(r.check, []).append(r)
            assert by_check["rowdet-variant"][0].status == "pass", f"{name}/{irrep.label}"

            # (c) double determinant over the group algebra: one consistent
            # measured shift constant per irrep across every shift
            # permutation -- alpha, with 1 joining exactly when alpha = 1
            expected = (
                "matching shifts: ['1', 'alpha']" if irrep.alpha == 1
                else "matching shifts: ['alpha']"
            )
            positioned = {r.detail for r in by_check["doubledet-positioned"]}
            assert positioned == {expected}, f"{name}/{irrep.label}: {positioned}"
            # the matrix-attached parse is recorded too: it coincides in
            # degree 1 and matches nothing in higher degree, uniformly in sigma
            naive = {r.detail for r in by_check["doubledet-matrix"]}
            assert naive == ({expected} if irrep.degree == 1 else {"matching shifts: none"})

    # (b) three-way equality for the generic operator matrix at alpha = 1,
    # sizes 1 and 2: column determinant = row determinant = symmetrized
    # double determinant at z + 1, for every shift permutation
    for m in (1, 2):
        report = verify_det_equalities(m)
        assert report.ok, f"m={m}: {report.failures()}"
        statuses = {r.status for r in report.results if r.check in ("coldet-eq-rowdet", "doubledet-positioned")}
        assert statuses == {"pass"}
        positioned = [r for r in report.results if r.check == "doubledet-positioned"]
        assert len(positioned) == math.factorial(m)  # every sigma checked

    _finish(6, "rowdet variant, three-determinant equalities, measured shifts", started, 120)


def test_criterion_7_conjugation_invariance():
    started = time.monotonic()
    for name in catalog_names():
        for irrep in catalog_irreps(name).irreps:
            if irrep.degree < 2:
                continue
            report = verify_conjugation_invariance(irrep)
            assert report.ok, f"{name}/{irrep.label}: {report.failures()}"
            # the family covers all permutation matrices plus a transvection
            assert len(report.results) == math.factorial(irrep.degree) + 1
    _finish(7, "conjugation invariance, permutation + transvection family", started, 30)


def test_criterion_8_cli_end_to_end(tmp_path):
    started = time.monotonic()
    out_path = tmp_path / "report.json"
    # the subprocess imports the same package as this test, installed or not
    src = str(Path(capelli_lab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "capelli_lab.cli", "verify", "--group", "S3",
         "--checks", "all", "--format", "json", "--out", str(out_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out_path.read_text())
    assert payload["tool"] == "capelli-lab"
    assert payload["group"] == "S3"
    assert payload["failures"] == 0
    for entry in payload["results"]:
        assert set(entry) == {"name", "check", "irrep", "status", "detail", "runtime_ms"}
        assert entry["status"] in {"pass", "fail", "measured", "skipped"}
    assert json.loads(json.dumps(payload)) == payload
    _finish(8, "CLI verify S3 all checks, exit 0, schema round trip", started, 60)
