#!/usr/bin/env python3
"""Run the standing mutants of the fast paths: each must be killed.

A fast path is tested against its oracle; a mutant is a small wrong edit
of the fast path that those tests must catch.  Each entry of MUTANTS
gives a file, an exact source snippet that occurs once in it, the
replacement, and the tests that must each fail with the replacement in
place.  For each entry the tree is copied to a temporary directory, the
one replacement is made there, and every named test is run with pytest;
the working tree is never written.

    python scripts/mutants.py

Prints one line per mutant.  Exit 0 when every named test fails under its
mutant; exit 1 when a test passes (the mutant survives), when a test run
ends in anything but test failures (an error, or no test collected), or
when a snippet no longer occurs exactly once, so that a refactor of a
fast path has to update this list.  Each test run is a pytest process,
so this is not part of the Tier-1 suite; tests/test_mutants.py checks
the snippets only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".benchmarks", "*.egg-info")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    # the Weyl relations as orthogonality sums of matrix coefficients, with
    # matrix(g^-1) read through the inverse table
    Mutant(
        "inverse-lookup-dropped", "src/capelli_lab/irreps.py",
        "at_inverse = [[list(map(values.__getitem__, inverses)) for values in ys]"
        " for ys in ys_values]",
        "at_inverse = ys_values",
        ("tests/test_weyl.py::test_rep_relations_match_commutator_oracle",
         "tests/test_irreps.py::test_character_inner_product_matches_per_element_oracle"),
    ),
    Mutant(
        "orthogonality-untransposed", "src/capelli_lab/irreps.py",
        "transposed = [coords[l][k] for k, l in product(range(m), repeat=2)]",
        "transposed = [coords[k][l] for k, l in product(range(m), repeat=2)]",
        ("tests/test_weyl.py::test_rep_relations_match_commutator_oracle",
         "tests/test_weyl.py::test_rep_relation_mutants_fail_where_expected"),
    ),
    Mutant(
        "relation-target-without-denominator", "src/capelli_lab/irreps.py",
        "target = alpha * den * den if (i, j) == (k, l) else 0",
        "target = alpha if (i, j) == (k, l) else 0",
        ("tests/test_weyl.py::test_rep_relations_match_commutator_oracle",
         "tests/test_weyl.py::test_rep_relation_mutants_fail_where_expected"),
    ),
    Mutant(
        "relation-last-witness", "src/capelli_lab/irreps.py",
        "for i, j, k, l in product(range(m), repeat=4):",
        "for i, j, k, l in reversed(list(product(range(m), repeat=4))):",
        ("tests/test_weyl.py::test_rep_relations_match_commutator_oracle",),
    ),
    # the catalog irreps induced from linear characters, against their
    # generator images
    Mutant(
        "induced-cosets-on-the-wrong-side", "src/capelli_lab/irreps.py",
        "mul[mul[inv[ti]][g]][tj]",
        "mul[mul[inv[tj]][g]][ti]",
        ("tests/test_induction.py::test_catalog_irreps_equal_generator_image_oracle",),
    ),
    Mutant(
        "induced-character-not-accumulated", "src/capelli_lab/irreps.py",
        "chi[x] = (chi[h] + k) % n",
        "chi[x] = k",
        ("tests/test_induction.py::test_catalog_irreps_equal_generator_image_oracle",),
    ),
    # checks over generators only, against all pairs
    Mutant(
        "light-test-first-generator-only", "src/capelli_lab/groups.py",
        "for s in generators:",
        "for s in generators[:1]:",
        ("tests/test_groups.py::test_every_loop_up_to_order_6_matches_full_scan",),
    ),
    Mutant(
        "homomorphism-first-generator-only", "src/capelli_lab/irreps.py",
        "for s in group.generators:",
        "for s in group.generators[:1]:",
        ("tests/test_irreps.py::test_homomorphism_check_matches_all_pairs_oracle",),
    ),
    # the inverse through the field norm
    Mutant(
        "inverse-conjugate-dropped", "src/capelli_lab/cyclo.py",
        "for k in range(2, n):",
        "for k in range(2, n - 1):",
        ("tests/test_cyclo.py::test_multiplicative_inverse",),
    ),
    # the commutator without forming either product, and the reordering
    # rule it shares with the product, against the direct action
    Mutant(
        "commutator-sign-flip-dropped", "src/capelli_lab/weyl.py",
        "ca = -ca",
        "ca = ca",
        ("tests/test_weyl.py::test_commutator_matches_product_oracle",),
    ),
    Mutant(
        "reordering-falling-factor-dropped", "src/capelli_lab/weyl.py",
        "mult *= math.comb(da[v], k) * math.perm(xb[v], k)",
        "mult *= math.comb(da[v], k)",
        ("tests/test_weyl.py::test_product_and_commutator_act_by_composition",),
    ),
    # the grid algebra at alpha as x and alpha * d in the one at 1
    Mutant(
        "generic-d-unscaled", "src/capelli_lab/weyl.py",
        "WeylOp.d(ctx, i * m + j, alpha)",
        "WeylOp.d(ctx, i * m + j)",
        ("tests/test_weyl.py::test_generic_grid_is_x_and_alpha_d",),
    ),
    # an irrep's identities derived from the generic ones
    Mutant(
        "derived-route-relations-skipped", "src/capelli_lab/weyl.py",
        "broken = (verify_rep_relations(irrep) if relations is None else relations).failures()",
        "broken = []",
        ("tests/test_weyl.py::test_derived_identities_fail_when_relations_fail",),
    ),
    Mutant(
        "derived-route-at-alpha-one", "src/capelli_lab/weyl.py",
        "build_generic(irrep.degree, irrep.alpha)",
        "build_generic(irrep.degree, 1)",
        ("tests/test_weyl.py::test_derived_identities_match_direct_route",),
    ),
    # the witness searches both rings share
    Mutant(
        "gl-relation-delta-il-sign-flipped", "src/capelli_lab/ncdet.py",
        "expected = expected - alpha * matrix[k][j]",
        "expected = expected + alpha * matrix[k][j]",
        ("tests/test_ncdet.py::test_gl_relation_witness_reads_only_pairs_above_the_diagonal",
         "tests/test_ncdet.py::test_witness_searches_find_nothing_on_the_generic_pi",
         "tests/test_ncdet.py::test_witness_searches_find_nothing_on_std_e"),
    ),
    Mutant(
        "noncommuting-entry-first-value-only", "src/capelli_lab/ncdet.py",
        "if not all(commute(entry, v) for v in values)",
        "if not all(commute(entry, v) for v in values[:1])",
        ("tests/test_ncdet.py::test_noncommuting_entry_reads_every_value",),
    ),
    # one determinant-variant routine for both rings
    Mutant(
        "shift-variants-diagonal-perturbed", "src/capelli_lab/ncdet.py",
        "[ZPoly([d * one, minus_one]) for d in shift]",
        "[ZPoly([(d + 1) * one, minus_one]) for d in shift]",
        ("tests/test_ncdet.py::test_shift_variants_match_permutation_sums_at_any_c",
         "tests/test_weyl.py::test_det_equalities_match_direct_build_at_one"),
    ),
    # group tables of order <= 256 as byte lines, against the line checks
    # as first written
    Mutant(
        "byte-lines-no-bool-test", "src/capelli_lab/groups.py",
        "typed = (type(row[line.index(0)]) is int\n"
        "                     and (n == 1 or type(row[line.index(1)]) is int))",
        "typed = True",
        ("tests/test_groups.py::test_table_checks_match_reference",),
    ),
    Mutant(
        "byte-lines-bool-test-at-zero-cell-only", "src/capelli_lab/groups.py",
        "and (n == 1 or type(row[line.index(1)]) is int))",
        ")",
        ("tests/test_groups.py::test_table_checks_match_reference",),
    ),
    Mutant(
        "byte-lines-no-range-test", "src/capelli_lab/groups.py",
        "if line is None or len(line) != n or line.translate(None, self.ident):",
        "if line is None or len(line) != n:",
        ("tests/test_groups.py::test_table_checks_match_reference",),
    ),
    Mutant(
        "byte-lines-wrong-translate-direction", "src/capelli_lab/groups.py",
        "return not self.ident.translate(None, line)",
        "return not line.translate(None, self.ident)",
        ("tests/test_groups.py::test_table_checks_match_reference",),
    ),
    Mutant(
        "column-test-skipped", "src/capelli_lab/groups.py",
        "if not lines.permutes(columns[i]):",
        "if False:",
        ("tests/test_groups.py::test_table_checks_match_reference",),
    ),
    # group and irrep files read one item at a time, refused at the deciding
    # item: each mutant reads past it, which the tests see as a refusal for a
    # later, undecodable item or as memory that grows with the file
    Mutant(
        "row-limit-off-by-one", "src/capelli_lab/groups.py",
        "if i == n:",
        "if i == n + 1:",
        ("tests/test_jsonread.py::test_row_n_plus_one_is_refused_before_the_next_is_read",),
    ),
    Mutant(
        "first-row-length-unchecked", "src/capelli_lab/groups.py",
        "if max_order is not None and n > max_order:",
        "if False:",
        ("tests/test_jsonread.py::test_a_first_row_over_the_limit_is_refused_first",
         "tests/test_jsonread.py::test_order_1500_file_is_refused_under_limit_64"),
    ),
    Mutant(
        "element-names-limit-off-by-one", "src/capelli_lab/groups.py",
        "names = list(islice(names, max(max_order, 0) + 1))",
        "names = list(islice(names, max(max_order, 0) + 2))",
        ("tests/test_jsonread.py::test_name_limit_plus_one_is_refused_before_the_next_is_read",),
    ),
    Mutant(
        "matrix-count-off-by-one", "src/capelli_lab/irreps.py",
        "if len(blocks) == group.order:",
        "if len(blocks) > group.order:",
        ("tests/test_jsonread.py::test_block_order_plus_one_is_refused_before_the_next_is_read",),
    ),
    Mutant(
        "repeated-keys-kept", "src/capelli_lab/jsonread.py",
        "if key in seen:",
        "if False:",
        ("tests/test_jsonread.py::test_repeated_top_level_keys_are_refused",),
    ),
    Mutant(
        "malformed-item-read-to-the-end", "src/capelli_lab/jsonread.py",
        "if self.eof or (exc.pos + _CUT_TOKEN < len(self.text)",
        "if self.eof or (False",
        ("tests/test_jsonread.py::test_a_malformed_row_is_refused_where_it_fails",),
    ),
    Mutant(
        "number-cut-short-taken-whole", "src/capelli_lab/jsonread.py",
        '_NUMBER_GOES_ON = ".eE"',
        '_NUMBER_GOES_ON = ""',
        ("tests/test_jsonread.py::test_tokens_cut_by_a_chunk_boundary_are_read_whole",),
    ),
    # the Taylor shift against the binomial expansion
    Mutant(
        "zpoly-shift-last-pass-dropped", "src/capelli_lab/ncdet.py",
        "for j in range(len(coeffs) - 2, k - 1, -1):",
        "for j in range(len(coeffs) - 2, k, -1):",
        ("tests/test_ncdet.py::test_zpoly_shift_against_binomial_expansion",),
    ),
    # convolution through the Cayley table against the naive double sum
    Mutant(
        "convolution-operands-swapped", "src/capelli_lab/algebra.py",
        "k = row[h]",
        "k = table[h][g]",
        ("tests/test_algebra.py::test_convolution_against_oracle",),
    ),
    # Phi_n as a Moebius product against the divide-out loop
    Mutant(
        "cyclotomic-mobius-of-the-divisor", "src/capelli_lab/cyclo.py",
        "if _mobius(n // d) == 1:",
        "if _mobius(d) == 1:",
        ("tests/test_cyclo.py::test_cyclotomic_polynomial_against_divide_out_loop",),
    ),
    # irreducibility through the character inner product, against the
    # per-element sum
    Mutant(
        "irreducibility-any-nonzero-norm", "src/capelli_lab/irreps.py",
        "irrep.label, norm == 1,",
        "irrep.label, norm != 0,",
        ("tests/test_irreps.py::test_reducible_character_rejected",),
    ),
    # the one term formatter behind every rendered value
    Mutant(
        "format-sum-parentheses-dropped", "src/capelli_lab/cyclo.py",
        'cs = f"({cs})"',
        "cs = cs",
        ("tests/test_cli.py::test_capelli_elements_match_the_benchmark_golden",),
    ),
    # the double determinants read off one expansion at c = 0, against
    # the direct double determinants
    Mutant(
        "det-variants-alpha-candidate-read-as-one", "src/capelli_lab/capelli.py",
        '"alpha": Fraction(irrep.alpha)',
        '"alpha": Fraction(1)',
        ("tests/test_capelli.py::test_det_variants_degree_one",
         "tests/test_capelli.py::test_det_variants_s3_standard"),
    ),
    # the prefix-sharing expansion behind coldet and the double determinants
    Mutant(
        "expand-left-multiplication", "src/capelli_lab/ncdet.py",
        "term = entry if acc is None else acc * entry",
        "term = entry if acc is None else entry * acc",
        ("tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums",),
    ),
    Mutant(
        "expand-column-sign-dropped", "src/capelli_lab/ncdet.py",
        "col_odd = (cols >> c).bit_count() & 1",
        "col_odd = 0",
        ("tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums",),
    ),
    Mutant(
        "expand-diagonal-term-wrong-position", "src/capelli_lab/ncdet.py",
        "shift = diagonal_terms[k]",
        "shift = diagonal_terms[m - 1 - k]",
        ("tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums",),
    ),
    Mutant(
        "expand-every-sign-flipped", "src/capelli_lab/ncdet.py",
        "odd = ((rows >> r).bit_count() + col_odd) & 1",
        "odd = ((rows >> r).bit_count() + col_odd + 1) & 1",
        ("tests/test_ncdet.py::test_free_word_expansions_match_permutation_sums",
         "tests/test_ncdet.py::test_doubledet_1x1"),
    ),
)


def snippet_count(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.snippet)


def run_mutant(mutant: Mutant) -> list[str]:
    """The problems with one mutant, empty when every named test fails."""
    count = snippet_count(mutant)
    if count != 1:
        return [f"snippet occurs {count} times in {mutant.path}"]
    problems = []
    with tempfile.TemporaryDirectory(prefix="capelli-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        for test in mutant.tests:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                cwd=tree, env=env, capture_output=True, text=True)
            if done.returncode == 0:
                problems.append(f"survives {test}")
            elif done.returncode != 1:  # 1 is "tests failed"; anything else is no verdict
                tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
                problems.append(f"{test} ended with exit {done.returncode}: {' '.join(tail)}")
    return problems


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        problems = run_mutant(mutant)
        print(f"{mutant.name:40} " + ("killed" if not problems else "; ".join(problems)),
              flush=True)
        failed += bool(problems)
    print(f"\n{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
