"""scripts/mutants.py applies each standing mutant by exact text
replacement, so a refactor that rewrites a mutated line silently drops
that mutant.  This checks, without running any mutant, that every
snippet still occurs exactly once in its file and that every named test
is still defined."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("capelli_mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_once_and_its_tests_exist(mutant):
    assert mutants.snippet_count(mutant) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
