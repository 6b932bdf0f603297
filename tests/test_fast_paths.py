"""Every row of helpers.FAST_PATHS names a fast path of the package, an
oracle and a test that compares them.  This checks, without running those
tests, that both names still resolve and the test is still defined, so a
refactor that renames one has to update the table."""

import importlib
import re
from pathlib import Path

import pytest

from helpers import FAST_PATHS

ROOT = Path(__file__).resolve().parent.parent


def resolve(dotted):
    """The object a dotted name refers to: the longest importable prefix,
    then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            found = getattr(found, attr)
        return found
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("fast, oracle, test", FAST_PATHS,
                         ids=[f"{fast}~{oracle}" for fast, oracle, _ in FAST_PATHS])
def test_fast_path_oracle_and_test_exist(fast, oracle, test):
    assert fast.startswith("capelli_lab.")
    assert fast != oracle
    assert callable(resolve(fast))
    assert callable(resolve(oracle))
    path, name = test.split("::")
    assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test


def test_fast_path_rows_are_distinct():
    assert len(set(FAST_PATHS)) == len(FAST_PATHS)
