"""Malformed group and irrep files through the whole CLI.

Every file, however broken, must end in an exit code of 0-3 within a
bounded time, with no exception escaping `main` other than the
`SystemExit` that carries that code.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capelli_lab.catalog import catalog_group, catalog_irreps
from capelli_lab.cli import main
from capelli_lab.groups import group_to_dict
from capelli_lab.irreps import irrep_to_dict

CASES = [(name, irrep.label) for name in ("C3", "S3", "V4")
         for irrep in catalog_irreps(name).irreps]
REPLACEMENTS = (0, -1, True, None, "", "1/0", 1.5, 30030, [], {})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated(draw, document):
    """`document` with a few of its values replaced or keys deleted."""
    document = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(document) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return document


@st.composite
def file_pairs(draw):
    name, label = draw(st.sampled_from(CASES))
    group = group_to_dict(catalog_group(name))
    irrep = irrep_to_dict(catalog_irreps(name).by_label(label))
    kind = draw(st.sampled_from(("group", "irrep", "both", "arbitrary")))
    if kind == "arbitrary":
        return draw(st.sampled_from((group, draw(json_values)))), draw(json_values)
    if kind in ("group", "both"):
        group = draw(mutated(group))
    if kind in ("irrep", "both"):
        irrep = draw(mutated(irrep))
    return group, irrep


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(file_pairs())
def test_malformed_files_exit_cleanly(tmp_path, capsys, pair):
    group_path, irrep_path = tmp_path / "group.json", tmp_path / "irrep.json"
    group_path.write_text(json.dumps(pair[0]))
    irrep_path.write_text(json.dumps(pair[1]))
    code = _exit_code(["verify", "--group-file", str(group_path),
                       "--irrep-file", str(irrep_path), "--checks", "closed-form"])
    capsys.readouterr()
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("which", ["group", "irrep"])
def test_deeply_nested_files_are_refused(tmp_path, capsys, which):
    # the JSON parser gives up on this with RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if which == "group":
        irrep_path = tmp_path / "irrep.json"
        irrep_path.write_text(json.dumps(irrep_to_dict(catalog_irreps("C3").irreps[0])))
        argv, expected = ["--group-file", str(deep), "--irrep-file", str(irrep_path)], 2
    else:
        argv, expected = ["--group", "C3", "--irrep-file", str(deep)], 3
    code = _exit_code(["verify", *argv, "--checks", "closed-form"])
    assert code == expected
    assert f"error: cannot load {which} file:" in capsys.readouterr().err
