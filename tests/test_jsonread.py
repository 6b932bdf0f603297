"""Group and irrep files read one member and one array item at a time.

The streamed route (jsonread.read_object under groups.load_group and
irreps.load_irrep) is compared with the whole-file route it replaced
(json.loads, then the checks of that time, kept in helpers): on valid
files, on the mutated tables of test_groups, over the limit, cut short,
and on JSON edge cases, both must take the same decision with the same
exit code, and build the same group or irrep.  The one intended
difference: a key repeated at the top level is refused.  The boundedness
tests use no clock: a file whose deciding item is followed by bytes
that are not JSON can only be refused with the deciding item's message
if nothing after that item was decoded.
"""

import argparse
import contextlib
import io
import json
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path
from types import GeneratorType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli_lab import cli, jsonread
from capelli_lab.catalog import catalog_group, catalog_irreps
from capelli_lab.groups import ClosureTooLarge, NotAGroup, group_to_dict, load_group
from capelli_lab.irreps import irrep_to_dict, load_irrep
from helpers import parent_load_group, parent_load_irrep
from test_fuzz import json_values
from test_groups import cyclic_table, mutated_catalog_tables

ENCODINGS = ("utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32")
SPACES = ("", " ", "\n", " \t\r\n ")
CHUNKS = (4, 5, 16, jsonread.CHUNK)
DEEP = '"deeply nested": ' + "[" * 5000 + "]" * 5000  # a key no drawn one can equal


def _read_all(path, streamed):
    """Every member read_object yields, streamed arrays drained into lists."""
    with open(path, "rb") as fh:
        return [(key, list(value) if isinstance(value, GeneratorType) else value)
                for key, value in jsonread.read_object(fh, streamed, "not an object")]


@st.composite
def documents(draw, members):
    """The text of an object with these (key, value) members, JSON edge
    cases drawn: whitespace, NaN, a deeply nested member, a repeated key,
    trailing data, a cut.  Returns (text, has a repeated key)."""
    members = list(members)
    space = draw(st.sampled_from(SPACES))
    if draw(st.integers(0, 9)) == 0 and members:
        i = draw(st.integers(0, len(members) - 1))
        members[i] = (members[i][0], float("nan"))
    parts = [f"{json.dumps(k)}{space}:{space}{json.dumps(v, separators=(space + ',' + space, ':'))}"
             for k, v in members]
    repeated = False
    edge = draw(st.sampled_from(("none",) * 6 + ("deep", "repeat", "trailing", "cut")))
    if edge == "deep":
        parts.insert(draw(st.integers(0, len(parts))), DEEP)
    if edge == "repeat" and members:
        key, value = draw(st.sampled_from(members))
        parts.insert(draw(st.integers(0, len(parts))), f"{json.dumps(key)}:{json.dumps(value)}")
        repeated = True
    text = space + "{" + space + ("," + space).join(parts) + space + "}" + space
    if edge == "trailing":
        text += draw(st.sampled_from(("x", "{}", "]", "0")))
    if edge == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, repeated


def _loads(raw):
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _write(directory, name, text, encoding):
    path = Path(directory) / name
    path.write_bytes(text.encode(encoding))
    return path


def _outcome(load, code):
    """("accept", the value), or ("refuse", the exit code the CLI gives)."""
    try:
        return "accept", load()
    except (ValueError, KeyError):
        return "refuse", code


def _cli_group_outcome(path, max_order):
    args = argparse.Namespace(group_file=str(path), group=None)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return "accept", cli.resolve_group(args, max_order)
    except SystemExit as exc:
        return "refuse", exc.code


# -- the streamed route against the whole-file route -----------------------------------------


@st.composite
def group_files(draw):
    kind, table = draw(mutated_catalog_tables())
    n = len(table)
    names = [f"g{i}" for i in range(n)]
    fields = {"name": "G", "order": n, "elements": names, "table": table}
    edit = draw(st.sampled_from(("none",) * 5 + ("names-short", "names-long", "name-list",
                                                 "order-off", "order-string", "missing",
                                                 "extra", "row-extra", "row-missing")))
    if edit == "names-short":
        names.pop()
    elif edit == "names-long":
        names.append("x")
    elif edit == "name-list":
        names[draw(st.integers(0, n - 1))] = ["g"]
    elif edit == "order-off":
        fields["order"] = n + 1
    elif edit == "order-string":
        fields["order"] = str(n)
    elif edit == "missing":
        del fields[draw(st.sampled_from(sorted(fields)))]
    elif edit == "extra":
        fields["note"] = draw(json_values)
    elif edit == "row-extra":
        table.append(list(table[0]))
    elif edit == "row-missing" and n > 1:
        table.pop()
    members = draw(st.permutations(sorted(fields.items())))
    text, repeated = draw(documents(members))
    limit = draw(st.sampled_from((10000, n, n - 1, max(n // 2, 1))))
    return text, repeated, limit, draw(st.sampled_from(ENCODINGS)), draw(st.sampled_from(CHUNKS))


@settings(max_examples=300, deadline=None)
@given(group_files())
def test_group_files_match_the_whole_file_route(case):
    text, repeated, limit, encoding, chunk = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(jsonread, "CHUNK", chunk):
        path = _write(tmp, "group.json", text, encoding)
        streamed = _cli_group_outcome(path, limit)
        oracle = _outcome(lambda: parent_load_group(path.read_bytes(), limit), 2)
    if repeated:
        assert streamed == ("refuse", 2)
    else:
        assert streamed == oracle


IRREP_CASES = [("S3", "std"), ("S3", "sgn"), ("C3", "chi1"), ("Q8", "std"), ("V4", "a")]


@st.composite
def irrep_files(draw):
    name, label = draw(st.sampled_from(IRREP_CASES))
    group = catalog_group(name)
    irrep = catalog_irreps(name)
    data = irrep_to_dict(irrep.by_label(label) if label in [r.label for r in irrep.irreps]
                         else irrep.irreps[-1])
    matrices = data["matrices"]
    g = draw(st.integers(0, group.order - 1))
    edit = draw(st.sampled_from(("none",) * 4 + ("block-extra", "block-missing", "block-short",
                                                 "row-short", "scalar", "group", "degree",
                                                 "conductor", "missing", "extra")))
    if edit == "block-extra":
        matrices.append(matrices[g])
    elif edit == "block-missing":
        matrices.pop(g)
    elif edit == "block-short":
        matrices[g] = matrices[g][:-1]
    elif edit == "row-short":
        matrices[g][0] = matrices[g][0][:-1]
    elif edit == "scalar":
        matrices[g][0][0] = draw(st.sampled_from(({"conductor": 3, "coeffs": []}, 1, "1",
                                                  {"conductor": 1, "coeffs": [True]})))
    elif edit == "group":
        data["group"] = "other"
    elif edit == "degree":
        data["degree"] = draw(st.sampled_from((0, True, data["degree"] + 1)))
    elif edit == "conductor":
        data["conductor"] = draw(st.sampled_from((997, -1, "12")))
    elif edit == "missing":
        del data[draw(st.sampled_from(sorted(data)))]
    elif edit == "extra":
        data["note"] = draw(json_values)
    members = draw(st.permutations(sorted(data.items())))
    text, repeated = draw(documents(members))
    return group, text, repeated, draw(st.sampled_from(ENCODINGS)), draw(st.sampled_from(CHUNKS))


@settings(max_examples=200, deadline=None)
@given(irrep_files())
def test_irrep_files_match_the_whole_file_route(case):
    group, text, repeated, encoding, chunk = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(jsonread, "CHUNK", chunk):
        path = _write(tmp, "irrep.json", text, encoding)
        streamed = _outcome(lambda: load_irrep(path, group), 3)
        oracle = _outcome(lambda: parent_load_irrep(path.read_bytes(), group), 3)
    if repeated:
        assert streamed == ("refuse", 3)
    else:
        assert streamed == oracle


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5), st.data())
def test_reader_decodes_what_json_loads_decodes(obj, data):
    streamed = tuple(key for key in obj if data.draw(st.booleans()))
    text, repeated = data.draw(documents(obj.items()))
    encoding = data.draw(st.sampled_from(ENCODINGS))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(jsonread, "CHUNK", data.draw(st.sampled_from(CHUNKS))):
        path = _write(tmp, "doc.json", text, encoding)
        read = _outcome(lambda: _read_all(path, streamed), None)
        loaded = _outcome(lambda: _loads(path.read_bytes()), None)
    if repeated:
        assert read[0] == "refuse"
    elif read[0] == "accept" and loaded[0] == "accept":
        # NaN != NaN: compare the texts json writes for both
        assert json.dumps(dict(read[1])) == json.dumps(loaded[1])
        assert [key for key, _ in read[1]] == list(loaded[1])
    else:
        assert read[0] == loaded[0]


@pytest.mark.parametrize("text, ok", [
    ("{}", True), (" { } ", True), ('{"a": []}', True), ('{"a": [ ]}', True),
    ('{"a": [1, [2, 3], {"b": 4}]}', True), ('{"a": [1 , 2 ]\n}', True),
    ('{"a": [1,]}', False), ('{"a": [,1]}', False), ('{"a": [1 2]}', False),
    ('{"a": 1,}', False), ('{"a" 1}', False), ("{1: 2}", False), ('{"a": [1}', False),
    ('{"a": 1} x', False), ('{"a": 1}{"b": 2}', False), ('{"a": 1', False),
    ('{"a": [1', False), ('{"a": NaN, "b": [-Infinity]}', True), ('{"a": "\x01"}', False),
    ('{"a": [12', False), ('{"a": [1.5e3]}', True),
], ids=repr)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_reader_grammar(tmp_path, text, ok, chunk):
    path = _write(tmp_path, "doc.json", text, "utf-8")
    with mock.patch.object(jsonread, "CHUNK", chunk):
        outcome = _outcome(lambda: _read_all(path, ("a",)), None)
    assert (outcome[0] == "accept") == ok
    with pytest.raises(ValueError) if not ok else contextlib.nullcontext():
        json.loads(text)


CUT_TOKENS = ('{"a": [10.25, 3e-7, -0.5E+2, 12345, 1.0, -Infinity, true, null, '
              '"x\\u00e9\\ud83d\\ude00\\"y", [1, {"k": "v"}]], "b": 2.5e1, "c": false}')


@pytest.mark.parametrize("chunk", range(4, len(CUT_TOKENS) + 1))
def test_tokens_cut_by_a_chunk_boundary_are_read_whole(tmp_path, chunk):
    # a number cut after "1." or "3e" scans as a shorter number, and a cut
    # literal or escape fails where it starts: each is read again with more
    path = _write(tmp_path, "doc.json", CUT_TOKENS, "utf-8")
    with mock.patch.object(jsonread, "CHUNK", chunk):
        assert dict(_read_all(path, ("a",))) == json.loads(CUT_TOKENS)


def test_repeated_top_level_keys_are_refused(tmp_path):
    data = group_to_dict(catalog_group("S3"))
    text = json.dumps(data)[:-1] + ', "name": "S3"}'
    path = _write(tmp_path, "group.json", text, "utf-8")
    assert json.loads(text)["name"] == "S3"  # json.loads keeps the last value
    with pytest.raises(ValueError, match="key 'name' repeated in the top-level object"):
        load_group(path)
    irrep = json.dumps(irrep_to_dict(catalog_irreps("S3").by_label("sgn")))
    path = _write(tmp_path, "irrep.json", '{"degree": 1, ' + irrep[1:], "utf-8")
    with pytest.raises(ValueError, match="key 'degree' repeated"):
        load_irrep(path, catalog_group("S3"))


# -- nothing past the deciding item is decoded ----------------------------------------------

GARBAGE = b"not JSON ]]}{"
PAST_THE_CHUNK = b" " * jsonread.CHUNK + b"\xff\xfe\x00"  # bytes that are not even text


def _group_prefix(n, members=()):
    head = "".join(f"{json.dumps(k)}: {json.dumps(v)}, " for k, v in members)
    return '{"name": "G", ' + head + '"table": ['


def test_a_first_row_over_the_limit_is_refused_first(tmp_path):
    row = json.dumps(list(range(100)))
    path = tmp_path / "group.json"
    path.write_bytes((_group_prefix(100) + row).encode() + PAST_THE_CHUNK)
    with pytest.raises(ClosureTooLarge, match="group order 100 exceeds limit 64"):
        load_group(path, 64)


def test_a_bad_row_is_refused_before_the_next_is_read(tmp_path):
    table = cyclic_table(8)
    table[3][5] = table[3][6]
    rows = ", ".join(json.dumps(row) for row in table[:4])
    path = tmp_path / "group.json"
    path.write_bytes((_group_prefix(8, [("order", 8)]) + rows).encode() + PAST_THE_CHUNK)
    with pytest.raises(NotAGroup, match="row is not a permutation") as exc:
        load_group(path)
    assert exc.value.witness == 3


def test_a_malformed_row_is_refused_where_it_fails(tmp_path):
    # a cut-off row would be read again with more text; this one cannot be
    path = tmp_path / "group.json"
    path.write_bytes((_group_prefix(8) + "[0, 1, x, 3]").encode() + PAST_THE_CHUNK)
    with pytest.raises(json.JSONDecodeError, match="Expecting value"):
        load_group(path)


def test_row_n_plus_one_is_refused_before_the_next_is_read(tmp_path):
    rows = ", ".join(json.dumps(row) for row in cyclic_table(4) + [cyclic_table(4)[0]])
    path = tmp_path / "group.json"
    path.write_bytes((_group_prefix(4, [("order", 4)]) + rows + ", ").encode() + GARBAGE)
    with pytest.raises(NotAGroup, match="table is not n x n"):
        load_group(path)


def test_name_limit_plus_one_is_refused_before_the_next_is_read(tmp_path):
    names = ", ".join(json.dumps(f"g{i}") for i in range(65))
    path = tmp_path / "group.json"
    path.write_bytes(('{"elements": [' + names + ", ").encode() + GARBAGE)
    with pytest.raises(ClosureTooLarge, match="more than 64 element names"):
        load_group(path, 64)


def test_block_order_plus_one_is_refused_before_the_next_is_read(tmp_path):
    data = irrep_to_dict(catalog_irreps("S3").by_label("sgn"))
    blocks = ", ".join(json.dumps(m) for m in data["matrices"] + data["matrices"][:1])
    head = json.dumps({k: v for k, v in data.items() if k != "matrices"})[:-1]
    path = tmp_path / "irrep.json"
    path.write_bytes((head + ', "matrices": [' + blocks + ", ").encode() + GARBAGE)
    with pytest.raises(ValueError, match="more than 6 matrices for group of order 6"):
        load_irrep(path, catalog_group("S3"))


def _cyclic_group_file(path, n, elements_first):
    strs = [str(i) for i in range(n)]
    rows = ",".join("[" + ",".join(strs[a:] + strs[:a]) + "]" for a in range(n))
    names = json.dumps([f"g{i}" for i in range(n)])
    members = [f'"elements": {names}', f'"table": [{rows}]', f'"name": "C{n}"', f'"order": {n}']
    if not elements_first:
        members.reverse()
    path.write_text("{" + ", ".join(members) + "}")


@pytest.mark.parametrize("elements_first", [True, False], ids=["elements-first", "table-first"])
def test_order_1500_file_is_refused_under_limit_64(tmp_path, capsys, monkeypatch,
                                                   elements_first):
    # 11 MB of JSON; the whole-file route decoded all of it (117 MB) to refuse it
    group_path = tmp_path / "c1500.json"
    _cyclic_group_file(group_path, 1500, elements_first)
    monkeypatch.setenv("CAPELLI_LAB_MAX_ORDER", "64")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--group-file", str(group_path), "--irrep-file",
                      str(group_path), "--checks", "closed-form"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert "exceeds limit 64" in capsys.readouterr().err
    assert peak < 2 << 20  # a chunk or two, not the file


def test_streamed_items_left_by_the_caller_are_read_before_the_next_member(tmp_path):
    path = _write(tmp_path, "doc.json", '{"a": [1, 2, 3], "b": 4}', "utf-8")
    with open(path, "rb") as fh:
        members = jsonread.read_object(fh, ("a",), "not an object")
        key, items = next(members)
        assert (key, next(items)) == ("a", 1)
        assert next(members) == ("b", 4)
        assert deque(items) == deque()
