import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from capelli_lab import cli, groups
from capelli_lab.catalog import catalog_group, catalog_irreps
from capelli_lab.cli import CHECKS, main
from capelli_lab.groups import group_to_dict, load_group
from capelli_lab.irreps import irrep_to_dict, load_irrep
from helpers import validate_per_pair

VALID_STATUSES = {"pass", "fail", "measured", "skipped"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_catalog(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "S3" in out and "[1,1,2]" in out
    assert "Q8" in out and "[1,1,1,1,2]" in out
    assert "A4" in out and "[1,1,1,3]" in out


def test_capelli_trivial_rendering(capsys):
    code, out, _ = run(capsys, "capelli", "--group", "S3", "--irrep", "triv")
    assert code == 0
    assert "- z" in out
    for name in catalog_group("S3").element_names:
        assert name in out


def test_capelli_standard_rendering(capsys):
    code, out, _ = run(capsys, "capelli", "--group", "S3", "--irrep", "std")
    assert code == 0
    assert "(-5*z + z^2)*e + z*(123) + z*(132)" in out


def test_capelli_evaluated(capsys):
    code, out, _ = run(capsys, "capelli", "--group", "S3", "--irrep", "std", "--at", "-1")
    assert code == 0
    assert "6*e - (123) - (132)" in out


@pytest.mark.parametrize("at", ["foo", "1/0", "1e100000"])
def test_capelli_at_outside_the_grammar_exits_2(capsys, at):
    # before the grammar check these raised ValueError, ZeroDivisionError, and
    # a 100,001-digit integer that str() refused
    with pytest.raises(SystemExit) as exc:
        run(capsys, "capelli", "--group", "S3", "--irrep", "std", "--at", at)
    assert exc.value.code == 2
    assert f"error: --at {at!r} is not a rational" in capsys.readouterr().err


def test_capelli_at_reads_the_coefficient_grammar(capsys):
    code, out, _ = run(capsys, "capelli", "--group", "S3", "--irrep", "std", "--at", "3/02")
    assert code == 0
    assert "C^std at z=3/02 = -21/4*e + 3/2*(123) + 3/2*(132)" in out


def test_capelli_at_too_long_to_render_exits_2(capsys):
    # a 3,000-digit integer parses, but the degree-2 value squares it past
    # str()'s digit limit; before the bound this was a traceback, exit 1
    with pytest.raises(SystemExit) as exc:
        run(capsys, "capelli", "--group", "S3", "--irrep", "std", "--at", "7" * 3000)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: --at has 3000 digits")


def test_capelli_at_just_under_the_render_bound(capsys):
    bound = sys.get_int_max_str_digits() // 3  # degree 2
    code, out, _ = run(capsys, "capelli", "--group", "S3", "--irrep", "std", "--at", "7" * bound)
    assert code == 0
    assert out.startswith(f"C^std at z={'7' * bound} = ")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "capelli", "--group", "S3", "--irrep", "std", "--at", "1/" + "7" * (bound + 1))
    assert exc.value.code == 2


def test_capelli_json_payload(capsys):
    code, out, _ = run(capsys, "capelli", "--group", "S3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "S3"
    assert {e["irrep"] for e in payload["elements"]} == {"triv", "sgn", "std"}


def test_unknown_group_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "capelli", "--group", "nope")
    assert exc.value.code == 2


def test_unknown_irrep_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group", "S3", "--irrep", "nope", "--checks", "schur")
    assert exc.value.code == 2


def test_unknown_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group", "S3", "--checks", "bogus")
    assert exc.value.code == 2


def test_verify_small_checks_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--group", "C4", "--checks", "closed-form,basis-capelli")
    assert code == 0
    assert "0 failures" in out


def test_verify_report_schema_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--group", "S3",
                     "--checks", "schur,e-basis,det-variants",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["tool"] == "capelli-lab"
    assert isinstance(payload["version"], str)
    assert payload["group"] == "S3"
    assert isinstance(payload["runtime_ms"], int)
    assert payload["failures"] == 0
    for entry in payload["results"]:
        assert set(entry) == {"name", "check", "irrep", "status", "detail", "runtime_ms"}
        assert entry["name"] in CHECKS
        assert entry["status"] in VALID_STATUSES
        assert isinstance(entry["runtime_ms"], int)
    # round trip: serialize -> parse -> identical structure
    assert json.loads(json.dumps(payload)) == payload


def test_verify_requested_checks_all_appear(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    requested = ["schur", "closed-form", "det-variants"]
    code, _, _ = run(capsys, "verify", "--group", "Q8", "--checks", ",".join(requested),
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["checks"] == requested
    assert {e["name"] for e in payload["results"]} == set(requested)


def test_restricted_irrep_skips_set_level_checks(capsys):
    code, out, _ = run(capsys, "verify", "--group", "S3", "--irrep", "std",
                       "--checks", "schur,e-basis,closed-form")
    assert code == 0
    lines = out.splitlines()
    # schur and e-basis need the full set
    assert sum(line.startswith("[ skipped]") for line in lines) == 2
    assert "0 failures, 2 skipped, 0 measured," in lines[-1]
    assert "closed-form" in out and "0 failures" in out


def test_verify_group_file_with_irrep_file(tmp_path, capsys):
    group = catalog_group("S3")
    std = catalog_irreps("S3").by_label("std")
    group_path = tmp_path / "s3.json"
    irrep_path = tmp_path / "std.json"
    group_path.write_text(json.dumps(group_to_dict(group)))
    irrep_path.write_text(json.dumps(irrep_to_dict(std)))
    code, out, _ = run(capsys, "verify", "--group-file", str(group_path),
                       "--irrep-file", str(irrep_path), "--checks", "closed-form")
    assert code == 0
    assert "0 failures" in out


def test_utf8_files_load_under_an_ascii_locale(tmp_path):
    # the files are read as bytes: the C locale's ASCII plays no part
    group = group_to_dict(catalog_group("S3"))
    group["name"] = "S₃"
    group["elements"] = [f"σ{name}" for name in group["elements"]]
    irrep = irrep_to_dict(catalog_irreps("S3").by_label("std"))
    irrep.update(label="χ", group="S₃")
    for path, data in (("group.json", group), ("irrep.json", irrep)):
        (tmp_path / path).write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    src = str(Path(groups.__file__).parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "capelli_lab.cli", "verify", "--group-file", "group.json",
         "--irrep-file", "irrep.json", "--checks", "closed-form", "--format", "json"],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["group"] == "S₃"


def test_corrupted_irrep_file_exits_3(tmp_path, capsys):
    std = catalog_irreps("S3").by_label("std")
    data = irrep_to_dict(std)
    data["matrices"][3] = data["matrices"][0]  # identity block in the wrong slot
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group", "S3", "--irrep-file", str(path), "--checks", "schur")
    assert exc.value.code == 3


def test_malformed_irrep_file_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"label\": \"x\"")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group", "S3", "--irrep-file", str(path), "--checks", "schur")
    assert exc.value.code == 3


def _bare_number_scalar():
    data = irrep_to_dict(catalog_irreps("S3").by_label("std"))
    data["matrices"][1][0][0] = 1
    return data


def _later_scalar(first, later):
    """S3's sign irrep over Q with every entry `first` but the last, `later`."""
    data = _irrep_with("conductor", 1, "sgn")
    data["matrices"] = [[[{"conductor": 1, "coeffs": [first]}]] for _ in range(5)]
    data["matrices"].append([[{"conductor": 1, "coeffs": [later]}]])
    return data


def _irrep_with(field, value, label="std"):
    data = irrep_to_dict(catalog_irreps("S3").by_label(label))
    data[field] = value
    return data


@pytest.mark.parametrize("flag, content, code, message", [
    ("--group-file", [1, 2], 2, "cannot load group file: a group is an object"),
    ("--group-file", {"name": "C2", "order": 2, "elements": ["e", "a"], "table": [1, 2]}, 2,
     "cannot load group file: field 'table' must be a list of rows of integers"),
    ("--group-file", {"name": "C1", "order": "1", "elements": ["e"], "table": [[0]]}, 2,
     "cannot load group file: field 'order' must be an integer"),
    ("--irrep-file", _bare_number_scalar(), 3, "cannot load irrep file: a scalar is an object"),
    ("--irrep-file", "std", 3, "cannot load irrep file: an irrep is an object"),
    ("--group-file", {"name": {"x": [1]}, "order": 1, "elements": ["e"], "table": [[0]]}, 2,
     "cannot load group file: field 'name' must be a string"),
    ("--group-file", {"name": "C1", "order": 1, "elements": [None], "table": [[0]]}, 2,
     "cannot load group file: field 'elements' must be a list of strings"),
    ("--group-file", {"name": "C1", "order": 1, "elements": [["e"]], "table": [[0]]}, 2,
     "cannot load group file: field 'elements' must be a list of strings"),
    ("--irrep-file", _irrep_with("label", ["std"]), 3,
     "cannot load irrep file: field 'label' must be a string"),
    ("--irrep-file", _irrep_with("group", {"x": [1]}), 3,
     "cannot load irrep file: field 'group' must be a string"),
    ("--irrep-file", _irrep_with("degree", True, "sgn"), 3,
     "cannot load irrep file: fields 'conductor' and 'degree' must be positive integers"),
    ("--irrep-file", _irrep_with("conductor", True, "sgn"), 3,
     "cannot load irrep file: fields 'conductor' and 'degree' must be positive integers"),
    ("--group-file", {"name": "C1", "order": True, "elements": ["e"], "table": [[0]]}, 2,
     "cannot load group file: field 'order' must be an integer"),
    *[("--irrep-file", _later_scalar(first, later), 3,
       "cannot load irrep file: field 'coeffs' must hold integers or strings")
      for first in (1, "1") for later in (True, 1.0, "1.0", [1], {})],
], ids=["top-level-list", "flat-table", "string-order", "bare-number-scalar", "top-level-string",
        "object-name", "null-element-name", "list-element-name", "list-label", "object-group",
        "boolean-degree", "boolean-conductor", "boolean-order",
        *[f"{first}-then-{later}" for first in ("int", "str")
          for later in ("true", "float", "float-string", "list", "object")]])
def test_malformed_file_shape_exits_cleanly(tmp_path, capsys, flag, content, code, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    source = [flag, str(path)]
    if flag == "--group-file":
        source += ["--irrep-file", str(path)]
    else:
        source = ["--group", "S3"] + source
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", *source, "--checks", "closed-form")
    assert exc.value.code == code
    assert message in capsys.readouterr().err


def test_group_file_without_irrep_file_exits_2(tmp_path, capsys):
    group_path = tmp_path / "s3.json"
    group_path.write_text(json.dumps(group_to_dict(catalog_group("S3"))))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group-file", str(group_path), "--checks", "schur")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("capelli", "--group", "S3"),
    ("capelli", "--group", "S3", "--at", "1"),
    ("verify", "--group", "S3", "--checks", "closed-form"),
], ids=["capelli", "capelli-at", "verify"])
def test_malformed_order_limit_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("CAPELLI_LAB_MAX_ORDER", "ten")
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    assert "CAPELLI_LAB_MAX_ORDER='ten' is not an integer" in capsys.readouterr().err


def test_order_limit_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAPELLI_LAB_MAX_ORDER", "4")
    group_path = tmp_path / "s3.json"
    group_path.write_text(json.dumps(group_to_dict(catalog_group("S3"))))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group-file", str(group_path),
            "--irrep-file", str(group_path), "--checks", "schur")
    assert exc.value.code == 2


def _no_build(*args):
    raise AssertionError("the table was validated")


def _not_latin(data):
    data["table"][1][1] = data["table"][1][2]


def _wrong_order(data):
    data["order"] = 7


def _flat_rows(data):
    data["table"] = [row[0] for row in data["table"]]


@pytest.mark.parametrize("edit, limit, message", [
    (None, "5", "error: group order 6 exceeds limit 5"),
    (_not_latin, "5", "error: group order 6 exceeds limit 5"),
    (_wrong_order, "10000", "declared order 7 but table has 6"),
    (_flat_rows, "5", "error: group order 6 exceeds limit 5"),
], ids=["over-limit-group", "over-limit-non-group", "wrong-declared-order", "over-limit-flat-rows"])
def test_group_file_refused_before_validation(tmp_path, capsys, monkeypatch, edit, limit, message):
    monkeypatch.setattr(groups, "build_group_from_table", _no_build)
    monkeypatch.setenv("CAPELLI_LAB_MAX_ORDER", limit)
    data = group_to_dict(catalog_group("S3"))
    if edit:
        edit(data)
    group_path = tmp_path / "s3.json"
    group_path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group-file", str(group_path),
            "--irrep-file", str(group_path), "--checks", "schur")
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_text_output_is_sorted_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--group", "S3", "--checks", "schur,central")
    code2, out2, _ = run(capsys, "verify", "--group", "S3", "--checks", "schur,central")
    assert code1 == code2 == 0
    # identical up to wall-clock timings on the summary line
    assert out1.splitlines()[:-1] == out2.splitlines()[:-1]


def _s3_std_with(edit):
    data = irrep_to_dict(catalog_irreps("S3").by_label("std"))
    edit(data)
    return data


def _scalar(value):
    return lambda data: data["matrices"][1][0].__setitem__(0, value)


@pytest.mark.parametrize("edit, message", [
    (_scalar({"conductor": 30030, "coeffs": ["1"]}), "'conductor': 30030 is not in 1..1000"),
    (lambda data: data.__setitem__("conductor", 99991), "'conductor': lcm(99991, group exponent)"),
    (_scalar({"conductor": 3, "coeffs": ["1/0", "0"]}), "field 'coeffs'"),
    (_scalar({"conductor": 3, "coeffs": ["1e1000000", "0"]}), "field 'coeffs'"),
], ids=["scalar-conductor-30030", "declared-conductor-99991", "zero-denominator", "exponent"])
def test_unbounded_scalar_input_refused_quickly(tmp_path, capsys, edit, message):
    path = tmp_path / "irrep.json"
    path.write_text(json.dumps(_s3_std_with(edit)))
    started = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--group", "S3", "--irrep-file", str(path), "--checks", "closed-form")
    assert time.monotonic() - started < 1
    assert exc.value.code == 3
    assert message in capsys.readouterr().err


def _crash(irrep_set):
    raise RuntimeError("boom")


def _load_sweep():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_all_checks.py"
    spec = importlib.util.spec_from_file_location("run_all_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_raising_check_is_a_fail_row_in_verify_and_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(CHECKS, "closed-form", _crash)
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--group", "C2", "--checks", "closed-form,conj-inv",
                     "--format", "json", "--out", str(out))
    assert code == 1
    rows = json.loads(out.read_text())["results"]
    assert [(r["name"], r["status"], r["detail"]) for r in rows if r["name"] == "closed-form"] == [
        ("closed-form", "fail", "crashed: RuntimeError('boom')")]
    assert {r["status"] for r in rows if r["name"] == "conj-inv"} == {"pass"}

    monkeypatch.setattr(cli, "CHECKS", {"closed-form": _crash, "conj-inv": CHECKS["conj-inv"]})
    sweep_out = tmp_path / "sweep.json"
    assert _load_sweep().main(["--groups", "C1,C2", "--out", str(sweep_out)]) == 1
    text = capsys.readouterr().out
    assert "C1   closed-form=FAIL conj-inv=ok" in text and "C2   closed-form=FAIL conj-inv=ok" in text
    swept = json.loads(sweep_out.read_text())["results"]
    assert [(r["group"], r["status"]) for r in swept if r["name"] == "closed-form"] == [
        ("C1", "fail"), ("C2", "fail")]


def test_sweep_refuses_unknown_group_before_any_check(capsys):
    sweep = _load_sweep()
    sweep.run_checks = _crash
    assert sweep.main(["--groups", "S3,S9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unknown groups ['S9']; try one of C1, C2" in captured.err
    assert "S4" in captured.err


def test_sweep_expect_names_the_first_differing_row(tmp_path, capsys):
    sweep = _load_sweep()
    saved = tmp_path / "saved.json"
    assert sweep.main(["--groups", "C2,S3", "--out", str(saved)]) == 0
    capsys.readouterr()
    assert sweep.main(["--groups", "C2,S3", "--expect", str(saved)]) == 0
    assert "rows identical to" in capsys.readouterr().out

    data = json.loads(saved.read_text())
    rows = data["results"]
    for row in rows:
        row["runtime_ms"] += 1  # not part of the comparison
    index = next(i for i, r in enumerate(rows) if (r["group"], r["name"]) == ("S3", "det-variants"))
    rows[index]["detail"] = "matching shifts: none"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert sweep.main(["--groups", "C2,S3", "--expect", str(edited)]) == 1
    assert f"row {index}: got ('S3', 'det-variants'" in capsys.readouterr().out

    assert sweep.first_difference(rows[:3], rows[:3]) is None
    assert sweep.first_difference(rows[:3], rows[:4]).startswith("row 3 missing from this run")
    assert sweep.first_difference(rows[:4], rows[:3]).startswith("row 3 only in this run")


# -- relabelled groups of order 64 through the whole CLI ------------------------------------


def _elementary_abelian(k):
    """C2^k as bit vectors under xor, and the character (-1)^popcount(x & 0b101...)."""
    n = 1 << k
    names = ["e" if x == 0 else "x" + format(x, f"0{k}b") for x in range(n)]
    table = [[a ^ b for b in range(n)] for a in range(n)]
    return names, table, [(-1) ** bin(x & 0b101010).count("1") for x in range(n)]


def _dihedral_times_elementary(k):
    """D4 x C2^(k-3), (i, j, x) standing for r^i s^j x with s r s = r^-1, and the
    character r -> -1, s -> 1, x -> (-1)^(x & 1)."""
    els = [(i, j, x) for i in range(4) for j in range(2) for x in range(1 << (k - 3))]
    index = {e: n for n, e in enumerate(els)}
    table = [[index[((i + (p if j == 0 else -p)) % 4, (j + q) % 2, x ^ y)] for p, q, y in els]
             for i, j, x in els]
    names = [("e" if (i, j) == (0, 0) else f"r{i}s{j}") + f".{x}" for i, j, x in els]
    return names, table, [(-1) ** (i + x) for i, j, x in els]


def _relabelled_files(tmp_path, family, rng, negate=False):
    names, table, values = family(6)
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)  # element a gets index perm[a]
    new_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new_table[perm[a]][perm[b]] = perm[table[a][b]]
    new_names, new_values = [None] * n, [None] * n
    for a in range(n):
        new_names[perm[a]], new_values[perm[a]] = names[a], values[a]
    if negate:
        g = rng.choice([perm[a] for a in range(1, n)])  # not the identity
        new_values[g] = -new_values[g]
    group_path, irrep_path = tmp_path / "group.json", tmp_path / "irrep.json"
    group_path.write_text(json.dumps(
        {"name": "G", "order": n, "elements": new_names, "table": new_table}))
    irrep_path.write_text(json.dumps({
        "label": "chi", "group": "G", "degree": 1, "conductor": 1,
        "matrices": [[[{"conductor": 1, "coeffs": [str(v)]}]] for v in new_values]}))
    return group_path, irrep_path


@pytest.mark.parametrize("family", [_elementary_abelian, _dihedral_times_elementary],
                         ids=["C2^6", "D4xC2^3"])
def test_relabelled_order_64_files_accepted_and_negated_value_refused(tmp_path, capsys, family):
    rng = random.Random(64)
    group_path, irrep_path = _relabelled_files(tmp_path, family, rng)
    argv = ["verify", "--group-file", str(group_path), "--irrep-file", str(irrep_path),
            "--checks", "closed-form"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "0 failures" in out

    group_path, irrep_path = _relabelled_files(tmp_path, family, rng, negate=True)
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 3
    group = load_group(group_path)
    (witness,) = [r.detail for r in validate_per_pair(load_irrep(irrep_path, group)).results
                  if r.check == "homomorphism"]
    assert witness.startswith("fails at pair ")
    assert f"homomorphism (chi): {witness}" in capsys.readouterr().err
