"""The traced benchmark run (perfbench/tracer.py) wraps package functions
by name; a refactor that deletes or renames one breaks that run.  This
installs its Tracer on capelli_lab, runs one small verify through it and
uninstalls it again.  The traced run also checks which layers each
workload calls (CALLS_EXPECTED in perfbench/run.py); a small pass of each
workload is held to that pattern here.  Files under perfbench/ are read,
never written or imported as package modules."""

import ast
import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

import capelli_lab
from capelli_lab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load(path, name):
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # where a dataclass looks its module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def _load_tracer():
    return _load(TRACER_PATH, "perfbench_tracer")


def _run_py_constants(*names):
    """Top-level literal assignments of perfbench/run.py, read with ast:
    importing run.py would put perfbench/ on sys.path."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    found = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in names}
    return [found[name] for name in names]


def _bindings():
    """Every module attribute of the package, every attribute of the
    package's classes, and the check registry."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "capelli_lab" and not name.startswith("capelli_lab."):
            continue
        for key, value in vars(module).items():
            found[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("capelli_lab"):
                for attr, member in vars(value).items():
                    found[(name, key, attr)] = member
    for check, fn in cli.CHECKS.items():
        found[("CHECKS", check)] = fn
    return found


def test_tracer_wraps_every_traced_name_and_restores_them(capsys):
    before = _bindings()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(capelli_lab)
        assert capelli_lab.ncdet.doubledet is not before[("capelli_lab.ncdet", "doubledet")]
        assert cli.CHECKS["det-variants"] is not before[("CHECKS", "det-variants")]
        code = cli.main(["verify", "--group", "S3", "--checks", "det-variants,conj-inv"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    # S3 has irreps of degree 1, 1 and 2: one sigma each for the first two
    # and two for the third, each giving a positioned and an attached double
    # determinant; p_family has 1, 1 and 3 matrices, each inverted once
    assert tracer.layers["ncdet.doubledet"].calls == 8
    assert tracer.layers["linalg.inverse"].calls == 5
    assert tracer.layers["capelli.element"].calls == 6
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def _small_pass(workload, jobs_module, tmp_path):
    """The workload's jobs, the catalog ones cut to S3."""
    if workload == "untrusted-input":
        jobs, _ = jobs_module.untrusted_input(7, tmp_path)
        return jobs
    make = jobs_module.catalog_algebra if workload == "catalog-algebra" else jobs_module.catalog_weyl
    return [job for job in make(7, capelli_lab.catalog)
            if job.argv[job.argv.index("--group") + 1] == "S3"]


def _exit_code(job, monkeypatch):
    with monkeypatch.context() as env:
        for key, value in job.env.items():
            env.setenv(key, value)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(job.argv) or 0
            except SystemExit as exc:
                return exc.code


@pytest.mark.parametrize("workload", ("catalog-algebra", "catalog-weyl", "untrusted-input"))
def test_small_pass_calls_the_expected_layers(workload, tmp_path, monkeypatch):
    workloads, expected = _run_py_constants("WORKLOADS", "CALLS_EXPECTED")
    column = workloads.index(workload)
    jobs = _small_pass(workload, _load(PERFBENCH / "jobs.py", "perfbench_jobs"), tmp_path)
    for name in capelli_lab.catalog.catalog_names():
        capelli_lab.catalog.catalog_irreps(name)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(capelli_lab)
        tracer.reset()
        codes = [_exit_code(job, monkeypatch) for job in jobs]
    finally:
        tracer.uninstall()
    assert codes == [job.exit_code for job in jobs]
    wrong = {name: tracer.layers[name.removesuffix("_calls")].calls
             for name, signs in expected.items()
             if (signs[column] == "+") != (tracer.layers[name.removesuffix("_calls")].calls > 0)}
    assert wrong == {}
