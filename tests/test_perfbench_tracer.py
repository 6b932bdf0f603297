"""The traced benchmark run (perfbench/tracer.py) wraps package functions
by name; a refactor that deletes or renames one breaks that run.  This
installs its Tracer on capelli_lab, runs one small verify through it and
uninstalls it again.  The tracer file is read, never written or imported
as a package module."""

import sys
import types
from pathlib import Path

import capelli_lab
from capelli_lab import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


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
