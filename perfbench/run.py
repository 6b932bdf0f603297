"""Benchmark of the capelli-lab CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload catalog-algebra --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  One single-threaded process
imports ``capelli_lab`` from ``src/`` and drives ``capelli_lab.cli.main``
in process, in a closed loop: one caller, each job starting when the
previous one returns.  Every job's exit code and JSON report are checked
against ``perfbench/golden.json``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer ones with ``--trace 1``.  See
``perfbench/NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("catalog-algebra", "catalog-weyl", "untrusted-input")
SETUP_REPS = 5  # set-ups before the first pass
SEGMENTS = 4  # each untraced pass is cut in 4, with one more set-up at each cut
MIN_SAMPLES = 100  # timings per latency class, so p90 has at least ten beyond it
P50_BATCH = 19  # p50 is the expected median of 19 of the run's timings
OUT = HERE / "out"

# Per-layer call counts that must be nonzero (+) or zero (0) per workload in
# the traced pass; see NOTES.md for where this departs from the first
# prediction.
CALLS_EXPECTED = {
    #                              catalog-algebra catalog-weyl untrusted-input
    "groups.build_table_calls":        ("0", "0", "+"),
    "groups.conjugacy_classes_calls":  ("+", "0", "0"),
    "irreps.validate_calls":           ("0", "0", "+"),
    "irreps.e_matrix_calls":           ("+", "0", "+"),
    "capelli.element_calls":           ("+", "0", "+"),
    "ncdet.coldet_calls":              ("+", "+", "+"),
    "ncdet.doubledet_calls":           ("+", "+", "0"),
    "ncdet.zpoly_mul_calls":           ("+", "+", "+"),
    "weyl.mul_calls":                  ("0", "+", "0"),
    "weyl.commutator_calls":           ("0", "+", "0"),
    "algebra.mul_calls":               ("+", "0", "0"),
    "algebra.is_central_calls":        ("+", "0", "0"),
    "linalg.rank_calls":               ("+", "0", "0"),
    "linalg.inverse_calls":            ("+", "+", "0"),
    "cyclo.mul_calls":                 ("+", "+", "+"),
    "cyclo.add_calls":                 ("+", "+", "+"),
    "cyclo.inverse_calls":             ("+", "+", "0"),
}


# -- set-up -----------------------------------------------------------------------


def package_modules():
    return {n: m for n, m in sys.modules.items() if n == "capelli_lab" or n.startswith("capelli_lab.")}


def fresh_import():
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("capelli_lab")
    importlib.import_module("capelli_lab.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"capelli_lab imported from {pkg.__file__}, not from this checkout")
    return pkg


def build_catalog(pkg, workload):
    if workload.startswith("catalog-"):
        for name in pkg.catalog.catalog_names():
            pkg.catalog.catalog_irreps(name)


def time_setup(workload):
    """Import the package and build the workload's catalog from scratch;
    returns the seconds taken and the new package."""
    start = time.perf_counter()
    pkg = fresh_import()
    build_catalog(pkg, workload)
    return time.perf_counter() - start, pkg


def setup(workload):
    """SETUP_REPS set-ups before the first pass; returns their times and the
    last package, which the passes use."""
    times = []
    for _ in range(SETUP_REPS):
        elapsed, pkg = time_setup(workload)
        times.append(elapsed)
    return times, pkg


def setup_aside(workload):
    """One more timed set-up between two segments of a pass.  The package the
    passes use is put back, with its caches as they were."""
    kept = package_modules()
    elapsed, _ = time_setup(workload)
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return elapsed


# -- one job --------------------------------------------------------------------------


class Outcome:
    __slots__ = ("job", "kind", "ms", "failed", "results", "skipped", "code", "statuses", "why")

    def __init__(self, job, ms):
        self.job, self.kind, self.ms = job, job.kind, ms
        self.failed, self.results, self.skipped = False, 0, 0
        self.code, self.statuses, self.why = None, None, ""


def call_cli(cli, job):
    """Run one job in process; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped crash fails this job, not the run
                code = f"crashed: {exc!r}"
            elapsed = time.perf_counter() - start
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return (0 if code is None else code), elapsed, out.getvalue(), err.getvalue()


def status_multiset(report):
    return sorted([r["check"], r["irrep"], r["status"]] for r in report["results"])


def judge(job, code, elapsed, stdout, stderr, golden) -> Outcome:
    """Check one job's exit code and output against what it must produce."""
    o = Outcome(job, elapsed * 1000.0)
    o.code = code
    if code != job.exit_code:
        o.failed, o.why = True, f"exit {code}, expected {job.exit_code}"
        return o
    if job.kind == "reject":
        if stdout or not stderr.startswith("error:") or job.reject_reason not in stderr:
            o.failed, o.why = True, f"rejected without {job.reject_reason!r}: {stderr[:200]!r}"
        return o
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        o.failed, o.why = True, "stdout is not one JSON document"
        return o
    expected = golden.get(job.golden)
    if job.argv[0] == "capelli":
        got = payload.get("elements")
        o.failed = got != expected
        o.why = "rendered Capelli elements differ from golden" if o.failed else ""
        return o
    results = payload["results"]
    o.statuses = status_multiset(payload)
    o.results = len(results)
    o.skipped = sum(r["status"] == "skipped" for r in results)
    if any(r["status"] == "fail" or r["detail"].startswith("crashed:") for r in results):
        o.failed, o.why = True, "a result failed or crashed"
    elif payload["failures"] != 0:
        o.failed, o.why = True, "report counts failures"
    elif o.statuses != expected:
        o.failed, o.why = True, "status multiset differs from golden"
    return o


# -- passes ------------------------------------------------------------------------------


def one_pass(cli, jobs, golden, tracer=None, between=None):
    """Run ``jobs`` once, in order; outputs are judged after the clock stops.
    With ``between``, the pass is cut into SEGMENTS and ``between()`` runs at
    each cut with the clock stopped."""
    cuts = {len(jobs) * k // SEGMENTS for k in range(1, SEGMENTS)} if between else set()
    raw, elapsed = [], 0.0
    start = time.perf_counter()
    for n, job in enumerate(jobs):
        if n in cuts:
            elapsed += time.perf_counter() - start
            between()
            start = time.perf_counter()
        if tracer is not None:
            tracer.job = n
        raw.append(call_cli(cli, job))
    elapsed += time.perf_counter() - start
    return [judge(job, *result, golden) for job, result in zip(jobs, raw)], elapsed


def run_passes(cli, jobs, seconds, golden, between=None):
    """Run whole passes over ``jobs``: at least one, more while another pass
    would end within ``seconds``, and until every latency class has
    MIN_SAMPLES timings."""
    kinds = {job.kind for job in jobs}
    outcomes, pass_times = [], []
    start = time.perf_counter()
    while True:
        done, elapsed = one_pass(cli, jobs, golden, between=between)
        outcomes.extend(done)
        pass_times.append(elapsed)
        samples = min(sum(o.kind == kind for o in outcomes) for kind in kinds)
        if samples >= MIN_SAMPLES and time.perf_counter() - start + elapsed > seconds:
            return outcomes, pass_times


def percentile(values, q, batch=None):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics, with the weights taken at the midpoint of each rank's
    interval.  With ``batch`` = m it is the expected q-quantile of m timings
    drawn at random from ``values``, which is smoother: it does not jump when
    the quantile falls in a gap between two clusters of job times."""
    ordered = sorted(values)
    n = len(ordered)
    m = batch or n
    a, b = q * (m + 1), (1 - q) * (m + 1)
    log_w = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
             for i in range(n)]
    top = max(log_w)
    weights = [math.exp(w - top) for w in log_w]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


# -- checks beside the timed passes ---------------------------------------------------


def cli_subprocess_matches(cli, job, golden):
    """One job run as a ``capelli-lab`` process must give the same exit code
    and status multiset as the in-process call."""
    code, elapsed, stdout, stderr = call_cli(cli, job)
    inproc = judge(job, code, elapsed, stdout, stderr, golden)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **job.env)
    proc = subprocess.run([sys.executable, "-m", "capelli_lab.cli", *job.argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    sub = judge(job, proc.returncode, 0.0, proc.stdout, proc.stderr, golden)
    return (not inproc.failed and not sub.failed and inproc.code == sub.code
            and inproc.statuses == sub.statuses)


def cheap_job(rng, workload, jobs):
    if workload == "untrusted-input":
        pool = [j for j in jobs if j.kind == "verify" and j.golden.endswith("-64")]
    else:
        pool = [j for j in jobs if j.kind == "verify" and j.argv[j.argv.index("--group") + 1] in
                ("C2", "C3", "C4", "V4", "S3")]
    return rng.choice(pool)


def calls_check(workload, metrics):
    column = WORKLOADS.index(workload)
    wrong = []
    for name, expected in CALLS_EXPECTED.items():
        value = metrics[name]
        if (expected[column] == "+") != (value > 0):
            wrong.append(f"{name}={value} (expected {'nonzero' if expected[column] == '+' else 'zero'})")
    return wrong


# -- provenance ------------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- metrics ----------------------------------------------------------------------------------


def job_median_timings(outcomes, kind):
    """Every timing of the jobs of ``kind``, each replaced by the median of
    its job's timings over the run's passes."""
    times = {}
    for o in outcomes:
        if o.kind == kind:
            times.setdefault(id(o.job), []).append(o.ms)
    return [statistics.median(t) for t in times.values() for _ in t]


def end_to_end(setup_s, outcomes, pass_times):
    verify = job_median_timings(outcomes, "verify")
    reject = job_median_timings(outcomes, "reject")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_times),
        "verify_ms_p50": percentile(verify, 0.5, P50_BATCH),
        "verify_ms_p90": percentile(verify, 0.9),
        "reject_ms_p50": percentile(reject, 0.5, P50_BATCH),
        "reject_ms_p90": percentile(reject, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, catalog_build_s, untraced, traced, outcomes):
    values = {}
    for name, rec in tracer.layers.items():
        values[name + "_calls"] = rec.calls
        values[name + "_s"] = rec.inclusive
        values[name + "_self_s"] = rec.self_time
    mul_calls = values["cyclo.mul_calls"]
    results = sum(o.results for o in outcomes)
    values.update({
        "catalog.build_s": catalog_build_s,
        "weyl.mul_term_pairs": tracer.extra["weyl.mul_term_pairs"],
        "weyl.peak_terms": tracer.extra["weyl.peak_terms"],
        "cyclo.mul_small_field_share": tracer.extra["cyclo.mul_small_field"] / mul_calls if mul_calls else 0.0,
        "trace.untraced_wall_s": untraced,
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "failed_frac": sum(o.failed for o in outcomes) / len(outcomes),
        "skipped_frac": sum(o.skipped for o in outcomes) / results if results else 0.0,
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "capelli_lab" / "cli.py").is_file():
        print(f"error: no capelli_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    setup_times, pkg = setup(args.workload)
    workdir = OUT / f"untrusted-{args.seed}"
    inputs_sha256 = None
    if args.workload == "untrusted-input":
        jobs, inputs_sha256 = joblib.untrusted_input(args.seed, workdir)
        if joblib.digest(joblib.untrusted_files(args.seed)[1]) != inputs_sha256:
            raise RuntimeError("the same seed generated different untrusted-input files")
    elif args.workload == "catalog-algebra":
        jobs = joblib.catalog_algebra(args.seed, pkg.catalog)
    else:
        jobs = joblib.catalog_weyl(args.seed, pkg.catalog)

    problems = []
    if golden["untrusted-exit"] != joblib.UNTRUSTED_EXIT:
        problems.append("expected untrusted-input exit codes differ from golden")
    try:
        if args.trace:
            tracer = Tracer()
            pkg = fresh_import()
            tracer.install(pkg)
            build_catalog(pkg, args.workload)
            catalog_build_s = tracer.layer("catalog.build").inclusive
            tracer.uninstall()
            timed, untraced_passes = run_passes(pkg.cli, jobs, args.seconds, golden)
            tracer.install(pkg)
            tracer.reset()
            outcomes, traced_s = one_pass(pkg.cli, jobs, golden, tracer)
            tracer.uninstall()
            pass_times = [traced_s]
            metrics = per_layer(tracer, catalog_build_s, statistics.median(untraced_passes),
                                traced_s, outcomes)
            outcomes = timed + outcomes
            problems += [f"layer self-check: {w}" for w in calls_check(args.workload, metrics)]
            wanted = spec["per_layer"]
        else:
            outcomes, pass_times = run_passes(
                pkg.cli, jobs, args.seconds, golden,
                between=lambda: setup_times.append(setup_aside(args.workload)))
            timed = outcomes
            metrics = end_to_end(statistics.median(setup_times), outcomes, pass_times)
            wanted = spec["end_to_end"]
        check_job = cheap_job(random.Random(f"cli-check/{args.seed}"), args.workload, jobs)
        if not cli_subprocess_matches(pkg.cli, check_job, golden):
            problems.append(f"in-process and subprocess results differ for {check_job.argv}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    problems += sorted({o.why for o in failed})
    counts = {kind: sum(o.kind == kind for o in outcomes) for kind in ("verify", "reject")}
    record = {
        "provenance": {
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "workload": args.workload,
            "seed": args.seed,
            "run_seconds": args.seconds,
            "measured_seconds": sum(o.ms for o in outcomes) / 1000.0,
            "trace": args.trace,
            "untrusted_inputs_sha256": inputs_sha256,
        },
        "pass_s": pass_times,
        "setup_s": setup_times,
        "job_ms": [[" ".join(job.argv), job.kind, [o.ms for o in timed if o.job is job]]
                   for job in jobs],
        "samples": counts,
        "problems": problems,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        record["spans"] = [dict(zip(("id", "parent", "job", "name", "start", "end"), s))
                           for s in tracer.spans]
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("provenance", "pass_s", "samples")}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
