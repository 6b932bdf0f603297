"""Record perfbench/golden.json from the code in src/.

    python3 perfbench/record_golden.py

Runs every catalog job once and a few seeds of untrusted-input jobs, then
writes what each must produce: the rendered Capelli elements of every
catalog irrep, the (check, irrep, status) multiset of every verify job,
and the exit code of every untrusted-input job kind.  Refuses to record
a failed, crashed or skipped result.  Per-result ``runtime_ms`` is not
recorded: it is the check's total copied into every result.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import jobs as joblib

SEEDS = (0, 1, 2)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    pkg = run.fresh_import()
    golden = {"untrusted-exit": joblib.UNTRUSTED_EXIT}
    catalog_jobs = joblib.catalog_algebra(0, pkg.catalog) + joblib.catalog_weyl(0, pkg.catalog)
    workdirs = [run.OUT / f"golden-{seed}" for seed in SEEDS]
    untrusted = [job for seed, d in zip(SEEDS, workdirs) for job in joblib.untrusted_input(seed, d)[0]]
    for job in catalog_jobs + untrusted:
        code, _, stdout, stderr = run.call_cli(pkg.cli, job)
        if code != job.exit_code:
            raise SystemExit(f"{job.argv}: exit {code}, expected {job.exit_code}: {stderr[:300]}")
        if job.kind == "reject":
            continue
        payload = json.loads(stdout)
        if job.argv[0] == "capelli":
            value = payload["elements"]
        else:
            bad = [r for r in payload["results"] if r["status"] in ("fail", "skipped")
                   or r["detail"].startswith("crashed:")]
            if bad:
                raise SystemExit(f"{job.argv}: refusing to record {bad}")
            value = run.status_multiset(payload)
        if golden.setdefault(job.golden, value) != value:
            raise SystemExit(f"{job.golden}: output differs between jobs of the same key")
    for d in workdirs:
        shutil.rmtree(d, ignore_errors=True)
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)]
    (run.HERE / "golden.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(golden)} golden entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
