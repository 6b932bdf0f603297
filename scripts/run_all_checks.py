#!/usr/bin/env python3
"""Run every verification check on every catalog group and summarize.

This is the long-form experiment: it runs every check through the same
`run_checks` as `capelli-lab verify`, over the whole catalog, prints a
status matrix, and writes the combined JSON report when asked: the result
rows, and per group the check_ms map of `verify`.

    python scripts/run_all_checks.py [--out report.json] [--groups S3,Q8]
                                     [--expect saved.json]

With --expect, the (group, name, check, irrep, status, detail) rows are
compared with those of a report saved by --out, and the first row that
differs is named; the exit code is then 1.  An unknown --groups name
exits 2 before any check runs.
"""

import argparse
import json
import sys
import time
from collections import Counter

from capelli_lab.catalog import catalog_irreps, catalog_names
from capelli_lab.cli import CHECKS, run_checks

# the fields --expect compares; any other field of a saved row (the per-result
# runtime_ms that reports carried before check_ms replaced it) is left out
ROW_KEYS = ("group", "name", "check", "irrep", "status", "detail")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="write combined JSON report here")
    parser.add_argument("--groups", help="comma-separated subset of the catalog")
    parser.add_argument("--expect", help="compare the result rows with this saved report")
    args = parser.parse_args(argv)

    names = args.groups.split(",") if args.groups else list(catalog_names())
    unknown = [name for name in names if name not in catalog_names()]
    if unknown:
        print(f"error: unknown groups {unknown}; try one of {', '.join(catalog_names())}",
              file=sys.stderr)
        return 2
    combined, check_ms = [], {}
    grand = Counter()
    seconds = Counter()
    started = time.monotonic()
    for name in names:
        irrep_set = catalog_irreps(name)
        row = {}
        for check, elapsed, rows in run_checks(irrep_set, list(CHECKS)):
            seconds[check] += elapsed
            check_ms.setdefault(name, {})[check] = int(elapsed * 1000)
            statuses = Counter(r["status"] for r in rows)
            grand.update(statuses)
            row[check] = "FAIL" if statuses.get("fail") else "ok"
            combined.extend({"group": name, **r} for r in rows)
        flat = " ".join(f"{check}={row[check]}" for check in CHECKS)
        print(f"{name:4} {flat}")

    total = time.monotonic() - started
    print(f"\n{sum(grand.values())} results in {total:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in sorted(grand.items())))
    print("seconds per check: " + " ".join(f"{check}={seconds[check]:.2f}" for check in CHECKS))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"tool": "capelli-lab", "results": combined, "check_ms": check_ms}, fh,
                      indent=2)
        print(f"wrote {args.out}")
    if args.expect:
        with open(args.expect) as fh:
            expected = json.load(fh)["results"]
        difference = first_difference(combined, expected)
        if difference:
            print(f"differs from {args.expect}: {difference}")
            return 1
        print(f"{len(combined)} rows identical to {args.expect}")
    return 1 if grand.get("fail") else 0


def first_difference(got, expected):
    """The first row in which two result lists differ, described; None if
    they agree on every row's ROW_KEYS."""
    got = [tuple(r.get(k) for k in ROW_KEYS) for r in got]
    expected = [tuple(r.get(k) for k in ROW_KEYS) for r in expected]
    for index, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return f"row {index}: got {a}, expected {b}"
    if len(got) != len(expected):
        index = min(len(got), len(expected))
        extra = got[index] if len(got) > index else expected[index]
        which = "only in this run" if len(got) > index else "missing from this run"
        return f"row {index} {which}: {extra}"
    return None


if __name__ == "__main__":
    sys.exit(main())
