"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation (an argv list for ``capelli_lab.cli.main``)
plus what it must produce: its exit code and the golden key its output
is compared against.  The seed fixes the job order, the rejected
requests, and every generated untrusted-input file; the set of catalog
jobs does not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

ALGEBRA_CHECKS = ("schur", "e-basis", "closed-form", "central", "conj-inv",
                  "basis-capelli", "basis-char", "det-variants")
WEYL_IRREP_CHECKS = ("weyl-relations", "weyl-capelli")
WEYL_GROUP_CHECKS = ("weyl-central", "det-equalities")

# The Weyl relation checks skip irreps above degree 2 (the A4 and S4
# degree-3 irreps).  This bound is the benchmark's own, not the package's
# REP_DEGREE_LIMIT, so raising that limit adds no work to catalog-weyl.
WEYL_MAX_DEGREE = 2


@dataclass
class Job:
    argv: list[str]
    exit_code: int
    kind: str  # "verify" (expected to succeed) or "reject"
    golden: str | None = None  # key into golden.json, None for rejects
    env: dict = field(default_factory=dict)
    reject_reason: str = ""  # must appear in the error a reject prints


def _verify(group, check, irrep=None):
    argv = ["verify", "--group", group, "--checks", check, "--format", "json"]
    key = f"{group}|{check}|{irrep or '*'}"
    if irrep is not None:
        argv[3:3] = ["--irrep", irrep]
    return Job(argv, 0, "verify", "verify/" + key)


def _capelli(group):
    return Job(["capelli", "--group", group, "--format", "json"], 0, "verify", "capelli/" + group)


def _probe(rng, group):
    """A mistyped request for the same group: unknown irrep or unknown check."""
    if rng.random() < 0.5:
        argv = ["verify", "--group", group, "--irrep", f"no-such-{rng.randrange(10**6)}",
                "--checks", rng.choice(ALGEBRA_CHECKS), "--format", "json"]
        reason = "unknown irrep"
    else:
        argv = ["verify", "--group", group, "--checks", f"no-such-{rng.randrange(10**6)}",
                "--format", "json"]
        reason = "unknown checks"
    return Job(argv, 2, "reject", reject_reason=reason)


def _with_probes(rng, jobs):
    rng.shuffle(jobs)
    out = []
    for job in jobs:
        out.append(job)
        out.append(_probe(rng, job.argv[job.argv.index("--group") + 1]))
    return out


def catalog_algebra(seed, catalog):
    """All 8 group-algebra checks plus one Capelli render per catalog group
    (126 jobs), each followed by one rejected request."""
    jobs = []
    for group in catalog.catalog_names():
        jobs.extend(_verify(group, check) for check in ALGEBRA_CHECKS)
        jobs.append(_capelli(group))
    return _with_probes(random.Random(f"catalog-algebra/{seed}"), jobs)


def catalog_weyl(seed, catalog):
    """weyl-relations and weyl-capelli per irrep of degree <= 2 (59 irreps),
    weyl-central and det-equalities per group (146 jobs), each followed by
    one rejected request."""
    jobs = []
    for group in catalog.catalog_names():
        for irrep in catalog.catalog_irreps(group).irreps:
            if irrep.degree <= WEYL_MAX_DEGREE:
                jobs.extend(_verify(group, check, irrep.label) for check in WEYL_IRREP_CHECKS)
        jobs.extend(_verify(group, check) for check in WEYL_GROUP_CHECKS)
    return _with_probes(random.Random(f"catalog-weyl/{seed}"), jobs)


# -- untrusted input ---------------------------------------------------------------
#
# Two families of order exactly 64, 128 and 256 (C2^k and D4 x C2^(k-3), both
# of exponent <= 4), each with a degree-1 irrep of values +-1.  Validation cost
# depends on the order alone, so job times cluster by order.  The counts per
# pass are fixed so that p50 and p90 of each job class fall inside one order's
# cluster whatever the seed:
#   accept        64 x12, 128 x7, 256 x1   -> p50 at order 64, p90 at order 128
#   over-limit    64 x4,  128 x2, 256 x1
#   broken irrep  64 x4,  128 x3
#   broken table  64 x2,  128 x2, 256 x2   (rejected by the cheap Latin-square scan)
# so the rejects sort as 6 broken tables, 8 of order 64, 5 of 128 and 1 of 256:
# p50 at order 64 and p90 at order 128 again.

UNTRUSTED_MIX = {
    "accept": {64: 12, 128: 7, 256: 1},
    "over-limit": {64: 4, 128: 2, 256: 1},
    "broken-irrep": {64: 4, 128: 3},
    "broken-table": {64: 2, 128: 2, 256: 2},
}
UNTRUSTED_EXIT = {"accept": 0, "over-limit": 2, "broken-irrep": 3, "broken-table": 2}
UNTRUSTED_REASON = {"accept": "", "over-limit": "exceeds limit",
                    "broken-irrep": "fails validation", "broken-table": "cannot load group file"}
FAMILIES = ("c2", "d4c2")


def _c2_family(k):
    """C2^k as bit vectors under xor; characters are (-1)^popcount(s & x)."""
    n = 1 << k
    names = ["e" if x == 0 else "x" + format(x, f"0{k}b") for x in range(n)]
    table = [[a ^ b for b in range(n)] for a in range(n)]

    def character(rng):
        s = rng.randrange(n)
        return [(-1) ** bin(s & x).count("1") for x in range(n)]

    return names, table, character


def _d4c2_family(k):
    """D4 x C2^(k-3); (i, j, x) stands for r^i s^j x, with s r s = r^-1."""
    m = 1 << (k - 3)
    els = [(i, j, x) for i in range(4) for j in range(2) for x in range(m)]
    index = {e: n for n, e in enumerate(els)}

    def mul(a, b):
        (i, j, x), (p, q, y) = a, b
        return index[((i + (p if j == 0 else -p)) % 4, (j + q) % 2, x ^ y)]

    names = [("e" if (i, j) == (0, 0) else f"r{i}s{j}") + f".{x}" for i, j, x in els]
    table = [[mul(a, b) for b in els] for a in els]

    def character(rng):
        er, es, s = rng.choice((1, -1)), rng.choice((1, -1)), rng.randrange(m)
        return [er ** i * es ** j * (-1) ** bin(s & x).count("1") for i, j, x in els]

    return names, table, character


def _relabel(rng, names, table, values):
    """Apply a seeded relabelling that moves the identity off index 0."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    new_names = [None] * n
    new_table = [[0] * n for _ in range(n)]
    new_values = [None] * n
    for a in range(n):
        pa = perm[a]
        new_names[pa] = names[a]
        new_values[pa] = values[a]
        row = new_table[pa]
        for b, ab in enumerate(table[a]):
            row[perm[b]] = perm[ab]
    return new_names, new_table, new_values, perm[0]


def _dump(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def untrusted_files(seed):
    """Generate the untrusted-input job specs and file contents.

    Returns (specs, files) where files maps a file name to its bytes and
    each spec is (kind, family, order, group file, irrep file, limit).
    """
    rng = random.Random(f"untrusted-input/{seed}")
    plan = [(kind, order) for kind, mix in UNTRUSTED_MIX.items()
            for order, count in mix.items() for _ in range(count)]
    specs, files = [], {}
    for n, (kind, order) in enumerate(plan):
        family = FAMILIES[n % 2]
        k = order.bit_length() - 1
        names, table, character = (_c2_family if family == "c2" else _d4c2_family)(k)
        names, table, values, identity = _relabel(rng, names, table, character(rng))
        if kind == "broken-table":
            r, c = rng.randrange(order), rng.randrange(order)
            table[r][c] = (table[r][c] + 1 + rng.randrange(order - 1)) % order
        if kind == "broken-irrep":
            b = rng.choice([g for g in range(order) if g != identity])
            values[b] = -values[b]
        gname = f"{family}-{order}-{n}"
        group_file, irrep_file = f"job{n:02d}-group.json", f"job{n:02d}-irrep.json"
        files[group_file] = _dump({"name": gname, "order": order, "elements": names, "table": table})
        files[irrep_file] = _dump({
            "label": "chi", "group": gname, "degree": 1, "conductor": 1,
            "matrices": [[[{"conductor": 1, "coeffs": [str(v)]}]] for v in values],
        })
        limit = order // 2 if kind == "over-limit" else None
        specs.append((kind, family, order, group_file, irrep_file, limit))
    return specs, files


def digest(files) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def untrusted_input(seed, directory):
    """Write the generated files under ``directory`` and return the jobs."""
    specs, files = untrusted_files(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    jobs = []
    for kind, family, order, group_file, irrep_file, limit in specs:
        argv = ["verify", "--group-file", str(directory / group_file),
                "--irrep-file", str(directory / irrep_file), "--checks", "closed-form",
                "--format", "json"]
        env = {"CAPELLI_LAB_MAX_ORDER": str(limit)} if limit is not None else {}
        golden = f"untrusted/{family}-{order}" if kind == "accept" else None
        jobs.append(Job(argv, UNTRUSTED_EXIT[kind], "verify" if kind == "accept" else "reject",
                        golden, env, UNTRUSTED_REASON[kind]))
    random.Random(f"untrusted-order/{seed}").shuffle(jobs)
    return jobs, digest(files)
