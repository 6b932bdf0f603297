"""Command-line surface: list the catalog, print Capelli elements, run
verification suites, emit JSON reports.

Exit codes: 0 all requested checks free of failures (measured outcomes
count as non-failures), 1 some check failed, 2 unresolved group/irrep
selector, unknown check name, or a malformed --at, 3 invalid
user-supplied irrep.  An --at is bounded by the integer parse limit of
the scalar grammar; a value whose integers are too long for str prints
them as <k-digits>.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from . import __version__, weyl
from .capelli import (
    capelli_element,
    center_basis,
    character_basis,
    render_capelli,
    verify_centrality,
    verify_closed_form,
    verify_conjugation_invariance,
    verify_det_variants,
)
from .catalog import catalog_group, catalog_irreps, catalog_names, catalog_summary
from .cyclo import Cyclo
from .groups import DEFAULT_ORDER_LIMIT, ClosureTooLarge, Group, load_group
from .irreps import IrrepSet, load_irrep, validate, verify_E_basis, verify_schur_products
from .reports import CheckResult, Report

# -- check registry -------------------------------------------------------------


def _per_irrep(irrep_set: IrrepSet, verify, *args) -> Report:
    """One report of verify(irrep, *args) over every irrep of the set."""
    report = Report()
    for irrep in irrep_set.irreps:
        report.extend(verify(irrep, *args))
    return report


def _check_basis_capelli(irrep_set: IrrepSet) -> Report:
    _, report = center_basis(irrep_set)
    return report


def _check_basis_char(irrep_set: IrrepSet) -> Report:
    _, report = character_basis(irrep_set)
    return report


def _check_weyl_relations(irrep_set: IrrepSet) -> Report:
    report = Report()
    for irrep in irrep_set.irreps:
        relations = weyl.verify_rep_relations(irrep)
        report.extend(relations)
        report.extend(weyl.verify_rep_identity(irrep, "pi-relations", relations))
    return report


def _check_weyl_capelli(irrep_set: IrrepSet) -> Report:
    report = Report()
    for m in range(1, weyl.GENERIC_SIZE_LIMIT + 1):
        for alpha in weyl.GENERIC_ALPHAS:
            _, xm, dm, pi = weyl.build_generic(m, alpha)
            report.extend(weyl.verify_capelli(xm, dm, pi, alpha, f"generic m={m} alpha={alpha}"))
    report.extend(_per_irrep(irrep_set, weyl.verify_rep_identity, "capelli-identity"))
    return report


def _check_weyl_central(irrep_set: IrrepSet) -> Report:
    report = Report()
    for m in range(1, weyl.CENTRAL_M_LIMIT + 1):
        for alpha in weyl.GENERIC_ALPHAS:
            _, _, _, pi = weyl.build_generic(m, alpha)
            report.extend(
                weyl.verify_capelli_properties(pi, alpha, f"generic m={m} alpha={alpha}"))
    return report


def _check_det_equalities(irrep_set: IrrepSet) -> Report:
    report = Report()
    for m in range(1, weyl.THEOREM_M_LIMIT + 1):
        report.extend(weyl.verify_det_equalities(m))
    return report


CHECKS = {
    "schur": verify_schur_products,
    "e-basis": verify_E_basis,
    "closed-form": lambda irrep_set: _per_irrep(irrep_set, verify_closed_form),
    "central": lambda irrep_set: _per_irrep(irrep_set, verify_centrality, irrep_set),
    "conj-inv": lambda irrep_set: _per_irrep(irrep_set, verify_conjugation_invariance),
    "basis-capelli": _check_basis_capelli,
    "basis-char": _check_basis_char,
    "det-variants": lambda irrep_set: _per_irrep(irrep_set, verify_det_variants),
    "weyl-relations": _check_weyl_relations,
    "weyl-capelli": _check_weyl_capelli,
    "weyl-central": _check_weyl_central,
    "det-equalities": _check_det_equalities,
}

# these presuppose a complete set of irreps (degree squares summing to the
# group order); they are skipped, not failed, when run on a restriction
NEEDS_COMPLETE_SET = {"schur", "e-basis", "basis-capelli", "basis-char"}


def _is_complete(irrep_set: IrrepSet) -> bool:
    return sum(r.degree * r.degree for r in irrep_set.irreps) == irrep_set.group.order


def run_checks(irrep_set: IrrepSet, names):
    """Run the named checks in order, yielding (name, seconds, rows) for
    each, with one report row per result.  A check that needs the
    complete set is skipped on a restriction; a check that raises gives
    one `fail` row and the run goes on.  CHECKS[name] is looked up at
    call time."""
    complete = _is_complete(irrep_set)
    for name in names:
        started = time.monotonic()
        try:
            if name in NEEDS_COMPLETE_SET and not complete:
                entries = [CheckResult(name, "set", "skipped",
                                       "needs the complete irrep set of the group")]
            else:
                entries = CHECKS[name](irrep_set).results
        except Exception as exc:  # a crash inside one check is a failure, not an abort
            entries = [CheckResult(name, "*", "fail", f"crashed: {exc!r}")]
        elapsed = time.monotonic() - started
        yield name, elapsed, [{"name": name, **e.to_dict()} for e in entries]


# -- selector resolution -----------------------------------------------------------


def _max_order() -> int:
    """The group order limit: CAPELLI_LAB_MAX_ORDER, or the default when
    unset; exit 2 when it is not an integer."""
    raw_limit = os.environ.get("CAPELLI_LAB_MAX_ORDER", "")
    try:
        return int(raw_limit) if raw_limit else DEFAULT_ORDER_LIMIT
    except ValueError:
        print(f"error: CAPELLI_LAB_MAX_ORDER={raw_limit!r} is not an integer", file=sys.stderr)
        sys.exit(2)


def resolve_group(args, max_order: int) -> Group:
    if args.group_file:
        try:
            return load_group(args.group_file, max_order)
        except ClosureTooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load group file: {exc}", file=sys.stderr)
            sys.exit(2)
    if args.group in catalog_names():
        return catalog_group(args.group)
    print(f"error: unknown group {args.group!r}; try one of {', '.join(catalog_names())}",
          file=sys.stderr)
    sys.exit(2)


def resolve_irreps(args, group: Group) -> IrrepSet:
    if args.irrep_file:
        try:
            irrep = load_irrep(args.irrep_file, group)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load irrep file: {exc}", file=sys.stderr)
            sys.exit(3)
        report = validate(irrep)
        if not report.ok:
            print("error: irrep file fails validation:", file=sys.stderr)
            print(str(report), file=sys.stderr)
            sys.exit(3)
        return IrrepSet(group, (irrep,))
    if args.group_file:
        print("error: a group file needs --irrep-file for its irreps", file=sys.stderr)
        sys.exit(2)
    irrep_set = catalog_irreps(args.group)
    if args.irrep:
        try:
            return IrrepSet(group, (irrep_set.by_label(args.irrep),))
        except KeyError:
            labels = ", ".join(r.label for r in irrep_set.irreps)
            print(f"error: unknown irrep {args.irrep!r}; available: {labels}", file=sys.stderr)
            sys.exit(2)
    return irrep_set


# -- commands -----------------------------------------------------------------------


def cmd_list(args) -> int:
    for row in catalog_summary():
        degrees = ",".join(str(d) for d in row["degrees"])
        print(f"{row['name']:4} order {row['order']:3}  exponent {row['exponent']:3}  "
              f"classes {row['classes']:2}  irrep degrees [{degrees}]")
    return 0


def cmd_capelli(args) -> int:
    max_order = _max_order()
    try:  # the scalar-file coefficient grammar, whose integer parse bounds the digits
        at = None if args.at is None else Cyclo.from_dict(
            {"conductor": 1, "coeffs": [args.at]}).as_rational()
    except ValueError:
        print(f"error: --at {args.at!r} is not a rational 'p' or 'p/q' with q > 0", file=sys.stderr)
        sys.exit(2)
    group = resolve_group(args, max_order)
    irrep_set = resolve_irreps(args, group)
    payload = []
    for irrep in irrep_set.irreps:
        poly = capelli_element(irrep)
        if args.at is not None:
            rendered = str(poly(at))
            payload.append({"irrep": irrep.label, "at": str(args.at), "value": rendered})
        else:
            rendered = render_capelli(poly)
            payload.append({"irrep": irrep.label, "capelli": rendered})
        if args.format == "text":
            tag = f" at z={args.at}" if args.at is not None else "(z)"
            print(f"C^{irrep.label}{tag} = {rendered}")
    if args.format == "json" or args.out:
        _emit({"tool": "capelli-lab", "version": __version__, "group": group.name,
               "elements": payload}, args.out)
    return 0


def cmd_verify(args) -> int:
    max_order = _max_order()
    requested = _parse_checks(args.checks)
    group = resolve_group(args, max_order)
    irrep_set = resolve_irreps(args, group)

    t_total = time.monotonic()
    results, check_ms = [], {}
    for name, elapsed, rows in run_checks(irrep_set, requested):
        results.extend(rows)
        check_ms[name] = check_ms.get(name, 0) + int(elapsed * 1000)

    failed = [r for r in results if r["status"] == "fail"]
    payload = {
        "tool": "capelli-lab",
        "version": __version__,
        "group": group.name,
        "checks": requested,
        "results": sorted(results, key=lambda r: (r["name"], r["irrep"], r["check"])),
        "failures": len(failed),
        "runtime_ms": int((time.monotonic() - t_total) * 1000),
        "check_ms": check_ms,
    }

    if args.format == "json" or args.out:
        _emit(payload, args.out)
    if args.format == "text":
        for r in payload["results"]:
            detail = f"  {r['detail']}" if r["detail"] else ""
            print(f"[{r['status']:>8}] {r['name']:14} {r['check']:24} ({r['irrep']}){detail}")
        counts = Counter(r["status"] for r in results)
        print(f"{len(results)} results, {len(failed)} failures, {counts['skipped']} skipped, "
              f"{counts['measured']} measured, {payload['runtime_ms']} ms")
    return 0 if not failed else 1


def _parse_checks(tokens) -> list[str]:
    names = []
    for token in tokens:
        names.extend(t.strip() for t in token.split(",") if t.strip())
    if not names or "all" in names:
        return list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"error: unknown checks {unknown}; available: {', '.join(CHECKS)}", file=sys.stderr)
        sys.exit(2)
    return names


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli-lab",
        description="Exact Capelli-element computations and identity checks over finite group algebras",
    )
    parser.add_argument("--version", action="version", version=f"capelli-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog groups with orders, class counts, irrep degrees")

    p_cap = sub.add_parser("capelli", help="print Capelli elements")
    p_cap.add_argument("--group", required=True, help="catalog group name")
    p_cap.add_argument("--irrep", help="irrep label (default: all irreps of the group)")
    p_cap.add_argument("--at", help="evaluate at z = K: an integer or p/q, q > 0 (e.g. -1 or 3/2)")
    p_cap.add_argument("--format", choices=("text", "json"), default="text")
    p_cap.add_argument("--out", help="write JSON payload to this path")
    p_cap.set_defaults(group_file=None, irrep_file=None)

    p_ver = sub.add_parser("verify", help="run verification checks and emit a report")
    src = p_ver.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", help="catalog group name")
    src.add_argument("--group-file", help="path to a group JSON file")
    irreps = p_ver.add_mutually_exclusive_group()
    irreps.add_argument("--irrep", help="restrict to one catalog irrep label")
    irreps.add_argument("--irrep-file", help="path to an irrep JSON file (validated before use)")
    p_ver.add_argument("--checks", nargs="+", default=["all"],
                       help=f"comma/space separated from: {', '.join(CHECKS)}, or 'all'")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--out", help="write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "capelli":
        return cmd_capelli(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
