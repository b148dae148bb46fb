"""Command-line interface: certify spec files, run the catalog, print
reports. Exit codes: 0 pass, 1 check failure / expectation mismatch,
2 input or schema error."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certify import GROUPS, RunConfig, run_certify
from .chart import SamplingExhaustedError
from .grw import catalog_get, catalog_names
from .report import (DEGENERATE, INFORMATIONAL, PASS, SKIPPED, render_json,
                     render_text)


def _add_run_flags(parser):
    parser.add_argument("--points", type=int, default=50,
                        help="sample points per run (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default 0)")
    parser.add_argument("--tol", type=float, default=None,
                        help="set both hypothesis and conclusion tolerances "
                             "(not with --hypothesis-tol or --conclusion-tol)")
    parser.add_argument("--hypothesis-tol", type=float, default=None)
    parser.add_argument("--conclusion-tol", type=float, default=None)
    parser.add_argument("--cluster-tol", type=float, default=1e-6)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads, each certifying whole chunks "
                             "of points")
    parser.add_argument("--basepoint", type=str, default=None,
                        help="comma list of coordinates overriding the "
                             "spec-file basepoint")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write the report as JSON to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the text report on stdout")


def _config_from_args(args) -> RunConfig:
    tols = {"hypothesis_tol": args.hypothesis_tol,
            "conclusion_tol": args.conclusion_tol}
    if args.tol is not None:
        for key, value in tols.items():
            if value is not None:
                flag = "--" + key.replace("_", "-")
                raise ValueError(f"--tol cannot be combined with {flag}: "
                                 f"--tol sets both tolerances")
        tols = dict.fromkeys(tols, args.tol)
    basepoint = None
    if args.basepoint is not None:
        basepoint = []
        for k, text in enumerate(args.basepoint.split(",")):
            try:
                basepoint.append(float(text))
            except ValueError:
                raise ValueError(f"--basepoint: entry {k + 1}, {text!r}, is "
                                 f"not a number") from None
        basepoint = tuple(basepoint)
    return RunConfig(points=args.points, seed=args.seed,
                     cluster_tol=args.cluster_tol, workers=args.workers,
                     checks=args.checks, basepoint=basepoint,
                     **{key: v for key, v in tols.items() if v is not None})


def _finish(report, args) -> int:
    if not args.quiet:
        sys.stdout.write(render_text(report))
    if args.json:
        Path(args.json).write_text(render_json(report), encoding="utf-8")
    return 0 if report.verdict == PASS else 1


# A declared scalar's record, the detail keys that carry it and the bar:
# each key must lie within bar * (1 + |expected|) of the expected value.
_SCALARS = {"A": ("fluid-decompose", ("A_min", "A_max"), 1e-8),
            "B": ("fluid-decompose", ("B_min", "B_max"), 1e-8),
            "w": ("eos-slope", ("w",), 1e-6)}


# Each list of expected records: whether a record meets it, and the
# mismatch's wording where it does not.
_EXPECTED_RECORDS = (
    ("ok", lambda rec: rec.status != SKIPPED and rec.ok is True,
     "expected within tolerance, got status {rec.status} ok={rec.ok}"),
    ("not_ok", lambda rec: rec.status != SKIPPED and rec.ok is False,
     "expected out of tolerance, got status {rec.status} ok={rec.ok}"),
    ("informational", lambda rec: rec.status in (INFORMATIONAL, SKIPPED),
     "expected informational, got status {rec.status}"))


def _expectation_mismatches(report, expected) -> list[str]:
    # The records of an unselected group are skipped: compare only the
    # expectations on groups that ran, and the verdict when every group ran.
    ran = set(report.environment["checks"])

    def selected(name):
        return report.find(name).group in ran

    problems = []
    if ("verdict" in expected and ran == set(GROUPS)
            and report.verdict != expected["verdict"]):
        problems.append(f"verdict {report.verdict!r}, "
                        f"expected {expected['verdict']!r}")
    if "fluid" in expected and selected("fluid-decompose"):
        rec = report.find("fluid-decompose")
        branch = (DEGENERATE if rec.status == DEGENERATE else
                  ("nondegenerate" if rec.ok else "anomalous"))
        if branch != expected["fluid"]:
            problems.append(f"fluid branch {branch!r}, "
                            f"expected {expected['fluid']!r}")
    for key, meets, wording in _EXPECTED_RECORDS:
        for name in filter(selected, expected.get(key, ())):
            rec = report.find(name)
            if not meets(rec):
                problems.append(f"{name}: {wording.format(rec=rec)}")
    for scalar, want in expected.get("scalars", {}).items():
        record, keys, bar = _SCALARS[scalar]
        for key in keys if selected(record) else ():
            got = report.find(record).detail.get(key)
            if not (isinstance(got, float)
                    and abs(got - want) <= bar * (1.0 + abs(want))):
                problems.append(f"{record}: {key} = {got!r}, expected "
                                f"{want!r} within {bar:g} (1 + |{want!r}|)")
    if "branch" in expected and selected("ckv-branch"):
        # Every point that carries a potential is on the declared branch.
        want = expected["branch"]
        other = "homothetic" if want == "proper" else "proper"
        detail = report.find("ckv-branch").detail
        on, off = (detail.get(f"{b}_points", 0) for b in (want, other))
        if not on or off:
            problems.append(f"ckv-branch: {on} {want} and {off} {other} "
                            f"points, expected every point {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grwcert",
        description="Certify curvature identities of warped-product "
                    "space-times from symbolic metric charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_certify = sub.add_parser("certify", help="run every selected suite "
                                               "on a JSON chart file")
    p_certify.add_argument("file", help="chart spec file (JSON, schema 1)")
    _add_run_flags(p_certify)

    p_catalog = sub.add_parser("catalog", help="list or run built-in metrics")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command",
                                           required=True)
    catalog_sub.add_parser("list", help="print catalog names")
    p_run = catalog_sub.add_parser("run", help="certify a catalog metric "
                                               "and compare expectations")
    p_run.add_argument("name", help="catalog metric name")
    _add_run_flags(p_run)

    p_ladder = sub.add_parser(
        "ladder", help="run only sanity, fluid, hypotheses and the "
                       "identity ladder on a chart file")
    p_ladder.add_argument("file")
    _add_run_flags(p_ladder)
    p_ladder.set_defaults(checks=("sanity", "fluid", "hypotheses", "ladder"))
    for p in (p_certify, p_run):
        p.add_argument("--checks", default=None, type=lambda text: tuple(
            s.strip() for s in text.split(",") if s.strip()),
            help=f"comma list of groups to run (default all: "
                 f"{','.join(GROUPS)})")

    args = parser.parse_args(argv)
    try:
        if args.command in ("certify", "ladder"):
            report = run_certify(args.file, _config_from_args(args))
            return _finish(report, args)
        if args.command == "catalog":
            if args.catalog_command == "list":
                for name in catalog_names():
                    print(name)
                return 0
            try:
                entry = catalog_get(args.name)
            except KeyError as err:
                print(f"error: {err.args[0]}", file=sys.stderr)
                return 2
            report = run_certify(entry.chart, _config_from_args(args))
            _finish(report, args)
            problems = _expectation_mismatches(report, entry.expected)
            if problems:
                print("expectation mismatches:", file=sys.stderr)
                for line in problems:
                    print(f"  {line}", file=sys.stderr)
                return 1
            print(f"catalog {args.name}: outcomes match expectations")
            return 0
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, SamplingExhaustedError) as err:
        # ChartError, ParseError and the domain and singular-metric errors
        # are ValueErrors; OSError: a file that cannot be read or written.
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
