"""Command line front end for the workbench experiments."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .experiments import (
    EXPORT_FORMATS,
    EXPORT_WHATS,
    SC_METHODS,
    export_artifact,
    figure_reports,
    format_final_set,
    sc_reports,
    sweep_reports,
    write_sweep_csv,
)
from .modifiers import DEFAULT_STATE_CAP
from .monsters import DEFAULT_LETTER_CAP
from .reports import ExperimentReport


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    common.add_argument(
        "--cap-states",
        type=int,
        default=DEFAULT_STATE_CAP,
        help="abort any subset construction beyond this many states",
    )
    common.add_argument(
        "--cap-letters",
        type=int,
        default=DEFAULT_LETTER_CAP,
        help="abort any alphabet construction beyond this many letters",
    )
    parser = argparse.ArgumentParser(
        prog="starxor",
        description="Star-of-symmetric-difference state complexity workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sc = sub.add_parser("sc", parents=[common], help="measure one size point")
    sc.add_argument("--n1", type=int, required=True)
    sc.add_argument("--n2", type=int, required=True)
    sc.add_argument("--method", choices=SC_METHODS, default="all")
    sc.add_argument("--report", help="write the reports as a JSON array to this path")

    sweep = sub.add_parser(
        "sweep-finals",
        parents=[common],
        help="measure every final-set pair at one size",
    )
    sweep.add_argument("--n1", type=int, required=True)
    sweep.add_argument("--n2", type=int, required=True)
    sweep.add_argument("--csv", help="write the per-pair rows as CSV to this path")

    sub.add_parser(
        "verify-figures",
        parents=[common],
        help="replay the bundled reference constructions",
    )

    export = sub.add_parser("export", parents=[common], help="write one artifact to a file")
    export.add_argument("--what", choices=EXPORT_WHATS, required=True)
    export.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    export.add_argument("--out", required=True)
    export.add_argument("--n1", type=int)
    export.add_argument("--n2", type=int)
    export.add_argument("--max-x", type=int, default=4)
    export.add_argument("--max-y", type=int, default=4)
    return parser


def _exit_code(reports: Sequence[ExperimentReport]) -> int:
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def _cmd_sc(args: argparse.Namespace) -> int:
    reports = sc_reports(args.n1, args.n2, args.method, args.cap_states, args.cap_letters)
    for r in reports:
        print(r.summary_line())
    if args.report:
        with open(args.report, "w") as handle:
            json.dump([r.as_dict() for r in reports], handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.report}")
    return _exit_code(reports)


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows, summary = sweep_reports(
        args.n1, args.n2, args.jobs, args.cap_states, args.cap_letters
    )
    for row in rows:
        print(
            f"F1={format_final_set(row['F1'])} F2={format_final_set(row['F2'])} "
            f"measured={row['measured']} predicted={row['predicted']} verdict={row['verdict']}"
        )
    print(summary.summary_line())
    if args.csv:
        write_sweep_csv(rows, args.csv)
        print(f"csv written to {args.csv}")
    bad = [r for r in rows if r["verdict"] == "fail"]
    return 1 if bad or summary.verdict == "fail" else 0


def _cmd_verify_figures(args: argparse.Namespace) -> int:
    reports = figure_reports()
    for r in reports:
        print(r.summary_line())
    return _exit_code(reports)


def _cmd_export(args: argparse.Namespace) -> int:
    message = export_artifact(
        args.what,
        args.format,
        args.out,
        n1=args.n1,
        n2=args.n2,
        max_x=args.max_x,
        max_y=args.max_y,
    )
    print(message)
    return 0


def _check_usage(args: argparse.Namespace) -> None:
    """Reject bad sizes, worker counts, caps, bounds and output paths before any work starts."""
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if min(args.cap_states, args.cap_letters) < 1:
        raise ValueError("--cap-states and --cap-letters must be at least 1")
    if args.subcommand == "export" and min(args.max_x, args.max_y) < 0:
        raise ValueError("--max-x and --max-y must be at least 0")
    if args.subcommand in ("sc", "sweep-finals"):
        if min(args.n1, args.n2) < 1:
            raise ValueError("--n1 and --n2 must be at least 1")
        if getattr(args, "method", None) in ("witness", "all") and min(args.n1, args.n2) < 2:
            raise ValueError("--n1 and --n2 must be at least 2 when the witness runs")
    for path in (getattr(args, name, None) for name in ("report", "csv", "out")):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"the directory of {path} does not exist")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; a usage error prints one line to stderr and returns 2."""
    args = _build_parser().parse_args(argv)
    handler = {
        "sc": _cmd_sc,
        "sweep-finals": _cmd_sweep,
        "verify-figures": _cmd_verify_figures,
        "export": _cmd_export,
    }[args.subcommand]
    try:
        _check_usage(args)
        return handler(args)
    except ValueError as exc:
        print(f"{args.subcommand} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
