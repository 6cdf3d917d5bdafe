"""Command line front end for the workbench experiments."""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale the first time main builds the parser;
# importing it with the module keeps that cost out of every command's run
import locale  # noqa: F401
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


def _add_caps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap-states",
        type=int,
        default=DEFAULT_STATE_CAP,
        help="abort any subset construction beyond this many states",
    )
    parser.add_argument(
        "--cap-letters",
        type=int,
        default=DEFAULT_LETTER_CAP,
        help="abort any alphabet construction beyond this many letters",
    )


def _add_sc(parser: argparse.ArgumentParser) -> None:
    _add_caps(parser)
    parser.add_argument("--n1", type=int, required=True)
    parser.add_argument("--n2", type=int, required=True)
    parser.add_argument("--method", choices=SC_METHODS, default="all")
    parser.add_argument("--report", help="write the reports as a JSON array to this path")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    _add_caps(parser)
    parser.add_argument("--n1", type=int, required=True)
    parser.add_argument("--n2", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for the sweep")
    parser.add_argument("--csv", help="write the per-pair rows as CSV to this path")


def _add_export(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--what", choices=EXPORT_WHATS, required=True)
    parser.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    parser.add_argument("--out", required=True)
    # None where not given, so export_artifact can tell an unused option apart
    parser.add_argument("--n1", type=int)
    parser.add_argument("--n2", type=int)
    parser.add_argument("--max-x", type=int)
    parser.add_argument("--max-y", type=int)


def _build_parser(name: str | None) -> argparse.ArgumentParser:
    """The parser, with arguments only on the subcommand called name.

    Every subcommand is listed, with its help, so the top-level --help and
    the error for an unknown name show all four; a run parses only the
    named one's arguments, so only those are built.
    """
    parser = argparse.ArgumentParser(
        prog="starxor",
        description="Star-of-symmetric-difference state complexity workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for sub_name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        # the others parse nothing in this run, so they need no -h either
        sub_parser = sub.add_parser(sub_name, help=help_text, add_help=sub_name == name)
        if sub_name == name and add_arguments is not None:
            add_arguments(sub_parser)
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
    options = {name: getattr(args, name) for name in ("n1", "n2", "max_x", "max_y")}
    print(export_artifact(args.what, args.format, args.out, **options))
    return 0


# (help, argument builder or None, handler) of each subcommand, in the order
# --help lists them
_SUBCOMMANDS = {
    "sc": ("measure one size point", _add_sc, _cmd_sc),
    "sweep-finals": ("measure every final-set pair at one size", _add_sweep, _cmd_sweep),
    "verify-figures": ("replay the bundled reference constructions", None, _cmd_verify_figures),
    "export": ("write one artifact to a file", _add_export, _cmd_export),
}


def _check_usage(args: argparse.Namespace) -> None:
    """Reject output paths that cannot be written before any work starts.

    Sizes, caps and worker counts are the library's to refuse: sc_reports,
    sweep_reports and export_artifact do, with the same ValueError texts.
    """
    for path in (getattr(args, name, None) for name in ("report", "csv", "out")):
        if not path:
            continue
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"the directory of {path} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"{path} is a directory, not a file")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand.

    A usage error or a failed write prints one line to stderr and returns 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    handler = _SUBCOMMANDS[args.subcommand][2]
    try:
        _check_usage(args)
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"{args.subcommand} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
