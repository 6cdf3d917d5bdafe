"""The benchmark's workloads and the check of each unit's output.

Every workload is one `starxor` command line whose output file is compared
with a frozen copy under expected/ (made on the seed commit and checked
against the README gap table by the benchmark's tests). Timings in the
output are dropped before comparing.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
OUT = "{out}"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # OUT marks where the output path goes
    expected_rc: int
    expected_file: str

    def cli_argv(self, out: str) -> list[str]:
        return [out if arg == OUT else arg for arg in self.argv]

    def expected_text(self) -> str:
        return (EXPECTED_DIR / self.expected_file).read_text()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # 532,480 reachable subsets over 17 letters; measured 3368 against
        # 3369 predicted is the documented one-state gap, hence exit 1.
        Workload(
            "witness-deep",
            ("sc", "--method", "witness", "--n1", "5", "--n2", "4", "--report", OUT),
            1,
            "witness-deep.json",
        ),
        # 64 constructions over 729 monster letters, at most 288 states each.
        Workload(
            "sweep-wide",
            ("sweep-finals", "--n1", "3", "--n2", "3", "--jobs", "1", "--csv", OUT),
            0,
            "sweep-wide.csv",
        ),
        # 36 rows of tableau counts; no automaton is built.
        Workload(
            "formula-table",
            ("export", "--what", "alpha-table", "--format", "csv",
             "--max-x", "5", "--max-y", "5", "--out", OUT),
            0,
            "formula-table.csv",
        ),
    )
}


def records(workload: Workload, text: str) -> list[dict[str, Any]]:
    """The output as comparable records: JSON reports without timings, or CSV rows."""
    if workload.expected_file.endswith(".json"):
        return [
            {k: v for k, v in report.items() if k != "wall_time_ms"}
            for report in json.loads(text)
        ]
    return list(csv.DictReader(io.StringIO(text, newline="")))


def check_unit(workload: Workload, rc: int | None, text: str | None) -> list[str]:
    """Problems with one unit's exit status and output; empty when it is correct."""
    problems = []
    if rc != workload.expected_rc:
        problems.append(f"exit status {rc}, expected {workload.expected_rc}")
    if text is None:
        return problems + ["no output file"]
    try:
        got = records(workload, text)
    except (ValueError, TypeError, AttributeError, csv.Error) as exc:
        return problems + [f"unreadable output: {exc}"]
    want = records(workload, workload.expected_text())
    if any(r.get("verdict") == "skipped" for r in got):
        problems.append("a verdict is skipped")
    if len(got) != len(want):
        problems.append(f"{len(got)} records, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"record {i} is {g}, expected {w}")
            break
    return problems
