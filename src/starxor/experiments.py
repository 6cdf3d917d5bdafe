"""Workbench experiments behind the CLI: size checks, sweeps, reference replays."""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Any, Iterable

from .automata import Dfa, export_dot, export_json, preimage_by_renaming
from .modifiers import DEFAULT_STATE_CAP, star_modifier
from .monsters import DEFAULT_LETTER_CAP, MonsterSpec, monster1, monster2
from .reports import ExperimentReport, elapsed_ms, measure_stx, size_report, verdict
from .tableaux import (
    count_constrained,
    count_rtf,
    count_rtf_pinned,
    final_zone,
    predicted_complexity,
)
from .witness import verify_witness, witness_pair

SC_METHODS = ("formula", "full-monster", "witness", "all")


def formula_report(n1: int, n2: int) -> ExperimentReport:
    """Just the tableau-count prediction; nothing is constructed."""
    t0 = time.perf_counter()
    predicted = predicted_complexity(n1, n2)
    return ExperimentReport(
        command="sc",
        parameters={"n1": n1, "n2": n2, "method": "formula"},
        predicted=predicted,
        verdict="pass",
        wall_time_ms=elapsed_ms(t0),
    )


def full_monster_report(
    n1: int,
    n2: int,
    cap_states: int = DEFAULT_STATE_CAP,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> ExperimentReport:
    """Minimal star-of-xor size over the full pair alphabet, with target finals."""
    return size_report(
        "sc", n1, n2, "full-monster",
        lambda: monster2(MonsterSpec.pair(n1, n2, {n1 - 1}, {0}), cap_letters=cap_letters),
        cap_states,
    )


def witness_report(
    n1: int,
    n2: int,
    cap_states: int = DEFAULT_STATE_CAP,
) -> ExperimentReport:
    return replace(verify_witness(n1, n2, cap_states=cap_states), command="sc")


def sc_reports(
    n1: int,
    n2: int,
    method: str = "all",
    cap_states: int = DEFAULT_STATE_CAP,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> list[ExperimentReport]:
    """Reports for one size point; method all adds a pairwise agreement report."""
    if method not in SC_METHODS:
        raise ValueError(f"method must be one of {SC_METHODS}")
    if method == "formula":
        return [formula_report(n1, n2)]
    if method == "full-monster":
        return [full_monster_report(n1, n2, cap_states, cap_letters)]
    if method == "witness":
        return [witness_report(n1, n2, cap_states)]
    reports = [
        formula_report(n1, n2),
        full_monster_report(n1, n2, cap_states, cap_letters),
        witness_report(n1, n2, cap_states),
    ]
    t0 = time.perf_counter()
    values: dict[str, Any] = {}
    for r in reports:
        name = r.parameters["method"]
        values[name] = r.predicted if name == "formula" else r.measured
    if any(v is None for v in values.values()):
        outcome = "skipped"
        note = "a construction was skipped; no three-way comparison"
    elif len(set(values.values())) == 1:
        outcome = "pass"
        note = ""
    else:
        outcome = "fail"
        note = "methods disagree: " + ", ".join(f"{k}={v}" for k, v in values.items())
    reports.append(
        ExperimentReport(
            command="sc",
            parameters={"n1": n1, "n2": n2, "method": "all"},
            measured=values,
            predicted=values.get("formula"),
            verdict=outcome,
            wall_time_ms=elapsed_ms(t0),
            note=note,
        )
    )
    return reports


def _subsets(n: int) -> list[tuple[int, ...]]:
    # ordered by bitmask value so sweeps are deterministic
    return [
        tuple(q for q in range(n) if mask >> q & 1)
        for mask in range(1 << n)
    ]


def _sweep_one(args: tuple) -> dict[str, Any]:
    n1, n2, f1, f2, cap_states, cap_letters = args
    measured, _ = measure_stx(
        lambda: monster2(MonsterSpec.pair(n1, n2, f1, f2), cap_letters=cap_letters),
        cap_states,
    )
    predicted = count_constrained(final_zone(n1, n2, f1, f2))
    return {
        "n1": n1,
        "n2": n2,
        "F1": f1,
        "F2": f2,
        "measured": measured,
        "predicted": predicted,
        "verdict": verdict(measured, predicted, at_most=True),
    }


def sweep_reports(
    n1: int,
    n2: int,
    jobs: int = 1,
    cap_states: int = DEFAULT_STATE_CAP,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> tuple[list[dict[str, Any]], ExperimentReport]:
    """Minimal sizes for every final-set pair, plus the where-is-the-max summary.

    Each row carries the tableau count for its own zone as predicted, an upper
    bound for the measured size; the summary asserts the overall maximum is
    attained at ({n1-1}, {0}).
    """
    t0 = time.perf_counter()
    tasks = [
        (n1, n2, f1, f2, cap_states, cap_letters)
        for f1 in _subsets(n1)
        for f2 in _subsets(n2)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    target = ((n1 - 1,), (0,))
    at_target = next(
        row["measured"]
        for row in rows
        if (row["F1"], row["F2"]) == target
    )
    done = [row["measured"] for row in rows if row["measured"] is not None]
    if at_target is None or len(done) < len(rows):
        summary = ExperimentReport(
            command="sweep-finals",
            parameters={"n1": n1, "n2": n2},
            measured=None,
            predicted=predicted_complexity(n1, n2),
            verdict="skipped",
            wall_time_ms=elapsed_ms(t0),
            note=f"{len(rows) - len(done)} of {len(rows)} pairs hit a cap",
        )
        return rows, summary
    best = max(done)
    argmax = [
        (row["F1"], row["F2"])
        for row in rows
        if row["measured"] == best
    ]
    summary = ExperimentReport(
        command="sweep-finals",
        parameters={"n1": n1, "n2": n2},
        measured={"max": best, "at_target": at_target},
        predicted=predicted_complexity(n1, n2),
        verdict="pass" if at_target == best else "fail",
        wall_time_ms=elapsed_ms(t0),
        note="maximum attained at " + ", ".join(
            f"({format_final_set(f1)},{format_final_set(f2)})" for f1, f2 in argmax
        ),
    )
    return rows, summary


def format_final_set(f: tuple[int, ...]) -> str:
    """A final set as the sweep prints it, {0,1} for (0, 1)."""
    return "{" + ",".join(str(q) for q in f) + "}"


def write_sweep_csv(rows: Iterable[dict[str, Any]], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n1", "n2", "F1", "F2", "measured", "predicted", "verdict"])
        for row in rows:
            writer.writerow([
                row["n1"],
                row["n2"],
                format_final_set(row["F1"]),
                format_final_set(row["F2"]),
                row["measured"],
                row["predicted"],
                row["verdict"],
            ])


def _reference_monster() -> Dfa:
    return monster1(2, {1})


def _reference_renamed() -> Dfa:
    # two letters: a renames to the identity [01], b to the constant [11]
    return preimage_by_renaming(_reference_monster(), (1, 3), ("a", "b"))


REFERENCE_CHECKS: tuple[tuple[str, str], ...] = (
    ("example-monster", "2-state monster, finals {1}"),
    ("star-monster", "star of the 2-state monster, all four subsets"),
    ("renamed-dfa", "two-letter renaming of the 2-state monster"),
    ("star-renamed", "star of the two-letter renaming, all four subsets"),
)

_EXPECTED_TABLES: dict[str, dict[str, Any]] = {
    "example-monster": {
        "labels": ("[00]", "[01]", "[10]", "[11]"),
        "delta": ((0, 0, 1, 1), (0, 1, 0, 1)),
        "finals": [1],
        "initial": 0,
    },
    # subset states by mask: 0 empty, 1 {0}, 2 {1}, 3 {0,1}
    "star-monster": {
        "delta": ((1, 1, 3, 3), (1, 1, 3, 3), (1, 3, 1, 3), (1, 3, 3, 3)),
        "finals": [0, 2, 3],
        "initial": 0,
    },
    "renamed-dfa": {
        "labels": ("a", "b"),
        "delta": ((0, 1), (1, 1)),
        "finals": [1],
        "initial": 0,
    },
    "star-renamed": {
        "delta": ((1, 3), (1, 3), (3, 3), (3, 3)),
        "finals": [0, 2, 3],
        "initial": 0,
    },
}


def _build_reference(name: str) -> Dfa:
    if name == "example-monster":
        return _reference_monster()
    if name == "star-monster":
        return star_modifier(_reference_monster(), full=True)
    if name == "renamed-dfa":
        return _reference_renamed()
    if name == "star-renamed":
        return star_modifier(_reference_renamed(), full=True)
    raise ValueError(f"unknown reference construction {name!r}")


def figure_reports() -> list[ExperimentReport]:
    """Replay the bundled reference constructions and check every transition."""
    out = []
    for name, description in REFERENCE_CHECKS:
        t0 = time.perf_counter()
        built = _build_reference(name)
        expected = _EXPECTED_TABLES[name]
        problems = []
        delta = tuple(map(tuple, built.delta.tolist()))
        if delta != expected["delta"]:
            problems.append(f"delta differs: {delta} vs {expected['delta']}")
        finals = built.finals.tolist()
        if finals != expected["finals"]:
            problems.append(f"finals differ: {finals} vs {expected['finals']}")
        if built.initial != expected["initial"]:
            problems.append(f"initial differs: {built.initial} vs {expected['initial']}")
        if "labels" in expected and built.letter_labels != expected["labels"]:
            problems.append(f"labels differ: {built.letter_labels} vs {expected['labels']}")
        out.append(
            ExperimentReport(
                command="verify-figures",
                parameters={"construction": name},
                measured=built.state_count,
                predicted=len(expected["delta"]),
                verdict="fail" if problems else "pass",
                wall_time_ms=elapsed_ms(t0),
                note="; ".join(problems) if problems else description,
            )
        )
    return out


EXPORT_WHATS = (
    "example-monster",
    "star-monster",
    "renamed-dfa",
    "star-renamed",
    "witness-pair",
    "alpha-table",
)
EXPORT_FORMATS = ("dot", "json", "csv")


def export_artifact(
    what: str,
    fmt: str,
    out: str,
    n1: int | None = None,
    n2: int | None = None,
    max_x: int = 4,
    max_y: int = 4,
) -> str:
    """Write one artifact to a file; returns a short description of what went out."""
    if what not in EXPORT_WHATS:
        raise ValueError(f"what must be one of {EXPORT_WHATS}")
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"format must be one of {EXPORT_FORMATS}")
    if what == "alpha-table":
        if fmt != "csv":
            raise ValueError("the alpha table only exports as csv")
        rows = 0
        with open(out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n1", "n2", "alpha", "alpha_pinned", "predicted"])
            for x in range(max_x + 1):
                for y in range(max_y + 1):
                    predicted = predicted_complexity(x, y) if x >= 1 and y >= 1 else ""
                    writer.writerow([x, y, count_rtf(x, y), count_rtf_pinned(x, y), predicted])
                    rows += 1
        return f"wrote {rows} alpha-table rows to {out}"
    if what == "witness-pair":
        if fmt != "json":
            raise ValueError("the witness pair only exports as json")
        if n1 is None or n2 is None:
            raise ValueError("the witness pair needs --n1 and --n2")
        first, second = witness_pair(n1, n2)
        payload = {
            "first": json.loads(export_json(first)),
            "second": json.loads(export_json(second)),
        }
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return f"wrote the ({n1},{n2}) witness pair to {out}"
    built = _build_reference(what)
    if fmt == "csv":
        raise ValueError("automata export as dot or json, not csv")
    text = export_dot(built) if fmt == "dot" else export_json(built)
    with open(out, "w") as handle:
        handle.write(text)
    return f"wrote {what} as {fmt} to {out}"
