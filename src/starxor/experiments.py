"""Workbench experiments behind the CLI: size checks, sweeps, reference replays."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace
from typing import Any, Callable, Iterable

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
from .transforms import LimitExceeded
from .witness import sigma_prime, verify_witness, witness_pair

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
        n1, n2, "full-monster",
        lambda: monster2(MonsterSpec.pair(n1, n2, {n1 - 1}, {0}), cap_letters=cap_letters),
        cap_states,
    )


def witness_report(
    n1: int,
    n2: int,
    cap_states: int = DEFAULT_STATE_CAP,
) -> ExperimentReport:
    return verify_witness(n1, n2, cap_states=cap_states)


def _check_run(n1: int, n2: int, cap_states: int, cap_letters: int) -> None:
    if min(cap_states, cap_letters) < 1:
        raise ValueError("--cap-states and --cap-letters must be at least 1")
    if min(n1, n2) < 1:
        raise ValueError("--n1 and --n2 must be at least 1")


def sc_reports(
    n1: int,
    n2: int,
    method: str = "all",
    cap_states: int = DEFAULT_STATE_CAP,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> list[ExperimentReport]:
    """Reports for one size point; method all adds a pairwise agreement report.

    Bad arguments are refused with ValueError before any work: caps below 1,
    sizes below 1, and sizes below 2 when the witness runs.
    """
    if method not in SC_METHODS:
        raise ValueError(f"method must be one of {SC_METHODS}")
    _check_run(n1, n2, cap_states, cap_letters)
    if method in ("witness", "all") and min(n1, n2) < 2:
        raise ValueError("--n1 and --n2 must be at least 2 when the witness runs")
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


def orbit_key(
    n1: int, n2: int, f1: tuple[int, ...], f2: tuple[int, ...]
) -> tuple[int, bool, int, bool]:
    """The symmetry orbit of the final-set pair (f1, f2) among the (n1, n2) monsters.

    Conjugating both monsters by state permutations that fix the initial
    state 0 renames the pair alphabet bijectively, and stx commutes with
    letter renamings (it is 1-uniform), so the minimal size depends only on
    (|f1|, 0 in f1, |f2|, 0 in f2). Complementing both final sets leaves the
    xor zone unchanged, so a key and its joint complement name one orbit.
    When n1 == n2, swapping the operands renames the pair alphabet
    bijectively, (f, g) to (g, f), and leaves L1 xor L2 unchanged, so a key
    and its swap name one orbit too. The least of these keys is the orbit's
    key.
    """
    keys = [
        (len(f1), 0 in f1, len(f2), 0 in f2),
        (n1 - len(f1), 0 not in f1, n2 - len(f2), 0 not in f2),
    ]
    if n1 == n2:
        keys += [(size2, has2, size1, has1) for size1, has1, size2, has2 in keys]
    return min(keys)


def _sweep_one(args: tuple) -> int | None:
    first, second, cap_states = args
    measured, _ = measure_stx(lambda: (first, second), cap_states)
    return measured


def sweep_reports(
    n1: int,
    n2: int,
    jobs: int = 1,
    cap_states: int = DEFAULT_STATE_CAP,
    cap_letters: int = DEFAULT_LETTER_CAP,
) -> tuple[list[dict[str, Any]], ExperimentReport]:
    """Minimal sizes for every final-set pair, plus the where-is-the-max summary.

    The pair alphabet is built once (monster2), and one construction runs
    per symmetry orbit (orbit_key), on the orbit's first pair in sweep
    order: the monsters with that pair's finals. Its size goes to every row
    of the orbit, and so does the tableau count for the orbit's zone, which
    is the same at every pair of an orbit; it is each row's predicted value,
    an upper bound for the measured size. A letter cap skips every row.
    The summary asserts the overall maximum is attained at ({n1-1}, {0}).
    Caps or sizes below 1, and jobs below 1, are refused with ValueError
    before any work.
    """
    _check_run(n1, n2, cap_states, cap_letters)
    if jobs < 1:
        raise ValueError("--jobs must be at least 1")
    t0 = time.perf_counter()
    pairs = [(f1, f2) for f1 in _subsets(n1) for f2 in _subsets(n2)]
    representatives: dict[tuple, tuple] = {}
    for f1, f2 in pairs:
        representatives.setdefault(orbit_key(n1, n2, f1, f2), (f1, f2))
    try:
        first, second = monster2(MonsterSpec.pair(n1, n2, (), ()), cap_letters=cap_letters)
    except LimitExceeded:
        sizes = [None] * len(representatives)
    else:
        tasks = [
            (replace(first, finals=f1), replace(second, finals=f2), cap_states)
            for f1, f2 in representatives.values()
        ]
        # a fork pool starts all its workers at once, and one beyond the tasks would idle
        workers = min(jobs, len(tasks))
        if workers > 1:
            # imported here: the pool's modules cost every other run about 8 ms
            # of start-up
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                sizes = list(pool.map(_sweep_one, tasks))
        else:
            sizes = [_sweep_one(t) for t in tasks]
    size_of = dict(zip(representatives, sizes))
    predicted_of = {
        key: count_constrained(final_zone(n1, n2, f1, f2))
        for key, (f1, f2) in representatives.items()
    }
    rows = []
    for f1, f2 in pairs:
        key = orbit_key(n1, n2, f1, f2)
        measured, predicted = size_of[key], predicted_of[key]
        rows.append({
            "n1": n1,
            "n2": n2,
            "F1": f1,
            "F2": f2,
            "measured": measured,
            "predicted": predicted,
            "verdict": verdict(measured, predicted, at_most=True),
        })
    target = ((n1 - 1,), (0,))
    at_target = next(
        row["measured"]
        for row in rows
        if (row["F1"], row["F2"]) == target
    )
    done = [row["measured"] for row in rows if row["measured"] is not None]
    if len(done) < len(rows):
        measured, outcome = None, "skipped"
        note = f"{len(rows) - len(done)} of {len(rows)} pairs hit a cap"
    else:
        best = max(done)
        measured = {"max": best, "at_target": at_target}
        outcome = "pass" if at_target == best else "fail"
        note = "maximum attained at " + ", ".join(
            f"({format_final_set(row['F1'])},{format_final_set(row['F2'])})"
            for row in rows
            if row["measured"] == best
        )
    summary = ExperimentReport(
        command="sweep-finals",
        parameters={"n1": n1, "n2": n2},
        measured=measured,
        predicted=predicted_complexity(n1, n2),
        verdict=outcome,
        wall_time_ms=elapsed_ms(t0),
        note=note,
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


def _reference_renamed() -> Dfa:
    # two letters: a renames to the identity [01], b to the constant [11]
    return preimage_by_renaming(monster1(2, {1}), (1, 3))


# name: (description, build, expected table and the letter names its exports
# print); subset states of the stars by mask: 0 empty, 1 {0}, 2 {1}, 3 {0,1}
REFERENCES: dict[str, tuple[str, Callable[[], Dfa], dict[str, Any]]] = {
    "example-monster": (
        "2-state monster, finals {1}",
        lambda: monster1(2, {1}),
        {
            "labels": ("[00]", "[01]", "[10]", "[11]"),
            "delta": ((0, 0, 1, 1), (0, 1, 0, 1)),
            "finals": [1],
            "initial": 0,
        },
    ),
    "star-monster": (
        "star of the 2-state monster, all four subsets",
        lambda: star_modifier(monster1(2, {1}), full=True),
        {
            "labels": ("[00]", "[01]", "[10]", "[11]"),
            "delta": ((1, 1, 3, 3), (1, 1, 3, 3), (1, 3, 1, 3), (1, 3, 3, 3)),
            "finals": [0, 2, 3],
            "initial": 0,
        },
    ),
    "renamed-dfa": (
        "two-letter renaming of the 2-state monster",
        _reference_renamed,
        {
            "labels": ("a", "b"),
            "delta": ((0, 1), (1, 1)),
            "finals": [1],
            "initial": 0,
        },
    ),
    "star-renamed": (
        "star of the two-letter renaming, all four subsets",
        lambda: star_modifier(_reference_renamed(), full=True),
        {
            "labels": ("a", "b"),
            "delta": ((1, 3), (1, 3), (3, 3), (3, 3)),
            "finals": [0, 2, 3],
            "initial": 0,
        },
    ),
}


def figure_reports() -> list[ExperimentReport]:
    """Replay the bundled reference constructions and check every transition."""
    out = []
    for name, (description, build, expected) in REFERENCES.items():
        t0 = time.perf_counter()
        built = build()
        problems = []
        delta = tuple(map(tuple, built.delta.tolist()))
        if delta != expected["delta"]:
            problems.append(f"delta differs: {delta} vs {expected['delta']}")
        finals = built.finals.tolist()
        if finals != expected["finals"]:
            problems.append(f"finals differ: {finals} vs {expected['finals']}")
        if built.initial != expected["initial"]:
            problems.append(f"initial differs: {built.initial} vs {expected['initial']}")
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


# the options each artifact reads; export_artifact refuses the others
_EXPORT_OPTIONS = {
    **dict.fromkeys(REFERENCES, ()),
    "witness-pair": ("n1", "n2"),
    "alpha-table": ("max_x", "max_y"),
}
EXPORT_WHATS = tuple(_EXPORT_OPTIONS)
EXPORT_FORMATS = ("dot", "json", "csv")


def export_artifact(
    what: str,
    fmt: str,
    out: str,
    n1: int | None = None,
    n2: int | None = None,
    max_x: int | None = None,
    max_y: int | None = None,
) -> str:
    """Write one artifact to a file; returns a short description of what went out.

    An option given (not None) that the artifact does not read, or a
    negative bound, is refused with ValueError before out is opened. The
    alpha table's bounds default to 4.
    """
    if what not in EXPORT_WHATS:
        raise ValueError(f"what must be one of {EXPORT_WHATS}")
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"format must be one of {EXPORT_FORMATS}")
    options = {"n1": n1, "n2": n2, "max_x": max_x, "max_y": max_y}
    ignored = [
        "--" + name.replace("_", "-")
        for name, value in options.items()
        if value is not None and name not in _EXPORT_OPTIONS[what]
    ]
    if ignored:
        raise ValueError(f"--what {what} ignores {' and '.join(ignored)}")
    if min(max_x or 0, max_y or 0) < 0:
        raise ValueError("--max-x and --max-y must be at least 0")
    if what == "alpha-table":
        if fmt != "csv":
            raise ValueError("the alpha table only exports as csv")
        max_x, max_y = (4 if bound is None else bound for bound in (max_x, max_y))
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
        labels = [letter.render() for letter in sigma_prime(n1, n2)]
        payload = {
            "first": json.loads(export_json(first, labels)),
            "second": json.loads(export_json(second, labels)),
        }
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return f"wrote the ({n1},{n2}) witness pair to {out}"
    if fmt == "csv":
        raise ValueError("automata export as dot or json, not csv")
    _, build, expected = REFERENCES[what]
    export = export_dot if fmt == "dot" else export_json
    text = export(build(), expected["labels"])
    with open(out, "w") as handle:
        handle.write(text)
    return f"wrote {what} as {fmt} to {out}"
