"""Experiment reports shared by the library entry points and the CLI.

Also the one measurement path, verdict rule and size-report builder behind
every size check.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .automata import Dfa, nerode_partition
from .modifiers import saturation_premises_hold, stx, xor_modifier
from .tableaux import predicted_complexity, saturate_masks, saturation_table
from .transforms import LimitExceeded

VERDICTS = ("pass", "fail", "skipped")


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: what ran, what was measured, what it meant.

    verdict is pass, fail, or skipped; skipped marks runs cut short by a
    resource cap and never counts as a failure.
    """

    command: str
    parameters: dict[str, Any] = field(default_factory=dict)
    measured: Any = None
    predicted: Any = None
    verdict: str = "pass"
    wall_time_ms: float = 0.0
    note: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "command": self.command,
            "parameters": dict(self.parameters),
            "measured": self.measured,
            "predicted": self.predicted,
            "verdict": self.verdict,
            "wall_time_ms": self.wall_time_ms,
        }
        if self.note:
            out["note"] = self.note
        return out

    def summary_line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        bits = [self.command]
        if params:
            bits.append(params)
        if self.measured is not None:
            bits.append(f"measured={self.measured}")
        if self.predicted is not None:
            bits.append(f"predicted={self.predicted}")
        bits.append(f"verdict={self.verdict}")
        bits.append(f"({self.wall_time_ms:.0f} ms)")
        if self.note:
            bits.append(f"note: {self.note}")
        return " ".join(str(b) for b in bits)


# Grids of at most this many cells (2^16 masks, 256 KB) saturate by a lookup
# in saturation_table, larger ones with saturate_masks. Table build + gathers
# against kernel in one quotient build (fastest of 5, 2-vCPU Xeon): witness
# (4,4) 0.92 vs 0.80 ms, full (4,4) monster 1.08 vs 3.84 ms; past 16 cells the
# build alone loses: witness (2,9) 1.53 vs 0.64 ms, witness (5,4) 19.8 vs 2.2 ms.
TABLE_CELLS = 16


@functools.cache
def saturation_normalizer(n1: int, n2: int) -> Callable[[np.ndarray], np.ndarray]:
    """The saturation measure_stx passes to stx, one per grid per process.

    A lookup in saturation_table(n1, n2), held read-only, on grids of at
    most TABLE_CELLS cells; saturate_masks on each block beyond. Both give
    the same masks, so the choice changes no table, only the time it takes.
    """
    if n1 * n2 <= TABLE_CELLS:
        table = saturation_table(n1, n2)
        table.flags.writeable = False
        return table.take
    return functools.partial(saturate_masks, n1=n1, n2=n2)


def measure_stx(
    build_pair: Callable[[], tuple[Dfa, Dfa]],
    cap_states: int,
) -> tuple[int | None, str]:
    """Minimal star-of-xor size of the operand pair build_pair() returns.

    A cap hit while building the operands or the subset automaton (letters,
    subset states, transitions, or the operand-size limit of subset masks)
    gives (None, the cap's message) instead; otherwise the note is empty,
    unless the premise check refused the quotient and the full table's
    classes were counted instead, which it then says.

    The size is that of the saturation quotient, built directly: stx runs
    its breadth-first search over saturated masks only (normalize=
    saturation_normalizer(n1, n2), one saturation per grid), so cap_states
    bounds the quotient's states. That size is returned only once this
    run's operands pass the exact check of the saturation lemma's premises
    (saturation_premises_hold, on their xor product), which makes the
    quotient accept the same language as the full subset table, so it never
    rests on the lemma, only on the check. When the check fails, the full
    table is built instead. The check runs after the build, so a run that a
    cap cuts short never pays for it. Every state of either table is
    reachable, so its count of language classes (nerode_partition) is the
    minimal size; no quotient is built.
    """
    try:
        first, second = build_pair()
        n1, n2 = first.state_count, second.state_count
        built = stx(first, second, cap_states=cap_states, normalize=saturation_normalizer(n1, n2))
        sound = saturation_premises_hold(xor_modifier(first, second), n1, n2)
        if not sound:
            del built
            built = stx(first, second, cap_states=cap_states)
    except LimitExceeded as exc:
        return None, str(exc)
    note = "" if sound else "the saturation premises do not hold; counted the full table's classes"
    return nerode_partition(built).class_count, note


def verdict(measured: int | None, predicted: int, at_most: bool = False) -> str:
    """pass, fail or skipped for a measured size against its prediction.

    skipped when measured is missing because a cap fired; otherwise pass when
    the two are equal or, with at_most, when measured does not exceed
    predicted.
    """
    if measured is None:
        return "skipped"
    holds = measured <= predicted if at_most else measured == predicted
    return "pass" if holds else "fail"


def elapsed_ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000


def size_report(
    command: str,
    n1: int,
    n2: int,
    method: str,
    build_pair: Callable[[], tuple[Dfa, Dfa]],
    cap_states: int,
) -> ExperimentReport:
    """Report of the minimal star-of-xor size of build_pair() against predicted_complexity(n1, n2).

    pass on equality, fail otherwise; skipped with the cap's message as note
    when measure_stx hits a cap. The wall time covers both numbers.
    """
    t0 = time.perf_counter()
    predicted = predicted_complexity(n1, n2)
    measured, note = measure_stx(build_pair, cap_states)
    return ExperimentReport(
        command=command,
        parameters={"n1": n1, "n2": n2, "method": method},
        measured=measured,
        predicted=predicted,
        verdict=verdict(measured, predicted),
        wall_time_ms=elapsed_ms(t0),
        note=note,
    )
