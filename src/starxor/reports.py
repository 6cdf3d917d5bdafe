"""Experiment reports shared by the library entry points and the CLI.

Also the one measurement path, verdict rule and size-report builder behind
every size check.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field
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
        out = asdict(self)
        if not self.note:
            del out["note"]
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
# in saturation_table, larger ones with saturate_masks. On one witness
# measure_stx, table built inside, the table wins up to 12 cells and loses
# from 15: (4,3) 1.03 vs 1.29 ms, (4,4) 2.79 vs 2.20 ms (fastest of 7, 2-vCPU
# host). 16 holds because a sweep builds the table once: a warm (3,3) sweep
# took 21.2-23.7 ms with it, 24.9-27.9 ms without (README, "The saturation
# quotient"). Past 16 cells the build alone loses: witness (5,4) 19.8 vs 2.2 ms.
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

    The route is decided first, then one table is built: the saturation
    quotient when this run's operands pass the exact check of the saturation
    lemma's premises (saturation_premises_hold, on their xor product), the
    full subset table when they do not. The quotient is built directly: stx
    searches saturated masks only (normalize=saturation_normalizer(n1, n2),
    one saturation per grid), so cap_states bounds the quotient's states.
    The check makes it accept the language of the full table, so its size
    rests on the check, never on the lemma alone. Every state of either
    table is reachable, so its count of language classes (nerode_partition)
    is the minimal size; no quotient of it is built.
    """
    try:
        first, second = build_pair()
        n1, n2 = first.state_count, second.state_count
        sound = saturation_premises_hold(xor_modifier(first, second), n1, n2)
        normalize = saturation_normalizer(n1, n2) if sound else None
        built = stx(first, second, cap_states=cap_states, normalize=normalize)
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
    n1: int,
    n2: int,
    method: str,
    build_pair: Callable[[], tuple[Dfa, Dfa]],
    cap_states: int,
) -> ExperimentReport:
    """Report of the minimal star-of-xor size of build_pair() against predicted_complexity(n1, n2).

    The command is sc, whether the sc subcommand or verify_witness asks. pass
    on equality, fail otherwise; skipped with the cap's message as note
    when measure_stx hits a cap. The wall time covers both numbers.
    """
    t0 = time.perf_counter()
    predicted = predicted_complexity(n1, n2)
    measured, note = measure_stx(build_pair, cap_states)
    return ExperimentReport(
        command="sc",
        parameters={"n1": n1, "n2": n2, "method": method},
        measured=measured,
        predicted=predicted,
        verdict=verdict(measured, predicted),
        wall_time_ms=elapsed_ms(t0),
        note=note,
    )
