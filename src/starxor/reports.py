"""Experiment reports shared by the library entry points and the CLI.

Also the one measurement path, verdict rule and size-report builder behind
every size check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .automata import Dfa, minimize
from .modifiers import stx
from .tableaux import predicted_complexity
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


def measure_stx(
    build_pair: Callable[[], tuple[Dfa, Dfa]],
    cap_states: int,
) -> tuple[int | None, str]:
    """Minimal star-of-xor size of the operand pair build_pair() returns.

    A cap hit while building the operands or the subset automaton (letters,
    subset states, transitions, or the operand-size limit of subset masks)
    gives (None, the cap's message) instead; otherwise the note is empty.
    """
    try:
        first, second = build_pair()
        built = stx(first, second, cap_states=cap_states)
        return minimize(built).state_count, ""
    except LimitExceeded as exc:
        return None, str(exc)


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
