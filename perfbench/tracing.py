"""Spans around the library's public functions, recorded from outside the package.

A Tracer wraps a fixed list of public functions and rebinds each wrapper under
every name a starxor module holds it by, so a call is seen whichever module
makes it (for example `nerode_partition` as called by `minimize`). Spans are
kept in memory as plain dicts and written out by the caller at the end:

    {"name", "parent" (index or None), "start", "end", "rss_mb", "counts"}

Every per-layer time metric is a self time: the span's duration minus the part
of it that traced callees cover. Self times are disjoint, so over one unit they
add up to the duration of the root span (`cli.main`).
"""

from __future__ import annotations

import functools
import resource
import sys
import time
import types
from typing import Any, Callable

# Public functions traced, by the starxor module that defines them.
TRACED: dict[str, tuple[str, ...]] = {
    "automata": ("minimize", "accessible_part", "nerode_partition"),
    "modifiers": ("stx",),
    "monsters": ("monster2",),
    "transforms": ("enumerate_all",),
    "witness": ("witness_pair", "verify_witness"),
    "tableaux": (
        "count_rtf",
        "count_rtf_pinned",
        "predicted_complexity",
        "count_constrained",
        "final_zone",
    ),
    "experiments": (
        "formula_report",
        "full_monster_report",
        "witness_report",
        "sc_reports",
        "sweep_reports",
        "write_sweep_csv",
        "figure_reports",
        "export_artifact",
    ),
}

ROOT = "cli.main"
# The tableaux constant that decides which grids are counted exhaustively.
BUDGET = "EXHAUSTIVE_CELL_BUDGET"
# Layers that only orchestrate; time outside their self time is "covered".
ORCHESTRATION = ("cli", "experiments")

# Self-time metric names that are not simply "<span name>_s".
_SELF_METRIC = {
    "automata.minimize": "automata.minimize_self_s",
    "witness.verify_witness": "witness.verify_witness_self_s",
    ROOT: "cli.self_s",
}

# (name, unit) of every metric layer_metrics returns, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("automata.nerode_partition_s", "s"),
    ("automata.accessible_part_s", "s"),
    ("automata.minimize_self_s", "s"),
    ("automata.classes", "count"),
    ("automata.useful_ratio", "ratio"),
    ("automata.minimize_rss_mb", "MB"),
    ("modifiers.stx_s", "s"),
    ("modifiers.stx_calls", "count"),
    ("modifiers.reachable_states", "count"),
    ("modifiers.transitions", "count"),
    ("modifiers.states_per_s", "1/s"),
    ("modifiers.stx_rss_mb", "MB"),
    ("monsters.monster2_s", "s"),
    ("monsters.calls", "count"),
    ("monsters.letters", "count"),
    ("transforms.enumerate_all_s", "s"),
    ("witness.witness_pair_s", "s"),
    ("witness.verify_witness_self_s", "s"),
    ("tableaux.count_rtf_s", "s"),
    ("tableaux.count_rtf_pinned_s", "s"),
    ("tableaux.predicted_complexity_s", "s"),
    ("tableaux.count_constrained_s", "s"),
    ("tableaux.final_zone_s", "s"),
    ("tableaux.masks_enumerated", "count"),
    ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.coverage", "ratio"),
)


def _maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class TracingError(RuntimeError):
    """A traced name is gone from the library, so its metrics cannot be measured."""


def _cell_budget() -> int:
    budget = getattr(sys.modules.get("starxor.tableaux"), BUDGET, None)
    if not isinstance(budget, int):
        raise TracingError(f"tableaux.{BUDGET} is missing")
    return budget


def _exhaustive_masks(x: int, y: int) -> int:
    # Grids within the library's cell budget are counted by enumerating all
    # 2^(x*y) masks; larger ones use the closed form and enumerate none.
    return 2 ** (x * y) if x * y <= _cell_budget() else 0


# Counts recorded at span end, from the call's result and arguments.
COUNTERS: dict[str, Callable[..., dict[str, int]]] = {
    "modifiers.stx": lambda r, *a, **k: {"states": r.state_count, "letters": r.letter_count},
    "automata.minimize": lambda r, *a, **k: {"classes": r.state_count},
    "monsters.monster2": lambda r, *a, **k: {"letters": r[0].letter_count},
    "tableaux.count_rtf": lambda r, x, y: {"masks": _exhaustive_masks(x, y)},
    "tableaux.count_rtf_pinned": lambda r, x, y: {
        "masks": _exhaustive_masks(x, y) if x and y else 0
    },
    "tableaux.count_constrained": lambda r, z: {"masks": 2 ** (z.n1 * z.n2)},
}


class Tracer:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span: dict[str, Any] = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_mb"] = _maxrss_mb()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind the traced functions in every loaded starxor module.

        Raises TracingError, before rebinding anything, if a traced name is
        missing or is no longer a plain function (say, it gained a cache), or
        if the tableaux cell budget is gone: its metrics would silently read 0.
        """
        _cell_budget()
        wrappers: dict[Callable, Callable] = {}
        missing = []
        for layer, names in TRACED.items():
            module = sys.modules.get(f"starxor.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                span = f"{layer}.{name}"
                if isinstance(fn, types.FunctionType):
                    wrappers[fn] = self.wrap(span, fn, COUNTERS.get(span))
                else:
                    missing.append(span)
        if missing:
            raise TracingError("not found as plain functions: " + ", ".join(missing))
        for module_name, module in list(sys.modules.items()):
            if module_name != "starxor" and not module_name.startswith("starxor."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])


def wrapper_cost(calls: int = 4000, repeats: int = 5) -> float:
    """Seconds a Tracer wrapper adds to one call, measured on a no-op function.

    Takes the fastest of several repeats of each side, so a slow phase of the
    host does not read as tracing cost.
    """

    def noop() -> None:
        return None

    per_call = []
    for fn in (noop, Tracer().wrap("noop", noop)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        per_call.append(min(times) / calls)
    return max(per_call[1] - per_call[0], 0.0)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"]) - _covered(kids, span["start"], span["end"])
        for span, kids in zip(spans, children)
    ]


def _time_metric(span_name: str) -> str:
    if span_name in _SELF_METRIC:
        return _SELF_METRIC[span_name]
    if span_name.startswith("experiments."):
        return "experiments.self_s"
    return f"{span_name}_s"


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one unit's spans, keyed as in LAYER_METRICS."""
    out: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
    orchestration = root = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        metric = _time_metric(name)
        if metric in out:
            out[metric] += own
        if name.split(".")[0] in ORCHESTRATION:
            orchestration += own
        if span["parent"] is None:
            root += span["end"] - span["start"]
        counts = span.get("counts", {})
        if name == "modifiers.stx":
            out["modifiers.stx_calls"] += 1
            out["modifiers.reachable_states"] += counts["states"]
            out["modifiers.transitions"] += counts["states"] * counts["letters"]
            out["modifiers.stx_rss_mb"] = max(out["modifiers.stx_rss_mb"], span["rss_mb"])
        elif name == "automata.minimize":
            out["automata.classes"] += counts["classes"]
            out["automata.minimize_rss_mb"] = max(
                out["automata.minimize_rss_mb"], span["rss_mb"]
            )
        elif name == "monsters.monster2":
            out["monsters.calls"] += 1
            out["monsters.letters"] += counts["letters"]
        out["tableaux.masks_enumerated"] += counts.get("masks", 0)
    if out["modifiers.reachable_states"]:
        out["automata.useful_ratio"] = out["automata.classes"] / out["modifiers.reachable_states"]
    if out["modifiers.stx_s"]:
        out["modifiers.states_per_s"] = out["modifiers.reachable_states"] / out["modifiers.stx_s"]
    if root:
        out["trace.coverage"] = 1 - orchestration / root
    return out
