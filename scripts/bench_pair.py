"""Turn paired perfbench results into a BENCH_<label>.json and before/after rows.

    python3 scripts/bench_pair.py --label sweep-orbits \
        --parent p1.out p2.out ... --change c1.out c2.out ...

Each file is the stdout of one `python3 perfbench/run.py` run: a context line
and a result line. Runs are grouped by workload and trace setting; within a
group the i-th parent file and the i-th change file form pair i, so give both
sides in the order they ran. For every metric of a group the script writes
each side's median, quartiles and runs, and counts the pairs the change wins
(ties count for neither side). Directions and end-to-end bounds come from
BENCHMARK.json. A metric's `gain` holds when the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the distance between the parent's quartiles; an end-to-end metric's
`within_bound` holds when the change's median is no worse than the parent's
by more than the metric's bound. Writes BENCH_<label>.json at the repository
root (or --out) and prints the Markdown rows for CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def read_run(path: str) -> dict:
    """The context and result objects of one perfbench/run.py stdout file."""
    context = result = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "context" in obj:
            context = obj["context"]
        elif "metrics" in obj:
            result = obj
    if context is None or result is None:
        raise ValueError(f"{path} holds no perfbench context and result lines")
    return {"context": context, "result": result}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def directions() -> dict[str, dict]:
    """Per metric name: its unit, which way is better and, end to end, its bound."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: dict(m) for m in declared["per_layer"]}
    out.update({m["name"]: dict(m) for m in declared["end_to_end"]})
    return out


def compare(parent: list[float], change: list[float], spec: dict) -> dict:
    lower = spec.get("better", "lower") == "lower"
    sign = 1 if lower else -1
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    pairs = min(len(parent), len(change))
    out = {
        "unit": spec.get("unit", ""),
        "better": spec.get("better", "lower"),
        "parent": p,
        "change": c,
        "pairs": pairs,
        "wins": wins,
        "losses": losses,
        "gain": wins >= 0.9 * pairs
        and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
    }
    if "bound" in spec:
        out["bound"] = spec["bound"]
        worse = sign * (c["median"] - p["median"])
        out["within_bound"] = worse <= spec["bound"] * abs(p["median"])
    return out


def group_key(run: dict) -> str:
    context = run["context"]
    return context["workload"] + (" (traced)" if context["trace"] else "")


def build(label: str, runs: dict[str, list[dict]]) -> dict:
    specs = directions()
    groups: dict[str, dict[str, list[dict]]] = {}
    for side in SIDES:
        for run in runs[side]:
            groups.setdefault(group_key(run), {s: [] for s in SIDES})[side].append(run)
    workloads = {}
    for name, sides in sorted(groups.items()):
        if not all(sides[s] for s in SIDES):
            raise ValueError(f"{name} has runs on one side only")
        metrics = {}
        for metric in sides["parent"][0]["result"]["metrics"]:
            values = {
                s: [r["result"]["metrics"][metric]["value"] for r in sides[s]] for s in SIDES
            }
            metrics[metric] = compare(values["parent"], values["change"], specs.get(metric, {}))
        workloads[name] = {
            "seconds": sides["parent"][0]["context"]["seconds"],
            "seeds": {s: [r["context"]["seed"] for r in sides[s]] for s in SIDES},
            "attempted": {s: sum(r["result"]["attempted"] for r in sides[s]) for s in SIDES},
            "failed": {s: sum(r["result"]["failed"] for r in sides[s]) for s in SIDES},
            "metrics": metrics,
        }
    revisions = {}
    for side in SIDES:
        seen = {json.dumps(r["context"]["revision"], sort_keys=True) for r in runs[side]}
        if len(seen) != 1:
            raise ValueError(f"the {side} runs come from {len(seen)} different source trees")
        revisions[side] = json.loads(seen.pop())
    any_run = runs["parent"][0]["context"]
    return {
        "label": label,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T",
        "host": {k: any_run.get(k) for k in ("nproc", "python", "numpy")},
        "revision": revisions,
        "workloads": workloads,
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def markdown_rows(bench: dict) -> list[str]:
    """Before/after rows: median [quartiles] per side, the ratio, and the pair wins."""
    rows = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins |",
        "|---|---|---|---|---|---|",
    ]
    for name, workload in bench["workloads"].items():
        for metric, m in workload["metrics"].items():
            p, c = m["parent"], m["change"]
            ratio = _fmt(c["median"] / p["median"]) if p["median"] else "—"
            unit = f" {m['unit']}" if m["unit"] not in ("", "count", "ratio") else ""
            rows.append(
                f"| {name} | {metric} "
                f"| {_fmt(p['median'])}{unit} [{_fmt(p['q1'])}, {_fmt(p['q3'])}] "
                f"| {_fmt(c['median'])}{unit} [{_fmt(c['q1'])}, {_fmt(c['q3'])}] "
                f"| {ratio} | {m['wins']}/{m['pairs']} |"
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--parent", nargs="+", required=True, help="run files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="run files of the change")
    parser.add_argument("--out", help="where to write the JSON (default: repository root)")
    args = parser.parse_args(argv)
    try:
        runs = {side: [read_run(p) for p in getattr(args, side)] for side in SIDES}
        bench = build(args.label, runs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print("\n".join(markdown_rows(bench)))
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
