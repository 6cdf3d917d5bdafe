"""Repeat run.py over seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--trace 0|1] [--out FILE]

One set of runs per seed; the seed also orders the workloads within its set.
For every workload and metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are set against. --out writes
the same summary, with every run's values and context, as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

from checks import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range like 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    shown = {m["name"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for seed in args.seeds:
        order = list(WORKLOADS)
        random.Random(seed).shuffle(order)
        for name in order:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
            runs[name].append({"context": context, **result})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in shown or k.startswith("trace.")
            ), flush=True)
    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[name][metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
            print(f"{name:14s} {metric:32s} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {summary[name][metric]['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
