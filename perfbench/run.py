"""Benchmark of the starxor CLI: one workload per invocation, from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each unit runs the real `starxor.cli.main(argv)` in a fresh single-threaded
child process (child.py), one at a time: a closed loop with one client and
`--jobs 1`. Units run back to back until --seconds have passed (at least one).
Every unit's exit status and output file are checked against frozen values
(checks.py); a unit that differs, exits unexpectedly or reports a `skipped`
verdict counts as failed, so error_rate = failed / attempted.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  verdict_s    median wall time of the cli.main call over the units
  peak_rss_mb  median ru_maxrss of the units' child processes
  setup_s      shortest time from spawning a child until `import starxor.cli`
               returns, over 20 set-up-only children plus the units: set-up
               is a fixed cost that host noise only ever lengthens
--trace 1 runs untraced and traced units in pairs and reports the per-layer
metrics of tracing.py (medians over the traced units), together with
trace.verdict_s, trace.untraced_verdict_s and their difference
trace.overhead_s, the cost of tracing. Where a unit outlasts --seconds that
difference rests on one pair and is mostly host noise, so
trace.overhead_est_s gives the cost too, as spans times the measured cost of
one wrapper.

The inputs are fixed by construction (the 17-letter witness, the full
monsters, the tableau grid), so --seed never reaches the program: it only
decides which side of each traced/untraced pair runs first, and is recorded.
The last stdout line is the result object; the line before it records the
run's context (seed, nproc, Python, numpy, source revision, unit timings).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import WORKLOADS, Workload, check_unit
from tracing import LAYER_METRICS, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
WORK_DIR = ROOT / ".perfbench_work"

# Set-up-only children before and again after the units, so that the samples
# span the whole run; first comes one unrecorded warm-up child that lets the
# bytecode and page caches fill (a CLI user pays that once per install).
# Each costs about 0.2 s; with them a run of the slowest workload must still
# leave the full set of runs inside the time the benchmark is given.
SETUP_PROBES_EACH_SIDE = 10
# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
# Keep numpy's native libraries on one thread, as the workloads assume.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class UnitError(RuntimeError):
    """A child that did not finish or left no result."""


class Bench:
    def __init__(self, workload: Workload, work: Path, deadline: float) -> None:
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, **SINGLE_THREAD_ENV}
        self.children = 0
        self.attempted = 0
        self.problems: list[str] = []  # one entry per failed unit
        self.context: dict = {}

    def _child(self, traced: bool, cli_argv: list[str]) -> tuple[dict | None, int, float]:
        """Run child.py once; returns (result or None, exit status, ru_maxrss in MiB)."""
        self.children += 1
        result_path = self.work / f"result-{self.children}.json"
        log_path = self.work / f"log-{self.children}.txt"
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            argv = [
                sys.executable, str(CHILD), repr(spawned), str(SRC),
                "1" if traced else "0", str(result_path), *cli_argv,
            ]
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    raise UnitError(f"child {self.children} passed the {HARD_LIMIT_S:.0f} s limit")
                time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text())
            self.context = {"python": result["python"], "numpy": result["numpy"]}
        else:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"child {self.children} left no result; its output ends:\n{tail}", file=sys.stderr)
        return result, proc.returncode, usage.ru_maxrss / 1024

    def setup_probe(self) -> float:
        result, rc, _ = self._child(False, [])
        if result is None or rc != 0:
            raise UnitError(f"a set-up-only child exited with status {rc}")
        return result["setup_s"]

    def unit(self, traced: bool) -> tuple[dict | None, float]:
        """One checked workload unit; returns (child result, peak RSS in MiB)."""
        self.attempted += 1
        out = self.work / f"out-{self.children}"
        result, rc, rss = self._child(traced, self.workload.cli_argv(str(out)))
        text = out.read_text() if out.exists() else None
        if result is None:
            problems = [f"no result (exit status {rc})"]
        else:
            problems = check_unit(self.workload, rc, text)
            if result["rc"] != rc:
                problems.append(f"main returned {result['rc']} but the process exited {rc}")
        if problems:
            self.problems.append(f"unit {self.attempted}: " + "; ".join(problems))
        return result, rss


def _source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    revision = {"src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if git.returncode == 0:
            revision["git"] = git.stdout.strip()
    return revision


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    bench = Bench(workload, work, start + HARD_LIMIT_S)
    untraced: list[dict] = []
    traced: list[dict] = []
    rss: list[float] = []
    try:
        if trace:
            traced_first = random.Random(seed).random() < 0.5
            while not bench.attempted or time.monotonic() - start < seconds:
                for side in (traced_first, not traced_first):
                    result, _ = bench.unit(side)
                    if result is not None:
                        (traced if side else untraced).append(result)
                traced_first = not traced_first
        else:
            bench.setup_probe()
            setups = [bench.setup_probe() for _ in range(SETUP_PROBES_EACH_SIDE)]
            while not bench.attempted or time.monotonic() - start < seconds:
                result, unit_rss = bench.unit(False)
                if result is not None:
                    untraced.append(result)
                    rss.append(unit_rss)
                    setups.append(result["setup_s"])
            setups += [bench.setup_probe() for _ in range(SETUP_PROBES_EACH_SIDE)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if not untraced or (trace and not traced):
        raise UnitError("no unit finished: " + " | ".join(bench.problems))

    verdicts = [r["verdict_s"] for r in untraced]
    if trace:
        traced_s = statistics.median(r["verdict_s"] for r in traced)
        untraced_s = statistics.median(verdicts)
        layers = [layer_metrics(r["spans"]) for r in traced]
        metrics = {
            name: _metric(statistics.median(m[name] for m in layers), unit)
            for name, unit in LAYER_METRICS
        }
        metrics["trace.verdict_s"] = _metric(traced_s, "s")
        metrics["trace.untraced_verdict_s"] = _metric(untraced_s, "s")
        metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
        metrics["trace.overhead_est_s"] = _metric(
            statistics.median(r["overhead_est_s"] for r in traced), "s"
        )
    else:
        metrics = {
            "verdict_s": _metric(statistics.median(verdicts), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MB"),
            "setup_s": _metric(min(setups), "s"),
        }
    context = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        **bench.context,
        "revision": _source_revision(),
        "units": len(verdicts) + len(traced),
        "verdict_s": verdicts,
        "verdict_s_max": max(verdicts),
        "traced_verdict_s": [r["verdict_s"] for r in traced],
        "error_rate": len(bench.problems) / bench.attempted,
        "problems": bench.problems,
        "run_s": time.monotonic() - start,
    }
    summary = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": len(bench.problems),
        "metrics": metrics,
    }
    return context, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "starxor" / "cli.py").is_file():
        print(f"no starxor sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        context, summary = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except UnitError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
