"""Spread of one starxor CLI command's peak RSS over process layouts.

    python3 scripts/rss_spread.py [--runs 20] -- sc --method witness --n1 5 --n2 4

Runs the command in --runs fresh single-threaded processes, one at a time.
Each process gets one extra argv entry that the command never reads, padded
to a different length (0, 1, ... characters). The padding changes nothing
but the process's initial layout, and with it where the allocator places the
large arrays, so the readings show how far peak RSS moves with heap layout
alone. Prints min, median and max ru_maxrss in MiB, and the exit statuses.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# argv[1] is the padding; the command is everything after it
RUN_CLI = "import sys; from starxor.cli import main; sys.exit(main(sys.argv[2:]))"


def peak_rss_mb(padding: int, command: list[str], env: dict[str, str]) -> tuple[float, int]:
    """ru_maxrss in MiB and the exit status of one run of the command."""
    argv = [sys.executable, "-c", RUN_CLI, "x" * padding, *command]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024, proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="processes, one per padding")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="starxor CLI arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("give --runs of at least 1 and a command after --")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    readings = [peak_rss_mb(padding, command, env) for padding in range(args.runs)]
    rss = [mb for mb, _ in readings]
    print(" ".join(f"{mb:.1f}" for mb in rss))
    print(
        f"runs={len(rss)} min={min(rss):.1f} median={statistics.median(rss):.1f} "
        f"max={max(rss):.1f} MiB exit={sorted({rc for _, rc in readings})}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
