"""Time Nerode refinement in-process on the table shapes the benchmarks reach.

    python3 scripts/nerode_shapes.py [--repeat 5] [--src PATH]

Builds each table once (the accessible part that `minimize` refines), then
calls `nerode_partition` --repeat times and prints the fastest call in ms,
with the states, letters, classes, refinement rounds and hash attempts of the
partition and a digest of its `class_of`. Equal digests mean equal
partitions, so two source trees can be compared shape by shape: --src
imports `starxor` from another tree's `src` directory (default: this one's).
A tree whose partitions do not report rounds or attempts prints `-`.

The shapes: the witness at (5,4), the 532,480-state table of the
witness-deep benchmark, and at (4,4); the (3,3) monster of two final pairs,
729 letters each, as in the sweep-wide benchmark; and the full (4,3)
monster over 6,912 letters.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per shape; the fastest is shown")
    parser.add_argument("--src", type=Path, default=SRC, help="directory to import starxor from")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(args.src))
    from starxor import MonsterSpec, accessible_part, monster2, nerode_partition, stx, witness_pair

    shapes = [
        ("witness (5,4)", lambda: witness_pair(5, 4)),
        ("witness (4,4)", lambda: witness_pair(4, 4)),
        ("monster (3,3) {2} {0}", lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0}))),
        ("monster (3,3) {0,1} {1}", lambda: monster2(MonsterSpec.pair(3, 3, {0, 1}, {1}))),
        ("full monster (4,3)", lambda: monster2(MonsterSpec.pair(4, 3, {3}, {0}))),
    ]
    print("| shape | states | letters | classes | rounds | attempts | best ms | class_of sha256 |")
    print("|---|---|---|---|---|---|---|---|")
    for name, operands in shapes:
        table = accessible_part(stx(*operands()))
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            part = nerode_partition(table)
            best = min(best, time.perf_counter() - start)
        digest = hashlib.sha256(part.class_of.astype("<i4").tobytes()).hexdigest()[:12]
        rounds, attempts = (getattr(part, key, "-") for key in ("rounds", "attempts"))
        print(
            f"| {name} | {table.state_count:,} | {table.letter_count:,} | {part.class_count:,} "
            f"| {rounds} | {attempts} | {best * 1e3:.1f} | {digest} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
