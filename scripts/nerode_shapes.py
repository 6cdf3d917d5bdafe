"""Time the subset BFS and Nerode refinement in-process on the benchmarks' shapes.

    python3 scripts/nerode_shapes.py [--repeat 5] [--src PATH]

Calls `stx` on each shape's operands --repeat times and prints the fastest
call in ms with a digest of the subset table's `delta` and `state_masks`.
Then it calls `nerode_partition` on that table, which is what `minimize`
refines, --repeat times and prints the fastest call in ms, with the states,
letters, classes, refinement rounds and hash attempts of the partition and
a digest of its `class_of`. Last it calls `minimize` on the table --repeat
times and prints the fastest call in ms with a digest of the minimal DFA's
`delta` and finals. Equal digests mean equal tables and partitions, so two
source trees can be compared shape by shape: --src imports `starxor` from
another tree's `src` directory (default: this one's). A tree whose
partitions do not report rounds or attempts prints `-`.

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
    from starxor import MonsterSpec, minimize, monster2, nerode_partition, stx, witness_pair

    shapes = [
        ("witness (5,4)", lambda: witness_pair(5, 4)),
        ("witness (4,4)", lambda: witness_pair(4, 4)),
        ("monster (3,3) {2} {0}", lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0}))),
        ("monster (3,3) {0,1} {1}", lambda: monster2(MonsterSpec.pair(3, 3, {0, 1}, {1}))),
        ("full monster (4,3)", lambda: monster2(MonsterSpec.pair(4, 3, {3}, {0}))),
    ]

    def fastest(call):
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            out = call()
            best = min(best, time.perf_counter() - start)
        return out, best

    def digest(*arrays) -> str:
        # each array in its own dtype, little-endian
        data = b"".join(x.astype(x.dtype.newbyteorder("<")).tobytes() for x in arrays)
        return hashlib.sha256(data).hexdigest()[:12]

    print(
        "| shape | stx ms | stx sha256 | states | letters | classes | rounds | attempts "
        "| best ms | class_of sha256 | minimize ms | minimal sha256 |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for name, operands in shapes:
        pair = operands()
        subsets, stx_best = fastest(lambda: stx(*pair))
        stx_digest = digest(subsets.delta, subsets.state_masks)
        part, best = fastest(lambda: nerode_partition(subsets))
        rounds, attempts = (getattr(part, key, "-") for key in ("rounds", "attempts"))
        minimal, minimize_best = fastest(lambda: minimize(subsets))
        print(
            f"| {name} | {stx_best * 1e3:.1f} | {stx_digest} | {subsets.state_count:,} "
            f"| {subsets.letter_count:,} | {part.class_count:,} | {rounds} | {attempts} "
            f"| {best * 1e3:.1f} | {digest(part.class_of)} "
            f"| {minimize_best * 1e3:.1f} | {digest(minimal.delta, minimal.finals)} |",
            flush=True,
        )
        del subsets, part, minimal
    return 0


if __name__ == "__main__":
    sys.exit(main())
