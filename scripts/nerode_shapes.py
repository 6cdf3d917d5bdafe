"""Time the subset BFS and the measurement path after it in-process on the benchmarks' shapes.

    python3 scripts/nerode_shapes.py [--repeat 5] [--src PATH]

Builds each shape's operands --repeat times and prints the fastest build
in ms with a digest of both operands' `delta` and `finals`. Then it calls
`stx` on them --repeat times and prints the fastest call in ms with a
digest of the subset table's `delta` and `state_masks`.
Then it times the steps `reports.measure_stx` takes after `stx`, each
--repeat times, fastest call in ms: `saturate_masks` on the table's masks,
with a digest of the saturated keys; `quotient_by_keys`, the class
numbering and exact congruence check, with the quotient's state count;
and `minimize` of that quotient, with its state count and a digest of the
minimal DFA's `delta` and finals. Equal digests mean equal operands, tables,
keys and minimal DFAs, so two source trees can be compared kernel for kernel:
--src imports `starxor` from another tree's `src` directory (default:
this one's). Where a tree's `saturate_masks` returns None or its check
refuses the quotient, the key columns print `-` and `minimize` runs on the
whole table, as `measure_stx` then does.

The shapes: the witness at (5,4), the 532,480-state table of the
witness-deep benchmark, at (4,4) and at (2,8), a grid eight columns
wide; the (3,3) monster of two final pairs, 729 letters each, as in the
sweep-wide benchmark; and the full (4,3) monster over 6,912 letters.
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
    from starxor import MonsterSpec, minimize, monster2, stx, witness_pair
    from starxor.automata import quotient_by_keys
    from starxor.tableaux import saturate_masks

    shapes = [
        ("witness (5,4)", lambda: witness_pair(5, 4)),
        ("witness (4,4)", lambda: witness_pair(4, 4)),
        ("witness (2,8)", lambda: witness_pair(2, 8)),
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
        "| shape | operands ms | operands sha256 | stx ms | stx sha256 | states | letters "
        "| saturate ms | keys sha256 | quotient ms | quotient states | minimize ms | classes "
        "| minimal sha256 |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for name, operands in shapes:
        (first, second), operands_best = fastest(operands)
        subsets, stx_best = fastest(lambda: stx(first, second))
        n1, n2 = first.state_count, second.state_count
        keys, saturate_best = fastest(lambda: saturate_masks(subsets.state_masks, n1, n2))
        quotient, quotient_best = None, None
        if keys is not None:
            quotient, quotient_best = fastest(lambda: quotient_by_keys(subsets, keys))
        table = subsets if quotient is None else quotient
        minimal, minimize_best = fastest(lambda: minimize(table))
        print(
            f"| {name} | {operands_best * 1e3:.2f} "
            f"| {digest(first.delta, first.finals, second.delta, second.finals)} "
            f"| {stx_best * 1e3:.1f} | {digest(subsets.delta, subsets.state_masks)} "
            f"| {subsets.state_count:,} | {subsets.letter_count:,} "
            f"| {saturate_best * 1e3:.1f} | {'-' if keys is None else digest(keys)} "
            f"| {'-' if quotient_best is None else f'{quotient_best * 1e3:.1f}'} "
            f"| {'-' if quotient is None else f'{quotient.state_count:,}'} "
            f"| {minimize_best * 1e3:.1f} | {minimal.state_count:,} "
            f"| {digest(minimal.delta, minimal.finals)} |",
            flush=True,
        )
        del subsets, keys, quotient, table, minimal
    return 0


if __name__ == "__main__":
    sys.exit(main())
