"""Time the measurement path of `reports.measure_stx` in-process on the benchmarks' shapes.

    python3 scripts/nerode_shapes.py [--repeat 5] [--src PATH]

Builds each shape's operands --repeat times and prints the fastest build
in ms with a digest of both operands' `delta` and `finals`. Then it times
the steps `measure_stx` takes, each --repeat times, fastest call in ms:
picking the saturation (`reports.saturation_normalizer`, which builds
the lookup table of every grid mask on small grids; its per-process
cache is cleared before each call, so the build is timed), with the one
it picked, `table` or `kernel` (`saturate_masks`);
`saturation_premises_hold` on the operands' xor product, the exact check
of the saturation lemma's premises, with its verdict; the direct build of
the saturation quotient, `stx(..., normalize=that saturation)`, with a
digest of its `delta` and `state_masks` and its state and letter counts;
and `nerode_partition` of that quotient, whose class count is the size
`measure_stx` reports, with its rounds, its class count and a digest of
`class_of`. Warm calls reuse memory that earlier calls freed, so they
cannot show what a build touches first; the `build KiB` column is the
growth of the peak RSS over one build of the same quotient, in a fresh
child process per shape that builds the operands and picks the
saturation first. The peak is the child's VmHWM, the high-water mark of
its own address space (Linux only): its ru_maxrss would start at this
process's peak, which the larger shapes raise to hundreds of MB. Equal
digests mean equal operands, quotient tables and partitions, so two
source trees can be compared kernel for kernel, and the build column
compares their memory: --src imports `starxor` from another tree's `src`
directory (default: this one's). Older trees differ in three ways, read off their signatures: a
tree without `saturation_normalizer` saturates with the kernel; a
normalizer that takes a letter count gets the operands'; and a check that
takes a saturation gets the one picked. Where a tree has no premise
check, or its check refuses, the check columns print `-` or `no` and the
build is the full subset table, which `nerode_partition` then runs on, as
`measure_stx` does.

The shapes: the witness at (5,4), the witness-deep benchmark's operands,
at (4,4) and at (2,8), a grid eight columns wide; the (3,3) monster of two
final pairs, 729 letters each, as in the sweep-wide benchmark; and the
full (4,3) and (4,4) monsters over 6,912 and 65,536 letters. The (4,4)
shape holds about 350 MB at its peak.

A second table times `saturate_masks` alone, --repeat times, fastest call
in ms, on three inputs far larger than the blocks a search hands it: every
(4,4) mask (what the (4,4) lookup table saturates), every (5,4) mask, and
2^20 random (6,6) masks drawn with a fixed seed, with a digest of the
result. The masks are made here, not by the tree, so --src compares the
kernels of two trees on the same input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_kib() -> int:
    """This process's peak RSS in KiB, from VmHWM in /proc/self/status."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per shape; the fastest is shown")
    parser.add_argument("--src", type=Path, default=SRC, help="directory to import starxor from")
    # the fresh child that measures one shape's build: its index in the
    # shapes, and whether the premises hold, which picks the build
    parser.add_argument("--build-rss", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--holds", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(args.src))
    from starxor import (
        MonsterSpec,
        modifiers,
        monster2,
        nerode_partition,
        reports,
        stx,
        witness_pair,
        xor_modifier,
    )
    from starxor.tableaux import saturate_masks

    check_premises = getattr(modifiers, "saturation_premises_hold", None)
    pick = getattr(reports, "saturation_normalizer", None)
    # older trees: a check that takes the saturation, a pick by letter count
    check_takes_saturation = check_premises is not None and (
        len(inspect.signature(check_premises).parameters) > 3
    )
    pick_takes_letters = pick is not None and len(inspect.signature(pick).parameters) > 2
    shapes = [
        ("witness (5,4)", lambda: witness_pair(5, 4)),
        ("witness (4,4)", lambda: witness_pair(4, 4)),
        ("witness (2,8)", lambda: witness_pair(2, 8)),
        ("monster (3,3) {2} {0}", lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0}))),
        ("monster (3,3) {0,1} {1}", lambda: monster2(MonsterSpec.pair(3, 3, {0, 1}, {1}))),
        ("full monster (4,3)", lambda: monster2(MonsterSpec.pair(4, 3, {3}, {0}))),
        ("full monster (4,4)", lambda: monster2(MonsterSpec.pair(4, 4, {3}, {0}))),
    ]

    def saturation(n1, n2, letters):
        if pick is None:
            return functools.partial(saturate_masks, n1=n1, n2=n2)
        return pick(*((n1, n2, letters) if pick_takes_letters else (n1, n2)))

    def builder(saturate, holds):
        # a tree without the check has no normalize argument either
        return functools.partial(stx, normalize=saturate) if holds else stx

    if args.build_rss is not None:
        first, second = shapes[args.build_rss][1]()
        n1, n2 = first.state_count, second.state_count
        build = builder(saturation(n1, n2, first.letter_count), args.holds)
        before = peak_kib()
        build(first, second)
        print(peak_kib() - before)
        return 0

    def build_growth(index, holds) -> int:
        """Peak RSS growth in KiB over one build, in a fresh child."""
        child = [sys.executable, __file__, "--src", str(args.src), "--build-rss", str(index)]
        child += ["--holds"] * holds
        return int(subprocess.run(child, capture_output=True, text=True, check=True).stdout)

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
        "| shape | operands ms | operands sha256 | saturation | pick ms | check ms | premises "
        "| quotient ms | quotient sha256 | states | letters | build KiB | nerode ms | rounds "
        "| classes | classes sha256 |"
    )
    print("|---" * 16 + "|")
    for index, (name, operands) in enumerate(shapes):
        (first, second), operands_best = fastest(operands)
        n1, n2 = first.state_count, second.state_count
        product = xor_modifier(first, second)
        if pick is None:
            saturate, pick_best = saturation(n1, n2, first.letter_count), None
        else:
            clear = getattr(pick, "cache_clear", lambda: None)
            grid = (n1, n2, first.letter_count)
            saturate, pick_best = fastest(lambda: clear() or saturation(*grid))
        if check_takes_saturation:
            check = lambda: check_premises(product, n1, n2, saturate)
        else:
            check = lambda: check_premises(product, n1, n2)
        route = "kernel" if isinstance(saturate, functools.partial) else "table"
        holds, check_best = False, None
        if check_premises is not None:
            holds, check_best = fastest(check)
        build = builder(saturate, holds)
        built, build_best = fastest(lambda: build(first, second))
        part, nerode_best = fastest(lambda: nerode_partition(built))
        print(
            f"| {name} | {operands_best * 1e3:.2f} "
            f"| {digest(first.delta, first.finals, second.delta, second.finals)} "
            f"| {route if holds else '-'} "
            f"| {'-' if pick_best is None else f'{pick_best * 1e3:.2f}'} "
            f"| {'-' if check_best is None else f'{check_best * 1e3:.1f}'} "
            f"| {'-' if check_best is None else 'yes' if holds else 'no'} "
            f"| {build_best * 1e3:.1f} | {digest(built.delta, built.state_masks)} "
            f"| {built.state_count:,} | {built.letter_count:,} | {build_growth(index, holds):,} "
            f"| {nerode_best * 1e3:.1f} | {part.rounds} | {part.class_count:,} "
            f"| {digest(part.class_of)} |",
            flush=True,
        )
        del built, part

    import numpy as np

    print()
    print("| saturation input | masks | saturate_masks ms | result sha256 |")
    print("|---" * 4 + "|")
    rng = np.random.default_rng(2020)
    inputs = [
        ("every (4,4) mask", 4, 4, np.arange(1 << 16, dtype=np.int64)),
        ("every (5,4) mask", 5, 4, np.arange(1 << 20, dtype=np.int64)),
        ("random (6,6) masks", 6, 6, rng.integers(0, 1 << 36, 1 << 20, dtype=np.int64)),
    ]
    for name, n1, n2, masks in inputs:
        sat, best = fastest(lambda: saturate_masks(masks, n1, n2))
        print(f"| {name} | {len(masks):,} | {best * 1e3:.2f} | {digest(sat)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
