"""Final zones, closed-form counts of right-triangle-free tableaux, and saturation.

A tableau is a subset of the n1 x n2 grid, held as a row-major int mask
(cell_bit), as in a SubsetDfa's state_masks. Saturation is part of the
measurement path: measure_stx has stx search over saturated masks only,
and saturation_premises_hold checks on the product grid, with no
saturation, that this is sound. reports.saturation_normalizer picks the
saturation by grid size alone: a lookup in saturation_table, built once per
grid and process, on grids of at most 16 cells, and saturate_masks beyond.
The tableau predicates and a pairwise-union saturation are test oracles in
tests/helpers.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .automata import block_rows

# Read only by perfbench/tracing.py, which refuses to start without it.
EXHAUSTIVE_CELL_BUDGET = 20


def cell_bit(x: int, y: int, n2: int) -> int:
    """Row-major bit position of cell (x, y) on a grid with n2 columns."""
    return x * n2 + y


@dataclass(frozen=True)
class FinalZone:
    """Cells (x, y) where exactly one of x in finals1, y in finals2 holds.

    Build through final_zone(); zone is the row-major mask of those cells.
    """

    n1: int
    n2: int
    finals1: frozenset[int]
    finals2: frozenset[int]
    zone: int


def final_zone(
    n1: int,
    n2: int,
    finals1: Iterable[int],
    finals2: Iterable[int],
) -> FinalZone:
    f1, f2 = frozenset(finals1), frozenset(finals2)
    if any(not 0 <= x < n1 for x in f1) or any(not 0 <= y < n2 for y in f2):
        raise ValueError("final state out of range for the grid")
    zone = 0
    for x in range(n1):
        for y in range(n2):
            if (x in f1) != (y in f2):
                zone |= 1 << cell_bit(x, y, n2)
    return FinalZone(n1, n2, f1, f2, zone)


@functools.cache
def _surjective_block(n: int, m: int) -> int:
    # assignments of n items to labels {0, 1..m} using every label 1..m
    return sum(
        (-1) ** j * math.comb(m, j) * (m - j + 1) ** n
        for j in range(m + 1)
    )


@functools.cache
def _pinned_block(n: int, m: int) -> int:
    # as above with item 0 forced to label 1
    return sum(
        (-1) ** j * math.comb(m - 1, j) * (m - j + 1) ** (n - 1)
        for j in range(m)
    )


@functools.cache
def _count_profile(x: int, y: int, pinned: bool) -> int:
    # A right-triangle-free tableau is determined by grouping rows into m
    # interchangeable nonempty blocks (rest empty) and giving the blocks
    # pairwise disjoint nonempty column sets; sum over m, divide by the m!
    # labelings. The pinned variant ties row 0 and column 0 to a common block.
    # The three are cached: a table of counts asks for the same blocks and
    # profiles many times, and the public counts call them positionally.
    if pinned:
        if x == 0 or y == 0:
            return 0
        return sum(
            m * _pinned_block(x, m) * _pinned_block(y, m) // math.factorial(m)
            for m in range(1, min(x, y) + 1)
        )
    return sum(
        _surjective_block(x, m) * _surjective_block(y, m) // math.factorial(m)
        for m in range(min(x, y) + 1)
    )


def count_rtf(x: int, y: int) -> int:
    """Number of right-triangle-free tableaux on an x by y grid.

    A closed form over block profiles that enumerates no masks, so any size
    is cheap. Its blocks and profiles are cached, so a table of counts
    computes each once: on a 2-vCPU Xeon the (40,40) alpha table takes
    about 55 ms, against 1.3 to 1.7 s uncached. The tests compare it with exhaustive enumeration on
    grids of up to 20 cells.
    """
    if x < 0 or y < 0:
        raise ValueError("grid dimensions must be nonnegative")
    return _count_profile(x, y, False)


def count_rtf_pinned(x: int, y: int) -> int:
    """Right-triangle-free tableaux containing the corner cell (0, 0)."""
    if x < 0 or y < 0:
        raise ValueError("grid dimensions must be nonnegative")
    return _count_profile(x, y, True)


def predicted_complexity(n1: int, n2: int) -> int:
    """Tableau-count prediction for the minimal star-of-xor automaton size.

    Twice the free count one size down plus the corner-pinned count at full
    size. The workbench measures the actual minimal size independently; see
    the README for how the two compare.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("sizes must be at least 1")
    return 2 * count_rtf(n1 - 1, n2 - 1) + count_rtf_pinned(n1, n2)


def count_constrained(z: FinalZone) -> int:
    """Right-triangle-free tableaux where touching the zone forces the corner.

    A tableau that avoids the zone splits into two independent
    right-triangle-free blocks, rows in F1 by columns in F2 and rows outside
    F1 by columns outside F2; every zone-touching one holds the corner. When
    the corner lies outside the zone, the corner-holding tableaux that avoid
    the zone are in both terms and are subtracted once.
    """
    inside = (len(z.finals1), len(z.finals2))
    outside = (z.n1 - inside[0], z.n2 - inside[1])
    count = count_rtf(*inside) * count_rtf(*outside) + count_rtf_pinned(z.n1, z.n2)
    if (0 in z.finals1) == (0 in z.finals2):
        corner, other = (inside, outside) if 0 in z.finals1 else (outside, inside)
        count -= count_rtf_pinned(*corner) * count_rtf(*other)
    return count


def saturate_masks(masks: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """The saturation of each row-major n1 x n2 mask.

    Saturation joins two rows whenever they share a column and fills each
    component, rows R by columns C, to the full rectangle R x C: the least
    right-triangle-free superset of the mask. Each row x holds a column set
    c_x, at first its own columns. A round takes the offsets d = 1, ...,
    n1 - 1 in turn, and at offset d every two sets d rows apart that meet
    each take in the other, all such pairs at once. So each unordered pair
    of rows is handled once per round, and the sets only grow. After k
    rounds c_x holds every row within distance 2**k - 1 of x in the graph
    of rows that share a column, and never a row outside x's component, so
    (n1 - 1).bit_length() rounds leave c_x = C. Masks go a block at a time,
    sized to keep a block's arrays in cache, with rows in the narrowest
    unsigned type for n2 bits; the result is int32 up to 31 bits, else
    int64.
    """
    masks = np.asarray(masks)
    dtype = np.int32 if n1 * n2 <= 31 else np.int64
    width = (1 << n2) - 1
    row_type = np.min_scalar_type(width)
    shifts = n2 * np.arange(n1, dtype=dtype)[:, None]
    out = np.zeros(len(masks), dtype=dtype)
    step = block_rows(8 * n1)
    size = min(step, len(masks))
    # every mask's rows at full width, then as column sets
    wide = np.empty((n1, size), dtype=dtype)
    cover = np.empty((n1, size), dtype=row_type)
    union = np.empty((max(n1 - 1, 0), size), dtype=row_type)
    meet = np.empty(union.shape, dtype=bool)
    # a bool is one byte, so uint8 rows take the flags without a cast
    flags = meet.view(np.uint8) if row_type == np.uint8 else meet
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step].astype(dtype, copy=False)
        k = len(block)
        rows, spread = cover[:, :k], wide[:, :k]
        np.right_shift(block, shifts, out=spread)
        np.bitwise_and(spread, width, out=rows, casting="unsafe")
        for _ in range((n1 - 1).bit_length()):
            for d in range(1, n1):
                # the pairs (x, x + d), for every x at once
                upper, lower = rows[:-d], rows[d:]
                u, m = union[:n1 - d, :k], meet[:n1 - d, :k]
                np.bitwise_and(upper, lower, out=u)
                np.not_equal(u, 0, out=m)
                # where two sets meet, both take in their union
                np.bitwise_or(upper, lower, out=u)
                u *= flags[:n1 - d, :k]
                upper |= u
                lower |= u
        np.copyto(spread, rows)
        spread <<= shifts
        np.bitwise_or.reduce(spread, axis=0, out=out[lo:lo + k])
    return out


def saturation_table(n1: int, n2: int) -> np.ndarray:
    """saturate_masks over every mask of the n1 x n2 grid, indexed by mask.

    table.take(masks) then saturates any array of masks by one gather.
    There are 2^(n1*n2) masks, so this pays only on small grids
    (reports.TABLE_CELLS).
    """
    return saturate_masks(np.arange(1 << (n1 * n2)), n1, n2)
