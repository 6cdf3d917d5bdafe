"""The final zone of a final-set pair, and closed-form counts of right-triangle-free tableaux.

A tableau is a subset of the n1 x n2 grid, held as a row-major int mask
(cell_bit), as in a SubsetDfa's state_masks. The tableau predicates and
saturation are test oracles in tests/helpers.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


def _surjective_block(n: int, m: int) -> int:
    # assignments of n items to labels {0, 1..m} using every label 1..m
    return sum(
        (-1) ** j * math.comb(m, j) * (m - j + 1) ** n
        for j in range(m + 1)
    )


def _pinned_block(n: int, m: int) -> int:
    # as above with item 0 forced to label 1
    return sum(
        (-1) ** j * math.comb(m - 1, j) * (m - j + 1) ** (n - 1)
        for j in range(m)
    )


def _count_profile(x: int, y: int, pinned: bool) -> int:
    # A right-triangle-free tableau is determined by grouping rows into m
    # interchangeable nonempty blocks (rest empty) and giving the blocks
    # pairwise disjoint nonempty column sets; sum over m, divide by the m!
    # labelings. The pinned variant ties row 0 and column 0 to a common block.
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
    is cheap. The tests compare it with exhaustive enumeration on grids of up
    to 20 cells.
    """
    if x < 0 or y < 0:
        raise ValueError("grid dimensions must be nonnegative")
    return _count_profile(x, y, pinned=False)


def count_rtf_pinned(x: int, y: int) -> int:
    """Right-triangle-free tableaux containing the corner cell (0, 0)."""
    if x < 0 or y < 0:
        raise ValueError("grid dimensions must be nonnegative")
    return _count_profile(x, y, pinned=True)


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

