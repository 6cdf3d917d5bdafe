"""Grid subsets (tableaux), their final zone, and right-triangle-free counting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .transforms import LimitExceeded

EXHAUSTIVE_CELL_BUDGET = 20


def cell_bit(x: int, y: int, n2: int) -> int:
    """Row-major bit position of cell (x, y) on a grid with n2 columns."""
    return x * n2 + y


@dataclass(frozen=True)
class Tableau:
    """A subset of the n1 x n2 grid, held as a row-major bitmask."""

    n1: int
    n2: int
    cells: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("grid dimensions must be nonnegative")
        if not 0 <= self.cells < 1 << (self.n1 * self.n2):
            raise ValueError("cell mask out of range for the grid")

    @classmethod
    def from_cells(cls, n1: int, n2: int, cells: Iterable[tuple[int, int]]) -> "Tableau":
        mask = 0
        for x, y in cells:
            if not 0 <= x < n1 or not 0 <= y < n2:
                raise ValueError(f"cell ({x}, {y}) outside the {n1} x {n2} grid")
            mask |= 1 << cell_bit(x, y, n2)
        return cls(n1, n2, mask)

    def has_cell(self, x: int, y: int) -> bool:
        return bool(self.cells >> cell_bit(x, y, self.n2) & 1)

    def row(self, x: int) -> int:
        """Column mask of row x."""
        return self.cells >> (x * self.n2) & ((1 << self.n2) - 1)

    def cell_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (x, y)
            for x in range(self.n1)
            for y in range(self.n2)
            if self.has_cell(x, y)
        )


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


def _check_dims(t: Tableau, z: FinalZone) -> None:
    if (t.n1, t.n2) != (z.n1, z.n2):
        raise ValueError("tableau and zone live on different grids")


def is_final(t: Tableau, z: FinalZone) -> bool:
    """Does the tableau touch the final zone?"""
    _check_dims(t, z)
    return bool(t.cells & z.zone)


def is_accessible_state(t: Tableau, z: FinalZone) -> bool:
    """Touching the zone forces the corner cell (0, 0).

    This predicate characterizes which grid subsets the star-of-xor
    construction can reach from the empty set when both operands start in
    state 0: any zone hit seeds the corner, so a zone-touching subset without
    the corner can never appear.
    """
    _check_dims(t, z)
    return not t.cells & z.zone or bool(t.cells & 1)


def has_right_triangle(t: Tableau) -> bool:
    """Some axis-aligned rectangle meets the tableau in exactly three corners."""
    for x1, x2 in itertools.combinations(range(t.n1), 2):
        for y1, y2 in itertools.combinations(range(t.n2), 2):
            corners = (
                t.has_cell(x1, y1)
                + t.has_cell(x1, y2)
                + t.has_cell(x2, y1)
                + t.has_cell(x2, y2)
            )
            if corners == 3:
                return True
    return False


def _rows_ok(rows: list[int]) -> bool:
    for i, r in enumerate(rows):
        if not r:
            continue
        for s in rows[i + 1:]:
            if s and r & s and r != s:
                return False
    return True


def rows_equal_or_disjoint(t: Tableau) -> bool:
    """Nonempty rows are pairwise equal or disjoint as column sets.

    Equivalent to the absence of right triangles; the two predicates are kept
    separate and cross-checked exhaustively in the tests.
    """
    return _rows_ok([t.row(x) for x in range(t.n1)])


def saturate(t: Tableau) -> Tableau:
    """Least right-triangle-free superset.

    Repeatedly completes rectangles missing one corner, which amounts to
    unioning intersecting rows until they are equal.
    """
    rows = [t.row(x) for x in range(t.n1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            if not rows[i]:
                continue
            for j in range(i + 1, len(rows)):
                if rows[j] and rows[i] & rows[j] and rows[i] != rows[j]:
                    union = rows[i] | rows[j]
                    rows[i] = union
                    rows[j] = union
                    changed = True
    mask = 0
    for x, r in enumerate(rows):
        mask |= r << (x * t.n2)
    return Tableau(t.n1, t.n2, mask)


def _require_budget(cells: int) -> None:
    if cells > EXHAUSTIVE_CELL_BUDGET:
        raise LimitExceeded(
            f"{cells} cells exceed the exhaustive budget of {EXHAUSTIVE_CELL_BUDGET}"
        )


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
    """Right-triangle-free tableaux where touching the zone forces the corner."""
    cells = z.n1 * z.n2
    _require_budget(cells)
    width = (1 << z.n2) - 1
    count = 0
    for mask in range(1 << cells):
        if mask & z.zone and not mask & 1:
            continue
        if _rows_ok([mask >> (i * z.n2) & width for i in range(z.n1)]):
            count += 1
    return count


def render_tableau(t: Tableau, z: FinalZone | None = None) -> str:
    """ASCII grid, crosses for cells and dots elsewhere; zone cells bracketed."""
    if z is not None:
        _check_dims(t, z)
    lines = []
    for x in range(t.n1):
        parts = []
        for y in range(t.n2):
            mark = "×" if t.has_cell(x, y) else "·"
            in_zone = z is not None and bool(z.zone >> cell_bit(x, y, t.n2) & 1)
            parts.append(f"[{mark}]" if in_zone else f" {mark} ")
        lines.append("".join(parts))
    return "\n".join(lines)
