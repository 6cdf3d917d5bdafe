"""Tableau oracles, saturation, and the counting machinery.

Tableaux are row-major int masks; the predicates and the pairwise-union
saturation are the oracles in helpers, and saturate_masks is checked
against the latter.
"""

import itertools
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import has_right_triangle, rows_equal_or_disjoint, saturate_mask
from starxor import (
    MonsterSpec,
    count_constrained,
    count_rtf,
    count_rtf_pinned,
    final_zone,
    monster2,
    nerode_partition,
    predicted_complexity,
    star_modifier,
    stx,
    xor_modifier,
)
from starxor import automata, tableaux as tableaux_module
from starxor.automata import BLOCK_ENTRIES, block_rows
from starxor.experiments import export_artifact
from starxor.tableaux import _count_profile, cell_bit, saturate_masks, saturation_table

# every grid of at most 12 cells, with no rows or no columns among them
SMALL_GRIDS = [
    (n1, n2)
    for n1 in range(13)
    for n2 in range(13)
    if n1 * n2 <= 12 and (n1 * n2 or n1 + n2 <= 3)
]


def cells_mask(n2, cells):
    return sum(1 << cell_bit(x, y, n2) for x, y in cells)


@st.composite
def tableaux(draw, max_side=4, max_cols=None):
    n1 = draw(st.integers(0, max_side))
    n2 = draw(st.integers(0, max_side if max_cols is None else max_cols))
    mask = draw(st.integers(0, (1 << (n1 * n2)) - 1))
    return n1, n2, mask


def test_cell_bit_is_row_major():
    assert cell_bit(0, 0, 3) == 0
    assert cell_bit(1, 0, 3) == 3
    assert cell_bit(2, 1, 3) == 7


def test_final_zone_is_the_exclusive_or_of_bands():
    z = final_zone(2, 2, {1}, {0})
    assert z.zone == 0b1001  # cells (0,0) and (1,1)
    for x in range(2):
        for y in range(2):
            assert bool(z.zone >> cell_bit(x, y, 2) & 1) == ((x in {1}) != (y in {0}))


def test_final_zone_validates_ranges():
    with pytest.raises(ValueError):
        final_zone(2, 2, {2}, set())


def test_accessibility_predicate():
    # hand-picked cases of criterion 6: touching the zone needs the corner
    s = stx(*monster2(MonsterSpec.pair(2, 2, {1}, {0})))
    reachable = set(s.state_masks.tolist())
    assert {0, cells_mask(2, [(0, 1)]), cells_mask(2, [(0, 0), (1, 1)])} <= reachable
    assert cells_mask(2, [(1, 1)]) not in reachable


def test_right_triangle_detection():
    three_corners = cells_mask(2, [(0, 0), (0, 1), (1, 0)])
    assert has_right_triangle(three_corners, 2, 2)
    assert not rows_equal_or_disjoint(three_corners, 2, 2)
    assert not has_right_triangle(0b1111, 2, 2)
    assert rows_equal_or_disjoint(0b1111, 2, 2)
    assert not has_right_triangle(cells_mask(4, [(0, 0), (0, 2)]), 1, 4)


def test_the_two_rtf_predicates_agree_exhaustively():
    for n1, n2 in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
        for mask in range(1 << (n1 * n2)):
            assert has_right_triangle(mask, n1, n2) == (not rows_equal_or_disjoint(mask, n1, n2))


def test_saturate_completes_rectangles():
    assert saturate_mask(cells_mask(2, [(0, 0), (0, 1), (1, 0)]), 2, 2) == 0b1111
    chain = cells_mask(3, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert saturate_mask(chain, 3, 3) == cells_mask(3, [(x, y) for x in range(3) for y in range(2)])


@settings(max_examples=200, deadline=None)
@given(tableaux())
def test_saturate_is_an_rtf_closure(t):
    n1, n2, mask = t
    s = saturate_mask(mask, n1, n2)
    assert s & mask == mask  # extensive
    assert rows_equal_or_disjoint(s, n1, n2)
    assert saturate_mask(s, n1, n2) == s  # idempotent
    if rows_equal_or_disjoint(mask, n1, n2):
        assert s == mask


@settings(max_examples=200, deadline=None)
@given(tableaux(max_side=3), st.data())
def test_saturate_is_monotone(t, data):
    n1, n2, mask = t
    bigger = mask | data.draw(st.integers(0, (1 << (n1 * n2)) - 1))
    small, large = saturate_mask(mask, n1, n2), saturate_mask(bigger, n1, n2)
    assert small & large == small


def test_saturation_preserves_zone_freedom_and_the_corner():
    z = final_zone(3, 3, {2}, {0})
    for mask in range(1 << 9):
        if mask & 1 or not mask & z.zone:
            s = saturate_mask(mask, 3, 3)
            assert s & 1 or not s & z.zone


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4)])
def test_saturate_masks_matches_the_pairwise_union_on_every_mask(n1, n2):
    masks = np.arange(1 << (n1 * n2), dtype=np.int64)
    got = saturate_masks(masks, n1, n2)
    assert got.dtype == np.int32
    assert got.tolist() == [saturate_mask(mask, n1, n2) for mask in range(len(masks))]
    # the lookup table is the same saturation, indexed by mask
    table = saturation_table(n1, n2)
    assert table.dtype == np.int32
    assert table.tolist() == got.tolist()
    assert np.array_equal(table.take(masks[::-1]), got[::-1])


@pytest.mark.parametrize(
    "n1, n2", [(2, 8), (3, 9), (5, 5), (6, 5), (9, 7), (7, 9), (1, 63)]
)
def test_saturate_masks_matches_the_pairwise_union_on_sampled_int64_masks(n1, n2):
    # past 7 columns, past the dense mask map where stx numbers masks with a
    # sorted map, and up to bit 62, with uint8, uint16 and uint64 rows; an AND
    # of two draws keeps the masks sparse enough to have several components
    rng = np.random.default_rng(n1 * 10 + n2)
    top = 1 << (n1 * n2)
    masks = rng.integers(0, top, 2000, dtype=np.int64) & rng.integers(0, top, 2000, dtype=np.int64)
    got = saturate_masks(masks, n1, n2)
    assert got.dtype == (np.int32 if n1 * n2 <= 31 else np.int64)
    assert got.tolist() == [saturate_mask(int(mask), n1, n2) for mask in masks]


@settings(max_examples=200, deadline=None)
@given(st.one_of(tableaux(max_side=5), tableaux(max_side=3, max_cols=12)))
def test_saturate_masks_matches_the_pairwise_union_at_any_shape(t):
    n1, n2, mask = t
    got = saturate_masks(np.array([mask, 0], dtype=np.int64), n1, n2)
    assert got.tolist() == [saturate_mask(mask, n1, n2), 0]


@pytest.mark.parametrize("n1, n2", SMALL_GRIDS, ids=[f"{n1}x{n2}" for n1, n2 in SMALL_GRIDS])
def test_saturate_masks_matches_the_pairwise_union_on_every_small_grid(n1, n2):
    masks = np.arange(1 << (n1 * n2), dtype=np.int64)
    assert saturate_masks(masks, n1, n2).tolist() == [saturate_mask(m, n1, n2) for m in masks.tolist()]


@pytest.mark.parametrize("n1, n2", SMALL_GRIDS, ids=[f"{n1}x{n2}" for n1, n2 in SMALL_GRIDS])
def test_saturate_masks_matches_the_pairwise_union_across_small_blocks(monkeypatch, n1, n2):
    # at most 1000 masks a block, so a call on a grid of 10 cells or more
    # crosses several blocks
    monkeypatch.setattr(automata, "BLOCK_ENTRIES", 1000)
    steps = []

    def spy(rows):
        steps.append(block_rows(rows))
        return steps[-1]

    monkeypatch.setattr(tableaux_module, "block_rows", spy)
    masks = np.arange(1 << (n1 * n2), dtype=np.int64)
    assert saturate_masks(masks, n1, n2).tolist() == [saturate_mask(m, n1, n2) for m in masks.tolist()]
    assert len(steps) == 1 and (steps[0] < len(masks) or n1 * n2 < 10)


def test_saturate_masks_matches_the_pair_by_pair_kernel_on_every_4x4_mask():
    masks = np.arange(1 << 16, dtype=np.int64)
    got = saturate_masks(masks, 4, 4)
    expected = helpers.saturate_masks_pair_by_pair(masks, 4, 4)
    assert got.dtype == expected.dtype == np.int32
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n1, n2", [(7, 9), (9, 7), (1, 63)])
def test_saturate_masks_matches_the_pair_by_pair_kernel_on_sampled_int64_masks(n1, n2):
    # 20,000 masks, several blocks at 7 and 9 rows; ANDs of two and of three
    # draws give components of several sizes
    rng = np.random.default_rng(n1 * 100 + n2)
    top = 1 << (n1 * n2)
    draws = [rng.integers(0, top, 20_000, dtype=np.int64) for _ in range(3)]
    masks = np.concatenate([draws[0] & draws[1], draws[0] & draws[1] & draws[2], draws[2]])
    got = saturate_masks(masks, n1, n2)
    expected = helpers.saturate_masks_pair_by_pair(masks, n1, n2)
    assert got.dtype == expected.dtype == np.int64
    assert np.array_equal(got, expected)


def test_saturate_masks_in_blocks_of_one_mask(monkeypatch):
    monkeypatch.setattr("starxor.tableaux.block_rows", lambda rows: 1)
    masks = np.arange(1 << 9, dtype=np.int64)
    assert saturate_masks(masks, 3, 3).tolist() == [saturate_mask(m, 3, 3) for m in range(1 << 9)]


def test_saturate_masks_holds_no_mask_sized_temporary():
    # 2^20 masks at (5,4), five blocks: past the int32 result, a block's
    # int32 masks and shifted rows, its uint8 column sets, the union and the
    # meet flags
    masks = np.arange(1 << 20, dtype=np.int64)
    tracemalloc.start()
    try:
        out = saturate_masks(masks, 5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 8 * block_rows(5) + BLOCK_ENTRIES + 2**16


def test_the_public_counts_stay_plain_functions():
    # the benchmark's tracer wraps these by name and refuses a cached one
    for fn in (count_rtf, count_rtf_pinned, predicted_complexity, count_constrained):
        assert type(fn) is types.FunctionType, fn


def test_the_cached_counts_equal_their_uncached_bodies():
    for x, y in itertools.product(range(13), repeat=2):
        for pinned in (False, True):
            assert _count_profile(x, y, pinned) == _count_profile.__wrapped__(x, y, pinned), (x, y)
        for block in (tableaux_module._surjective_block, tableaux_module._pinned_block):
            if 1 <= y <= x:
                assert block(x, y) == block.__wrapped__(x, y), (block, x, y)


def test_a_cold_alpha_table_equals_a_warm_one_and_an_uncached_one(tmp_path, monkeypatch):
    cached = ("_surjective_block", "_pinned_block", "_count_profile")
    for name in cached:
        getattr(tableaux_module, name).cache_clear()
    tables = []
    for _ in range(2):
        # the first before any count is cached, the second from the caches
        export_artifact("alpha-table", "csv", str(tmp_path / "alpha.csv"), max_x=12, max_y=12)
        tables.append((tmp_path / "alpha.csv").read_bytes())
    for name in cached:
        monkeypatch.setattr(tableaux_module, name, getattr(tableaux_module, name).__wrapped__)
    export_artifact("alpha-table", "csv", str(tmp_path / "alpha.csv"), max_x=12, max_y=12)
    tables.append((tmp_path / "alpha.csv").read_bytes())
    assert tables[0] == tables[1] == tables[2]
    assert len(tables[0].splitlines()) == 1 + 13 * 13


def test_count_values_from_exhaustive_enumeration():
    # small values, each checkable by hand enumeration; the library computes
    # them with the closed form
    assert count_rtf(0, 0) == 1
    assert count_rtf(1, 1) == 2
    assert count_rtf(1, 2) == 4
    assert count_rtf(2, 1) == 4
    assert count_rtf(2, 2) == 12
    assert count_rtf_pinned(1, 1) == 1
    assert count_rtf_pinned(2, 2) == 5
    assert count_rtf_pinned(2, 3) == 13
    assert count_rtf_pinned(3, 3) == 43
    assert count_rtf_pinned(0, 3) == 0


def test_counting_paths_agree_on_the_overlap():
    for x in range(5):
        for y in range(5):
            assert helpers.count_rtf_exhaustive(x, y, False) == _count_profile(x, y, False), (x, y)
            assert helpers.count_rtf_exhaustive(x, y, True) == _count_profile(x, y, True), (x, y)
    for x, y in [(5, 3), (3, 5), (1, 12), (2, 9)]:
        assert helpers.count_rtf_exhaustive(x, y, False) == _count_profile(x, y, False), (x, y)
        assert helpers.count_rtf_exhaustive(x, y, True) == _count_profile(x, y, True), (x, y)


def test_counts_beyond_the_budget():
    # 5 x 5 and 6 x 4 are too large for the enumeration oracle to run quickly;
    # frozen values come from the block-profile formula, whose agreement with
    # the oracle is pinned on the smaller shapes above
    assert count_rtf(5, 5) == 48032
    assert count_rtf_pinned(5, 5) == 11731
    assert count_rtf(6, 4) == 40356
    assert count_rtf(4, 6) == 40356


def test_budget_boundary_stays_exhaustive():
    # 2 x 10 has 20 cells, the largest grid the tests enumerate, so this
    # compares the million-mask enumeration oracle against the closed formula
    assert helpers.count_rtf_exhaustive(2, 10, False) == 60072
    assert count_rtf(2, 10) == 60072
    assert _count_profile(2, 10, False) == 60072


def test_predicted_complexity_values():
    assert predicted_complexity(2, 2) == 9
    assert predicted_complexity(2, 3) == 21
    assert predicted_complexity(3, 2) == 21
    assert predicted_complexity(3, 3) == 67
    assert predicted_complexity(4, 3) == 213
    assert predicted_complexity(3, 4) == 213
    assert predicted_complexity(4, 4) == 849
    with pytest.raises(ValueError):
        predicted_complexity(0, 2)


def test_constrained_count_matches_the_oracle_on_every_small_zone():
    zones = 0
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            if n1 * n2 > 12:
                continue
            for f1_bits in range(1 << n1):
                for f2_bits in range(1 << n2):
                    f1 = {q for q in range(n1) if f1_bits >> q & 1}
                    f2 = {q for q in range(n2) if f2_bits >> q & 1}
                    z = final_zone(n1, n2, f1, f2)
                    assert count_constrained(z) == helpers.count_constrained_exhaustive(z), (f1, f2)
                    zones += 1
    assert zones == 644


def test_constrained_count_matches_the_prediction_at_target_finals():
    for n1, n2 in itertools.product(range(2, 9), repeat=2):
        z = final_zone(n1, n2, {n1 - 1}, {0})
        assert count_constrained(z) == predicted_complexity(n1, n2), (n1, n2)


def test_constrained_count_is_maximal_at_target_among_proper_pairs():
    n1 = n2 = 3
    target = count_constrained(final_zone(n1, n2, {n1 - 1}, {0}))
    for f1_bits in range(1, (1 << n1) - 1):
        for f2_bits in range(1, (1 << n2) - 1):
            f1 = {q for q in range(n1) if f1_bits >> q & 1}
            f2 = {q for q in range(n2) if f2_bits >> q & 1}
            assert count_constrained(final_zone(n1, n2, f1, f2)) <= target, (f1, f2)


def test_equal_saturation_implies_language_equivalence():
    # the sound half of the saturation story, on accessible star-of-xor states
    for n1, n2 in [(2, 2), (2, 3)]:
        m1, m2 = monster2(MonsterSpec.pair(n1, n2, {n1 - 1}, {0}))
        s = stx(m1, m2)
        part = nerode_partition(s)
        by_saturation = {}
        for q, mask in enumerate(s.state_masks):
            key = saturate_mask(mask, n1, n2)
            by_saturation.setdefault(key, set()).add(part.class_of[q])
        for key, classes in by_saturation.items():
            assert len(classes) == 1, f"saturation {key} spans classes {classes}"


def test_language_partition_merges_exactly_the_empty_and_seed_states():
    # measured reality, frozen: the language partition has one class fewer
    # than the saturation partition, merging the empty subset with the seed
    # singleton {(0,0)}; every other saturation class is a language class
    for n1, n2 in [(2, 2), (2, 3), (3, 3)]:
        m1, m2 = monster2(MonsterSpec.pair(n1, n2, {n1 - 1}, {0}))
        s = stx(m1, m2)
        part = nerode_partition(s)
        sat_blocks = {}
        for q, mask in enumerate(s.state_masks):
            key = saturate_mask(mask, n1, n2)
            sat_blocks.setdefault(key, set()).add(q)
        sat_partition = {frozenset(b) for b in sat_blocks.values()}
        nerode_blocks = {frozenset(b) for b in helpers.blocks(part)}
        assert len(sat_partition) == len(nerode_blocks) + 1, (n1, n2)
        empty_state = s.state_masks.tolist().index(0)
        seed_state = s.state_masks.tolist().index(1)
        merged = frozenset(
            sat_blocks[0] | sat_blocks[1]
        )
        assert merged in nerode_blocks, (n1, n2)
        assert nerode_blocks - {merged} == sat_partition - {
            frozenset(sat_blocks[0]),
            frozenset(sat_blocks[1]),
        }, (n1, n2)
        assert part.class_of[empty_state] == part.class_of[seed_state]


def test_transition_compatibility_with_single_closure_steps():
    # if t2 adds one rectangle-completing cell to t1 then, letter by letter,
    # the successors are equal or again one closure step apart, and the two
    # tableaux agree on finality
    n1 = n2 = 2
    m1, m2 = monster2(MonsterSpec.pair(2, 2, {1}, {0}))
    s = star_modifier(xor_modifier(m1, m2), full=True)
    rows = s.delta.tolist()
    z = final_zone(2, 2, {1}, {0})

    def one_step(a_mask, b_mask):
        extra = b_mask & ~a_mask
        if b_mask | a_mask != b_mask or bin(extra).count("1") != 1:
            return False
        x2, y2 = divmod(extra.bit_length() - 1, n2)
        corners = (
            cells_mask(n2, [(x2, y), (x, y2), (x, y)])
            for x in range(n1)
            for y in range(n2)
            if x != x2 and y != y2
        )
        return any(a_mask & c == c for c in corners)

    for a_mask in range(16):
        for b_mask in range(16):
            if not one_step(a_mask, b_mask):
                continue
            assert bool(a_mask & z.zone) == bool(b_mask & z.zone), (a_mask, b_mask)
            for j in range(s.letter_count):
                sa, sb = rows[a_mask][j], rows[b_mask][j]
                assert sa == sb or one_step(sa, sb), (a_mask, b_mask, j)

