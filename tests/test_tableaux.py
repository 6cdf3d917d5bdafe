"""Tableau predicates, saturation, and the counting machinery."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from starxor import (
    MonsterSpec,
    Tableau,
    count_constrained,
    count_rtf,
    count_rtf_pinned,
    final_zone,
    has_right_triangle,
    is_accessible_state,
    is_final,
    monster2,
    nerode_partition,
    predicted_complexity,
    render_tableau,
    rows_equal_or_disjoint,
    saturate,
    stx,
)
from starxor.tableaux import _count_profile, cell_bit


@st.composite
def tableaux(draw, max_side=4):
    n1 = draw(st.integers(0, max_side))
    n2 = draw(st.integers(0, max_side))
    mask = draw(st.integers(0, (1 << (n1 * n2)) - 1))
    return Tableau(n1, n2, mask)


def test_cell_bit_is_row_major():
    assert cell_bit(0, 0, 3) == 0
    assert cell_bit(1, 0, 3) == 3
    assert cell_bit(2, 1, 3) == 7


def test_tableau_accessors():
    t = Tableau.from_cells(2, 3, [(0, 1), (1, 2)])
    assert t.cells == (1 << 1) | (1 << 5)
    assert t.has_cell(0, 1) and not t.has_cell(1, 1)
    assert t.row(0) == 0b010 and t.row(1) == 0b100
    assert t.cell_list() == ((0, 1), (1, 2))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(2, 2, 1 << 4)
    with pytest.raises(ValueError):
        Tableau.from_cells(2, 2, [(2, 0)])


def test_final_zone_is_the_exclusive_or_of_bands():
    z = final_zone(2, 2, {1}, {0})
    assert z.zone == 0b1001  # cells (0,0) and (1,1)
    for x in range(2):
        for y in range(2):
            t = Tableau.from_cells(2, 2, [(x, y)])
            assert is_final(t, z) == ((x in {1}) != (y in {0}))


def test_final_zone_validates_ranges():
    with pytest.raises(ValueError):
        final_zone(2, 2, {2}, set())


def test_dimension_mismatch_is_rejected():
    t = Tableau(2, 2, 0)
    z = final_zone(2, 3, {1}, {0})
    with pytest.raises(ValueError):
        is_final(t, z)
    with pytest.raises(ValueError):
        is_accessible_state(t, z)
    with pytest.raises(ValueError):
        render_tableau(t, z)


def test_accessibility_predicate():
    z = final_zone(2, 2, {1}, {0})
    assert is_accessible_state(Tableau(2, 2, 0), z)
    assert is_accessible_state(Tableau.from_cells(2, 2, [(0, 1)]), z)
    assert is_accessible_state(Tableau.from_cells(2, 2, [(0, 0), (1, 1)]), z)
    assert not is_accessible_state(Tableau.from_cells(2, 2, [(1, 1)]), z)


def test_right_triangle_detection():
    three_corners = Tableau.from_cells(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert has_right_triangle(three_corners)
    assert not rows_equal_or_disjoint(three_corners)
    rectangle = Tableau.from_cells(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not has_right_triangle(rectangle)
    assert rows_equal_or_disjoint(rectangle)
    single_row = Tableau.from_cells(1, 4, [(0, 0), (0, 2)])
    assert not has_right_triangle(single_row)


def test_the_two_rtf_predicates_agree_exhaustively():
    for n1, n2 in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
        for mask in range(1 << (n1 * n2)):
            t = Tableau(n1, n2, mask)
            assert has_right_triangle(t) == (not rows_equal_or_disjoint(t)), t


def test_saturate_completes_rectangles():
    t = Tableau.from_cells(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert saturate(t).cells == 0b1111
    chain = Tableau.from_cells(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert saturate(chain) == Tableau.from_cells(
        3, 3, [(x, y) for x in range(3) for y in range(2)]
    )


@settings(max_examples=200, deadline=None)
@given(tableaux())
def test_saturate_is_an_rtf_closure(t):
    s = saturate(t)
    assert s.cells & t.cells == t.cells  # extensive
    assert rows_equal_or_disjoint(s)
    assert saturate(s) == s  # idempotent
    if rows_equal_or_disjoint(t):
        assert s == t


@settings(max_examples=200, deadline=None)
@given(tableaux(max_side=3), st.data())
def test_saturate_is_monotone(t, data):
    bigger = Tableau(t.n1, t.n2, t.cells | data.draw(st.integers(0, (1 << (t.n1 * t.n2)) - 1)))
    small, large = saturate(t), saturate(bigger)
    assert small.cells & large.cells == small.cells


def test_saturation_preserves_zone_freedom_and_the_corner():
    z = final_zone(3, 3, {2}, {0})
    for mask in range(1 << 9):
        t = Tableau(3, 3, mask)
        if is_accessible_state(t, z):
            assert is_accessible_state(saturate(t), z)


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
            key = saturate(Tableau(n1, n2, mask)).cells
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
            key = saturate(Tableau(n1, n2, mask)).cells
            sat_blocks.setdefault(key, set()).add(q)
        sat_partition = {frozenset(b) for b in sat_blocks.values()}
        nerode_blocks = {frozenset(b) for b in part.blocks()}
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
    s = stx(m1, m2, full=True)
    rows = s.delta.tolist()
    z = final_zone(2, 2, {1}, {0})

    def one_step(a_mask, b_mask):
        extra = b_mask & ~a_mask
        if b_mask | a_mask != b_mask or bin(extra).count("1") != 1:
            return False
        t1 = Tableau(n1, n2, a_mask)
        x2, y2 = divmod(extra.bit_length() - 1, n2)
        return any(
            t1.has_cell(x2, y) and t1.has_cell(x, y2) and t1.has_cell(x, y)
            for x in range(n1)
            for y in range(n2)
            if x != x2 and y != y2
        )

    for a_mask in range(16):
        for b_mask in range(16):
            if not one_step(a_mask, b_mask):
                continue
            za = is_final(Tableau(n1, n2, a_mask), z)
            zb = is_final(Tableau(n1, n2, b_mask), z)
            assert za == zb, (a_mask, b_mask)
            for j in range(s.letter_count):
                sa, sb = rows[a_mask][j], rows[b_mask][j]
                assert sa == sb or one_step(sa, sb), (a_mask, b_mask, j)


def test_render_marks_cells_and_zone():
    t = Tableau.from_cells(2, 2, [(0, 0)])
    z = final_zone(2, 2, {1}, {0})
    assert render_tableau(t, z) == "[×] · \n · [·]"
    assert render_tableau(t) == " ×  · \n ·  · "
