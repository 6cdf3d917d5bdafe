"""Star, xor, and star-of-xor as the star of the xor product."""

import functools
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
from starxor import (
    Dfa,
    LimitExceeded,
    MonsterSpec,
    monster1,
    monster2,
    star_modifier,
    stx,
    witness_pair,
    xor_modifier,
)
from starxor import automata, modifiers
from starxor.tableaux import saturate_masks


def test_star_of_the_two_state_monster_full_table():
    s = star_modifier(monster1(2, {1}), full=True)
    # states by mask: 0 empty, 1 {0}, 2 {1}, 3 {0,1}
    assert s.state_masks.tolist() == [0, 1, 2, 3]
    assert s.delta.tolist() == [[1, 1, 3, 3], [1, 1, 3, 3], [1, 3, 1, 3], [1, 3, 3, 3]]
    assert s.finals.tolist() == [0, 2, 3]
    assert s.initial == 0


def test_star_lazy_builds_only_the_forward_closure():
    s = star_modifier(monster1(2, {1}))
    # the subset {1} is never produced from the empty set
    assert s.state_masks.tolist() == [0, 1, 3]
    assert s.state_count == 3


def test_star_empty_set_is_final():
    s = star_modifier(monster1(2, {1}))
    assert 0 in s.finals
    assert helpers.accepts(s, ())


def test_star_empty_set_row_seeds_on_final_image():
    s = star_modifier(monster1(2, {1}), full=True)
    # from the empty set: letter [00] moves the initial state to 0, outside
    # the finals, so no seed; letter [10] moves it to 1, a final, so the
    # initial state joins
    assert s.delta[0][0] == 1
    assert s.delta[0][2] == 3


def test_star_respects_nonzero_initial_states():
    a = Dfa(2, 2, 1, frozenset({0}), ((1, 0), (0, 1)))
    s = star_modifier(a)
    for word in helpers.all_words(2, 6):
        assert helpers.accepts(s, word) == helpers.star_membership(a, word), word


def test_star_language_matches_the_split_oracle():
    rng = random.Random(31)
    for _ in range(25):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        s = star_modifier(a)
        for word in helpers.all_words(a.letter_count, 5):
            assert helpers.accepts(s, word) == helpers.star_membership(a, word), (a, word)


def test_star_state_cap():
    with pytest.raises(LimitExceeded):
        star_modifier(monster1(3, {0}), full=True, cap_states=7)
    with pytest.raises(LimitExceeded):
        star_modifier(monster1(3, {0}), cap_states=3)


def test_xor_finals_are_the_symmetric_difference():
    a = Dfa(1, 2, 0, frozenset({1}), ((1,), (1,)))
    b = Dfa(1, 2, 0, frozenset({0}), ((1,), (1,)))
    p = xor_modifier(a, b)
    assert p.state_count == 4
    # pair (x, y) is state x*2+y
    assert p.finals.tolist() == [0, 3]
    assert p.initial == 0


def test_xor_is_the_symmetric_difference_language():
    rng = random.Random(47)
    for _ in range(25):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        b = helpers.random_dfa_over(rng, a.letter_count, max_states=3)
        p = xor_modifier(a, b)
        for word in helpers.all_words(a.letter_count, 5):
            assert helpers.accepts(p, word) == (helpers.accepts(a, word) != helpers.accepts(b, word))


def test_xor_needs_a_common_alphabet():
    a = Dfa(1, 1, 0, frozenset(), ((0,),))
    b = Dfa(2, 1, 0, frozenset(), ((0, 0),))
    with pytest.raises(ValueError):
        xor_modifier(a, b)
    with pytest.raises(ValueError):
        stx(a, b)


def test_stx_equals_star_of_xor_on_every_final_pair():
    # reachable tables over the 2 x 2 grid, all 16 final pairs
    for f1_bits, f2_bits in itertools.product(range(4), repeat=2):
        f1 = {q for q in range(2) if f1_bits >> q & 1}
        f2 = {q for q in range(2) if f2_bits >> q & 1}
        m1, m2 = monster2(MonsterSpec.pair(2, 2, f1, f2))
        direct = stx(m1, m2)
        composed = star_modifier(xor_modifier(m1, m2))
        assert np.array_equal(direct.delta, composed.delta), (f1, f2)
        assert np.array_equal(direct.finals, composed.finals), (f1, f2)
        assert np.array_equal(direct.state_masks, composed.state_masks), (f1, f2)


def test_stx_equals_star_of_xor_lazily():
    m1, m2 = monster2(MonsterSpec.pair(2, 3, {1}, {0}))
    direct = stx(m1, m2)
    composed = star_modifier(xor_modifier(m1, m2))
    assert np.array_equal(direct.delta, composed.delta)
    assert np.array_equal(direct.state_masks, composed.state_masks)
    assert np.array_equal(direct.finals, composed.finals)


def test_stx_masks_are_row_major_grid_cells():
    m1, m2 = monster2(MonsterSpec.pair(2, 2, {1}, {0}))
    s = stx(m1, m2)
    assert s.state_masks.item(0) == 0
    # every nonempty reachable subset that meets the zone contains cell (0, 0)
    zone = sum(
        1 << (x * 2 + y)
        for x in range(2)
        for y in range(2)
        if (x in {1}) != (y in {0})
    )
    for mask in s.state_masks:
        assert not mask & zone or mask & 1


def test_stx_state_cap():
    m1, m2 = monster2(MonsterSpec.pair(2, 2, {1}, {0}))
    with pytest.raises(LimitExceeded):
        stx(m1, m2, cap_states=5)
    with pytest.raises(LimitExceeded):
        star_modifier(xor_modifier(m1, m2), full=True, cap_states=15)


def test_modifiers_commute_with_renamings_spot_checks():
    rng = random.Random(101)
    for _ in range(20):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        phi = helpers.random_renaming(rng, a.letter_count)
        assert helpers.check_1_uniformity(star_modifier, a, phi)
    for _ in range(20):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        b = helpers.random_dfa_over(rng, a.letter_count, max_states=3)
        phi = helpers.random_renaming(rng, a.letter_count)
        assert helpers.check_1_uniformity(xor_modifier, (a, b), phi)
        assert helpers.check_1_uniformity(stx, (a, b), phi)


def test_minimized_star_still_recognizes_the_star():
    rng = random.Random(77)
    from starxor import minimize

    for _ in range(10):
        a = helpers.random_dfa(rng, max_states=3, max_letters=2)
        m = minimize(star_modifier(a))
        for word in helpers.all_words(a.letter_count, 6):
            assert helpers.accepts(m, word) == helpers.star_membership(a, word)


def _stx(a, b, full=False):
    # stx builds the reachable table; the full one is the star of the product
    return star_modifier(xor_modifier(a, b), full=True) if full else stx(a, b)


def _tables(s):
    return s.delta.tolist(), s.state_masks.tolist(), s.finals.tolist(), s.initial


def _reference_tables(a, full=False):
    delta, masks, finals, initial = helpers.subset_bfs_reference(a, full)
    return [list(row) for row in delta], list(masks), sorted(finals), initial


def _assert_no_spare_capacity(s):
    for arr, size in [(s.delta, s.state_count * s.letter_count), (s.state_masks, s.state_count)]:
        while arr.base is not None:
            arr = arr.base
        assert arr.size == size


def _oracle_pairs():
    for n1, n2 in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4)]:
        yield f"witness ({n1},{n2})", witness_pair(n1, n2), False
    for f1, f2 in [({2}, {0}), ({0}, {0}), ({1, 2}, {0, 2}), (set(), {1}), ({0, 1, 2}, set())]:
        yield f"monster (3,3) {f1} {f2}", monster2(MonsterSpec.pair(3, 3, f1, f2)), False
    yield "monster (2,3) full", monster2(MonsterSpec.pair(2, 3, {1}, {0})), True


def test_stx_numbering_matches_the_reference_bfs():
    # same state numbers, masks, finals and initial as a queue-driven BFS
    for name, (a, b), full in _oracle_pairs():
        expected = _reference_tables(helpers.xor_product_reference(a, b), full)
        assert _tables(_stx(a, b, full)) == expected, name


def test_random_star_and_stx_tables_match_the_reference_bfs():
    rng = random.Random(4242)
    for _ in range(200):
        a = helpers.random_dfa(rng, max_states=4, max_letters=4)
        b = helpers.random_dfa_over(rng, a.letter_count, max_states=3)
        product = helpers.xor_product_reference(a, b)
        for full in (False, True):
            assert _tables(star_modifier(a, full=full)) == _reference_tables(a, full), a
            assert _tables(_stx(a, b, full)) == _reference_tables(product, full), (a, b)


@pytest.mark.parametrize(
    "block_entries, table_entries, width",
    [(1, 2**22, 6), (7, 1000, 4), (40, 500, 2), (64, 1, 1)],
)
def test_small_blocks_and_narrow_tables_keep_the_numbering(
    monkeypatch, block_entries, table_entries, width
):
    # frontier blocks that split a level, and image tables read in halves of
    # 6 bits over 12 or 5 over 9 (a width that does not divide n), or 4, 3,
    # 2 or 1 bits at a time, must not change a single table entry; the table
    # is cut to its rows, with no spare capacity left. width is the chunk
    # width at witness (4,3), 12 bits; at (3,3), 9 bits, it is width_33.
    width_33 = {2**22: 5, 1000: 3, 500: 3, 1: 1}[table_entries]
    monkeypatch.setattr(automata, "BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(modifiers, "TABLE_ENTRIES", table_entries)
    for n1, n2, width in [(3, 3, width_33), (4, 3, width)]:
        a, b = witness_pair(n1, n2)
        product = helpers.xor_product_reference(a, b)
        assert modifiers._image_tables(product, np.int32)[1] == width
        s = stx(a, b)
        assert _tables(s) == _reference_tables(product), (n1, n2)
        _assert_no_spare_capacity(s)
    a, b = monster2(MonsterSpec.pair(2, 3, {1}, {0}))
    expected = _reference_tables(helpers.xor_product_reference(a, b), full=True)
    s = _stx(a, b, full=True)
    assert _tables(s) == expected
    _assert_no_spare_capacity(s)


@pytest.mark.parametrize(
    "pair, full",
    [
        (witness_pair(4, 3), False),
        (monster2(MonsterSpec.pair(2, 3, {1}, {0})), True),
    ],
    ids=["witness (4,3)", "monster (2,3) full"],
)
def test_dense_and_sorted_maps_give_the_same_tables(monkeypatch, pair, full):
    # TABLE_ENTRIES at 2^n takes the dense mask map, one below it the sorted
    # one; only the sorted map inserts into its known masks
    a, b = pair
    product = helpers.xor_product_reference(a, b)
    n = product.state_count
    inserts = []
    insert = np.insert
    monkeypatch.setattr(np, "insert", lambda *args: inserts.append(1) or insert(*args))
    runs = []
    for bound in (1 << n, (1 << n) - 1):
        monkeypatch.setattr(modifiers, "TABLE_ENTRIES", bound)
        inserts.clear()
        s = _stx(a, b, full)
        runs.append((_tables(s), len(inserts) > 0))
        _assert_no_spare_capacity(s)
    assert [sorted_map for _, sorted_map in runs] == [False, True]
    assert runs[0][0] == runs[1][0] == _reference_tables(product, full)


@pytest.mark.parametrize("sorted_map", [False, True], ids=["dense map", "sorted map"])
def test_normalize_numbers_the_normalized_images(monkeypatch, sorted_map):
    # a breadth-first search over saturated masks, read off the full table,
    # whose state index is the mask: same masks, order, rows and finals
    pairs = [
        witness_pair(3, 3),
        witness_pair(4, 3),
        monster2(MonsterSpec.pair(2, 3, {1}, {0})),
        monster2(MonsterSpec.pair(3, 3, {0, 1}, {1})),
    ]
    for a, b in pairs:
        n1, n2 = a.state_count, b.state_count
        whole = _stx(a, b, full=True)
        sat = saturate_masks(whole.state_masks, n1, n2)
        order, index = [0], {0: 0}
        for mask in order:
            for image in sat[whole.delta[mask]].tolist():
                if image not in index:
                    index[image] = len(order)
                    order.append(image)
        if sorted_map:
            monkeypatch.setattr(modifiers, "TABLE_ENTRIES", (1 << n1 * n2) - 1)
        q = stx(a, b, normalize=functools.partial(saturate_masks, n1=n1, n2=n2))
        assert q.state_masks.tolist() == order
        assert np.array_equal(q.state_masks[q.delta], sat[whole.delta[q.state_masks]])
        assert np.array_equal(q.finals, np.flatnonzero(np.isin(q.state_masks, whole.finals)))
        _assert_no_spare_capacity(q)
        # normalizing to the same masks changes no byte of the table
        assert _tables(stx(a, b, normalize=lambda masks: masks)) == _tables(stx(a, b))
        monkeypatch.undo()


def _spying_saturation(n1, n2, seen):
    # saturation that records every block of masks it is handed
    def normalize(masks):
        seen.append(np.array(masks))
        return saturate_masks(masks, n1, n2)

    return normalize


@pytest.mark.parametrize(
    "pair",
    [witness_pair(5, 4), monster2(MonsterSpec.pair(3, 3, {2}, {0}))],
    ids=["witness (5,4)", "monster (3,3)"],
)
def test_dense_map_normalizes_each_image_once(pair):
    # the dense map remembers each image's state, so a repeated image, or
    # one that is already a state's mask, never reaches normalize again;
    # a search that normalized every image would hand over one mask per
    # transition, 3,369 x 17 = 57,273 at witness (5,4)
    a, b = pair
    n1, n2 = a.state_count, b.state_count
    seen = []
    q = stx(a, b, normalize=_spying_saturation(n1, n2, seen))
    handed = np.concatenate(seen)
    assert len(np.unique(handed)) == len(handed) < q.state_count * q.letter_count
    # what is handed over are images, and an image not handed over is a
    # state's mask, numbered before the image first came up
    images = set(modifiers._star_images(xor_modifier(a, b), np.int32)[0](q.state_masks).flat)
    assert set(handed.tolist()) <= images <= set(handed.tolist()) | set(q.state_masks.tolist())


@pytest.mark.parametrize(
    "pair",
    [witness_pair(4, 3), witness_pair(5, 4), monster2(MonsterSpec.pair(3, 3, {0, 1}, {1}))],
    ids=["witness (4,3)", "witness (5,4)", "monster (3,3)"],
)
def test_saturation_is_idempotent_on_the_quotient_masks(pair):
    # the memo reads a saturated mask's own entry as its state, which is
    # sound only because saturation fixes the masks it returns
    a, b = pair
    n1, n2 = a.state_count, b.state_count
    q = stx(a, b, normalize=functools.partial(saturate_masks, n1=n1, n2=n2))
    assert np.array_equal(saturate_masks(q.state_masks, n1, n2), q.state_masks)
    images = q.state_masks[q.delta].reshape(-1)
    assert np.array_equal(saturate_masks(images, n1, n2), images)


def test_full_table_takes_no_normalize():
    # every subset is a state of the full table, so normalize would be skipped
    product = xor_modifier(*witness_pair(2, 2))
    with pytest.raises(ValueError, match="full=True"):
        star_modifier(product, full=True, normalize=lambda masks: masks)


def test_dense_and_sorted_maps_agree_where_masks_reach_bit_21(monkeypatch):
    # 22 operand states is the widest the dense map takes at the default
    # TABLE_ENTRIES; its int32 masks must come out as the sorted map's int64
    a = helpers.cycle_dfa(22)
    dense = star_modifier(a)
    monkeypatch.setattr(modifiers, "TABLE_ENTRIES", 2**22 - 1)
    sorted_map = star_modifier(a)
    assert dense.state_masks.dtype == sorted_map.state_masks.dtype == np.int64
    assert np.bitwise_and(dense.state_masks, 1 << 21).any()
    assert dense == sorted_map
    assert _tables(dense) == _reference_tables(a)


def test_dense_map_adds_no_traced_allocation(monkeypatch):
    # 2^20 masks of one letter, 362 of them reachable: beside what the sorted
    # map's run allocates, the dense map's run holds its image tables as
    # int32 instead of int64 and saves four bytes on each entry of the mask
    # queue's first block, also int32 instead of int64; the map itself is a
    # mapping, not a numpy allocation, so nothing else differs. 64 KiB
    # covers the interpreter's own objects
    def peak() -> int:
        tracemalloc.start()
        try:
            assert star_modifier(helpers.cycle_dfa(20)).state_count == 362
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cycle = helpers.cycle_dfa(20)
    dense_tables, width = modifiers._image_tables(cycle, np.int32)
    assert width == 10
    dense = peak()
    monkeypatch.setattr(modifiers, "TABLE_ENTRIES", 2**20 - 1)
    sparse_tables, width = modifiers._image_tables(cycle, np.int64)
    assert width == 10
    sparse = peak()
    extra = dense_tables.nbytes - sparse_tables.nbytes - 4 * automata.block_rows(1)
    assert abs(dense - sparse - extra) < 2**16


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from procfs")
def test_dense_map_backs_only_the_pages_it_writes():
    # the 22-bit dense map spans 16 MiB, but a sparse search writes a few of
    # its pages (it grew the peak by 16 MiB when np.full filled the map).
    # Measured in a fresh process, whose peak no earlier test has raised,
    # as the high-water mark of its own address space (VmHWM): a child's
    # ru_maxrss would not do, since Linux starts it at the high-water mark
    # of the address space it was exec'd from, here the test run's
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = (
        "import helpers\n"
        "from starxor import star_modifier\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "star_modifier(helpers.cycle_dfa(3))\n"
        "cycle = helpers.cycle_dfa(22)\n"
        "before = peak_kib()\n"
        "states = star_modifier(cycle).state_count\n"
        "print(states, peak_kib() - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    states, grown_kib = map(int, proc.stdout.split())
    assert modifiers._mask_dtype(22) is np.int32
    assert states == 442
    assert grown_kib < 4 * 1024


def test_unique_first_is_np_unique():
    rng = np.random.default_rng(7)
    for size in (0, 1, 2, 50, 5000):
        values = rng.integers(0, max(1, size // 3), size).astype(np.int64)
        expected = np.unique(values, return_index=True, return_inverse=True)
        got = automata.unique_first(values)
        for e, g in zip(expected, got):
            assert np.array_equal(e.reshape(-1), g), size
        # half the bytes of np.unique's intp inverse
        assert got[2].dtype == np.int32


def test_stx_transition_cap(monkeypatch):
    m1, m2 = monster2(MonsterSpec.pair(2, 2, {1}, {0}))

    def capped(cap, full=False):
        monkeypatch.setattr(modifiers, "TRANSITION_CAP", cap)
        return _stx(m1, m2, full)

    # 16 letters: one row fits a cap of 16 transitions, the first block's
    # successors do not
    with pytest.raises(LimitExceeded, match="exceed the cap of 16 transitions"):
        capped(16)
    with pytest.raises(LimitExceeded, match="exceed the cap of 15 transitions"):
        capped(15)
    with pytest.raises(LimitExceeded, match="16 subset states x 16 letters"):
        capped(16 * 16 - 1, full=True)
    assert capped(16 * 16, full=True).state_count == 16
    reachable = stx(m1, m2).state_count
    assert capped(reachable * 16).state_count == reachable


def test_full_checks_the_caps_before_allocating(monkeypatch):
    # 2^20 subsets of one letter are one transition too many: the cap fires
    # before the 12 MB of masks and ids for them are allocated
    monkeypatch.setattr(modifiers, "TRANSITION_CAP", 2**20 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="1048576 subset states x 1 letters"):
            star_modifier(helpers.cycle_dfa(20), full=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_operands_beyond_63_states_are_refused_before_any_bfs():
    with pytest.raises(LimitExceeded, match="64 operand states exceed the limit of 63"):
        star_modifier(helpers.cycle_dfa(64))
    with pytest.raises(LimitExceeded, match="64 operand states exceed the limit of 63"):
        stx(helpers.cycle_dfa(8), helpers.cycle_dfa(8))
    # bit 62, the highest an int64 mask can hold, still works
    s = star_modifier(helpers.cycle_dfa(63))
    assert s.state_masks.dtype == np.int64
    assert s.state_masks.tolist()[:63] == [0] + [1 << q for q in range(1, 62)] + [1 << 62 | 1]
    assert _tables(s) == _reference_tables(helpers.cycle_dfa(63))
