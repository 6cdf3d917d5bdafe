"""DFA toolkit: accessibility, minimization, equivalence, renaming, formats."""

import functools
import itertools
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from starxor import (
    Dfa,
    MonsterSpec,
    accessible_part,
    export_dot,
    export_json,
    import_json,
    is_equivalent,
    minimize,
    monster2,
    nerode_partition,
    preimage_by_renaming,
    star_modifier,
    stx,
    witness_pair,
    xor_modifier,
)
from starxor import automata
from starxor.tableaux import saturate_masks


@st.composite
def dfas(draw, max_states=5, max_letters=3, width=None):
    n = draw(st.integers(1, max_states))
    if width is None:
        width = draw(st.integers(1, max_letters))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(width))
        for _ in range(n)
    )
    finals = frozenset(
        q for q in range(n) if draw(st.booleans())
    )
    return Dfa(width, n, draw(st.integers(0, n - 1)), finals, delta)


def test_validation_catches_shape_errors():
    with pytest.raises(ValueError):
        Dfa(1, 0, 0, frozenset(), ())
    with pytest.raises(ValueError):
        Dfa(1, 2, 2, frozenset(), ((0,), (1,)))
    with pytest.raises(ValueError):
        Dfa(1, 2, 0, frozenset({2}), ((0,), (1,)))
    with pytest.raises(ValueError):
        Dfa(2, 2, 0, frozenset(), ((0,), (1,)))
    with pytest.raises(ValueError):
        Dfa(1, 2, 0, frozenset(), ((0,), (2,)))


@pytest.mark.parametrize(
    "finals",
    [
        frozenset({3, 0}),
        [3, 0, 3, 0],
        np.array([0, 3], dtype=np.int64),
        np.array([3, 0, 0], dtype=np.uint8),
        np.array([3, 0, 3, 3, 0], dtype=np.int64),
    ],
)
def test_finals_are_a_sorted_read_only_int32_array(finals):
    a = Dfa(1, 4, 0, finals, ((1,), (2,), (3,), (0,)))
    expected = Dfa(1, 4, 0, (0, 3), ((1,), (2,), (3,), (0,)))
    assert a == expected and hash(a) == hash(expected)
    assert a.finals.dtype == np.int32 and a.finals.tolist() == [0, 3]
    with pytest.raises(ValueError):
        a.finals[0] = 1
    empty = Dfa(1, 4, 0, [], ((1,), (2,), (3,), (0,)))
    assert empty == Dfa(1, 4, 0, frozenset(), ((1,), (2,), (3,), (0,)))
    assert empty.finals.dtype == np.int32 and empty.finals.shape == (0,)
    assert not empty.finals.flags.writeable
    with pytest.raises(ValueError):
        Dfa(1, 4, 0, [0, 4], ((1,), (2,), (3,), (0,)))


def test_delta_is_a_read_only_int32_table():
    a = Dfa(2, 2, 0, frozenset({1}), ((0, 1), (1, 1)))
    assert a.delta.dtype == np.int32 and a.delta.shape == (2, 2)
    with pytest.raises(ValueError):
        a.delta[0, 0] = 1
    with pytest.raises(ValueError):
        Dfa(1, 2, 0, frozenset(), ((0.5,), (1.0,)))
    with pytest.raises(ValueError):
        Dfa(1, 2, 0, frozenset(), ((0,), (-1,)))
    with pytest.raises(ValueError):
        Dfa(2, 2, 0, frozenset(), ((0, 1), (1,)))


@pytest.mark.parametrize(
    "dtype, target",
    [
        *((np.int32, t) for t in (-1, -2**31, 3, 2**31 - 1)),
        *((np.int64, t) for t in (-1, -2**40, 3, 2**40)),
        (np.uint8, 3),
        (np.uint8, 255),
    ],
)
def test_delta_out_of_range_is_refused_in_every_dtype(dtype, target):
    # an int32 table is checked by one uint32 reduction, the others by both bounds
    table = np.array([[0, 1], [2, 1], [1, 0]], dtype=dtype)
    assert Dfa(2, 3, 0, (), table).delta.tolist() == table.tolist()
    table[1, 0] = target
    with pytest.raises(ValueError, match="delta targets a state out of range"):
        Dfa(2, 3, 0, (), table)


def test_equality_is_by_value():
    a = Dfa(2, 2, 0, frozenset({1}), ((0, 1), (1, 1)))
    same = Dfa(2, 2, 0, frozenset({1}), np.array([[0, 1], [1, 1]], dtype=np.int64))
    assert a == same and hash(a) == hash(same)
    assert a != Dfa(2, 2, 0, frozenset({1}), ((0, 1), (1, 0)))
    assert a != Dfa(2, 2, 0, frozenset({0}), ((0, 1), (1, 1)))
    assert a != Dfa(1, 2, 0, frozenset({1}), ((0,), (1,)))
    assert a != Dfa(2, 2, 1, frozenset({1}), ((0, 1), (1, 1)))


def test_accessible_part_drops_the_unreachable():
    a = Dfa(1, 3, 0, frozenset({1, 2}), ((1,), (0,), (2,)))
    b = accessible_part(a)
    assert b == helpers.accessible_reference(a)
    assert b.state_count == 2
    assert b.finals.tolist() == [1]
    assert b.delta.tolist() == [[1], [0]]


def test_accessible_part_keeps_breadth_first_order():
    # breadth first from state 2: old states 2, 3, 1, 0 become 0, 1, 2, 3
    a = Dfa(2, 4, 2, frozenset({1}), ((0, 1), (2, 3), (3, 1), (0, 0)))
    b = accessible_part(a)
    assert b == helpers.accessible_reference(a)
    assert b.delta.tolist() == [[1, 2], [3, 3], [0, 1], [3, 2]]
    assert b.finals.tolist() == [2]
    assert b.initial == 0


@settings(max_examples=150, deadline=None)
@given(dfas(max_states=8))
def test_accessible_part_matches_the_queue_bfs(a):
    assert accessible_part(a) == helpers.accessible_reference(a)


def test_accessible_part_in_one_row_blocks(monkeypatch):
    monkeypatch.setattr(automata, "BLOCK_ENTRIES", 1)
    rng = random.Random(11)
    for _ in range(50):
        a = helpers.random_dfa(rng, max_states=7, max_letters=3)
        b = accessible_part(a)
        assert b == helpers.accessible_reference(a)
        assert nerode_partition(b).class_count == helpers.distinguishable_classes(a)


def test_accessible_part_on_a_wide_alphabet():
    # the (2,3) monster's 108 letters send most rows to a few states, so each
    # block's unseen targets repeat many times
    a = stx(*monster2(MonsterSpec.pair(2, 3, {1}, {0})))
    shuffled = Dfa(a.letter_count, a.state_count, a.state_count - 1, a.finals, a.delta[::-1])
    for b in (a, shuffled):
        assert accessible_part(b) == helpers.accessible_reference(b)


# 4 states over 2 letters, accessible and numbered breadth first
BFS_NUMBERED = ((1, 2), (3, 0), (3, 1), (2, 0))


@pytest.mark.parametrize("block_entries", [None, 1])
@pytest.mark.parametrize(
    "initial, delta",
    [
        pytest.param(1, BFS_NUMBERED, id="initial state not 0"),
        pytest.param(0, ((2, 1), (3, 2), (3, 0), (1, 0)), id="states 1 and 2 swapped"),
        pytest.param(0, BFS_NUMBERED + ((0, 4),), id="unreachable last state"),
        pytest.param(0, ((1, 0), (0, 1), (2, 0)), id="state first named in its own row"),
        pytest.param(0, ((2, 1), (0, 0), (0, 0)), id="entry two above the maximum"),
        pytest.param(0, ((1, 1), (3, 2), (0, 0), (0, 0)), id="jump at a row start"),
    ],
)
def test_breadth_first_check_rejects(monkeypatch, block_entries, initial, delta):
    # tables one step away from breadth-first numbering, in whole or one-entry blocks
    if block_entries is not None:
        monkeypatch.setattr(automata, "BLOCK_ENTRIES", block_entries)
    a = Dfa(2, len(delta), initial, frozenset({1, 2}), delta)
    assert accessible_part(a) == helpers.accessible_reference(a)


def nerode_peak_bound(n: int, width: int) -> int:
    """Bytes refinement may hold on n states over width letters in uint16 colours.

    Per state, the int32 and uint16 colours, the finality flag and a uint64
    key, and one fill block: the intp copy np.take makes of a row block of
    delta, the uint16 colours gathered from it, the block's five uint64
    words a row and their high halves, and a uint64 hash a row; 64 KiB
    covers the interpreter's own objects.
    """
    rows = automata.block_rows(8 * width)
    assert rows < n
    return n * (4 + 2 + 1 + 8) + rows * (width * (8 + 2) + 2 * 5 * 8 + 8) + 2**16


def test_minimize_makes_no_table_sized_temporary():
    # witness (4,4): 33,792 states over 17 letters, 848 classes. minimize may
    # hold what refinement holds and then the quotient: the class
    # representatives (intp), their rows of delta and those rows' classes
    # (int32 each) and the accessible part's copy of the latter. A copy of
    # delta (2.3 MB) or a search over it does not fit.
    s = stx(*witness_pair(4, 4))
    n, width = s.state_count, s.letter_count
    assert (n, width) == (33792, 17)
    classes = 848
    bound = nerode_peak_bound(n, width) + classes * (8 + 3 * width * 4)
    tracemalloc.start()
    try:
        m = minimize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.state_count == classes
    assert peak < bound
    assert peak + n * width * 4 > bound


@pytest.mark.parametrize(
    "pair",
    [witness_pair(3, 3), monster2(MonsterSpec.pair(2, 3, {1}, {0}))],
    ids=["witness (3,3)", "monster (2,3)"],
)
def test_unreachable_states_leave_the_minimal_table_unchanged(pair):
    # the full table holds all 2^(n1*n2) masks, most of them unreachable
    full = star_modifier(xor_modifier(*pair), full=True)
    reachable = stx(*pair)
    assert full.state_count == 2 ** (pair[0].state_count * pair[1].state_count)
    assert full.state_count > reachable.state_count
    assert minimize(full) == minimize(reachable)


def test_run_and_accepts():
    a = Dfa(2, 2, 0, frozenset({1}), ((0, 1), (1, 0)))
    assert helpers.run(a, ()) == 0
    assert helpers.run(a, (1, 1)) == 0
    assert helpers.accepts(a, (1,)) is True
    assert helpers.accepts(a, (0,)) is False
    with pytest.raises(ValueError):
        helpers.run(a, (2,))


def test_minimize_collapses_twin_states():
    # states 1 and 2 have the same rows and finality
    a = Dfa(1, 3, 0, frozenset({1, 2}), ((1,), (2,), (1,)))
    m = minimize(a)
    assert m.state_count == 2
    assert helpers.same_language(m, a)


def test_minimize_of_empty_and_full_languages():
    empty = Dfa(1, 2, 0, frozenset(), ((1,), (0,)))
    assert minimize(empty).state_count == 1
    full = Dfa(1, 2, 0, frozenset({0, 1}), ((1,), (0,)))
    assert minimize(full).state_count == 1


def test_quotient_by_keys_refuses_what_is_not_a_congruence():
    # 0 -> 1 -> 2 -> 2 on one letter, 2 final
    a = Dfa(1, 3, 0, frozenset({2}), ((1,), (2,), (2,)))
    # {0, 1} respects finality, but 0 steps into it and 1 out of it
    assert helpers.quotient_by_keys(a, np.array([0, 0, 1])) is None
    # {1, 2} is a congruence class that mixes finality
    assert helpers.quotient_by_keys(a, np.array([0, 1, 1])) is None
    q = helpers.quotient_by_keys(a, np.array([9, 5, 7]))
    assert q.state_count == 3
    assert minimize(q) == minimize(a)


def _is_congruence_reference(a, keys):
    rows, finals = a.delta.tolist(), set(a.finals.tolist())
    first = {}
    for q in range(a.state_count):
        p = first.setdefault(keys[q], q)
        if (p in finals) != (q in finals):
            return False
        if any(keys[s] != keys[t] for s, t in zip(rows[p], rows[q])):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(dfas(max_states=6), st.data(), st.sampled_from([1, -1, 2**40]))
def test_quotient_by_keys_accepts_exactly_the_congruences(a, data, scale):
    # negative and wide keys number their classes as small ones do
    n = a.state_count
    keys = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    q = helpers.quotient_by_keys(a, np.array(keys, dtype=np.int64) * scale)
    assert (q is not None) == _is_congruence_reference(a, keys)
    if q is not None:
        assert q.state_count == len(set(keys))
        assert helpers.same_language(q, a)
        assert minimize(q) == minimize(a)


@settings(max_examples=100, deadline=None)
@given(dfas(max_states=8))
def test_quotient_by_the_nerode_classes_is_accepted(a):
    part = nerode_partition(a)
    q = helpers.quotient_by_keys(a, part.class_of)
    assert q.state_count == part.class_count
    assert minimize(q) == minimize(a)


def test_nerode_partition_respects_finality():
    a = Dfa(1, 4, 0, frozenset({2, 3}), ((1,), (2,), (3,), (3,)))
    part = nerode_partition(a)
    class_of, finals = part.class_of.tolist(), a.finals.tolist()
    finals_classes = {class_of[q] for q in finals}
    others = {class_of[q] for q in range(4) if q not in finals}
    assert finals_classes.isdisjoint(others)
    blocks = helpers.blocks(part)
    assert sum(len(b) for b in blocks) == 4


@settings(max_examples=150, deadline=None)
@given(dfas())
def test_minimize_matches_the_pair_marking_oracle(a):
    m = minimize(a)
    assert m.state_count == helpers.distinguishable_classes(a)
    assert helpers.same_language(m, a)
    assert nerode_partition(m).class_count == m.state_count
    # each class's row comes from its first state in the accessible part
    acc = accessible_part(a)
    class_of = nerode_partition(acc).class_of
    _, reps = np.unique(class_of, return_index=True)
    assert np.array_equal(m.delta, class_of[acc.delta[reps]])


@settings(max_examples=150, deadline=None)
@given(dfas(max_states=8), st.sampled_from([None, 1, 7, 40]))
def test_nerode_partition_matches_the_signature_oracle(a, block_entries):
    # the default fill blocks, and blocks of one or a few rows that split
    # delta unevenly
    with pytest.MonkeyPatch.context() as mp:
        if block_entries is not None:
            mp.setattr(automata, "BLOCK_ENTRIES", block_entries)
        part = nerode_partition(a)
        assert part.class_of.tolist() == list(helpers.signature_refinement(a))
        assert part.class_count == part.class_of.max() + 1
        acc = accessible_part(a)
        assert nerode_partition(acc).class_count == helpers.distinguishable_classes(a)


@pytest.mark.parametrize("block_entries", [1, 7, 40, 1000])
def test_nerode_partition_in_small_fill_blocks(monkeypatch, block_entries):
    # 17 letters: one row per fill block up to 40 entries, 7 rows at 1000
    subsets = [stx(*witness_pair(n1, n2)) for n1, n2 in [(3, 3), (4, 3)]]
    expected = [nerode_partition(s).class_of.tolist() for s in subsets]
    monkeypatch.setattr(automata, "BLOCK_ENTRIES", block_entries)
    for s, default in zip(subsets, expected):
        assert nerode_partition(s).class_of.tolist() == default
        assert default == list(helpers.signature_refinement(s))


def test_nerode_partition_keeps_no_second_table():
    # witness (4,4): 33,792 states over 17 letters, 848 classes. Beside the
    # byte-row table (18 uint16 colours a row, padded to five 8-byte words)
    # and the int32 and uint16 colour arrays, refinement may hold one fill
    # block: the intp copy np.take makes of a row block of delta and the
    # uint16 colours gathered from it; 64 KiB covers the interpreter's own
    # objects. A second table, such as the rows gathered in sorted order
    # (1.35 MB) or an intp copy of delta (4.6 MB), does not fit.
    acc = stx(*witness_pair(4, 4))
    n, width = acc.state_count, acc.letter_count
    rows = automata.block_rows(8 * width)
    assert (n, width) == (33792, 17) and rows < n
    bound = n * 5 * 8 + n * (4 + 2) + rows * width * (8 + 2) + 2**16
    tracemalloc.start()
    try:
        part = nerode_partition(acc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.class_count == 848
    assert peak < bound


def test_nerode_partition_holds_no_signature_table():
    # witness (4,4): 33,792 states over 17 letters, 848 classes
    acc = stx(*witness_pair(4, 4))
    n, width = acc.state_count, acc.letter_count
    assert (n, width) == (33792, 17)
    bound = nerode_peak_bound(n, width)
    tracemalloc.start()
    try:
        part = nerode_partition(acc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.class_count == 848
    assert peak < bound
    # a table of every state's five signature words (1.35 MB) would not fit
    assert peak + n * 5 * 8 > bound


def zero_weights(count: int) -> np.ndarray:
    return np.zeros(count, dtype=np.uint64)


def spy_on_rounds(monkeypatch) -> list:
    """Record whether each hashed round gave new colours (True) or stalled."""
    hashed_round, seen = automata._hashed_round, []

    def spy(*args):
        reps = hashed_round(*args)
        seen.append(reps is not None)
        return reps

    monkeypatch.setattr(automata, "_hashed_round", spy)
    return seen


@functools.cache
def witness_classes(n1: int, n2: int) -> tuple[Dfa, list[int], int]:
    """The witness's subset table, its oracle classes and its minimal size."""
    a = stx(*witness_pair(n1, n2))
    return a, list(helpers.signature_refinement(a)), helpers.distinguishable_classes(a)


@pytest.mark.parametrize(
    "weights",
    [
        # every key is the state's index alone: one class, which mixes
        # final and nonfinal states
        zero_weights,
        # only the low byte of a row's first word, which is the own colour
        # while the colours fit uint8 and its low byte beyond: no round gives
        # more colours than it was given
        pytest.param(
            lambda count: np.array([1 << 56] + [0] * (count - 1), dtype=np.uint64),
            marks=pytest.mark.skipif(sys.byteorder != "little", reason="little-endian word layout"),
        ),
    ],
    ids=["zero-weights", "own-colour-only"],
)
def test_nerode_partition_reruns_after_a_collision(monkeypatch, weights):
    # the weights collide on every round, so every round stalls and is
    # repaired by splitting the unstable classes; the refinement still ends,
    # within state_count rounds, at the exact partition
    monkeypatch.setattr(automata, "_hash_weights", weights)
    seen = spy_on_rounds(monkeypatch)
    for n1, n2 in [(3, 3), (4, 3)]:
        a, class_of, minimal = witness_classes(n1, n2)
        seen.clear()
        part = nerode_partition(a)
        assert part.class_of.tolist() == class_of
        assert part.class_count == minimal
        assert not any(seen) and part.rounds == len(seen) <= a.state_count


@settings(max_examples=150, deadline=None)
@given(dfas(max_states=8))
def test_nerode_partition_is_exact_when_every_round_collides(a):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_hash_weights", zero_weights)
        part = nerode_partition(a)
    assert part.class_of.tolist() == list(helpers.signature_refinement(a))
    assert part.rounds <= a.state_count


def test_nerode_partition_rounds_without_a_collision(monkeypatch):
    # witness (5,4): the 3,369 saturation classes refine in five hashed
    # rounds, none of them a stall
    first, second = witness_pair(5, 4)
    q = stx(first, second, normalize=functools.partial(saturate_masks, n1=5, n2=4))
    seen = spy_on_rounds(monkeypatch)
    part = nerode_partition(q)
    assert (q.state_count, part.class_count) == (3369, 3368)
    assert part.rounds == 5 and seen == [True] * 5


def test_nerode_partition_gathers_the_representatives_a_block_at_a_time():
    # the full (4,3) monster's saturation quotient: 213 states over 6,912
    # letters. The bound allows a table of the representatives' successor
    # classes in uint8 (one byte an entry, 1.5 MB), which the check no
    # longer holds (see the test below), and one fill block: the int32 rows
    # of a block of representatives, the intp copy np.take makes of them,
    # and up to four uint8 blocks gathered from them or compared; 64 KiB
    # covers the interpreter's own objects. An intp copy of all the
    # representatives' rows of delta (11.8 MB) does not fit.
    first, second = monster2(MonsterSpec.pair(4, 3, {3}, {0}))
    q = stx(first, second, normalize=functools.partial(saturate_masks, n1=4, n2=3))
    n, width = q.state_count, q.letter_count
    assert (n, width) == (213, 6912)
    rows = automata.block_rows(8 * width)
    bound = n * width + rows * width * (4 + 8 + 4) + 2**16
    tracemalloc.start()
    try:
        part = nerode_partition(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.class_count == 212
    assert peak < bound
    assert peak + n * width * 8 > bound


def test_stability_check_holds_no_table_of_the_representatives(monkeypatch):
    # witness (5,5): 15,931 quotient states over 17 letters, 15,930 classes,
    # so a table of the representatives' successor classes (uint16) would be
    # another copy of delta, 542 KB. In blocks of 64 rows the check may hold
    # the uint16 colours and the finality of the representatives, and per
    # block the block's uint16 colours and its representatives' rows of
    # delta (int32), the intp copy np.take makes of them and the uint16
    # colours gathered from it; 64 KiB covers the interpreter's own objects.
    a, b = witness_pair(5, 5)
    q = stx(a, b, normalize=functools.partial(saturate_masks, n1=5, n2=5))
    part = nerode_partition(q)
    n, width = q.state_count, q.letter_count
    assert (n, width, part.class_count) == (15931, 17, 15930)
    final = np.zeros(n, dtype=bool)
    final[q.finals] = True
    rows = 64
    monkeypatch.setattr(automata, "BLOCK_ENTRIES", 16 * width * rows)
    bound = n * (2 + 1) + rows * (width * (2 + 4 + 8 + 2) + 8) + 2**16
    tracemalloc.start()
    try:
        stable = automata._is_stable(q, final, part.class_of, part.reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stable
    assert peak < bound
    assert peak + part.class_count * width * 2 > bound


def unstable_by_state(a: Dfa, final: np.ndarray, class_of: np.ndarray, reps: np.ndarray) -> list[int]:
    """The states whose finality or successor classes differ from their
    representative's, compared one state at a time in plain Python."""
    rows, classes = a.delta.tolist(), class_of.tolist()
    bad = []
    for q, row in enumerate(rows):
        r = int(reps[classes[q]])
        if final[q] != final[r] or [classes[t] for t in row] != [classes[t] for t in rows[r]]:
            bad.append(q)
    return bad


def numbered(class_of: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The partition into equal labels of class_of, classes numbered 0, 1, ...
    in label order, and a member of each class at random as representative."""
    labels, class_of = np.unique(class_of, return_inverse=True)
    reps = np.empty(len(labels), dtype=np.intp)
    states = rng.permutation(len(class_of))
    reps[class_of[states]] = states
    return class_of.astype(np.int32), reps


def stability_cases(a: Dfa, final: np.ndarray, rng: np.random.Generator):
    """Named partitions of a's states, with the finality to check them
    against: the Nerode partition and the discrete one, which are stable;
    the Nerode partition with two classes merged, which is not, and, where
    a has states past 1,024, with the two merged classes there; a final and
    a nonfinal class merged; random labels; and the Nerode partition with
    one state's finality flipped, which differs from its representative in
    finality alone."""
    part = nerode_partition(a)
    nerode = numbered(rng.permutation(part.class_count)[part.class_of], rng)
    yield "nerode", final, *nerode
    yield "discrete", final, *numbered(rng.permutation(a.state_count), rng)

    def merged(c1, c2):
        return numbered(np.where(part.class_of == c2, c1, part.class_of), rng)

    yield "two classes merged", final, *merged(*rng.choice(part.class_count, 2, replace=False))
    late = np.flatnonzero(part.reps > 1024)
    if len(late) >= 2:
        yield "two late classes merged", final, *merged(*rng.choice(late, 2, replace=False))
    rep_final = final[part.reps]
    yield "final and nonfinal merged", final, *merged(
        rng.choice(np.flatnonzero(rep_final)), rng.choice(np.flatnonzero(~rep_final))
    )
    yield "random labels", final, *numbered(rng.integers(0, 5, a.state_count), rng)
    class_of, reps = nerode
    flipped = final.copy()
    flipped[rng.choice(np.setdiff1d(np.arange(a.state_count), reps))] ^= True
    yield "one finality flipped", flipped, class_of, reps


def check_block_ends(n: int, first: int, step: int) -> list[int]:
    """Where the blocks of a check that stops early end: first rows, then
    twice as many each time, up to step."""
    ends, rows = [], first
    while not ends or ends[-1] < n:
        ends.append(min(n, (ends[-1] if ends else 0) + rows))
        rows = min(2 * rows, step)
    return ends


@functools.cache
def stability_tables() -> list[tuple[str, Dfa]]:
    tables = []
    for n1, n2 in [(3, 3), (3, 4), (4, 3), (4, 4)]:
        pair = witness_pair(n1, n2)
        saturate = functools.partial(saturate_masks, n1=n1, n2=n2)
        tables.append((f"witness ({n1},{n2}) quotient", stx(*pair, normalize=saturate)))
    # 2,176 states: partitions whose first unstable state lies past 1,024
    tables.append(("witness (3,4) subset table", stx(*witness_pair(3, 4))))
    return tables


@pytest.mark.parametrize(
    "block_entries, first_rows",
    [(automata.BLOCK_ENTRIES, automata.FIRST_CHECK_ROWS), (16 * 17 * 100, 16)],
    ids=["default blocks", "16 rows doubling to 100"],
)
def test_stability_check_matches_the_state_by_state_oracle(monkeypatch, block_entries, first_rows):
    # in both modes: the verdict, the unstable states in state order, and
    # the rows gathered (got and want gather the same rows), all of them in
    # a stall's check, and up to the end of the block that holds the first
    # unstable state in one that stops early
    monkeypatch.setattr(automata, "BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(automata, "FIRST_CHECK_ROWS", first_rows)
    gathered, take = [], np.take

    def counted(values, indices, *args, **kwargs):
        gathered.append(len(indices))
        return take(values, indices, *args, **kwargs)

    def check(*args):
        gathered.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "take", counted)
            return automata._is_stable(*args), sum(gathered)

    rng = np.random.default_rng(34)
    seen = set()
    for table, a in stability_tables():
        n, step = a.state_count, automata.block_rows(16 * a.letter_count)
        is_final = np.zeros(n, dtype=bool)
        is_final[a.finals] = True
        ends = check_block_ends(n, min(first_rows, step), step)
        for case, final, class_of, reps in stability_cases(a, is_final, rng):
            bad = unstable_by_state(a, final, class_of, reps)
            seen.add((case, bool(bad), bad[0] > 1024 if bad else None))
            stable, early = check(a, final, class_of, reps)
            found = []
            stable_too, every = check(a, final, class_of, reps, found)
            assert stable == stable_too == (not bad), (table, case)
            assert (np.concatenate(found).tolist() if found else []) == bad, (table, case)
            assert every == 2 * n, (table, case)
            assert early == 2 * (next(end for end in ends if end > bad[0]) if bad else n), (table, case)
    assert ("nerode", False, None) in seen and ("discrete", False, None) in seen
    assert ("two late classes merged", True, True) in seen
    assert ("two classes merged", True, False) in seen
    assert ("final and nonfinal merged", True, False) in seen
    assert ("one finality flipped", True, False) in seen


@pytest.mark.parametrize("base", [0, 1, 2])
def test_hashed_round_separates_rows_that_differ_in_top_bytes(base):
    # 31 letters: a row is 32 uint8 colours in four words, and the successor
    # colours on letters 6, 14, 22 and 30 sit in the top bytes of the words.
    # Rows whose colours there are base and base + 128 differ by 2^63 in
    # those words, so a hash of the words alone gives two of them one key
    # whenever the two weights have equal parity, as some two of four weights
    # always do
    width, top = 31, (6, 14, 22, 30)
    pairs = list(itertools.combinations(top, 2))
    # states 0..255 loop and are given colours 0..255; state 256 moves to
    # state base on every letter, and state 257 + k to state base + 128 on
    # the letters of pairs[k] and to state base on the others
    n = 257 + len(pairs)
    delta = np.full((n, width), base, dtype=np.int32)
    delta[:256] = np.arange(256)[:, None]
    for k, letters in enumerate(pairs):
        delta[257 + k, list(letters)] = base + 128
    a = Dfa(width, n, 0, (), delta)
    color = np.zeros(n, dtype=np.int32)
    color[:256] = np.arange(256)
    automata._hashed_round(a, color, 256)
    assert len(set(color[256:].tolist())) == 1 + len(pairs)


def shift_register(bits: int, copies: int = 1) -> Dfa:
    """copies disjoint copies of q -> 2q + b mod 2**bits over b in {0, 1},
    final where the top bit is set; copy c holds states c * 2**bits + q."""
    size = 1 << bits
    q = np.arange(copies * size)
    low = q % size
    delta = np.stack([q - low + (2 * low + b) % size for b in (0, 1)], axis=1)
    return Dfa(2, copies * size, 0, np.flatnonzero(low >= size // 2), delta)


@pytest.mark.parametrize("copies", [1, 2])
def test_nerode_partition_past_uint16_colours(copies):
    # one copy is minimal: the rounds run 2, 4, ..., 2**17 colours, so the
    # rows are uint8, then uint16 and, at 2**17 colours, uint32 in two words;
    # with two copies each state shares its class with its twin
    part = nerode_partition(shift_register(17, copies))
    assert part.class_count == 2**17
    assert np.array_equal(part.class_of, np.tile(np.arange(2**17), copies))


def _random_dfa(n: int, width: int, seed: int) -> Dfa:
    rng = np.random.default_rng(seed)
    return Dfa(width, n, 0, np.flatnonzero(rng.random(n) < 0.5), rng.integers(0, n, (n, width)))


@pytest.mark.parametrize(
    "make, min_classes",
    [
        # 4 letters: a row is 5 uint8 colours and 3 pad bytes in one word
        # until the colours pass 256, then 10 uint16 colours and 6 pad bytes
        # in two words
        (lambda: _random_dfa(1500, 4, seed=16), 257),
        # 729 letters: 730 uint8 colours in 92 words, and past 256 colours
        # 730 uint16 colours in 183 words
        (lambda: stx(*monster2(MonsterSpec.pair(3, 3, {2}, {0}))), 1),
        (lambda: _random_dfa(300, 729, seed=729), 257),
    ],
    ids=["widening-4-letters", "monster-3-3", "widening-729-letters"],
)
def test_nerode_partition_matches_the_oracle_across_row_layouts(make, min_classes):
    a = make()
    part = nerode_partition(a)
    assert part.class_count >= min_classes
    assert part.class_of.tolist() == list(helpers.signature_refinement(a))


@pytest.mark.parametrize(
    "a, classes",
    [
        (Dfa(0, 3, 0, {1}, np.zeros((3, 0), dtype=np.int32)), [0, 1, 0]),
        (Dfa(0, 1, 0, (), np.zeros((1, 0), dtype=np.int32)), [0]),
        (Dfa(1, 1, 0, {0}, ((0,),)), [0]),
        (Dfa(2, 3, 1, {0, 1, 2}, ((1, 2), (2, 0), (0, 0))), [0, 0, 0]),
    ],
    ids=["no-letters", "no-letters-one-state", "one-state", "all-final"],
)
def test_nerode_partition_edge_cases(a, classes):
    part = nerode_partition(a)
    assert part.class_of.tolist() == classes == list(helpers.signature_refinement(a))
    assert part.class_count == max(classes) + 1


@settings(max_examples=100, deadline=None)
@given(dfas())
def test_minimize_is_idempotent_in_size_and_language(a):
    m = minimize(a)
    again = minimize(m)
    assert again.state_count == m.state_count
    assert helpers.same_language(again, m)


def test_is_equivalent_requires_a_common_alphabet():
    a = Dfa(1, 1, 0, frozenset(), ((0,),))
    b = Dfa(2, 1, 0, frozenset(), ((0, 0),))
    with pytest.raises(ValueError):
        is_equivalent(a, b)


def test_is_equivalent_detects_differences():
    ends_in_1 = Dfa(2, 2, 0, frozenset({1}), ((0, 1), (0, 1)))
    contains_1 = Dfa(2, 2, 0, frozenset({1}), ((0, 1), (1, 1)))
    assert not is_equivalent(ends_in_1, contains_1)
    assert is_equivalent(ends_in_1, minimize(ends_in_1))


def renumbered(a: Dfa, perm: list[int]) -> Dfa:
    """a with state q renamed perm[q]: the same automaton, other state numbers."""
    perm = np.asarray(perm, dtype=np.int32)
    delta = np.empty_like(a.delta)
    delta[perm] = perm[a.delta]
    return Dfa(a.letter_count, a.state_count, perm[a.initial], perm[a.finals], delta)


@st.composite
def renumberings(draw, max_states=6):
    a = draw(dfas(max_states=max_states))
    return a, draw(st.permutations(range(a.state_count)))


@settings(max_examples=200, deadline=None)
@given(renumberings())
def test_minimize_is_canonical_under_state_renumbering(case):
    # helpers.equivalent_by_minimizing rests on this: the minimal table does
    # not depend on how the input numbers its states
    a, perm = case
    assert minimize(renumbered(a, perm)) == minimize(a)


@st.composite
def dfa_pairs(draw):
    # unrelated pairs are almost always unequal, so a third of the pairs
    # differ from a in one transition, and a third are a renumbered copy of a
    # with twin states, which accepts the same language
    a = draw(dfas(max_states=4))
    n, width = a.state_count, a.letter_count
    kind = draw(st.sampled_from(["unrelated", "one-transition", "twins"]))
    if kind == "unrelated":
        return a, draw(dfas(max_states=4, width=width))
    if kind == "one-transition":
        delta = a.delta.copy()
        q, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
        delta[q, j] = draw(st.integers(0, n - 1))
        return a, Dfa(width, n, a.initial, a.finals, delta)
    # states q and q + n both act as state q of a; each transition picks a twin
    picks = draw(st.lists(st.integers(0, 1), min_size=2 * n * width, max_size=2 * n * width))
    delta = np.vstack([a.delta, a.delta]) + n * np.reshape(picks, (2 * n, width))
    finals = np.concatenate([a.finals, a.finals + n])
    doubled = Dfa(width, 2 * n, a.initial + n * draw(st.integers(0, 1)), finals, delta)
    return a, renumbered(doubled, draw(st.permutations(range(2 * n))))


@settings(max_examples=300, deadline=None)
@given(dfa_pairs())
def test_is_equivalent_agrees_with_the_product_oracle(pair):
    a, b = pair
    verdict = helpers.same_language(a, b)
    assert is_equivalent(a, b) == is_equivalent(b, a) == verdict
    assert helpers.equivalent_by_minimizing(a, b) == verdict


def test_preimage_by_renaming_permutes_columns():
    a = Dfa(3, 2, 0, frozenset({1}), ((0, 1, 0), (1, 0, 1)))
    b = preimage_by_renaming(a, (2, 0))
    assert b.delta.tolist() == [[0, 0], [1, 1]]
    assert b.finals.tolist() == [1] and b.initial == a.initial
    with pytest.raises(ValueError):
        preimage_by_renaming(a, (3,))
    # bools and non-integers are refused, not truncated to letters 1 and 0
    for phi in [(1.5, 0.2), (True, False), (np.float64(1.0),)]:
        with pytest.raises(ValueError, match="must be integers"):
            preimage_by_renaming(a, phi)
    assert preimage_by_renaming(a, (np.int64(2),)).delta.tolist() == [[0], [1]]


@settings(max_examples=150, deadline=None)
@given(dfas(), st.data())
def test_preimage_never_needs_more_states(a, data):
    phi = tuple(
        data.draw(st.integers(0, a.letter_count - 1))
        for _ in range(data.draw(st.integers(1, 4)))
    )
    assert minimize(preimage_by_renaming(a, phi)).state_count <= minimize(a).state_count


@settings(max_examples=50, deadline=None)
@given(dfas(), st.data())
def test_preimage_membership_translates_letterwise(a, data):
    phi = tuple(
        data.draw(st.integers(0, a.letter_count - 1))
        for _ in range(data.draw(st.integers(1, 3)))
    )
    b = preimage_by_renaming(a, phi)
    word = tuple(
        data.draw(st.integers(0, len(phi) - 1))
        for _ in range(data.draw(st.integers(0, 6)))
    )
    assert helpers.accepts(b, word) == helpers.accepts(a, tuple(phi[j] for j in word))


def test_export_dot_declares_every_state_once():
    a = Dfa(2, 2, 0, frozenset({1}), ((0, 1), (1, 1)))
    dot = export_dot(a, ("a", "b"))
    assert dot.count("shape=circle") + dot.count("shape=doublecircle") == 2
    assert '__init -> q0' in dot
    assert 'label="a,b"' in dot  # parallel edges merged
    assert 'label="0,1"' in export_dot(a)  # without names, letters print as indices


def test_json_round_trip_is_fieldwise():
    a = Dfa(2, 3, 1, frozenset({0, 2}), ((0, 1), (2, 2), (1, 0)))
    assert import_json(export_json(a, ["x", "y"])) == (a, ("x", "y"))
    assert import_json(export_json(a)) == (a, None)
    assert "letter_labels" not in export_json(a)
    bare = Dfa(1, 1, 0, frozenset(), ((0,),))
    assert import_json(export_json(bare)) == (bare, None)


@pytest.mark.parametrize(
    "field, value",
    [
        ("finals", [1.5]),
        ("finals", [True]),
        ("finals", 1),
        ("finals", [[1]]),
        ("initial", 1.0),
        ("initial", True),
        ("letter_count", True),
        ("state_count", 2.0),
    ],
)
def test_import_json_rejects_non_integer_states(field, value):
    obj = {"letter_count": 1, "state_count": 2, "initial": 0, "finals": [], "delta": [[1], [0]]}
    assert import_json(json.dumps(obj))[0].finals.tolist() == []
    obj[field] = value
    with pytest.raises(ValueError):
        import_json(json.dumps(obj))


@pytest.mark.parametrize("labels", ["ab", ["a", 1], 5, {"a": 0, "b": 1}])
def test_letter_labels_must_be_a_sequence_of_strings(labels):
    obj = {"letter_count": 2, "state_count": 1, "initial": 0, "finals": [], "delta": [[0, 0]]}
    assert import_json(json.dumps({**obj, "letter_labels": ["a", "b"]}))[1] == ("a", "b")
    with pytest.raises(ValueError, match="sequence of strings"):
        import_json(json.dumps({**obj, "letter_labels": labels}))
    a = Dfa(2, 1, 0, (), ((0, 0),))
    for export in (export_dot, export_json):
        with pytest.raises(ValueError, match="sequence of strings"):
            export(a, labels)


def test_letter_labels_must_name_every_letter():
    obj = {"letter_count": 2, "state_count": 1, "initial": 0, "finals": [], "delta": [[0, 0]]}
    a = Dfa(2, 1, 0, (), ((0, 0),))
    for labels in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="length must match"):
            import_json(json.dumps({**obj, "letter_labels": labels}))
        for export in (export_dot, export_json):
            with pytest.raises(ValueError, match="length must match"):
                export(a, labels)


def test_import_json_rejects_malformed_text_with_position():
    with pytest.raises(json.JSONDecodeError) as err:
        import_json('{"state_count": 1,')
    assert err.value.lineno >= 1
    with pytest.raises(ValueError):
        import_json('{"state_count": 1}')
    with pytest.raises(ValueError):
        import_json('[1, 2]')


def test_minimal_dfas_with_random_renamings():
    rng = random.Random(20260822)
    for _ in range(50):
        a = helpers.random_dfa(rng)
        phi = helpers.random_renaming(rng, a.letter_count)
        assert minimize(preimage_by_renaming(a, phi)).state_count <= minimize(a).state_count
