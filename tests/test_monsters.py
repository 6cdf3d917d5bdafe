"""Monster automata over the full transformation alphabet."""

import itertools
import random

import pytest

import helpers
from starxor import (
    LimitExceeded,
    MonsterSpec,
    PairLetter,
    Transformation,
    is_equivalent,
    minimize,
    monster,
    monster1,
    monster2,
    preimage_by_renaming,
)


def test_two_state_monster_table():
    m = monster1(2, {1})
    assert m.letter_count == 4
    assert m.delta.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1]]
    assert m.initial == 0
    assert m.finals.tolist() == [1]


def test_monster_is_minimal_for_proper_finals():
    for n in (2, 3):
        for size in range(1, n):
            for f in itertools.combinations(range(n), size):
                m = monster1(n, f)
                assert minimize(m).state_count == n, f"n={n} finals={f}"


def test_monster_degenerate_finals_collapse():
    assert minimize(monster1(2, ())).state_count == 1
    assert minimize(monster1(2, (0, 1))).state_count == 1


def test_monster2_shares_the_pair_alphabet():
    spec = MonsterSpec.pair(2, 3, {1}, {0})
    m1, m2 = monster2(spec)
    assert m1.letter_count == m2.letter_count == 4 * 27
    assert m1.state_count == 2 and m2.state_count == 3
    assert m1.finals.tolist() == [1] and m2.finals.tolist() == [0]


def test_monster2_acts_coordinatewise():
    spec = MonsterSpec.pair(2, 2, {1}, {0})
    m1, m2 = monster2(spec)
    for j in range(m1.letter_count):
        first = Transformation(2, tuple(m1.delta[q][j] for q in range(2)))
        second = Transformation(2, tuple(m2.delta[q][j] for q in range(2)))
        assert helpers.letter_index(spec, (first, second)) == j


def test_letter_index_known_value():
    # the swap pair sits at rank 2*4+2 in the (2,2) enumeration
    spec = MonsterSpec.pair(2, 2, {1}, {0})
    swap = Transformation(2, (1, 0))
    assert helpers.letter_index(spec, PairLetter(swap, swap)) == 10


def test_letter_index_rejects_mismatches():
    spec = MonsterSpec.pair(2, 2, {1}, {0})
    with pytest.raises(ValueError):
        helpers.letter_index(spec, (Transformation(2, (0, 1)),))
    with pytest.raises(ValueError):
        helpers.letter_index(spec, (Transformation(3, (0, 1, 2)), Transformation(2, (0, 1))))


def test_generic_arity():
    spec = MonsterSpec((2, 2, 2), (frozenset({1}), frozenset({0}), frozenset({1})))
    triple = monster(spec)
    assert len(triple) == 3
    assert all(m.letter_count == 64 for m in triple)
    letters = [
        tuple(
            Transformation(2, tuple(m.delta[q][j] for q in range(2)))
            for m in triple
        )
        for j in range(64)
    ]
    assert [helpers.letter_index(spec, combo) for combo in letters] == list(range(64))


@pytest.mark.parametrize(
    "sizes", [(1,), (2,), (3,), (4,), (2, 2), (2, 3), (3, 3), (4, 3), (2, 2, 2)]
)
def test_monster_equals_the_letter_by_letter_build(sizes):
    spec = MonsterSpec(sizes, tuple(frozenset({n - 1}) for n in sizes))
    built, reference = monster(spec), helpers.monster_reference(spec)
    assert built == reference


def test_letter_index_on_sampled_letters_of_the_4_4_monster():
    spec = MonsterSpec.pair(4, 4, {3}, {0})
    m1, m2 = monster2(spec)
    assert m1.letter_count == 65536
    for j in random.Random(44).sample(range(65536), 25) + [0, 65535]:
        first = Transformation(4, tuple(m1.delta[:, j].tolist()))
        second = Transformation(4, tuple(m2.delta[:, j].tolist()))
        assert helpers.letter_index(spec, PairLetter(first, second)) == j


def test_letter_cap():
    with pytest.raises(LimitExceeded):
        monster(MonsterSpec.pair(5, 5, {0}, {0}))
    with pytest.raises(LimitExceeded):
        monster1(3, {0}, cap_letters=26)


def test_spec_validation():
    with pytest.raises(ValueError):
        MonsterSpec((), ())
    with pytest.raises(ValueError):
        MonsterSpec((2,), (frozenset({2}),))
    with pytest.raises(ValueError):
        MonsterSpec((2, 2), (frozenset(),))
    with pytest.raises(ValueError):
        monster2(MonsterSpec((2,), (frozenset(),)))


def test_restriction_is_preimage_by_renaming():
    # picking out letters of the monster is the same construction as building
    # the DFA over just those transformations
    rng = random.Random(7)
    m = monster1(3, {2})
    all_letters = [
        Transformation(3, tuple(m.delta[q][j] for q in range(3)))
        for j in range(27)
    ]
    spec = MonsterSpec((3,), (frozenset({2}),))
    for _ in range(25):
        phi = helpers.random_renaming(rng, 27, max_new=5)
        restricted = preimage_by_renaming(m, phi)
        direct = [
            [all_letters[p](q) for p in phi]
            for q in range(3)
        ]
        assert restricted.delta.tolist() == direct
        assert restricted.finals.tolist() == m.finals.tolist()
        assert is_equivalent(restricted, preimage_by_renaming(m, phi))
