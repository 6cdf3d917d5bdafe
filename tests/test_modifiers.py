"""Star, xor, and star-of-xor as the star of the xor product."""

import itertools
import random

import pytest

import helpers
from starxor import (
    Dfa,
    LimitExceeded,
    MonsterSpec,
    accepts,
    check_1_uniformity,
    is_equivalent,
    monster1,
    monster2,
    star_modifier,
    stx,
    xor_modifier,
)


def test_star_of_the_two_state_monster_full_table():
    s = star_modifier(monster1(2, {1}), full=True)
    # states by mask: 0 empty, 1 {0}, 2 {1}, 3 {0,1}
    assert s.state_masks == (0, 1, 2, 3)
    assert s.delta == ((1, 1, 3, 3), (1, 1, 3, 3), (1, 3, 1, 3), (1, 3, 3, 3))
    assert s.finals == frozenset({0, 2, 3})
    assert s.initial == 0


def test_star_lazy_builds_only_the_forward_closure():
    s = star_modifier(monster1(2, {1}))
    # the subset {1} is never produced from the empty set
    assert s.state_masks == (0, 1, 3)
    assert s.state_count == 3


def test_star_empty_set_is_final():
    s = star_modifier(monster1(2, {1}))
    assert 0 in s.finals
    assert accepts(s, ())


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
        assert accepts(s, word) == helpers.star_membership(a, word), word


def test_star_language_matches_the_split_oracle():
    rng = random.Random(31)
    for _ in range(25):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        s = star_modifier(a)
        for word in helpers.all_words(a.letter_count, 5):
            assert accepts(s, word) == helpers.star_membership(a, word), (a, word)


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
    assert p.finals == frozenset({0, 3})
    assert p.initial == 0


def test_xor_is_the_symmetric_difference_language():
    rng = random.Random(47)
    for _ in range(25):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        b = helpers.random_dfa_over(rng, a.letter_count, max_states=3)
        p = xor_modifier(a, b)
        for word in helpers.all_words(a.letter_count, 5):
            assert accepts(p, word) == (accepts(a, word) != accepts(b, word))


def test_xor_needs_a_common_alphabet():
    a = Dfa(1, 1, 0, frozenset(), ((0,),))
    b = Dfa(2, 1, 0, frozenset(), ((0, 0),))
    with pytest.raises(ValueError):
        xor_modifier(a, b)
    with pytest.raises(ValueError):
        stx(a, b)


def test_stx_equals_star_of_xor_on_every_final_pair():
    # full tables over all four subsets of the 2 x 2 grid, all 16 final pairs
    for f1_bits, f2_bits in itertools.product(range(4), repeat=2):
        f1 = {q for q in range(2) if f1_bits >> q & 1}
        f2 = {q for q in range(2) if f2_bits >> q & 1}
        m1, m2 = monster2(MonsterSpec.pair(2, 2, f1, f2))
        direct = stx(m1, m2, full=True)
        composed = star_modifier(xor_modifier(m1, m2), full=True)
        assert direct.delta == composed.delta, (f1, f2)
        assert direct.finals == composed.finals, (f1, f2)
        assert direct.state_masks == composed.state_masks, (f1, f2)


def test_stx_equals_star_of_xor_lazily():
    m1, m2 = monster2(MonsterSpec.pair(2, 3, {1}, {0}))
    direct = stx(m1, m2)
    composed = star_modifier(xor_modifier(m1, m2))
    assert direct.delta == composed.delta
    assert direct.state_masks == composed.state_masks
    assert direct.finals == composed.finals


def test_stx_masks_are_row_major_grid_cells():
    m1, m2 = monster2(MonsterSpec.pair(2, 2, {1}, {0}))
    s = stx(m1, m2)
    assert s.mask_of(0) == 0
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
        stx(m1, m2, full=True, cap_states=15)


def test_modifiers_commute_with_renamings_spot_checks():
    rng = random.Random(101)
    for _ in range(20):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        phi = helpers.random_renaming(rng, a.letter_count)
        assert check_1_uniformity(star_modifier, a, phi)
    for _ in range(20):
        a = helpers.random_dfa(rng, max_states=3, max_letters=3)
        b = helpers.random_dfa_over(rng, a.letter_count, max_states=3)
        phi = helpers.random_renaming(rng, a.letter_count)
        assert check_1_uniformity(xor_modifier, (a, b), phi)
        assert check_1_uniformity(stx, (a, b), phi)


def test_minimized_star_still_recognizes_the_star():
    rng = random.Random(77)
    from starxor import minimize

    for _ in range(10):
        a = helpers.random_dfa(rng, max_states=3, max_letters=2)
        m = minimize(star_modifier(a))
        for word in helpers.all_words(a.letter_count, 6):
            assert accepts(m, word) == helpers.star_membership(a, word)
