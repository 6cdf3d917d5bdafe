"""The 17-letter alphabet, the automaton pair it drives, and the verifier."""

import pytest

import helpers
from starxor import (
    MonsterSpec,
    identity,
    is_equivalent,
    minimize,
    monster2,
    preimage_by_renaming,
    sigma_prime,
    stx,
    verify_witness,
    witness_pair,
)


def test_always_seventeen_letters():
    for n1, n2 in [(2, 2), (2, 5), (4, 3), (6, 6)]:
        assert len(sigma_prime(n1, n2)) == 17


def test_small_sizes_are_rejected():
    with pytest.raises(ValueError):
        sigma_prime(1, 3)
    with pytest.raises(ValueError):
        sigma_prime(3, 1)


def test_letter_shapes_at_four_by_four():
    letters = sigma_prime(4, 4)
    # long cycle dodging the last state, then the cycle on the interior
    assert letters[0].first.images == (1, 2, 0, 3)
    assert letters[1].first.images == (0, 2, 1, 3)
    assert letters[0].second == identity(4)
    # full cycles on each side
    assert letters[3].first.images == (0, 2, 3, 1)
    assert letters[4].second.images == (0, 2, 3, 1)
    # swap of the endpoints
    assert letters[5].first.images == (3, 1, 2, 0)
    # the one letter moving both coordinates at once
    assert letters[7].first.images == (1, 0, 2, 3)
    assert letters[7].second.images == (1, 0, 2, 3)
    # point maps: collapse 1 onto 0, the tail pair, and the wrap-around
    assert letters[11].first.images == (0, 0, 2, 3)
    assert letters[13].first.images == (0, 1, 3, 3)
    assert letters[15].first.images == (0, 1, 2, 0)
    assert letters[16].second.images == (0, 1, 2, 0)


def test_degenerate_supports_collapse_to_identity():
    letters = sigma_prime(2, 2)
    # interior supports are empty or singletons when both sizes are 2
    assert letters[0].first == identity(2)
    assert letters[1].first == identity(2)
    assert letters[2].second == identity(2)


def test_exactly_one_letter_moves_both_coordinates():
    for n1, n2 in [(2, 2), (3, 4), (5, 5)]:
        letters = sigma_prime(n1, n2)
        both_moving = [
            j
            for j, letter in enumerate(letters)
            if letter.first != identity(n1) and letter.second != identity(n2)
        ]
        assert both_moving == [7], (n1, n2)


def test_witness_pair_shape():
    first, second = witness_pair(3, 4)
    assert (first.letter_count, second.letter_count) == (17, 17)
    assert (first.state_count, second.state_count) == (3, 4)
    assert (first.initial, second.initial) == (0, 0)
    assert first.finals.tolist() == [2]
    assert second.finals.tolist() == [0]
    letters = sigma_prime(3, 4)
    for j, letter in enumerate(letters):
        for q in range(3):
            assert first.delta[q][j] == letter.first(q)
        for q in range(4):
            assert second.delta[q][j] == letter.second(q)


def test_both_operands_are_already_minimal():
    for n1, n2 in [(2, 2), (2, 3), (3, 3), (4, 3), (4, 4), (5, 4)]:
        first, second = witness_pair(n1, n2)
        assert minimize(first).state_count == n1, (n1, n2)
        assert minimize(second).state_count == n2, (n1, n2)


def test_witness_route_equals_restricted_monster_route():
    # renaming the full-monster star-of-xor along the letter embedding gives
    # the same language as building directly on the 17-letter pair
    for n1, n2 in [(2, 2), (2, 3)]:
        spec = MonsterSpec.pair(n1, n2, {n1 - 1}, {0})
        mon1, mon2 = monster2(spec)
        first, second = witness_pair(n1, n2)
        phi = tuple(helpers.letter_index(spec, L) for L in sigma_prime(n1, n2))
        renamed = preimage_by_renaming(stx(mon1, mon2), phi)
        assert is_equivalent(renamed, stx(first, second)), (n1, n2)


def test_verify_witness_report():
    report = verify_witness(2, 2)
    assert report.command == "verify-witness"
    assert report.parameters == {"n1": 2, "n2": 2, "method": "witness"}
    assert report.measured == 8
    assert report.predicted == 9
    assert report.verdict == "fail"
    assert report.wall_time_ms >= 0


def test_verify_witness_respects_the_state_cap():
    report = verify_witness(2, 2, cap_states=4)
    assert report.verdict == "skipped"
    assert report.measured is None
    assert report.predicted == 9
    assert report.note


def test_the_state_cap_bounds_the_saturation_quotient_not_the_full_table():
    # witness (4,4): the full subset table holds 33,792 states, the
    # saturation quotient that measure_stx builds 849
    assert stx(*witness_pair(4, 4)).state_count == 33792
    assert verify_witness(4, 4, cap_states=849).measured == 848
    report = verify_witness(4, 4, cap_states=848)
    assert (report.verdict, report.measured) == ("skipped", None)
    assert report.note == "subset states exceed the cap of 848"
