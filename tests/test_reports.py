"""measure_stx minimizes through the saturation quotient, checked per run.

Each test compares the route against Nerode refinement over the whole subset
table (helpers.full_table_size or minimize(stx(...))), which shares no step
with the quotient after stx.
"""

import numpy as np
import pytest

import helpers
from starxor import (
    MonsterSpec,
    minimize,
    monster2,
    predicted_complexity,
    stx,
    witness_pair,
)
from starxor import automata, reports
from starxor.automata import quotient_by_keys
from starxor.reports import measure_stx
from starxor.tableaux import saturate_masks

WITNESS_SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (2, 8)]


def saturation_quotient(pair):
    first, second = pair
    s = stx(first, second)
    keys = saturate_masks(s.state_masks, first.state_count, second.state_count)
    return s, quotient_by_keys(s, keys)


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_saturation_is_a_congruence_on_every_tableau(n1, n2):
    # the lemma itself: full=True numbers every mask, reachable or not, and
    # the monsters hold every letter (f, g)
    for f1 in helpers.final_sets(n1):
        for f2 in helpers.final_sets(n2):
            s = stx(*monster2(MonsterSpec.pair(n1, n2, f1, f2)), full=True)
            keys = saturate_masks(s.state_masks, n1, n2)
            assert quotient_by_keys(s, keys) is not None, (f1, f2)


@pytest.mark.parametrize("n1, n2", WITNESS_SIZES)
def test_the_witness_quotient_is_a_congruence_with_the_same_minimal_table(n1, n2):
    s, q = saturation_quotient(witness_pair(n1, n2))
    assert q is not None
    # the saturated tableaux are the prediction's count; the start state
    # merges with the seed singleton only in minimize
    assert q.state_count == predicted_complexity(n1, n2)
    assert minimize(q) == minimize(s)


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 3)])
def test_the_monster_quotient_is_a_congruence_at_every_final_pair(n1, n2):
    for f1 in helpers.final_sets(n1):
        for f2 in helpers.final_sets(n2):
            s, q = saturation_quotient(monster2(MonsterSpec.pair(n1, n2, f1, f2)))
            assert q is not None, (f1, f2)
            assert minimize(q) == minimize(s), (f1, f2)


def test_the_target_monster_quotient_at_4_3():
    s, q = saturation_quotient(monster2(MonsterSpec.pair(4, 3, {3}, {0})))
    assert q is not None
    m = minimize(q)
    assert m == minimize(s)
    assert m.state_count == 212


def test_a_partition_that_is_not_a_congruence_leaves_the_full_table(monkeypatch):
    pair = monster2(MonsterSpec.pair(3, 3, {2}, {0}))
    s = stx(*pair)
    final = np.zeros(s.state_count, dtype=np.int64)
    final[s.finals] = 1
    # by finality, then by emptiness: each respects finality, neither is a
    # congruence; all in one class mixes finality
    bogus = [final, final + 2 * (s.state_masks == 0), np.zeros(s.state_count, dtype=np.int64)]
    refused = []

    def spy(a, keys):
        q = quotient_by_keys(a, keys)
        refused.append(q is None)
        return q

    monkeypatch.setattr(reports, "quotient_by_keys", spy)
    for keys in bogus:
        monkeypatch.setattr(reports, "saturate_masks", lambda masks, n1, n2, keys=keys: keys)
        assert measure_stx(lambda: pair, 2**22) == (
            minimize(s).state_count,
            "the saturation classes are not a congruence; minimized the full table",
        )
    assert refused == [True, True, True]


@pytest.mark.parametrize("n1, n2, size", [(2, 8, 2570), (8, 2, 2570), (2, 9, 7328)])
def test_wide_and_tall_witnesses_take_the_checked_quotient(monkeypatch, n1, n2, size):
    calls = []

    def spy(a, keys):
        q = quotient_by_keys(a, keys)
        calls.append(q is not None)
        return q

    monkeypatch.setattr(reports, "quotient_by_keys", spy)
    build = lambda: witness_pair(n1, n2)
    assert measure_stx(build, 2**22) == (size, "")
    assert calls == [True]
    assert helpers.full_table_size(build, 2**22) == size == predicted_complexity(n1, n2) - 1


def test_measure_stx_minimizes_the_quotient_not_the_table(monkeypatch):
    # refinement runs once, on the 213 saturation classes of witness (4,3)
    sizes = []
    refine = automata.nerode_partition

    def counted(a):
        sizes.append(a.state_count)
        return refine(a)

    monkeypatch.setattr(automata, "nerode_partition", counted)
    assert measure_stx(lambda: witness_pair(4, 3), 2**22) == (212, "")
    assert sizes == [213]
