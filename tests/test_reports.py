"""measure_stx builds the saturation quotient directly, after an exact check of its premises.

Each test compares the route against Nerode refinement over the whole subset
table (helpers.full_table_size or minimize(stx(...))), which shares no step
with the quotient, or the premise check (saturation_premises_hold) against
the whole-table congruence check (helpers.quotient_by_keys), which is local
to no triangle, and against the check through the star's image tables
(helpers.premises_by_image_tables). Saturation is the kernel
(saturate_masks) or a lookup in saturation_table, as measure_stx picks
(saturation_normalizer); the two give the same tables.
"""

import functools

import numpy as np
import pytest

import helpers
from starxor import (
    Dfa,
    MonsterSpec,
    minimize,
    monster2,
    predicted_complexity,
    star_modifier,
    stx,
    witness_pair,
    xor_modifier,
)
from starxor import automata, reports
from starxor.modifiers import saturation_premises_hold
from starxor.reports import measure_stx, saturation_normalizer
from starxor.tableaux import saturate_masks, saturation_table

WITNESS_SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (2, 8)]
FULL_TABLE_NOTE = "the saturation premises do not hold; minimized the full table"
# the three zones of the xor product's cells, from the operands' final flags
ZONES = {"xor": np.not_equal, "union": np.logical_or, "intersection": np.logical_and}


def kernel(n1, n2):
    return functools.partial(saturate_masks, n1=n1, n2=n2)


def premises(product, n1, n2):
    # the direct check with the kernel and with the table, and the check
    # through the star's image tables, give one verdict
    verdict = saturation_premises_hold(product, n1, n2, kernel(n1, n2))
    assert saturation_premises_hold(product, n1, n2, saturation_table(n1, n2).take) == verdict
    assert helpers.premises_by_image_tables(product, n1, n2) == verdict
    return verdict


def direct_quotient(pair):
    first, second = pair
    n1, n2 = first.state_count, second.state_count
    assert premises(xor_modifier(first, second), n1, n2)
    return stx(first, second, normalize=kernel(n1, n2))


def keyed_quotient(s, n1, n2):
    # the saturation classes of a whole table, checked to be a congruence
    return helpers.quotient_by_keys(s, saturate_masks(s.state_masks, n1, n2))


def rezoned_product(n1, n2, f1, f2, zone):
    # the monster's xor product with its finals rewritten to another zone
    product = xor_modifier(*monster2(MonsterSpec.pair(n1, n2, f1, f2)))
    first = np.isin(np.arange(n1), f1)
    second = np.isin(np.arange(n2), f2)
    cells = np.flatnonzero(zone(first[:, None], second[None, :]))
    return Dfa(product.letter_count, product.state_count, product.initial, cells, product.delta)


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_saturation_is_a_congruence_on_every_tableau(n1, n2):
    # the lemma itself: full=True numbers every mask, reachable or not, and
    # the monsters hold every letter (f, g); the premise check accepts every
    # final pair
    for f1 in helpers.final_sets(n1):
        for f2 in helpers.final_sets(n2):
            a, b = monster2(MonsterSpec.pair(n1, n2, f1, f2))
            whole = star_modifier(xor_modifier(a, b), full=True)
            assert keyed_quotient(whole, n1, n2) is not None, (f1, f2)
            assert premises(xor_modifier(a, b), n1, n2), (f1, f2)


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (3, 2)])
def test_the_premise_check_refuses_exactly_where_the_whole_table_check_does(n1, n2):
    # a premise that fails at triangle t puts t and sat(t) = t + c in one
    # class with different successor classes or finality, so the local check
    # and the whole-table one agree on every zone; xor and union always pass
    seen = {name: set() for name in ZONES}
    for f1 in helpers.final_sets(n1):
        for f2 in helpers.final_sets(n2):
            for name, zone in ZONES.items():
                product = rezoned_product(n1, n2, f1, f2, zone)
                holds = premises(product, n1, n2)
                whole = keyed_quotient(star_modifier(product, full=True), n1, n2)
                assert holds == (whole is not None), (f1, f2, name)
                seen[name].add(holds)
    assert seen == {"xor": {True}, "union": {True}, "intersection": {False, True}}


@pytest.mark.parametrize("n1, n2", [(2, 2), (3, 3), (4, 3)])
def test_the_check_accepts_the_union_zone_and_refuses_the_intersection(n1, n2):
    verdicts = {
        name: premises(rezoned_product(n1, n2, (n1 - 1,), (0,), zone), n1, n2)
        for name, zone in ZONES.items()
    }
    assert verdicts == {"xor": True, "union": True, "intersection": False}


def test_the_check_goes_a_block_of_letters_at_a_time(monkeypatch):
    # the full (4,3) monster: 72 triangles x 6,912 letters, in blocks of 13
    # letters (936 images), the last one shorter, give the unblocked
    # verdicts; the intersection zone fails (P2) before any image is taken
    sizes = []

    def spy(masks, n1, n2):
        sizes.append(len(masks))
        return saturate_masks(masks, n1, n2)

    monkeypatch.setattr(automata, "BLOCK_ENTRIES", 1000)
    for name, zone in ZONES.items():
        product = rezoned_product(4, 3, (3,), (0,), zone)
        normalize = functools.partial(spy, n1=4, n2=3)
        assert saturation_premises_hold(product, 4, 3, normalize) == (name != "intersection")
    assert max(sizes) == 72 * 13
    assert sum(sizes) == 2 * 72 * 6912


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (2, 5)])
def test_the_direct_check_gives_the_image_table_verdict_on_random_grid_automata(n1, n2):
    # xor products of random operands always pass; with random finals, or
    # one transition redirected, they pass or fail
    rng = np.random.default_rng(10 * n1 + n2)
    n = n1 * n2

    def operand(size, letters):
        finals = np.flatnonzero(rng.random(size) < 0.5)
        return Dfa(letters, size, int(rng.integers(size)), finals, rng.integers(0, size, (size, letters)))

    seen = set()
    for _ in range(40):
        letters = int(rng.integers(1, 6))
        product = xor_modifier(operand(n1, letters), operand(n2, letters))
        assert premises(product, n1, n2)
        finals = np.flatnonzero(rng.random(n) < rng.random())
        rezoned = Dfa(letters, n, product.initial, finals, product.delta)
        delta = product.delta.copy()
        delta[rng.integers(n), rng.integers(letters)] = rng.integers(n)
        redirected = Dfa(letters, n, product.initial, product.finals, delta)
        seen |= {premises(rezoned, n1, n2), premises(redirected, n1, n2)}
    assert seen == {False, True}


def test_the_check_needs_a_grid_of_the_product_size():
    with pytest.raises(ValueError, match="a 2 x 3 grid has 6 cells, not 9"):
        saturation_premises_hold(xor_modifier(*witness_pair(3, 3)), 2, 3, kernel(2, 3))


@pytest.mark.parametrize("n1, n2", WITNESS_SIZES)
def test_the_witness_quotient_is_a_congruence_with_the_same_minimal_table(n1, n2):
    pair = witness_pair(n1, n2)
    s = stx(*pair)
    keyed = keyed_quotient(s, n1, n2)
    q = direct_quotient(pair)
    assert keyed is not None
    # the direct route reaches exactly the saturated masks of the full table;
    # they are the prediction's count, and the start state merges with the
    # seed singleton only in minimize
    assert set(q.state_masks.tolist()) == set(saturate_masks(s.state_masks, n1, n2).tolist())
    assert q.state_count == keyed.state_count == predicted_complexity(n1, n2)
    assert minimize(q) == minimize(keyed) == minimize(s)


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 3)])
def test_the_monster_quotient_is_a_congruence_at_every_final_pair(n1, n2):
    for f1 in helpers.final_sets(n1):
        for f2 in helpers.final_sets(n2):
            pair = monster2(MonsterSpec.pair(n1, n2, f1, f2))
            s = stx(*pair)
            assert keyed_quotient(s, n1, n2) is not None, (f1, f2)
            assert minimize(direct_quotient(pair)) == minimize(s), (f1, f2)


def test_the_target_monster_quotient_at_4_3():
    pair = monster2(MonsterSpec.pair(4, 3, {3}, {0}))
    s = stx(*pair)
    assert keyed_quotient(s, 4, 3) is not None
    m = minimize(direct_quotient(pair))
    assert m == minimize(s)
    assert m.state_count == 212


def test_a_partition_that_is_not_a_congruence_leaves_the_full_table(monkeypatch):
    # the premise check refuses exactly when the saturation classes are not
    # a congruence; a refusal builds and minimizes the full table, and says so
    pair = monster2(MonsterSpec.pair(3, 3, {2}, {0}))
    checked, built = [], []

    def refuse(product, n1, n2, normalize):
        checked.append(saturation_premises_hold(product, n1, n2, normalize))
        return False

    def spy(*args, **kwargs):
        s = stx(*args, **kwargs)
        built.append((kwargs.get("normalize") is None, s.state_count))
        return s

    monkeypatch.setattr(reports, "saturation_premises_hold", refuse)
    monkeypatch.setattr(reports, "stx", spy)
    size = helpers.full_table_size(lambda: pair, 2**22)
    assert measure_stx(lambda: pair, 2**22) == (size, FULL_TABLE_NOTE)
    assert checked == [True]
    # the 67-state quotient is dropped for the 288-state full table
    assert built == [(False, 67), (True, stx(*pair).state_count)] == [(False, 67), (True, 288)]


@pytest.mark.parametrize("n1, n2, size", [(2, 8, 2570), (8, 2, 2570), (2, 9, 7328)])
def test_wide_and_tall_witnesses_take_the_checked_quotient(monkeypatch, n1, n2, size):
    checked, built = [], []

    def check(product, n1, n2, normalize):
        checked.append(saturation_premises_hold(product, n1, n2, normalize))
        return checked[-1]

    def spy(*args, **kwargs):
        s = stx(*args, **kwargs)
        built.append(s.state_count)
        return s

    monkeypatch.setattr(reports, "saturation_premises_hold", check)
    monkeypatch.setattr(reports, "stx", spy)
    build = lambda: witness_pair(n1, n2)
    assert measure_stx(build, 2**22) == (size, "")
    # one check, then one search over the saturated masks only
    assert checked == [True]
    assert built == [predicted_complexity(n1, n2)]
    assert helpers.full_table_size(build, 2**22) == size == predicted_complexity(n1, n2) - 1


def test_measure_stx_minimizes_the_quotient_not_the_table(monkeypatch):
    # refinement runs once, on the 213 saturation classes of witness (4,3),
    # and its class count is the size: no quotient or accessible part is built
    sizes = []
    refine = reports.nerode_partition

    def counted(a):
        sizes.append(a.state_count)
        return refine(a)

    def unused(*args):
        raise AssertionError("the measurement builds no quotient")

    monkeypatch.setattr(reports, "nerode_partition", counted)
    monkeypatch.setattr(automata, "_class_quotient", unused)
    monkeypatch.setattr(automata, "accessible_part", unused)
    assert measure_stx(lambda: witness_pair(4, 3), 2**22) == (212, "")
    assert sizes == [213]


@pytest.mark.parametrize(
    "pair",
    [monster2(MonsterSpec.pair(3, 3, {2}, {0})), witness_pair(3, 3)],
    ids=["monster (3,3)", "witness (3,3)"],
)
def test_the_table_and_the_kernel_build_the_same_quotient(pair):
    a, b = pair
    by_table = stx(a, b, normalize=saturation_table(3, 3).take)
    by_kernel = stx(a, b, normalize=kernel(3, 3))
    for name in ("delta", "finals", "state_masks"):
        left, right = getattr(by_table, name), getattr(by_kernel, name)
        assert left.dtype == right.dtype and left.tobytes() == right.tobytes(), name


@pytest.mark.parametrize(
    "build, tables",
    [
        # 240 triangles x 17 letters = 4,080 images, fewer than 2^20 masks
        (lambda: witness_pair(5, 4), []),
        # 36 triangles x 729 letters = 26,244 images, against 2^9 masks
        (lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0})), [(3, 3)]),
        # 36 x 17 = 612 images, against 2^9 masks
        (lambda: witness_pair(3, 3), [(3, 3)]),
    ],
    ids=["witness (5,4)", "monster (3,3)", "witness (3,3)"],
)
def test_measure_stx_builds_the_table_only_where_the_check_would_saturate_as_many_masks(
    monkeypatch, build, tables
):
    built, handed = [], []
    table = reports.saturation_table

    def spy_table(n1, n2):
        built.append((n1, n2))
        return table(n1, n2)

    def spy_check(product, n1, n2, normalize):
        handed.append(normalize)
        return saturation_premises_hold(product, n1, n2, normalize)

    def spy_stx(*args, **kwargs):
        handed.append(kwargs["normalize"])
        return stx(*args, **kwargs)

    monkeypatch.setattr(reports, "saturation_table", spy_table)
    monkeypatch.setattr(reports, "saturation_premises_hold", spy_check)
    monkeypatch.setattr(reports, "stx", spy_stx)
    size, note = measure_stx(build, 2**22)
    assert (size, note) == (helpers.full_table_size(build, 2**22), "")
    assert built == tables
    # one saturation, passed to both the build and the check
    assert len(handed) == 2 and handed[0] is handed[1]
    assert isinstance(handed[0], functools.partial) == (not tables)


@pytest.mark.parametrize(
    "n1, n2, letters, table",
    [
        (3, 3, 14, False),  # 504 images < 512 masks
        (3, 3, 15, True),  # 540 images
        (4, 4, 455, False),  # 65,520 images < 65,536 masks
        (4, 4, 456, True),
        (5, 4, 10**6, True),  # 2^20 masks fit one block
        (5, 5, 10**9, False),  # 2^25 masks do not
        (2, 1, 10**6, False),  # no right triangles
    ],
)
def test_the_table_pays_where_the_check_alone_saturates_as_many_masks(
    monkeypatch, n1, n2, letters, table
):
    monkeypatch.setattr(reports, "saturation_table", lambda n1, n2: np.zeros(1 << n1 * n2))
    normalize = saturation_normalizer(n1, n2, letters)
    assert isinstance(normalize, functools.partial) != table
