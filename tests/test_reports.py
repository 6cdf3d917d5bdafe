"""measure_stx builds the saturation quotient directly, after an exact check of its premises.

Each test compares the route against Nerode refinement over the whole subset
table (helpers.full_table_size or minimize(stx(...))), which shares no step
with the quotient, or the premise check (saturation_premises_hold), which
reads the premises off the product grid, against the whole-table
congruence check (helpers.quotient_by_keys), which is local to no
triangle, and against two checks that saturate every triangle's image
under every letter (helpers.premises_by_letter_images and
helpers.premises_by_image_tables). Saturation is the kernel
(saturate_masks) or a lookup in saturation_table, as measure_stx picks by
grid size (saturation_normalizer); the two give the same tables.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import helpers
from starxor import (
    Dfa,
    MonsterSpec,
    final_zone,
    minimize,
    monster2,
    predicted_complexity,
    star_modifier,
    stx,
    witness_pair,
    xor_modifier,
)
from starxor import automata, reports, tableaux
from starxor.experiments import sweep_reports
from starxor.modifiers import saturation_premises_hold
from starxor.reports import measure_stx
from starxor.tableaux import saturate_masks, saturation_table

WITNESS_SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (2, 8)]
FULL_TABLE_NOTE = "the saturation premises do not hold; counted the full table's classes"
# the three zones of the xor product's cells, from the operands' final flags
ZONES = {"xor": np.not_equal, "union": np.logical_or, "intersection": np.logical_and}


def kernel(n1, n2):
    return functools.partial(saturate_masks, n1=n1, n2=n2)


def premises(product, n1, n2):
    # on a product the grid check, the letter-by-letter check with the
    # kernel and with the table, and the check through the star's image
    # tables give one verdict
    assert helpers.acts_coordinatewise(product, n1, n2)
    verdict = saturation_premises_hold(product, n1, n2)
    assert helpers.premises_by_letter_images(product, n1, n2, kernel(n1, n2)) == verdict
    assert helpers.premises_by_letter_images(product, n1, n2, saturation_table(n1, n2).take) == verdict
    assert helpers.premises_by_image_tables(product, n1, n2) == verdict
    return verdict


@pytest.fixture
def fresh_normalizer():
    # saturation_normalizer keeps one saturation per grid for the process;
    # a test that counts or replaces table builds starts and ends without them
    normalizer = reports.saturation_normalizer
    normalizer.cache_clear()
    yield
    normalizer.cache_clear()


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


@pytest.mark.parametrize(
    "n1, n2", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (4, 4), (2, 5)]
)
def test_the_direct_check_gives_the_image_table_verdict_on_random_grid_automata(n1, n2):
    # xor products of random operands always pass, and with random finals
    # and a random initial cell, so that the seed may sit anywhere on the
    # grid, they pass or fail, each with the letter-by-letter verdict. One
    # transition redirected may break the coordinatewise action; the grid
    # check then refuses, and where it accepts, so do the letter-by-letter
    # check and the whole-table one
    rng = np.random.default_rng(10 * n1 + n2)
    n = n1 * n2
    normalize = kernel(n1, n2)

    def operand(size, letters):
        finals = np.flatnonzero(rng.random(size) < 0.5)
        return Dfa(letters, size, int(rng.integers(size)), finals, rng.integers(0, size, (size, letters)))

    seen, by_letter, product_kept = set(), set(), set()
    for _ in range(40):
        letters = int(rng.integers(1, 6))
        product = xor_modifier(operand(n1, letters), operand(n2, letters))
        assert premises(product, n1, n2)
        finals = np.flatnonzero(rng.random(n) < rng.random())
        rezoned = Dfa(letters, n, int(rng.integers(n)), finals, product.delta)
        seen.add(premises(rezoned, n1, n2))
        delta = product.delta.copy()
        delta[rng.integers(n), rng.integers(letters)] = rng.integers(n)
        redirected = Dfa(letters, n, product.initial, product.finals, delta)
        holds = saturation_premises_hold(redirected, n1, n2)
        coordinatewise = helpers.acts_coordinatewise(redirected, n1, n2)
        product_kept.add(coordinatewise)
        # the xor zone always satisfies (P2), so only (a) can fail
        assert holds == coordinatewise
        oracle = helpers.premises_by_letter_images(redirected, n1, n2, normalize)
        assert oracle == helpers.premises_by_image_tables(redirected, n1, n2)
        by_letter.add(oracle)
        if holds:
            assert oracle
        if oracle:
            assert keyed_quotient(star_modifier(redirected, full=True), n1, n2) is not None
    assert seen == {False, True}
    assert product_kept == {False, True}
    assert by_letter == {False, True}


def test_the_check_needs_a_grid_of_the_product_size():
    with pytest.raises(ValueError, match="a 2 x 3 grid has 6 cells, not 9"):
        saturation_premises_hold(xor_modifier(*witness_pair(3, 3)), 2, 3)


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


@pytest.mark.parametrize(
    "shape, n1, n2",
    [
        *(("witness", n1, n2) for n1, n2 in
          [(2, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (4, 5), (2, 5), (5, 2)]),
        ("target-monster", 3, 3),
        ("target-monster", 4, 3),
    ],
)
def test_the_quotient_reaches_the_saturated_corner_seeded_tableaux(shape, n1, n2):
    # criterion 6 lifted to the quotient, with no full table: at the target
    # finals the witness's and the monster's quotient masks are exactly the
    # saturated masks that hold the corner (bit 0, the seed cell) or avoid
    # the zone, the empty mask among them
    if shape == "target-monster":
        first, second = monster2(MonsterSpec.pair(n1, n2, {n1 - 1}, {0}))
    else:
        first, second = witness_pair(n1, n2)
    quotient = stx(first, second, normalize=reports.saturation_normalizer(n1, n2))
    zone = final_zone(n1, n2, first.finals, second.finals).zone
    masks = np.arange(1 << (n1 * n2), dtype=np.int64)
    tableaux = masks[saturate_masks(masks, n1, n2) == masks]
    expected = tableaux[(tableaux & 1 == 1) | (tableaux & zone == 0)]
    assert np.array_equal(np.sort(quotient.state_masks), expected)


def test_a_partition_that_is_not_a_congruence_leaves_the_full_table(monkeypatch):
    # the premise check refuses exactly when the saturation classes are not
    # a congruence; it runs before any build, so a refusal builds the full
    # table alone, counts its classes and says so
    pair = monster2(MonsterSpec.pair(3, 3, {2}, {0}))
    checked, built = [], []

    def refuse(product, n1, n2):
        checked.append((len(built), saturation_premises_hold(product, n1, n2)))
        return False

    def spy(*args, **kwargs):
        s = stx(*args, **kwargs)
        built.append((kwargs.get("normalize") is None, s.state_count))
        return s

    monkeypatch.setattr(reports, "saturation_premises_hold", refuse)
    monkeypatch.setattr(reports, "stx", spy)
    size = helpers.full_table_size(lambda: pair, 2**22)
    assert measure_stx(lambda: pair, 2**22) == (size, FULL_TABLE_NOTE)
    # checked with no table built, then the 288-state full table, the only build
    assert checked == [(0, True)]
    assert built == [(True, stx(*pair).state_count)] == [(True, 288)]


def test_a_cap_on_the_quotient_route_skips_with_its_message(monkeypatch):
    # the (3,3) target monsters pass the check, so the one build is the
    # 67-state quotient (66 classes), which a cap of 66 cuts short
    pair = monster2(MonsterSpec.pair(3, 3, {2}, {0}))
    calls = []

    def check(product, n1, n2):
        calls.append("check")
        return saturation_premises_hold(product, n1, n2)

    def spy(*args, **kwargs):
        calls.append(("stx", kwargs.get("normalize") is None))
        return stx(*args, **kwargs)

    monkeypatch.setattr(reports, "saturation_premises_hold", check)
    monkeypatch.setattr(reports, "stx", spy)
    assert measure_stx(lambda: pair, 67) == (66, "")
    calls.clear()
    assert measure_stx(lambda: pair, 66) == (None, "subset states exceed the cap of 66")
    assert calls == ["check", ("stx", False)]


def test_an_oversize_grid_is_refused_with_a_small_premise_check():
    # the check runs before stx refuses a grid beyond 63 cells, so it must
    # stay small there: n1 x n1 x n2 booleans, not the 7.6 MiB of one
    # boolean per (x, x', y, y') at witness (40,40)
    tracemalloc.start()
    try:
        result = measure_stx(lambda: witness_pair(40, 40), 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (None, "1600 operand states exceed the limit of 63 for int64 subset masks")
    assert peak < 2**20


@pytest.mark.parametrize("n1, n2, size", [(2, 8, 2570), (8, 2, 2570), (2, 9, 7328)])
def test_wide_and_tall_witnesses_take_the_checked_quotient(monkeypatch, n1, n2, size):
    checked, built = [], []

    def check(product, n1, n2):
        checked.append(saturation_premises_hold(product, n1, n2))
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


# (states refined, classes, rounds) of the one refinement each measurement
# runs: the witness sizes and, in sweep order, the (3,3) sweep's 12
# constructions
REFINEMENTS = {
    (2, 2): [(9, 8, 1)],
    (2, 3): [(21, 20, 2)],
    (2, 4): [(51, 50, 3)],
    (2, 5): [(129, 128, 4)],
    (3, 2): [(21, 20, 2)],
    (3, 3): [(67, 66, 3)],
    (3, 4): [(213, 212, 3)],
    (3, 5): [(691, 690, 5)],
    (4, 2): [(51, 50, 3)],
    (4, 3): [(213, 212, 3)],
    (4, 4): [(849, 848, 4)],
    (4, 5): [(3369, 3368, 5)],
    (5, 2): [(129, 128, 4)],
    (5, 3): [(691, 690, 5)],
    (5, 4): [(3369, 3368, 5)],
    (5, 5): [(15931, 15930, 7)],
    "sweep (3,3)": [
        (10, 2, 1), (19, 3, 1), (64, 6, 1), (51, 5, 1), (47, 5, 1), (44, 1, 1),
        (26, 26, 1), (67, 66, 1), (51, 51, 1), (59, 58, 1), (57, 57, 1), (59, 58, 1),
    ],
}


def test_class_counts_and_rounds_are_pinned(monkeypatch):
    # how a stability check walks its blocks changes no partition and no
    # round count
    seen = []
    refine = reports.nerode_partition

    def counted(a):
        part = refine(a)
        seen.append((a.state_count, part.class_count, part.rounds))
        return part

    monkeypatch.setattr(reports, "nerode_partition", counted)
    got = {}
    for n1, n2 in itertools.product(range(2, 6), repeat=2):
        seen.clear()
        measure_stx(lambda: witness_pair(n1, n2), 2**22)
        got[n1, n2] = list(seen)
    seen.clear()
    sweep_reports(3, 3, jobs=1)
    got["sweep (3,3)"] = seen
    assert got == REFINEMENTS


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
        (lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0})), [(3, 3)]),
        (lambda: witness_pair(4, 4), [(4, 4)]),
        (lambda: witness_pair(2, 8), [(2, 8)]),
        (lambda: witness_pair(5, 4), []),
        (lambda: witness_pair(2, 9), []),
    ],
    ids=["monster (3,3)", "witness (4,4)", "witness (2,8)", "witness (5,4)", "witness (2,9)"],
)
def test_measure_stx_builds_one_table_per_grid_of_at_most_16_cells(
    monkeypatch, fresh_normalizer, build, tables
):
    built, handed = [], []
    table = reports.saturation_table

    def spy_table(n1, n2):
        built.append((n1, n2))
        return table(n1, n2)

    def spy_stx(*args, **kwargs):
        handed.append(kwargs["normalize"])
        return stx(*args, **kwargs)

    monkeypatch.setattr(reports, "saturation_table", spy_table)
    monkeypatch.setattr(reports, "stx", spy_stx)
    expected = (helpers.full_table_size(build, 2**22), "")
    assert measure_stx(build, 2**22) == measure_stx(build, 2**22) == expected
    # two measurements, one table at most, and one saturation for both
    assert built == tables
    assert len(handed) == 2 and handed[0] is handed[1]
    assert isinstance(handed[0], functools.partial) == (not tables)


@pytest.mark.parametrize(
    "build",
    [lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0})), lambda: witness_pair(5, 4)],
    ids=["monster (3,3), table", "witness (5,4), kernel"],
)
def test_the_check_saturates_nothing(monkeypatch, build):
    # every saturation measure_stx makes goes through the one it picked;
    # none happens while the check runs
    calls, during = [], []
    pick = reports.saturation_normalizer

    def spy_normalizer(n1, n2):
        saturate = pick(n1, n2)

        def counted(masks):
            calls.append(len(masks))
            return saturate(masks)

        return counted

    def spy_check(product, n1, n2):
        before = len(calls)
        holds = saturation_premises_hold(product, n1, n2)
        during.append(len(calls) - before)
        return holds

    def unused(*args, **kwargs):
        raise AssertionError("the premise check saturates nothing")

    monkeypatch.setattr(reports, "saturation_normalizer", spy_normalizer)
    monkeypatch.setattr(reports, "saturation_premises_hold", spy_check)
    assert measure_stx(build, 2**22)[1] == ""
    assert calls and during == [0]
    monkeypatch.setattr(reports, "saturate_masks", unused)
    monkeypatch.setattr(tableaux, "saturate_masks", unused)
    first, second = build()
    n1, n2 = first.state_count, second.state_count
    assert saturation_premises_hold(xor_modifier(first, second), n1, n2)


@pytest.mark.parametrize(
    "n1, n2, table",
    [
        (2, 1, True),
        (3, 3, True),
        (4, 4, True),
        (2, 8, True),
        (8, 2, True),
        (3, 6, False),
        (2, 9, False),
        (5, 4, False),
        (5, 5, False),
    ],
)
def test_the_table_serves_grids_of_at_most_16_cells(monkeypatch, fresh_normalizer, n1, n2, table):
    built = []

    def spy_table(n1, n2):
        built.append((n1, n2))
        return np.zeros(1 << n1 * n2, dtype=np.int32)

    monkeypatch.setattr(reports, "saturation_table", spy_table)
    normalize = reports.saturation_normalizer(n1, n2)
    assert reports.saturation_normalizer(n1, n2) is normalize
    assert isinstance(normalize, functools.partial) != table
    assert built == ([(n1, n2)] if table else [])
    if table:
        # the one table the process keeps is read-only
        assert not normalize.__self__.flags.writeable


@pytest.mark.parametrize(
    "n1, n2, letters, table",
    [
        (3, 3, 14, False),  # 504 images < 512 masks
        (3, 3, 15, True),  # 540 images
        (4, 4, 455, False),  # 65,520 images < 65,536 masks
        (4, 4, 456, True),
    ],
)
def test_the_table_pays_where_the_check_alone_saturates_as_many_masks(
    monkeypatch, fresh_normalizer, n1, n2, letters, table
):
    # the letter-by-letter check saturates one image per right triangle and
    # letter, as many masks as the table holds exactly where `table` says;
    # the grid check saturates none, and the grid rule builds the table at
    # any letter count, once for the process, so it pays either way
    rng = np.random.default_rng(letters)

    def operand(size):
        finals = np.flatnonzero(rng.random(size) < 0.5)
        return Dfa(letters, size, int(rng.integers(size)), finals, rng.integers(0, size, (size, letters)))

    product = xor_modifier(operand(n1), operand(n2))
    images = []

    def counted(masks):
        images.append(len(masks))
        return saturate_masks(masks, n1, n2)

    assert helpers.premises_by_letter_images(product, n1, n2, counted)
    assert sum(images) == n1 * (n1 - 1) * n2 * (n2 - 1) * letters
    assert (sum(images) >= 1 << n1 * n2) == table
    normalize = reports.saturation_normalizer(n1, n2)
    assert not isinstance(normalize, functools.partial)
    assert reports.saturation_normalizer(n1, n2) is normalize
    monkeypatch.setattr(tableaux, "saturate_masks", counted)
    monkeypatch.setattr(reports, "saturate_masks", counted)
    images.clear()
    assert saturation_premises_hold(product, n1, n2)
    assert images == []
