"""Report builders behind the CLI: the shared cap-skip path and the parallel sweep."""

import concurrent.futures
import itertools

import pytest

import helpers
from starxor import (
    MonsterSpec,
    count_constrained,
    experiments,
    final_zone,
    modifiers,
    monster2,
    reports,
    stx,
)
from starxor.experiments import full_monster_report, orbit_key, sweep_reports
from starxor.reports import measure_stx, verdict


@pytest.mark.parametrize(
    "caps, named",
    [
        ({"cap_letters": 10}, "letters exceed the cap of 10"),
        ({"cap_states": 4}, "subset states exceed the cap of 4"),
    ],
)
def test_full_monster_report_skips_at_a_cap(caps, named):
    report = full_monster_report(2, 2, **caps)
    assert report.verdict == "skipped"
    assert report.measured is None
    assert report.predicted == 9
    assert named in report.note


@pytest.mark.parametrize(
    "n, caps, at_target",
    [(2, {"cap_states": 4}, 9), (5, {"cap_letters": 10}, 15931)],
    ids=["states-2x2", "letters-5x5"],
)
def test_sweep_rows_skip_at_the_state_cap(n, caps, at_target):
    # every row carries its zone's tableau count, even where no construction ran
    rows, summary = sweep_reports(n, n, **caps)
    pairs = 4**n
    assert len(rows) == pairs
    assert all(row["verdict"] == "skipped" and row["measured"] is None for row in rows)
    assert all(type(row["predicted"]) is int for row in rows)
    target = next(row for row in rows if (row["F1"], row["F2"]) == ((n - 1,), (0,)))
    assert target["predicted"] == at_target
    assert summary.verdict == "skipped"
    assert summary.measured is None
    assert summary.note == f"{pairs} of {pairs} pairs hit a cap"


def test_sweep_starts_no_more_workers_than_orbits(monkeypatch):
    # a serial stand-in for the pool records the worker count and starts no process
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # sweep_reports imports the pool only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # (2,2) has 16 final-set pairs in 6 orbits
    rows, _ = sweep_reports(2, 2, jobs=1)
    assert started == []
    for jobs, workers in [(2, 2), (6, 6), (7, 6), (10**6, 6)]:
        assert sweep_reports(2, 2, jobs=jobs)[0] == rows
        assert started.pop() == workers


def test_parallel_sweep_gives_the_same_rows():
    rows, summary = sweep_reports(2, 2, jobs=1)
    parallel_rows, parallel_summary = sweep_reports(2, 2, jobs=2)
    assert parallel_rows == rows
    assert parallel_summary.measured == summary.measured
    assert parallel_summary.verdict == summary.verdict == "pass"


@pytest.mark.parametrize(
    "n1, n2, jobs",
    [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 3, 2)],
)
def test_orbit_sweep_gives_the_rows_of_one_construction_per_pair(n1, n2, jobs):
    rows, summary = sweep_reports(n1, n2, jobs=jobs)
    assert rows == helpers.sweep_rows_exhaustive(n1, n2)
    assert summary.verdict == "pass"


def test_orbit_sweep_skips_whole_orbits_at_a_cap():
    # at 20 subset states some orbits are measured and the others skip
    rows, summary = sweep_reports(3, 3, cap_states=20)
    expected = helpers.sweep_rows_exhaustive(3, 3, cap_states=20)
    assert rows == expected
    skipped = sum(row["measured"] is None for row in expected)
    assert 0 < skipped < len(expected)
    assert summary.verdict == "skipped"
    assert summary.note == f"{skipped} of {len(expected)} pairs hit a cap"


@pytest.mark.parametrize(
    "n1, n2, caps, constructions",
    [(3, 3, {}, 12), (4, 3, {"cap_letters": 10}, 0)],
)
def test_sweep_builds_one_construction_per_orbit(monkeypatch, n1, n2, caps, constructions):
    # one alphabet and one saturation table per sweep, and one subset
    # construction per orbit; a letter cap fires once, and no construction
    # runs
    alphabets, tables, built = [], [], []
    table = reports.saturation_table

    def counted_monster2(*args, **kwargs):
        alphabets.append(args)
        return monster2(*args, **kwargs)

    def counted_table(*args):
        tables.append(args)
        return table(*args)

    def counted_stx(*args, **kwargs):
        built.append(args)
        return stx(*args, **kwargs)

    # saturation_normalizer keeps the table of each grid it has built
    reports.saturation_normalizer.cache_clear()
    monkeypatch.setattr(experiments, "monster2", counted_monster2)
    monkeypatch.setattr(reports, "saturation_table", counted_table)
    monkeypatch.setattr(reports, "stx", counted_stx)
    rows, _ = sweep_reports(n1, n2, **caps)
    assert len(alphabets) == 1
    assert tables == ([(n1, n2)] if constructions else [])
    assert len(built) == constructions
    assert len(rows) == 2 ** (n1 + n2)
    if caps:
        assert all(row["verdict"] == "skipped" for row in rows)


def test_sweep_counts_one_prediction_per_orbit(monkeypatch):
    # 12 orbits at (3,3) for 64 rows; each row still carries its zone's count
    zones = []

    def counted(z):
        zones.append(z)
        return count_constrained(z)

    monkeypatch.setattr(experiments, "count_constrained", counted)
    rows, _ = sweep_reports(3, 3)
    assert len(zones) == 12
    assert [row["predicted"] for row in rows] == [
        count_constrained(final_zone(3, 3, row["F1"], row["F2"])) for row in rows
    ]


@pytest.mark.parametrize("n, orbits", [(1, 2), (2, 6), (3, 12), (4, 20)])
def test_orbit_key_is_swap_invariant_at_square_sizes(n, orbits):
    keys = set()
    for f1 in helpers.final_sets(n):
        for f2 in helpers.final_sets(n):
            key = orbit_key(n, n, f1, f2)
            assert orbit_key(n, n, f2, f1) == key
            keys.add(key)
    assert len(keys) == orbits


@pytest.mark.parametrize("n1, n2", list(itertools.product(range(1, 5), repeat=2)))
def test_prediction_is_constant_on_each_orbit(n1, n2):
    by_orbit = {}
    for f1 in helpers.final_sets(n1):
        for f2 in helpers.final_sets(n2):
            predicted = count_constrained(final_zone(n1, n2, f1, f2))
            by_orbit.setdefault(orbit_key(n1, n2, f1, f2), set()).add(predicted)
    assert all(len(values) == 1 for values in by_orbit.values())


@pytest.mark.parametrize(
    "build_pair, transition_cap, named",
    [
        (
            lambda: monster2(MonsterSpec.pair(3, 3, {2}, {0})),
            729 * 10,
            "exceed the cap of 7290 transitions",
        ),
        (
            lambda: (helpers.cycle_dfa(8), helpers.cycle_dfa(8)),
            modifiers.TRANSITION_CAP,
            "64 operand states exceed the limit of 63",
        ),
    ],
)
def test_transition_cap_and_mask_limit_give_skipped_verdicts(
    monkeypatch, build_pair, transition_cap, named
):
    monkeypatch.setattr(modifiers, "TRANSITION_CAP", transition_cap)
    measured, note = measure_stx(build_pair, 2**22)
    assert measured is None
    assert named in note
    assert verdict(measured, 67) == "skipped"
