"""Report builders behind the CLI: the shared cap-skip path and the parallel sweep."""

import pytest

import helpers
from starxor import MonsterSpec, modifiers, monster2
from starxor.experiments import full_monster_report, sweep_reports
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


def test_parallel_sweep_gives_the_same_rows():
    rows, summary = sweep_reports(2, 2, jobs=1)
    parallel_rows, parallel_summary = sweep_reports(2, 2, jobs=2)
    assert parallel_rows == rows
    assert parallel_summary.measured == summary.measured
    assert parallel_summary.verdict == summary.verdict == "pass"


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
