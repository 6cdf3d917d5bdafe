"""Tests of the benchmark itself: output checks, span arithmetic, the runner.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import functools
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import WORKLOADS, check_unit, records  # noqa: E402
from tracing import (  # noqa: E402
    LAYER_METRICS,
    Tracer,
    TracingError,
    _exhaustive_masks,
    layer_metrics,
    self_times,
    wrapper_cost,
)

WITNESS = WORKLOADS["witness-deep"]
SWEEP = WORKLOADS["sweep-wide"]
TABLE = WORKLOADS["formula-table"]


def _report(**changes) -> str:
    reports = json.loads(WITNESS.expected_text())
    reports[0].update(changes, wall_time_ms=35000.0)
    return json.dumps(reports)


def _csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _table_rows(workload) -> list[dict]:
    return records(workload, workload.expected_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_frozen_outputs_pass_their_checks(name):
    w = WORKLOADS[name]
    assert check_unit(w, w.expected_rc, w.expected_text()) == []


def test_witness_timing_is_ignored():
    assert check_unit(WITNESS, 1, _report()) == []


@pytest.mark.parametrize("rc", [0, 1])
def test_a_closed_gap_is_rejected(rc):
    problems = check_unit(WITNESS, rc, _report(measured=3369, verdict="pass"))
    assert any("record 0" in p for p in problems)


def test_a_skipped_witness_is_rejected():
    problems = check_unit(WITNESS, 0, _report(measured=None, verdict="skipped"))
    assert "a verdict is skipped" in problems
    assert any("exit status 0" in p for p in problems)


def test_a_skipped_sweep_row_is_rejected():
    rows = _table_rows(SWEEP)
    rows[5].update(measured="None", verdict="skipped")
    assert "a verdict is skipped" in check_unit(SWEEP, 0, _csv(rows))


def test_a_wrong_csv_row_is_rejected():
    rows = _table_rows(TABLE)
    at = next(i for i, r in enumerate(rows) if (r["n1"], r["n2"]) == ("4", "4"))
    rows[at]["alpha"] = "2101"
    problems = check_unit(TABLE, 0, _csv(rows))
    assert problems == [f"record {at} is {rows[at]}, expected {_table_rows(TABLE)[at]}"]


def test_a_missing_csv_row_is_rejected():
    rows = _table_rows(SWEEP)[:-1]
    assert "63 records, expected 64" in check_unit(SWEEP, 0, _csv(rows))


def test_unexpected_status_and_missing_or_garbled_output_are_rejected():
    assert check_unit(TABLE, 2, TABLE.expected_text()) == ["exit status 2, expected 0"]
    assert check_unit(WITNESS, 1, None) == ["no output file"]
    assert check_unit(WITNESS, 1, "[1, 2")[0].startswith("unreadable output")
    assert check_unit(WITNESS, 1, "[1, 2]")[0].startswith("unreadable output")


def test_frozen_values_agree_with_the_readme_gap_table():
    table = {(int(r["n1"]), int(r["n2"])): r for r in _table_rows(TABLE)}
    assert len(table) == 36
    # README, "The one-state gap": predicted values by size
    for size, predicted in {
        (2, 2): 9, (2, 3): 21, (3, 2): 21, (3, 3): 67,
        (4, 3): 213, (3, 4): 213, (4, 4): 849,
    }.items():
        assert int(table[size]["predicted"]) == predicted
    assert [table[4, 4][k] for k in ("alpha", "alpha_pinned", "predicted")] == ["2100", "593", "849"]
    assert [table[5, 5][k] for k in ("alpha", "alpha_pinned", "predicted")] == ["48032", "11731", "15931"]

    [witness] = records(WITNESS, WITNESS.expected_text())
    assert (witness["measured"], witness["predicted"], witness["verdict"]) == (3368, 3369, "fail")
    assert witness["predicted"] == int(table[5, 4]["predicted"])

    sweep = _table_rows(SWEEP)
    assert len(sweep) == 64
    assert all(int(r["measured"]) <= int(r["predicted"]) for r in sweep)
    assert all(r["verdict"] == "pass" for r in sweep)
    # README: 66 measured at (3,3), one below the prediction, at the target finals
    best = max(int(r["measured"]) for r in sweep)
    target = next(r for r in sweep if (r["F1"], r["F2"]) == ("{2}", "{0}"))
    assert best == int(target["measured"]) == int(table[3, 3]["predicted"]) - 1 == 66


def _span(name, parent, start, end, rss_mb=1.0, counts=None):
    span = {"name": name, "parent": parent, "start": start, "end": end, "rss_mb": rss_mb}
    if counts is not None:
        span["counts"] = counts
    return span


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a1", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 9.0),
        # overlapping children count once, and only inside their parent
        _span("b1", 3, 4.5, 6.0),
        _span("b2", 3, 5.5, 7.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 1.5])


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("experiments.sc_reports", 0, 0.5, 9.5),
        _span("witness.verify_witness", 1, 1.0, 9.0),
        _span("modifiers.stx", 2, 1.0, 3.0, 50.0, {"states": 100, "letters": 17}),
        _span("automata.minimize", 2, 3.0, 8.5, 80.0, {"classes": 10}),
        _span("automata.accessible_part", 4, 3.5, 4.0),
        _span("automata.nerode_partition", 4, 4.0, 8.0),
        _span("tableaux.count_rtf", 2, 8.5, 9.0, counts={"masks": 16}),
    ]
    m = layer_metrics(spans)
    assert set(m) == {name for name, _ in LAYER_METRICS}
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["experiments.self_s"] == pytest.approx(1.0)
    assert m["witness.verify_witness_self_s"] == pytest.approx(0.0)
    assert m["modifiers.stx_s"] == pytest.approx(2.0)
    assert m["automata.minimize_self_s"] == pytest.approx(1.0)
    assert m["automata.accessible_part_s"] == pytest.approx(0.5)
    assert m["automata.nerode_partition_s"] == pytest.approx(4.0)
    assert m["tableaux.count_rtf_s"] == pytest.approx(0.5)
    assert m["trace.coverage"] == pytest.approx(0.8)
    assert m["modifiers.transitions"] == 1700
    assert m["modifiers.states_per_s"] == pytest.approx(50.0)
    assert m["automata.useful_ratio"] == pytest.approx(0.1)
    assert (m["modifiers.stx_rss_mb"], m["automata.minimize_rss_mb"]) == (50.0, 80.0)
    assert m["tableaux.masks_enumerated"] == 16
    assert m["monsters.calls"] == 0


def test_traced_child_records_every_layer_of_a_witness_run(tmp_path):
    out, result = tmp_path / "report.json", tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), repr(time.monotonic()),
         str(ROOT / "src"), "1", str(result),
         "sc", "--method", "witness", "--n1", "3", "--n2", "3", "--report", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr  # 66 measured against 67 predicted
    data = json.loads(result.read_text())
    assert data["rc"] == 1 and 0 < data["setup_s"] < data["verdict_s"] + 30
    names = [s["name"] for s in data["spans"]]
    assert names[0] == "cli.main"
    for name in ("experiments.sc_reports", "witness.verify_witness", "witness.witness_pair",
                 "modifiers.stx", "automata.minimize", "automata.accessible_part",
                 "automata.nerode_partition", "tableaux.predicted_complexity"):
        assert name in names
    nerode = names.index("automata.nerode_partition")
    assert names[data["spans"][nerode]["parent"]] == "automata.minimize"
    own = self_times(data["spans"])
    root = data["spans"][0]
    assert sum(own) == pytest.approx(root["end"] - root["start"])
    m = layer_metrics(data["spans"])
    assert m["automata.classes"] == 66
    assert m["automata.useful_ratio"] == pytest.approx(66 / m["modifiers.reachable_states"])
    assert 0 < m["trace.coverage"] < 1


@pytest.fixture
def tableaux():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import starxor.cli  # noqa: F401  (loads every module the tracer rebinds)
        import starxor.tableaux

        yield starxor.tableaux
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_install_refuses_a_traced_name_that_is_not_a_plain_function(tableaux, monkeypatch):
    original = tableaux.count_rtf
    monkeypatch.setattr(tableaux, "count_rtf", functools.lru_cache(maxsize=None)(original))
    monkeypatch.delattr(tableaux, "final_zone")
    with pytest.raises(TracingError, match="tableaux.count_rtf, tableaux.final_zone"):
        Tracer().install()
    # nothing was rebound before the refusal
    assert tableaux.predicted_complexity.__module__ == "starxor.tableaux"
    assert not hasattr(tableaux.predicted_complexity, "__wrapped__")


def test_mask_count_refuses_a_missing_cell_budget(tableaux, monkeypatch):
    assert _exhaustive_masks(4, 5) == 2**20 and _exhaustive_masks(5, 5) == 0
    monkeypatch.delattr(tableaux, "EXHAUSTIVE_CELL_BUDGET")
    with pytest.raises(TracingError, match="EXHAUSTIVE_CELL_BUDGET"):
        _exhaustive_masks(2, 2)
    with pytest.raises(TracingError, match="tableaux.EXHAUSTIVE_CELL_BUDGET"):
        Tracer().install()


def test_a_renamed_layer_fails_the_traced_unit(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    for module in (src / "starxor").glob("*.py"):
        module.write_text(module.read_text().replace("nerode_partition", "coarsest_partition"))
    out, result = tmp_path / "table.csv", tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), repr(time.monotonic()), str(src), "1",
         str(result), "export", "--what", "alpha-table", "--format", "csv",
         "--max-x", "2", "--max-y", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "TracingError" in proc.stderr and "automata.nerode_partition" in proc.stderr
    assert not result.exists() and not out.exists()


def test_wrapper_cost_is_small_and_positive():
    assert 0 <= wrapper_cost(calls=200, repeats=2) < 1e-3


def test_run_reports_the_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "formula-table",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, context, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads(context)["context"]["seed"] == 3
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_run_counts_units_whose_output_differs(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    frozen = tmp_path / "perfbench" / "expected" / TABLE.expected_file
    frozen.write_text(frozen.read_text().replace("2100,593,849", "2100,593,848"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "formula-table",
         "--seed", "4", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["tableaux.masks_enumerated"]["value"] > 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in LAYER_METRICS] + [
        "trace.verdict_s", "trace.untraced_verdict_s", "trace.overhead_s", "trace.overhead_est_s"
    ]
