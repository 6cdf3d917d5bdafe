"""scripts/bench_pair.py: paired perfbench runs into a BENCH file and Markdown rows."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def _run_file(path, tree, verdict_s, rss, seed=1, trace=0):
    context = {
        "workload": "sweep-wide", "seed": seed, "seconds": 25, "trace": trace,
        "nproc": 2, "python": "3.11", "numpy": "2.4", "revision": {"src_sha256": tree},
    }
    result = {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {
            "verdict_s": {"value": verdict_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    path.write_text(json.dumps({"context": context}) + "\n" + json.dumps(result) + "\n")
    return str(path)


def test_pairs_give_medians_wins_and_the_gain_rule(tmp_path, capsys):
    parent = [_run_file(tmp_path / f"p{i}", "old", 1.8 + i / 100, 38.0) for i in range(10)]
    change = [_run_file(tmp_path / f"c{i}", "new", 0.6 + i / 100, 38.5) for i in range(10)]
    out = tmp_path / "BENCH_x.json"
    assert bench_pair.main(
        ["--label", "x", "--parent", *parent, "--change", *change, "--out", str(out)]
    ) == 0
    metrics = json.loads(out.read_text())["workloads"]["sweep-wide"]["metrics"]
    verdict = metrics["verdict_s"]
    assert verdict["parent"]["median"] == pytest.approx(1.845)
    assert verdict["change"]["median"] == pytest.approx(0.645)
    assert (verdict["wins"], verdict["losses"], verdict["pairs"]) == (10, 0, 10)
    assert verdict["gain"] and verdict["within_bound"]
    rss = metrics["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["gain"]) == (0, 10, False)
    assert rss["within_bound"]  # 38.5 is within 5% of 38.0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2] == "| sweep-wide | verdict_s | 1.845 s [1.823, 1.868] | 0.645 s [0.6225, 0.6675] | 0.3496 | 10/10 |"


def test_runs_from_two_trees_on_one_side_are_refused(tmp_path, capsys):
    parent = [_run_file(tmp_path / "p0", "old", 1.8, 38), _run_file(tmp_path / "p1", "other", 1.8, 38)]
    change = [_run_file(tmp_path / "c0", "new", 0.6, 38), _run_file(tmp_path / "c1", "new", 0.6, 38)]
    out = tmp_path / "BENCH_x.json"
    assert bench_pair.main(
        ["--label", "x", "--parent", *parent, "--change", *change, "--out", str(out)]
    ) == 2
    assert "2 different source trees" in capsys.readouterr().err
    assert not out.exists()
