"""End-to-end checks of the command line entry point."""

import json
import re

import pytest

from starxor import import_json
from starxor.cli import main


def test_sc_formula_only(capsys):
    assert main(["sc", "--n1", "2", "--n2", "2", "--method", "formula"]) == 0
    out = capsys.readouterr().out
    assert "method=formula" in out
    assert "predicted=9" in out
    assert "verdict=pass" in out


def test_sc_all_reports_the_disagreement(capsys):
    # the three routes do not agree, so the combined run exits nonzero
    assert main(["sc", "--n1", "2", "--n2", "2"]) == 1
    out = capsys.readouterr().out
    assert "method=full-monster" in out
    assert "measured=8" in out
    assert "predicted=9" in out
    assert "methods disagree" in out


def test_sc_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["sc", "--n1", "2", "--n2", "2", "--report", str(path)]) == 1
    payload = json.loads(path.read_text())
    assert isinstance(payload, list) and len(payload) == 4
    methods = [entry["parameters"]["method"] for entry in payload]
    assert methods == ["formula", "full-monster", "witness", "all"]
    assert payload[1]["measured"] == 8
    assert payload[3]["verdict"] == "fail"
    assert f"report written to {path}" in capsys.readouterr().out


def test_sweep_prints_every_pair_and_passes(capsys):
    assert main(["sweep-finals", "--n1", "2", "--n2", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line for line in lines if line.startswith("F1=")]
    assert len(rows) == 16
    assert all("verdict=pass" in line for line in rows)
    assert "sweep-finals" in lines[-1]
    assert "verdict=pass" in lines[-1]


def test_sweep_csv(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    assert main(["sweep-finals", "--n1", "2", "--n2", "2", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n1,n2,F1,F2,measured,predicted,verdict"
    assert len(lines) == 17
    target = [line for line in lines if ",{1},{0}," in line]
    assert len(target) == 1 and target[0].endswith("8,9,pass")


def test_verify_figures(capsys):
    assert main(["verify-figures"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all("verdict=pass" in line for line in lines)


def test_export_witness_pair_round_trips(tmp_path, capsys):
    path = tmp_path / "pair.json"
    code = main(
        [
            "export",
            "--what", "witness-pair",
            "--format", "json",
            "--out", str(path),
            "--n1", "3",
            "--n2", "2",
        ]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    first = import_json(json.dumps(payload["first"]))
    second = import_json(json.dumps(payload["second"]))
    assert first.state_count == 3 and second.state_count == 2
    assert first.letter_count == second.letter_count == 17
    assert "witness pair" in capsys.readouterr().out


def test_export_alpha_table(tmp_path, capsys):
    path = tmp_path / "alpha.csv"
    code = main(
        ["export", "--what", "alpha-table", "--format", "csv", "--out", str(path)]
    )
    assert code == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n1,n2,alpha,alpha_pinned,predicted"
    assert len(lines) == 26
    assert "2,2,12,5,9" in lines
    assert "3,3,128,43,67" in lines


def test_export_dot(tmp_path, capsys):
    path = tmp_path / "star.dot"
    code = main(
        ["export", "--what", "star-monster", "--format", "dot", "--out", str(path)]
    )
    assert code == 0
    capsys.readouterr()
    text = path.read_text()
    nodes = re.findall(r"^  q\d+ \[shape=", text, flags=re.M)
    assert len(nodes) == 4
    assert text.count("doublecircle") == 3
    assert "__init -> q0;" in text


def test_export_rejects_bad_combinations(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    code = main(
        ["export", "--what", "example-monster", "--format", "csv", "--out", str(path)]
    )
    assert code == 2
    assert "export error" in capsys.readouterr().err
    assert not path.exists()


def test_export_rejects_unknown_artifact(tmp_path):
    with pytest.raises(SystemExit):
        main(["export", "--what", "nonsense", "--format", "dot", "--out", str(tmp_path / "x")])


@pytest.mark.parametrize(
    "argv",
    [
        ["sc", "--n1", "1", "--n2", "1"],
        ["sc", "--n1", "0", "--n2", "2", "--method", "formula"],
        ["sweep-finals", "--n1", "0", "--n2", "2"],
        ["sweep-finals", "--n1", "2", "--n2", "2", "--jobs", "0"],
        ["sc", "--n1", "2", "--n2", "2", "--report", "{missing}/r.json"],
        ["sweep-finals", "--n1", "2", "--n2", "2", "--csv", "{missing}/rows.csv"],
        ["export", "--what", "alpha-table", "--format", "csv", "--out", "{missing}/x.csv"],
        ["sc", "--n1", "3", "--n2", "3", "--method", "witness", "--cap-states", "-5"],
        ["sweep-finals", "--n1", "2", "--n2", "2", "--cap-states", "0"],
        ["sc", "--n1", "2", "--n2", "2", "--method", "full-monster", "--cap-letters", "0"],
        ["export", "--what", "alpha-table", "--format", "csv", "--out", "{missing}", "--max-x", "-2"],
        ["export", "--what", "alpha-table", "--format", "csv", "--out", "{missing}", "--max-y", "-1"],
    ],
    ids=[
        "witness-size", "zero-size", "sweep-zero-size", "jobs", "report-dir", "csv-dir",
        "out-dir", "negative-cap-states", "zero-cap-states", "zero-cap-letters",
        "negative-max-x", "negative-max-y",
    ],
)
def test_usage_errors_exit_2_before_any_work(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    code = main([a.format(missing=missing) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"{argv[0]} error: ")
    assert not missing.exists()
