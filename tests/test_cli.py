"""End-to-end checks of the command line entry point."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from starxor import import_json, sigma_prime
from starxor.cli import main

REFERENCES = Path(__file__).resolve().parent / "references"

# Every text argparse prints for the CLI: --help at the top and for each
# subcommand, and the usage errors it raises before main checks anything.
# None of these runs a subcommand, so no output file is ever written.
CLI_TEXT_CASES = {
    "help": ["--help"],
    "sc-help": ["sc", "--help"],
    "sweep-finals-help": ["sweep-finals", "--help"],
    "verify-figures-help": ["verify-figures", "--help"],
    "export-help": ["export", "--help"],
    "no-subcommand": [],
    "unknown-subcommand": ["nonsense"],
    "double-dash-first": ["--", "sc", "--n1", "2", "--n2", "2"],
    "help-after-subcommand-options": ["sc", "--n1", "2", "--help"],
    "sc-missing-n2": ["sc", "--n1", "2"],
    "sweep-missing-sizes": ["sweep-finals"],
    "export-missing-what": ["export", "--format", "csv", "--out", "alpha.csv"],
    "sc-bad-method": ["sc", "--n1", "2", "--n2", "2", "--method", "nonsense"],
    "sc-option-of-sweep": ["sc", "--n1", "2", "--n2", "2", "--jobs", "2"],
    "sweep-option-of-sc": ["sweep-finals", "--n1", "2", "--n2", "2", "--method", "formula"],
    "figures-option-of-export": ["verify-figures", "--max-x", "3"],
    "export-option-of-sc": [
        "export", "--what", "alpha-table", "--format", "csv", "--out", "alpha.csv",
        "--report", "r.json",
    ],
}


def cli_texts() -> str:
    """The stdout, stderr and exit code of every CLI_TEXT_CASES run, as JSON text."""
    texts = {}
    for name, argv in CLI_TEXT_CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        texts[name] = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return json.dumps(texts, indent=2) + "\n"


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the frozen text is Python 3.11's argparse"
)
def test_cli_text_matches_its_frozen_copy(monkeypatch):
    # tests/references/cli-text.json is the text as the CLI printed it when
    # it still built every subcommand's arguments on each run, so building
    # only the named subcommand's changes no byte of it; argparse wraps at
    # the terminal width, which COLUMNS fixes
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_texts() == (REFERENCES / "cli-text.json").read_text()


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
    first, first_labels = import_json(json.dumps(payload["first"]))
    second, second_labels = import_json(json.dumps(payload["second"]))
    assert first.state_count == 3 and second.state_count == 2
    assert first.letter_count == second.letter_count == 17
    assert first_labels == second_labels == tuple(letter.render() for letter in sigma_prime(3, 2))
    assert "witness pair" in capsys.readouterr().out


def test_witness_pair_export_matches_its_frozen_text(tmp_path, capsys):
    # tests/references/witness-pair-3-4.json is the export as the CLI wrote it,
    # letter labels included
    path = tmp_path / "pair.json"
    argv = ["--what", "witness-pair", "--format", "json", "--n1", "3", "--n2", "4"]
    assert main(["export", *argv, "--out", str(path)]) == 0
    capsys.readouterr()
    expected = Path(__file__).resolve().parent / "references" / "witness-pair-3-4.json"
    assert path.read_text() == expected.read_text()


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


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize(
    "what", ["example-monster", "star-monster", "renamed-dfa", "star-renamed"]
)
def test_reference_exports_match_their_frozen_text(tmp_path, capsys, what, fmt):
    # tests/references holds each figure as the CLI wrote it, letter labels included
    path = tmp_path / f"{what}.{fmt}"
    assert main(["export", "--what", what, "--format", fmt, "--out", str(path)]) == 0
    capsys.readouterr()
    expected = Path(__file__).resolve().parent / "references" / f"{what}.{fmt}"
    assert path.read_text() == expected.read_text()


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
        ["sc", "--n1", "2", "--n2", "2", "--report", "{tmp}"],
        ["sweep-finals", "--n1", "2", "--n2", "2", "--csv", "{tmp}"],
        ["export", "--what", "alpha-table", "--format", "csv", "--out", "{tmp}"],
    ],
    ids=[
        "witness-size", "zero-size", "sweep-zero-size", "jobs", "report-dir", "csv-dir",
        "out-dir", "negative-cap-states", "zero-cap-states", "zero-cap-letters",
        "negative-max-x", "negative-max-y", "report-is-dir", "csv-is-dir", "out-is-dir",
    ],
)
def test_usage_errors_exit_2_before_any_work(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    code = main([a.format(missing=missing, tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"{argv[0]} error: ")
    assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sc", "--n1", "2", "--n2", "2", "--method", "formula", "--report", "/dev/full"],
        ["sweep-finals", "--n1", "2", "--n2", "2", "--csv", "/dev/full"],
        ["export", "--what", "alpha-table", "--format", "csv", "--out", "/dev/full"],
    ],
    ids=["sc-report", "sweep-csv", "export-out"],
)
def test_a_failed_write_exits_2_with_one_line(argv, capsys):
    # /dev/full refuses every write with ENOSPC
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{argv[0]} error: ")


ALPHA = ["export", "--what", "alpha-table", "--format", "csv", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sc", "--n1", "2", "--n2", "2", "--jobs", "2"], "unrecognized arguments"),
        (["verify-figures", "--jobs", "2"], "unrecognized arguments"),
        (["verify-figures", "--cap-states", "5"], "unrecognized arguments"),
        (["verify-figures", "--cap-letters", "5"], "unrecognized arguments"),
        ([*ALPHA, "--jobs", "2"], "unrecognized arguments"),
        ([*ALPHA, "--cap-states", "5"], "unrecognized arguments"),
        ([*ALPHA, "--cap-letters", "5"], "unrecognized arguments"),
        # argparse knows these export options; _check_usage rejects them
        # where the artifact would ignore them
        ([*ALPHA, "--n1", "9", "--n2", "9"], "export error: --what alpha-table ignores --n1 and --n2"),
        ([*ALPHA, "--n2", "3", "--max-x", "5"], "export error: --what alpha-table ignores --n2"),
        (
            ["export", "--what", "star-monster", "--format", "dot", "--out", "{out}", "--n1", "3"],
            "export error: --what star-monster ignores --n1",
        ),
        (
            ["export", "--what", "example-monster", "--format", "json", "--out", "{out}",
             "--n1", "3", "--n2", "3", "--max-y", "2"],
            "export error: --what example-monster ignores --n1 and --n2 and --max-y",
        ),
        (
            ["export", "--what", "witness-pair", "--format", "json", "--out", "{out}",
             "--n1", "3", "--n2", "3", "--max-x", "2"],
            "export error: --what witness-pair ignores --max-x",
        ),
        (
            ["export", "--what", "renamed-dfa", "--format", "dot", "--out", "{out}", "--max-y", "4"],
            "export error: --what renamed-dfa ignores --max-y",
        ),
    ],
    ids=[
        "sc-jobs", "figures-jobs", "figures-cap-states", "figures-cap-letters",
        "export-jobs", "export-cap-states", "export-cap-letters",
        "alpha-table-sizes", "alpha-table-n2", "reference-n1", "reference-sizes-and-max-y",
        "witness-pair-max-x", "reference-max-y",
    ],
)
def test_options_a_subcommand_would_ignore_are_rejected(argv, error, tmp_path, capsys):
    out = tmp_path / "artifact"
    try:
        code = main([a.format(out=out) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert error in captured.err
    if error.startswith("export error"):
        assert captured.err == error + "\n"
    assert not out.exists()


def test_the_alpha_table_takes_its_bounds_and_defaults_to_4(tmp_path, capsys):
    # formula-table's own command, and the bounds left to export_artifact
    path = tmp_path / "alpha.csv"
    assert main([a.format(out=path) for a in ALPHA] + ["--max-x", "5", "--max-y", "5"]) == 0
    assert len(path.read_text().splitlines()) == 1 + 36
    assert main([a.format(out=path) for a in ALPHA] + ["--max-y", "1"]) == 0
    assert len(path.read_text().splitlines()) == 1 + 5 * 2
    assert main([a.format(out=path) for a in ALPHA]) == 0
    assert len(path.read_text().splitlines()) == 1 + 25
    capsys.readouterr()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # refinement derives its hash weights from splitmix64; importing
    # numpy.random would add start-up time and memory to every CLI process
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, starxor.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only a sweep with --jobs above 1 starts a pool; the rest of the CLI
    # should not pay for importing one
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, starxor.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[]"
