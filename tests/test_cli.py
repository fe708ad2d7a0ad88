"""Command line contract: flags, exit codes, report shape, determinism."""

import json

import pytest

from qubitbench.cli import main
from qubitbench.suites import SuiteConfig, describe, render_text, run_suite


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="unknown")
    with pytest.raises(ValueError):
        SuiteConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(trials=-1)
    with pytest.raises(ValueError):
        SuiteConfig(suite="bosonic", cutoff=1)
    assert main(["--format", "yaml"]) == 2
    # a sub-two cutoff is fine for suites that never build the optical gates
    SuiteConfig(suite="repetition", cutoff=1)


def test_report_document_shape():
    doc = run_suite(SuiteConfig(suite="algebra", trials=3))
    assert sorted(doc.keys()) == ["all_pass", "checks", "config", "suite"]
    assert sorted(doc["config"].keys()) == ["cutoff", "seed", "tolerance", "trials"]
    for check in doc["checks"]:
        assert sorted(check.keys()) == ["max_deviation", "name", "pass"]
        assert isinstance(check["max_deviation"], float)
        assert isinstance(check["pass"], bool)
    assert doc["all_pass"] is True


def test_all_suite_collects_everything():
    doc = run_suite(SuiteConfig(suite="all", trials=2))
    prefixes = {c["name"].split("/")[0] for c in doc["checks"]}
    assert prefixes == {"bosonic", "repetition", "collective", "algebra"}
    assert len(doc["checks"]) >= 30
    assert doc["all_pass"] is True


def test_run_is_deterministic_per_config():
    a = run_suite(SuiteConfig(suite="repetition", trials=6, seed=3))
    b = run_suite(SuiteConfig(suite="repetition", trials=6, seed=3))
    assert json.dumps(a) == json.dumps(b)


def test_text_rendering_sorted_and_summarized():
    doc = run_suite(SuiteConfig(suite="algebra", trials=2))
    text = render_text(doc)
    lines = [l for l in text.splitlines() if l.startswith(("PASS", "FAIL"))]
    names = [l.split()[1] for l in lines]
    assert names == sorted(names)
    assert "all passed" in text


def test_cli_exit_zero_and_text_output(capsys):
    code, out, err = run_cli(["--suite", "algebra", "--trials", "2"], capsys)
    assert code == 0
    assert "all passed" in out
    assert err == ""


def test_cli_exit_one_on_failed_check(capsys):
    code, out, _ = run_cli(
        ["--suite", "algebra", "--trials", "2", "--tol", "1e-30"], capsys
    )
    assert code == 1
    assert "FAIL" in out


def test_cli_usage_errors(capsys):
    assert run_cli(["--suite", "nope"], capsys)[0] == 2
    assert run_cli(["--tol", "-5"], capsys)[0] == 2
    assert run_cli(["--trials", "-1"], capsys)[0] == 2
    assert run_cli(["--suite", "bosonic", "--cutoff", "1"], capsys)[0] == 2
    assert run_cli(["--cutoff", "1"], capsys)[0] == 2  # "all" includes bosonic


def test_cli_io_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "report.json"
    code, _, err = run_cli(
        ["--suite", "algebra", "--trials", "2", "--out", str(missing)], capsys
    )
    assert code == 3
    assert "cannot write report" in err


def test_cli_json_report_is_byte_identical(capsys, tmp_path):
    args = ["--suite", "repetition", "--trials", "4", "--seed", "11",
            "--format", "json"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["suite"] == "repetition"
    assert doc["config"]["seed"] == 11


def test_cli_json_to_stdout(capsys):
    code, out, _ = run_cli(
        ["--suite", "algebra", "--trials", "2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True


def test_cli_seed_changes_nothing_structural(capsys):
    doc5 = run_suite(SuiteConfig(suite="collective", trials=4, seed=5))
    doc6 = run_suite(SuiteConfig(suite="collective", trials=4, seed=6))
    assert [c["name"] for c in doc5["checks"]] == [c["name"] for c in doc6["checks"]]
    assert doc5["all_pass"] and doc6["all_pass"]


# The checks that only sample random states; every other check runs at any
# trials value.
RANDOMIZED_INVARIANCE_CHECKS = {
    "repetition/single_error_expectation_invariance",
    "repetition/recovered_word_expectation_invariance",
    "repetition/error_then_recovery_channel_invariance",
    "collective/collective_unitary_expectation_invariance_singlet_triplet",
    "collective/collective_unitary_expectation_invariance_omega",
}


def test_cli_trials_zero_keeps_static_checks(capsys):
    code, out, _ = run_cli(["--trials", "0", "--format", "json"], capsys)
    assert code == 0
    static = [c["name"] for c in json.loads(out)["checks"]]
    full = [c["name"] for c in run_suite(SuiteConfig(trials=100))["checks"]]
    assert static == [name for name in full if name not in RANDOMIZED_INVARIANCE_CHECKS]
    assert len(static) == len(full) - 5


def test_cli_describe(capsys):
    code, out, _ = run_cli(["--suite", "collective", "--describe"], capsys)
    assert code == 0
    assert "commutant" in out
    code, out, _ = run_cli(["--describe"], capsys)
    assert code == 0
    for name in ("bosonic", "repetition", "collective", "algebra"):
        assert f"[{name}]" in out


def test_describe_rejects_unknown_suite():
    with pytest.raises(ValueError):
        describe("nope")


def test_cli_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "--suite" in out
