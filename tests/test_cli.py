import csv
import math
import re
from pathlib import Path

import pytest

from gexpect.cli import (CSV_COLUMNS, RunConfig, SCENARIO_NAMES, execute, main,
                         outcome_rows, parse_args, render_report, run_scenarios)
from gexpect.errors import GExpectError


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args(["run", "--scenario", "all"])
        assert cfg.scenarios == SCENARIO_NAMES
        assert cfg.sigma_low_sq == 1.0 and cfg.sigma_high_sq == 4.0
        assert cfg.alpha == 4.0 and cfg.tol == 1e-3
        assert cfg.report == "csv" and cfg.refine == 0

    def test_single_scenario_and_overrides(self):
        cfg = parse_args(["run", "--scenario", "invertible-scan", "--h", "0.25",
                          "--sigma-high-sq", "9", "--out", "r.csv"])
        assert cfg.scenarios == ("invertible-scan",)
        assert cfg.h == 0.25 and cfg.sigma_high_sq == 9.0 and cfg.out == "r.csv"

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(GExpectError, match="valid names"):
            parse_args(["run", "--scenario", "bogus"])

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario = invertible-scan\nsigma-high-sq = 9  # comment\nh = 0.5\n")
        cfg = parse_args(["run", "--config", str(cfgfile), "--h", "0.25"])
        assert cfg.scenarios == ("invertible-scan",)
        assert cfg.sigma_high_sq == 9.0
        assert cfg.h == 0.25  # flag wins over file

    def test_config_file_rejects_garbage(self, tmp_path):
        bad = tmp_path / "run.cfg"
        bad.write_text("h 0.5\n")
        with pytest.raises(GExpectError, match="key = value"):
            parse_args(["run", "--config", str(bad)])

    def test_run_config_validation(self):
        with pytest.raises(GExpectError):
            RunConfig(alpha=-1.0)
        with pytest.raises(GExpectError):
            RunConfig(report="pdf")
        with pytest.raises(GExpectError):
            RunConfig(refine=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("name", ["alpha", "t", "tol", "h", "half_width", "dt"])
def test_run_config_rejects_non_finite(name, bad):
    with pytest.raises(GExpectError, match=name):
        RunConfig(**{name: bad})


@pytest.mark.parametrize("flags", [["--h", "nan"], ["--t", "inf"], ["--sigma-low-sq", "5"]])
def test_bad_flags_exit_2_without_traceback(flags, capsys):
    assert main(["run", "--scenario", "invertible-scan"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestExecute:
    def test_fast_scenario_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = execute(RunConfig(scenarios=("invertible-scan",), out=str(out)))
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) > 10
        assert all(r[0] == "invertible-scan" for r in rows[1:])
        assert "[PASS] invertible-scan" in capsys.readouterr().out

    def test_csv_rows_are_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            execute(RunConfig(scenarios=("invertible-scan",), out=str(p)))
        assert paths[0].read_text() == paths[1].read_text()

    def test_md_report(self, tmp_path):
        out = tmp_path / "results.md"
        execute(RunConfig(scenarios=("invertible-scan",), out=str(out), report="md"))
        text = out.read_text()
        assert text.startswith("| scenario |")
        assert "| --- |" in text.splitlines()[1]

    def test_unwritable_output_fails(self, capsys):
        code = execute(RunConfig(scenarios=("invertible-scan",),
                                 out="/nonexistent-dir/results.csv"))
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_exit_codes_via_main(self, capsys):
        assert main(["run", "--scenario", "bogus"]) == 2
        assert "valid names" in capsys.readouterr().err


class TestThreads:
    def test_env_cap_respected(self, monkeypatch):
        monkeypatch.setenv("GEXPECT_THREADS", "1")
        outcomes, _ = run_scenarios(RunConfig(scenarios=("invertible-scan",)))
        assert outcomes[0].name == "invertible-scan"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("GEXPECT_THREADS", "many")
        with pytest.raises(GExpectError, match="GEXPECT_THREADS"):
            run_scenarios(RunConfig(scenarios=("invertible-scan",)))


def test_outcome_rows_order_follows_catalog():
    outcomes, _ = run_scenarios(RunConfig(scenarios=("invertible-scan",)))
    rows = outcome_rows(outcomes)
    # quantities first (assertion column empty), then assertions
    kinds = ["q" if r[4] == "" else "a" for r in rows[1:]]
    assert kinds == sorted(kinds, key=lambda k: k == "a")


def test_render_report_csv_roundtrip():
    rows = [list(CSV_COLUMNS), ["s", "l", "1", "0", "", "", ""]]
    text = render_report(rows, "csv")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_refine_without_h_exits_2_without_traceback(capsys):
    with pytest.raises(GExpectError, match="refine needs h"):
        RunConfig(refine=1)
    assert main(["run", "--scenario", "asymmetric-independence", "--refine", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readme_scenario_table_lists_the_catalog():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    names = re.findall(r"^\| `([a-z-]+)` \|", readme.read_text(encoding="utf-8"), re.M)
    assert tuple(names) == SCENARIO_NAMES


def test_refine_rows_same_with_one_thread_and_auto(monkeypatch):
    cfg = RunConfig(scenarios=("asymmetric-independence", "quadratic-form"), h=0.25, refine=1)
    rows = []
    for threads in ("1", "0"):
        monkeypatch.setenv("GEXPECT_THREADS", threads)
        outcomes, deltas = run_scenarios(cfg)
        rows.append(outcome_rows(outcomes, deltas, cfg.refine))
    assert rows[0] == rows[1]
    assert rows[0][0][-1] == "refinement_delta_1" and len(rows[0]) > 10
