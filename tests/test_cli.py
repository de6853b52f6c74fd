import csv
import io
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import gexpect
from gexpect import cli, pde
from gexpect.cli import (CSV_COLUMNS, RunConfig, SCENARIO_NAMES, execute, main,
                         outcome_rows, parse_args, render_report, run_scenarios)
from gexpect.errors import GExpectError
from gexpect.scenarios import Assertion, Quantity, ScenarioOutcome


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args(["run", "--scenario", "all"])
        assert cfg.scenarios == SCENARIO_NAMES
        assert cfg.sigma_low_sq == 1.0 and cfg.sigma_high_sq == 4.0
        assert cfg.alpha == 4.0 and cfg.tol == 1e-3
        assert cfg.report == "csv"

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

    def test_config_file_repeated_scenario_extends(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario = asymmetric-independence\nh = 0.5\n"
                           "scenario = quadratic-form\nh = 0.25\n")
        cfg = parse_args(["run", "--config", str(cfgfile)])
        assert cfg.scenarios == ("asymmetric-independence", "quadratic-form")
        assert cfg.scenarios == parse_args(["run", "--scenario", "asymmetric-independence",
                                            "--scenario", "quadratic-form"]).scenarios
        assert cfg.h == 0.25  # a repeated scalar key: the last one wins

    def test_config_file_rejects_garbage(self, tmp_path):
        bad = tmp_path / "run.cfg"
        bad.write_text("h 0.5\n")
        with pytest.raises(GExpectError, match="key = value"):
            parse_args(["run", "--config", str(bad)])

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("sigma-hi-sq = 9\n")
        with pytest.raises(GExpectError, match=r"unknown key 'sigma-hi-sq'; valid keys: .*sigma-high-sq"):
            parse_args(["run", "--config", str(cfgfile)])

    def test_config_file_values_convert_through_the_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario = invertible-scan, quadratic-form\nh = 0.5\n"
                           "report = md\nout = r.md\n")
        cfg = parse_args(["run", "--config", str(cfgfile)])
        assert cfg.scenarios == ("invertible-scan", "quadratic-form")
        assert parse_args(["run", "--scenario", "invertible-scan,quadratic-form"]).scenarios \
            == cfg.scenarios  # the flag takes the same comma list
        assert (cfg.h, cfg.report, cfg.out) == (0.5, "md", "r.md")
        for bad, msg in (("h = x", "expected float"), ("report = pdf", "expected one of")):
            cfgfile.write_text(bad + "\n")
            with pytest.raises(GExpectError, match=msg):
                parse_args(["run", "--config", str(cfgfile)])

    def test_run_config_validation(self):
        with pytest.raises(GExpectError):
            RunConfig(alpha=-1.0)
        with pytest.raises(GExpectError):
            RunConfig(report="pdf")


def test_variance_error_shows_the_given_bounds():
    # checked before the horizon t scales them
    with pytest.raises(GExpectError, match=r"got \[5\.0, 4\.0\]"):
        RunConfig(sigma_low_sq=5.0, t=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("name", ["alpha", "t", "tol", "h", "half_width", "dt"])
def test_run_config_rejects_non_finite(name, bad):
    # the time step and the half widths are derived, never set: refused as unknown
    error, pattern = ((TypeError, f"'{name}'") if name in ("dt", "half_width")
                      else (GExpectError, f"^{name} "))
    with pytest.raises(error, match=pattern):
        RunConfig(**{name: bad})


@pytest.mark.parametrize("flags", [
    ["--h", "nan"], ["--t", "inf"], ["--sigma-low-sq", "5"],
    # argparse's own refusals (once a usage block and SystemExit from main)
    ["--h", "junk"], ["--report", "pdf"], ["--bogus"],
    ["--config", "{tmp}/missing.cfg"], ["--config", "{tmp}"], ["--config", "{tmp}/latin1.cfg"],
    ["--config", "{tmp}/unknown.cfg"],
])
def test_bad_flags_exit_2_without_traceback(flags, tmp_path, capsys):
    (tmp_path / "latin1.cfg").write_bytes("h = 0.5  # \u00e9\n".encode("latin-1"))
    (tmp_path / "unknown.cfg").write_text("sigma-hi-sq = 9\n")
    flags = [f.format(tmp=tmp_path) for f in flags]
    assert main(["run", "--scenario", "invertible-scan"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_unknown_name_beside_all_exits_2(where, tmp_path, capsys):
    # 'all' does not hide a bogus name beside it, on the command line or in a file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = all, bogus\n")
    argv = ["--scenario", "all,bogus"] if where == "flag" else ["--config", str(cfgfile)]
    assert main(["run"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scenario(s) bogus;") and err.count("\n") == 1


def _rejects(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return True
    return False


# strings no numeric flag converts: no '#' (a config comment) and nothing
# that splits a config line
JUNK = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                             blacklist_characters="#"), max_size=12).filter(_rejects)
NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False).map(repr)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e400"])
# finite spacings whose square overflows, which the time step scales with
HUGE = st.one_of(st.sampled_from(["1e200", "1e308"]), st.floats(1.4e154, 1e308).map(repr))
# every numeric flag (config key) with values it must refuse at the default
# variance bounds [1, 4]: the bounds refuse a swapped pair, the grid, time
# and tolerance settings anything but finite and positive, and h a value
# whose square overflows
BAD_NUMERIC = {
    "sigma-low-sq": st.one_of(NON_FINITE, NEGATIVE, JUNK,
                              st.floats(4.0, 1e300, exclude_min=True).map(repr)),
    "sigma-high-sq": st.one_of(NON_FINITE, NEGATIVE, JUNK, st.just("0"),
                               st.floats(0.0, 1.0, exclude_max=True).map(repr)),
    **{name: st.one_of(NON_FINITE, NEGATIVE, JUNK, st.sampled_from(["0", "-0", "0.0"]))
       for name in ("alpha", "t", "tol")},
    "h": st.one_of(NON_FINITE, NEGATIVE, JUNK, st.sampled_from(["0", "-0", "0.0"]), HUGE),
}
FIELD_NAMES = {"sigma-low-sq": "sigma_low_sq", "sigma-high-sq": "sigma_high_sq"}
BAD_SETTING = st.sampled_from(sorted(BAD_NUMERIC)).flatmap(
    lambda name: st.tuples(st.just(name), BAD_NUMERIC[name]))
SWAPPED = st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)).filter(
    lambda p: p[0] != p[1]).map(lambda p: (repr(max(p)), repr(min(p))))


def _exits_2_with_one_error_line(argv):
    stderr = io.StringIO()
    with patch.object(cli, "execute", side_effect=AssertionError("accepted a bad setting")), \
            redirect_stderr(stderr):
        code = main(["run", "--scenario", "invertible-scan"] + argv)
    err = stderr.getvalue()
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(setting=BAD_SETTING)
def test_fuzz_bad_flag_exits_2(setting):
    name, value = setting
    _exits_2_with_one_error_line([f"--{name}={value}"])


@settings(max_examples=60, deadline=None)
@given(setting=BAD_SETTING, dest_form=st.booleans())
def test_fuzz_bad_config_value_exits_2(setting, dest_form, tmp_path_factory):
    name, value = setting
    key = FIELD_NAMES.get(name, name) if dest_form else name
    cfgfile = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n", encoding="utf-8")
    _exits_2_with_one_error_line(["--config", str(cfgfile)])


@settings(max_examples=20, deadline=None)
@given(bounds=SWAPPED)
def test_fuzz_swapped_variance_bounds_exit_2(bounds):
    low, high = bounds
    _exits_2_with_one_error_line([f"--sigma-low-sq={low}", f"--sigma-high-sq={high}"])


@pytest.mark.parametrize("where, setting", [
    ("flag", ["--dt", "0.001"]), ("flag", ["--L", "8"]), ("config", "dt = 0.001"),
    ("config", "L = 8"), ("config", "half_width = 8"), ("config", "half-width = 8")],
    ids=["--dt", "--L", "dt-key", "L-key", "half_width-key", "half-width-key"])
def test_time_step_and_half_width_settings_exit_2_as_unknown(where, setting, tmp_path):
    # both are derived, so neither is a flag or a config key; h is the one
    # grid setting
    if where == "config":
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(setting + "\n", encoding="utf-8")
        setting = ["--config", str(cfgfile)]
    _exits_2_with_one_error_line(setting)


def test_refine_flag_and_config_key_exit_2(tmp_path):
    # one grid-refinement path: each solve's own three-grid check; to see a
    # value move under refinement, run at --h h and at --h h/2
    _exits_2_with_one_error_line(["--h", "0.25", "--refine", "1"])
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("h = 0.25\nrefine = 1\n", encoding="utf-8")
    _exits_2_with_one_error_line(["--config", str(cfgfile)])


class TestExecute:
    def test_fast_scenario_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = execute(RunConfig(scenarios=("invertible-scan",), out=str(out)))
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
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

    def test_md_report_escapes_bars_in_cells(self, tmp_path):
        # asymmetric-independence's assertions print |lhs-rhs|=...; an
        # unescaped | would split their rows into 9 cells
        out = tmp_path / "results.md"
        execute(RunConfig(scenarios=("asymmetric-independence",), out=str(out), report="md"))
        lines = out.read_text().splitlines()
        assert sum(r"\|lhs-rhs\|=" in line for line in lines) == 2
        for line in lines:
            cells = re.split(r"(?<!\\)\|", line)
            assert cells[0] == cells[-1] == "" and len(cells) - 2 == len(CSV_COLUMNS), line

    def test_unwritable_output_fails(self, tmp_path, capsys, monkeypatch):
        # a missing directory, or a path that is a directory, is refused
        # before any scenario runs
        called = []
        runners = [n for n in vars(cli) if n.startswith("run_") and n != "run_scenarios"]
        assert len(runners) == len(SCENARIO_NAMES)
        for name in runners:
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: called.append(name))
        for out in ("/nonexistent-dir/results.csv", str(tmp_path)):
            code = execute(RunConfig(out=out))
            assert code == 2
            assert "cannot write" in capsys.readouterr().err
            assert called == []

    def test_a_file_the_system_refuses_fails_at_the_write(self, tmp_path, capsys):
        # a 300-character name in an existing directory passes the checks made
        # before the run, and the write itself fails (the name is too long)
        out = tmp_path / ("r" * 296 + ".csv")
        assert execute(RunConfig(scenarios=("invertible-scan",), out=str(out))) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
        assert os.listdir(tmp_path) == []

    def test_exit_codes_via_main(self, capsys):
        assert main(["run", "--scenario", "bogus"]) == 2
        assert "valid names" in capsys.readouterr().err


def test_outcome_rows_order_follows_catalog():
    rows = outcome_rows(run_scenarios(RunConfig(scenarios=("invertible-scan",))))
    # quantities first (assertion column empty), then assertions
    kinds = ["q" if r[4] == "" else "a" for r in rows[1:]]
    assert kinds == sorted(kinds, key=lambda k: k == "a")


def _bits(outcomes):
    return [(o.name, [(q.label, q.value.hex(), q.error_estimate.hex()) for q in o.quantities],
             [(a.description, a.passed, a.margin.hex()) for a in o.assertions])
            for o in outcomes]


def test_a_run_solves_each_problem_once_to_the_same_bits(stepped):
    cfg = RunConfig()
    iv, solver = cfg.interval(), cfg.solver()
    alone = [cli.SCENARIOS[name][0](iv, cfg.alpha, solver) for name in SCENARIO_NAMES]
    calls_alone = stepped.calls
    assert stepped.memo == {False}
    run = run_scenarios(cfg)
    assert _bits(run) == _bits(alone)
    assert stepped.memo == {False, True}
    # 84 problems, less the 9 that are images of others: Ê[X₂X₁²] of
    # diag-not-indep (a transpose) and linear-combination's Ê[VU²] sweeps
    # (flips) on their h, 2h and 4h grids
    assert stepped.calls - calls_alone == 75 < calls_alone
    assert pde._MEMO.get() is None


def test_the_memo_goes_when_a_runner_raises(stepped, monkeypatch):
    def broken(*args, **kwargs):
        raise GExpectError("broken runner")

    monkeypatch.setattr(cli, "run_linear_image", broken)
    with pytest.raises(GExpectError, match="broken runner"):
        run_scenarios(RunConfig(scenarios=("asymmetric-independence", "linear-image")))
    assert stepped.memo == {True}
    assert pde._MEMO.get() is None


def test_render_report_csv_roundtrip():
    rows = [list(CSV_COLUMNS), ["s", "l", "1", "0", "", "", ""]]
    text = render_report(rows, "csv")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_report_prints_negative_zero_as_zero():
    # a lower expectation of an exactly zero moment is -0.0; the report
    # prints it as 0, and keeps the sign of any other value
    out = ScenarioOutcome("s", (Quantity("-E[-X1 X2]", -0.0, 1e-12), Quantity("q", -1e-16, 0.0)),
                          (Assertion("a", True, -0.0),), 0.0)
    rows = outcome_rows([out])
    assert [r[2] for r in rows[1:3]] == ["0", "-1e-16"]
    assert rows[3][6] == "0"


def test_readme_scenario_table_lists_the_catalog():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    names = re.findall(r"^\| `([a-z-]+)` \|", readme.read_text(encoding="utf-8"), re.M)
    assert tuple(names) == SCENARIO_NAMES


def _run_with_src(*args):
    src = str(Path(gexpect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


def test_python_dash_m_gexpect_runs_cleanly():
    proc = _run_with_src("-m", "gexpect", "run", "--scenario", "invertible-scan")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] invertible-scan" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only the test oracles
    proc = _run_with_src("-c", "import sys, gexpect; print(sorted(m for m in sys.modules "
                               "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("flags", [["--h", "1e-4"]])
def test_oversized_grids_exit_2_before_solving(flags, capsys):
    # a grid over the budget is refused before it is allocated or stepped,
    # so the run fails in well under a second
    t0 = time.perf_counter()
    assert main(["run", "--scenario", "all"] + flags) == 2
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err


@pytest.mark.parametrize("flags, message", [
    (["--scenario", "all", "--sigma-low-sq", "0"], "need 0 < sigma_low_sq < sigma_high_sq"),
    (["--scenario", "linear-combination,reverse-independence", "--sigma-low-sq", "4"],
     "neither hypothesis holds: no variance uncertainty on either coordinate with the "
     "other non-degenerate"),
])
def test_an_interval_a_scenario_refuses_exits_2_before_any_step(flags, message, stepped,
                                                                evaluated, tmp_path, capsys):
    # checked for every selected scenario before the first one runs, so no
    # earlier scenario's solves are stepped and thrown away
    out = tmp_path / "r.csv"
    assert main(["run", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert stepped.calls == 0
    assert evaluated.calls == 0
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--scenario", "quadratic-form", "--h", "1e200"],
     "h=1e+200 is too coarse: 4h * 4h overflows, and refinement re-solves at 4h"),
    (["--scenario", "diag-not-indep", "--h", "1e154"],
     "h=1e+154 is too coarse: 4h * 4h overflows, and refinement re-solves at 4h"),
    (["--scenario", "symmetry-identity", "--alpha", "1e308"], "variance bounds must be finite"),
    (["--scenario", "all", "--sigma-high-sq", "1e308"], "variance bounds must be finite"),
    (["--scenario", "linear-image", "--sigma-high-sq", "1e308", "--alpha", "1"],
     "variance bounds must be finite"),
    (["--scenario", "diag-not-indep", "--sigma-high-sq", "1e308", "--alpha", "1"],
     "the variances' stencil weight overflows; use smaller variances"),
    (["--scenario", "asymmetric-independence", "--sigma-high-sq", "1e308", "--alpha", "1"],
     "the grid's tail bound overflows; use smaller variances"),
], ids=["huge-h", "huge-4h", "alpha", "sigma", "image-sigma", "weight", "tail"])
def test_a_value_the_solver_refuses_exits_2_before_phi_is_evaluated(flags, message, stepped,
                                                                     evaluated, capsys):
    assert main(["run", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert stepped.calls == evaluated.calls == 0


def test_failed_assertion_exits_1(capsys, monkeypatch):
    # a half width of one sigma_high (a tolerance so large that it stays at
    # _TAIL_FACTOR sigma) leaves a tail bound of about 100, so "strictly
    # positive" (value > 10 x error_estimate) fails
    monkeypatch.setattr(pde, "_TAIL_FACTOR", 1.0)
    assert main(["run", "--scenario", "asymmetric-independence", "--h", "0.25",
                 "--tol", "1e4"]) == 1
    assert "FAIL earlier-linear moment: strictly positive" in capsys.readouterr().out


def test_a_huge_h_prints_only_the_error_line(capsys):
    # at h = 1e153 the growth bound of a solve's end faces overflows, and a
    # later solve's initial data is not finite
    assert main(["run", "--scenario", "diag-not-indep", "--h", "1e153"]) == 2
    err = capsys.readouterr().err
    assert err == "error: initial data evaluates to non-finite values on the grid\n"


@pytest.mark.parametrize("scenario", ["invertible-scan", "quadratic-form"])
def test_an_overflowing_variance_prints_only_the_error_line(scenario, capsys):
    # numpy's overflow warnings would print before the error line, and the
    # suite turns them into errors
    assert main(["run", "--scenario", scenario, "--sigma-high-sq", "1e308", "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
