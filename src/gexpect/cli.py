"""Batch command-line front end.

Runs the scenario catalog with configurable variance bounds and grid
spacing, prints a human-readable summary, and writes a deterministic
CSV (or Markdown) report: one row per quantity, one row per assertion,
in catalog order. Exit status is 0 exactly when every assertion passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GExpectError
from .gamma import UncertaintyInterval
from .pde import SolverConfig, _require_finite_positive, solve_once
from .scenarios import (check_asymmetric_independence, check_invertible_scan,
                        check_reverse_independence, check_variance,
                        run_asymmetric_independence,
                        run_diag_not_indep, run_invertible_scan,
                        run_linear_combination, run_linear_image,
                        run_quadratic_form, run_reverse_independence_witness,
                        run_symmetry_identity)

CSV_COLUMNS = ("scenario", "label", "value", "error_estimate", "assertion", "pass", "margin")

# catalog order: name -> (runner(iv, alpha, solver config), the conditions it
# puts on the run's interval or None; RunConfig checks alpha). The lambdas look
# the runners up in this module when called, so a patched cli.run_* is used.
SCENARIOS = {
    "asymmetric-independence": (lambda iv, alpha, s: run_asymmetric_independence(iv, iv, cfg=s),
                                lambda iv: check_asymmetric_independence(iv, iv)),
    "linear-combination": (lambda iv, alpha, s: run_linear_combination(iv, cfg=s),
                           check_variance),
    "linear-image": (lambda iv, alpha, s: run_linear_image(
        iv, np.array([[1.0, 2.0], [0.0, 1.0]]), [3.0, -2.0], cfg=s), None),
    "symmetry-identity": (lambda iv, alpha, s: run_symmetry_identity(iv, alpha=alpha, cfg=s),
                          check_variance),
    "diag-not-indep": (lambda iv, alpha, s: run_diag_not_indep(iv, cfg=s), check_variance),
    "quadratic-form": (lambda iv, alpha, s: run_quadratic_form(
        (iv, iv), np.array([[1.0, 0.5], [0.5, -1.0]]), cfg=s), None),
    "reverse-independence": (lambda iv, alpha, s: run_reverse_independence_witness(
        (iv, iv), 0, 1, cfg=s), lambda iv: check_reverse_independence(iv, iv)),
    "invertible-scan": (lambda iv, alpha, s: run_invertible_scan(iv), check_invertible_scan),
}
SCENARIO_NAMES = tuple(SCENARIOS)


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple = SCENARIO_NAMES
    sigma_low_sq: float = 1.0
    sigma_high_sq: float = 4.0
    alpha: float = 4.0
    h: float | None = None
    t: float = 1.0
    tol: float = 1e-3
    out: str | None = None
    report: str = "csv"

    def __post_init__(self):
        unknown = [s for s in self.scenarios if s not in SCENARIO_NAMES]
        if unknown:
            raise GExpectError(
                f"unknown scenario(s) {', '.join(unknown)}; valid names: "
                + ", ".join(SCENARIO_NAMES))
        try:
            _require_finite_positive(alpha=self.alpha, t=self.t, tol=self.tol)
            self.solver()
            self.interval().scaled(self.alpha)  # symmetry-identity's second axis
        except ValueError as exc:
            raise GExpectError(str(exc)) from None
        if self.report not in ("csv", "md"):
            raise GExpectError("report must be 'csv' or 'md'")

    def interval(self) -> UncertaintyInterval:
        # a horizon t != 1 is equivalent to scaling every variance interval by t
        return UncertaintyInterval(self.sigma_low_sq, self.sigma_high_sq).scaled(self.t)

    def solver(self) -> SolverConfig:
        return SolverConfig(h=self.h, target_tol=self.tol)


def run_scenarios(cfg: RunConfig):
    """Run the selected scenarios one after another on the calling thread,
    solving each distinct problem once; outcomes come back in catalog order.
    An interval that a selected scenario refuses is refused before any runs."""
    iv, solver = cfg.interval(), cfg.solver()
    selected = [SCENARIOS[name] for name in SCENARIO_NAMES if name in cfg.scenarios]
    for _, check in selected:
        if check:
            check(iv)
    with solve_once():
        return [run(iv, cfg.alpha, solver) for run, _ in selected]


def _fmt(x: float) -> str:
    # + 0.0 prints an exact -0.0 (a lower expectation of zero) as 0
    return f"{x + 0.0:.10g}"


def outcome_rows(outcomes):
    """Flatten outcomes into report rows with the fixed column schema."""
    rows = [list(CSV_COLUMNS)]
    for out in outcomes:
        for q in out.quantities:
            rows.append([out.name, q.label, _fmt(q.value), _fmt(q.error_estimate), "", "", ""])
        for a in out.assertions:
            desc = a.description + (" [classical-zero]" if a.classical_zero else "")
            rows.append([out.name, "", "", "", desc, str(a.passed).lower(), _fmt(a.margin)])
    return rows


def render_report(rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    header, body = rows[0], rows[1:]
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    # a | in a cell (assertion texts print |lhs-rhs|) would end the cell
    lines += ["| " + " | ".join(str(c).replace("|", "\\|") for c in row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def _names(text: str) -> list:
    return [name.strip() for name in text.split(",")]


def _config_flags(path: str) -> list:
    """Each `key = value` line of a config file as the run flag `--key=value`,
    a key's '_' read as '-'; '#' starts a comment. A file may not name
    another config file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GExpectError(f"cannot read config file {path}: {exc}") from None
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GExpectError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise GExpectError(f"{path}:{lineno}: a config file cannot name another")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as GExpectError, so that main reports
    it like every other refused setting: one `error:` line, exit 2."""

    def error(self, message):
        raise GExpectError(message)


def parse_args(argv) -> RunConfig:
    parser = _Parser(
        prog="gexpect",
        description="Numerical comparisons of G-normal and sequentially independent "
                    "random vectors under sublinear expectation.")
    sub = parser.add_subparsers(dest="command", required=True)
    # one spelling per flag: argparse would otherwise take a prefix (--rep)
    run = sub.add_parser("run", allow_abbrev=False, help="run scenarios and write a report")
    run.add_argument("--config", help="config file of 'flag = value' lines; flags override it")
    run.add_argument("--scenario", action="extend", type=_names, metavar="NAME",
                     help="scenario names, comma-separated, or 'all' (repeatable); names: "
                          + ", ".join(SCENARIO_NAMES))
    run.add_argument("--sigma-low-sq", type=float)
    run.add_argument("--sigma-high-sq", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--h", type=float, help="grid spacing override")
    run.add_argument("--t", type=float, help="time horizon (default 1)")
    run.add_argument("--tol", type=float, help="solver target tolerance")
    run.add_argument("--out", help="report file path (default: stdout only)")
    run.add_argument("--report", choices=("csv", "md"))
    ns = parser.parse_args(argv)
    if ns.config:
        # the file's flags go first, so the command line's win (a repeated
        # --scenario extends); the first parse checked the command line, so
        # an error now is the file's
        flags = _config_flags(ns.config)
        try:
            ns = parser.parse_args([argv[0], *flags, *argv[1:]])
        except GExpectError as exc:
            raise GExpectError(f"{ns.config}: {exc}") from None
    values = {k: v for k, v in vars(ns).items()
              if v is not None and k not in ("command", "config")}
    scenarios = values.pop("scenario", None)
    if scenarios is not None:
        # 'all' expands in place, so a name beside it is still checked
        values["scenarios"] = tuple(dict.fromkeys(
            n for name in scenarios for n in (SCENARIO_NAMES if name == "all" else (name,))))
    return RunConfig(**values)


def execute(cfg: RunConfig) -> int:
    # refused before any scenario runs; an unwritable file still fails at the write
    folder = os.path.dirname(cfg.out or "") or "."
    why = (f"no directory {folder}" if not os.path.isdir(folder)
           else "it is a directory" if cfg.out and os.path.isdir(cfg.out) else None)
    if why:
        print(f"error: cannot write {cfg.out}: {why}", file=sys.stderr)
        return 2
    outcomes = run_scenarios(cfg)
    text = render_report(outcome_rows(outcomes), cfg.report)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    for out in outcomes:
        status = "PASS" if out.passed else "FAIL"
        print(f"[{status}] {out.name} ({out.runtime_ms:.0f} ms, "
              f"{len(out.quantities)} quantities, {len(out.assertions)} assertions)")
        for a in out.assertions:
            mark = "ok " if a.passed else "FAIL"
            tag = " [classical-zero]" if a.classical_zero else ""
            print(f"    {mark} {a.description}{tag}")
    if not cfg.out:
        print()
        print(text, end="")
    return 0 if all(o.passed for o in outcomes) else 1


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        return execute(cfg)
    except GExpectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

