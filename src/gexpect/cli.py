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


def _read_config_file(path: str, flags) -> dict:
    """key = value lines; '#' starts a comment. A key is a run flag's name
    without its dashes ('-' and '_' alike), and its value converts through
    that flag's type and choices. A repeated key overrides, except that a
    repeated scenario key extends the list, as the repeatable flag does.
    Returns {dest: value}."""
    # every flag's dest is its name, '-' read as '_'
    keys = {action.dest.replace("_", "-"): action for action in flags}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GExpectError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GExpectError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        action = keys.get(key.replace("_", "-"))
        if action is None:
            raise GExpectError(f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                               + ", ".join(keys))
        try:
            value = (action.type or str)(val)
        except ValueError:
            raise GExpectError(f"{path}:{lineno}: {key}: expected {action.type.__name__}, "
                               f"got {val!r}") from None
        if action.choices is not None and value not in action.choices:
            raise GExpectError(f"{path}:{lineno}: {key}: expected one of "
                               f"{', '.join(action.choices)}, got {val!r}")
        if isinstance(value, list):  # only --scenario's type gives a list
            values.setdefault(action.dest, []).extend(value)
        else:
            values[action.dest] = value
    return values


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
    run = sub.add_parser("run", help="run scenarios and write a report")
    run.add_argument("--config", default=None,
                     help="config file of 'flag = value' lines; flags override it")
    flags = [
        run.add_argument("--scenario", action="extend", type=_names, default=None,
                         metavar="NAME", help="scenario names, comma-separated, or 'all' "
                                              "(repeatable); names: " + ", ".join(SCENARIO_NAMES)),
        run.add_argument("--sigma-low-sq", type=float, default=None),
        run.add_argument("--sigma-high-sq", type=float, default=None),
        run.add_argument("--alpha", type=float, default=None),
        run.add_argument("--h", type=float, default=None, help="grid spacing override"),
        run.add_argument("--t", type=float, default=None, help="time horizon (default 1)"),
        run.add_argument("--tol", type=float, default=None, help="solver target tolerance"),
        run.add_argument("--out", default=None, help="report file path (default: stdout only)"),
        run.add_argument("--report", choices=("csv", "md"), default=None),
    ]
    ns = parser.parse_args(argv)

    values = _read_config_file(ns.config, flags) if ns.config else {}
    values.update((a.dest, getattr(ns, a.dest)) for a in flags
                  if getattr(ns, a.dest) is not None)
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

