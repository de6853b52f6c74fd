"""Batch command-line front end.

Runs the scenario catalog with configurable variance bounds and grid
overrides, prints a human-readable summary, and writes a deterministic
CSV (or Markdown) report: one row per quantity, one row per assertion,
in catalog order. Exit status is 0 exactly when every assertion passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import GExpectError
from .gamma import UncertaintyInterval
from .pde import SolverConfig, _require_finite_positive
from .scenarios import (run_asymmetric_independence,
                        run_diag_not_indep, run_invertible_scan,
                        run_linear_combination, run_linear_image,
                        run_quadratic_form, run_reverse_independence_witness,
                        run_symmetry_identity)

CSV_COLUMNS = ("scenario", "label", "value", "error_estimate", "assertion", "pass", "margin")

# catalog order: name -> runner(iv, alpha, solver config). The lambdas look the
# runners up in this module when called, so a patched cli.run_* is used.
SCENARIOS = {
    "asymmetric-independence": lambda iv, alpha, s: run_asymmetric_independence(iv, iv, cfg=s),
    "linear-combination": lambda iv, alpha, s: run_linear_combination(iv, cfg=s),
    "linear-image": lambda iv, alpha, s: run_linear_image(
        iv, np.array([[1.0, 2.0], [0.0, 1.0]]), [3.0, -2.0], cfg=s),
    "symmetry-identity": lambda iv, alpha, s: run_symmetry_identity(iv, alpha=alpha, cfg=s),
    "diag-not-indep": lambda iv, alpha, s: run_diag_not_indep(iv, cfg=s),
    "quadratic-form": lambda iv, alpha, s: run_quadratic_form(
        (iv, iv), np.array([[1.0, 0.5], [0.5, -1.0]]), cfg=s),
    "reverse-independence": lambda iv, alpha, s: run_reverse_independence_witness(
        (iv, iv), 0, 1, cfg=s),
    "invertible-scan": lambda iv, alpha, s: run_invertible_scan(iv, cfg=s),
}
SCENARIO_NAMES = tuple(SCENARIOS)


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple = SCENARIO_NAMES
    sigma_low_sq: float = 1.0
    sigma_high_sq: float = 4.0
    alpha: float = 4.0
    h: float | None = None
    half_width: float | None = None
    dt: float | None = None
    t: float = 1.0
    tol: float = 1e-3
    refine: int = 0
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
            self.interval()
        except ValueError as exc:
            raise GExpectError(str(exc)) from None
        if not isinstance(self.refine, int) or isinstance(self.refine, bool) or self.refine < 0:
            raise GExpectError(f"refine must be an integer >= 0, got {self.refine!r}")
        if self.refine > 0 and self.h is None:
            raise GExpectError("refine needs h: levels run at h/2, ..., h/2^refine")
        if self.report not in ("csv", "md"):
            raise GExpectError("report must be 'csv' or 'md'")

    def interval(self) -> UncertaintyInterval:
        # a horizon t != 1 is equivalent to scaling every variance interval by t
        return UncertaintyInterval(self.sigma_low_sq, self.sigma_high_sq).scaled(self.t)

    def solver(self) -> SolverConfig:
        return SolverConfig(h=self.h, half_width=self.half_width, dt=self.dt, target_tol=self.tol)


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("GEXPECT_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise GExpectError(f"GEXPECT_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise GExpectError("GEXPECT_THREADS must be >= 0")
    if cap == 0:
        # the CPUs this process may run on, which taskset or a cgroup can
        # make fewer than the machine's
        cap = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    return max(1, min(cap, n_jobs))


def run_scenarios(cfg: RunConfig):
    """Run the selected scenarios, then each --refine level at h/2^k;
    outcomes (level 0) come back in catalog order.

    Without --refine the scenarios run one after another on the calling
    thread: their grids are too small for a second thread to gain, since
    every ufunc call of a step hands the GIL over. The --refine
    levels run on a thread pool (GEXPECT_THREADS caps it; it is checked on
    every run). The finest level runs first, so a level whose grids exceed
    the solver's budget is refused before any coarser one runs, and the
    failure cancels every job not yet started."""
    iv = cfg.interval()
    solver = cfg.solver()
    levels = [solver] + [replace(solver, h=cfg.h / 2**k, dt=None)
                         for k in range(1, cfg.refine + 1)]
    names = [s for s in SCENARIO_NAMES if s in cfg.scenarios]
    jobs = [(n, lv) for lv in reversed(levels) for n in names]
    workers = _worker_count(len(jobs))

    def run(job):
        return SCENARIOS[job[0]](iv, cfg.alpha, job[1])

    if cfg.refine == 0:
        results = list(map(run, jobs))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(run, jobs))
        finally:
            pool.shutdown(cancel_futures=True)
    by_level = [results[i:i + len(names)] for i in range(0, len(results), len(names))][::-1]
    outcomes = by_level[0]

    deltas = {}
    if cfg.refine > 0:
        for j, out in enumerate(outcomes):
            per_level = [level[j].quantities for level in by_level]
            for i, q in enumerate(per_level[0]):
                row = []
                for prev, cur in zip(per_level, per_level[1:]):
                    row.append(abs(cur[i].value - prev[i].value)
                               if i < len(cur) and cur[i].label == prev[i].label else float("nan"))
                deltas[(out.name, q.label)] = row
    return outcomes, deltas


def _fmt(x: float) -> str:
    # + 0.0 prints an exact -0.0 (a lower expectation of zero) as 0
    return f"{x + 0.0:.10g}"


def outcome_rows(outcomes, deltas=None, refine: int = 0):
    """Flatten outcomes into report rows with the fixed column schema."""
    header = list(CSV_COLUMNS) + [f"refinement_delta_{k}" for k in range(1, refine + 1)]
    rows = [header]
    for out in outcomes:
        for q in out.quantities:
            row = [out.name, q.label, _fmt(q.value), _fmt(q.error_estimate), "", "", ""]
            for d in (deltas or {}).get((out.name, q.label), [float("nan")] * refine):
                row.append(_fmt(d))
            rows.append(row)
        for a in out.assertions:
            desc = a.description + (" [classical-zero]" if a.classical_zero else "")
            row = [out.name, "", "", "", desc, str(a.passed).lower(), _fmt(a.margin)]
            row.extend([""] * refine)
            rows.append(row)
    return rows


def render_report(rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    header, body = rows[0], rows[1:]
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def _names(text: str) -> list:
    return [name.strip() for name in text.split(",")]


def _read_config_file(path: str, flags) -> dict:
    """key = value lines; '#' starts a comment. A key is a run flag's name or
    its dest ('-' and '_' alike), and its value converts through that flag's
    type and choices. A repeated key overrides, except that a repeated
    scenario key extends the list, as the repeatable flag does. Returns
    {dest: value}."""
    keys = {}
    for action in flags:
        for name in (action.option_strings[0].lstrip("-"), action.dest):
            keys.setdefault(name.replace("_", "-"), action)
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
        run.add_argument("--L", dest="half_width", type=float, default=None,
                         help="spatial half-width override"),
        run.add_argument("--dt", type=float, default=None, help="time step override"),
        run.add_argument("--t", type=float, default=None, help="time horizon (default 1)"),
        run.add_argument("--tol", type=float, default=None, help="solver target tolerance"),
        run.add_argument("--refine", type=int, default=None, metavar="K",
                         help="rerun at h, h/2, ..., h/2^K and append refinement deltas "
                              "(needs --h)"),
        run.add_argument("--out", default=None, help="report file path (default: stdout only)"),
        run.add_argument("--report", choices=("csv", "md"), default=None),
    ]
    ns = parser.parse_args(argv)

    values = _read_config_file(ns.config, flags) if ns.config else {}
    values.update((a.dest, getattr(ns, a.dest)) for a in flags
                  if getattr(ns, a.dest) is not None)
    scenarios = values.pop("scenario", None)
    if scenarios is not None:
        values["scenarios"] = SCENARIO_NAMES if "all" in scenarios else tuple(scenarios)
    return RunConfig(**values)


def execute(cfg: RunConfig) -> int:
    outcomes, deltas = run_scenarios(cfg)
    rows = outcome_rows(outcomes, deltas, cfg.refine)
    text = render_report(rows, cfg.report)
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

