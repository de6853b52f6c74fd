"""In-memory span tracer for the traced run, and the per-layer metrics.

The tracer replaces public gexpect functions at the binding each caller
looks up (a module attribute, or a ``TestFunction`` method) with a wrapper
that records a span: name, start, end, thread and parent. Each thread keeps
its own span stack, because the catalog runs scenarios on pool threads.
Spans stay in memory; ``restore`` puts every original function back.
Nothing under ``src/`` is modified on disk.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# cli binding of each scenario runner -> catalog scenario name
SCENARIO_RUNNERS = {
    "run_asymmetric_independence": "asymmetric-independence",
    "run_linear_combination": "linear-combination",
    "run_linear_image": "linear-image",
    "run_symmetry_identity": "symmetry-identity",
    "run_diag_not_indep": "diag-not-indep",
    "run_quadratic_form": "quadratic-form",
    "run_reverse_independence_witness": "reverse-independence",
    "run_invertible_scan": "invertible-scan",
}

SOLVES = ("pde.solve_gheat_diag", "pde.solve_gheat_hull")

# every per-layer metric, in report order, with its unit
LAYER_METRICS = {
    "cli.execute_s": "s",
    "cli.report_s": "s",
    "cli.workers": "count",
    "cli.parallel_eff": "1",
    **{f"scenarios.{name}.s": "s" for name in SCENARIO_RUNNERS.values()},
    "scenarios.assertions_failed": "count",
    "expectation.expect_gnormal.calls": "count",
    "expectation.expect_gnormal.s": "s",
    "expectation.expect_gnormal.self_s": "s",
    "expectation.expect_sequential.calls": "count",
    "expectation.expect_sequential.s": "s",
    "expectation.expect_sequential.self_s": "s",
    "expectation.nested_levels": "count",
    "expectation.refine_share": "1",
    "expectation.bound_misses": "count",
    "pde.solve_gheat_diag.calls": "count",
    "pde.solve_gheat_diag.s": "s",
    "pde.solve_gheat_diag.self_s": "s",
    "pde.solve_gheat_hull.calls": "count",
    "pde.solve_gheat_hull.s": "s",
    "pde.solve_gheat_hull.self_s": "s",
    "pde.diffuse_last_axis.calls": "count",
    "pde.diffuse_last_axis.s": "s",
    "pde.build_grid.calls": "count",
    "pde.build_grid.s": "s",
    "pde.steps": "count",
    "pde.cell_steps": "count",
    "pde.cells_max": "count",
    "pde.ns_per_cell_step.diag": "ns",
    "pde.ns_per_cell_step.hull": "ns",
    "pde.ns_per_cell_step.nested": "ns",
    "pde.us_per_step": "us",
    "testfuncs.construct.calls": "count",
    "testfuncs.construct.s": "s",
    "testfuncs.eval.calls": "count",
    "testfuncs.eval.s": "s",
    "gamma.image_gamma.calls": "count",
    "gamma.image_gamma.s": "s",
    "gamma.g_function.calls": "count",
    "gamma.g_function.s": "s",
    "trace.overhead_frac": "1",
    "trace.scenario_gap_ms": "ms",
}


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    children: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def within(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, info=None):
        """Record a span around every call of owner.attr; info(args, result)
        returns extra fields for the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, threading.get_ident(), parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append(span)
                with self._lock:
                    self.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the public functions of cli, scenarios, expectation, pde,
        testfuncs and gamma at every binding their callers use."""
        from gexpect import cli, expectation, gamma, pde, scenarios, testfuncs

        try:
            for attr, scenario in SCENARIO_RUNNERS.items():
                self.wrap(cli, attr, f"scenarios.{scenario}", _outcome_info)
            self.wrap(cli, "execute", "cli.execute")
            self.wrap(cli, "run_scenarios", "cli.run_scenarios")
            self.wrap(cli, "outcome_rows", "cli.report")
            self.wrap(cli, "render_report", "cli.report")
            for mod in (scenarios, expectation):
                self.wrap(mod, "expect_gnormal", "expectation.expect_gnormal")
                self.wrap(mod, "expect_sequential", "expectation.expect_sequential")
                self.wrap(mod, "linear_pullback", "testfuncs.construct")
            # the refinement re-solve recurses through the pde bindings
            for mod in (expectation, pde):
                self.wrap(mod, "solve_gheat_diag", "pde.solve_gheat_diag", _report_info)
                self.wrap(mod, "solve_gheat_hull", "pde.solve_gheat_hull", _report_info)
                self.wrap(mod, "build_grid", "pde.build_grid", _grid_info)
            self.wrap(expectation, "diffuse_last_axis", "pde.diffuse_last_axis", _diffuse_info)
            self.wrap(testfuncs.TestFunction, "__post_init__", "testfuncs.construct")
            self.wrap(testfuncs.TestFunction, "negated", "testfuncs.construct")
            self.wrap(testfuncs.TestFunction, "__call__", "testfuncs.call")
            self.wrap(expectation, "image_gamma", "gamma.image_gamma")
            self.wrap(scenarios, "g_function", "gamma.g_function")
            self.wrap(gamma, "g_function", "gamma.g_function")
        except BaseException:
            self.restore()
            raise

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self) -> list:
        """Spans as plain records (parent as an index), for writing out."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end, "thread": s.thread,
                 "parent": index.get(id(s.parent)), "info": s.info} for s in self.spans]


def _grid_cells(grid) -> int:
    return math.prod(2 * round(hw / grid.h) + 1 for hw in grid.half_width)


def _grid_info(args, grid) -> dict:
    return {"cells": _grid_cells(grid), "dims": grid.dims, "steps": grid.steps}


def _report_info(args, report) -> dict:
    return {"steps": report.steps_taken}


def _diffuse_info(args, result) -> dict:
    return {"cells": int(args[0].size), "steps": int(result[2])}


def _outcome_info(args, outcome) -> dict:
    return {"runtime_ms": outcome.runtime_ms,
            "failed": sum(not a.passed for a in outcome.assertions)}


def _solve_grid(span: Span) -> dict:
    """The grid a solve built for itself (its first build_grid child)."""
    grids = [c for c in span.children if c.name == "pde.build_grid"]
    return grids[0].info if grids else {"cells": 0, "dims": 0}


def layer_metrics(spans, extra: dict) -> dict:
    """Every per-layer metric from one traced pass; extra supplies the
    values measured by the benchmark itself (bound misses, overhead, gap)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def outer(name):
        return [s for s in by[name] if not s.within(name)]

    def total(name):
        return sum(s.duration for s in outer(name))

    m = dict.fromkeys(LAYER_METRICS, 0.0)
    m["cli.execute_s"] = total("cli.execute")
    m["cli.report_s"] = total("cli.report")
    scen = [s for s in spans if s.name.startswith("scenarios.")]
    workers = len({s.thread for s in scen})
    run_wall = total("cli.run_scenarios")
    m["cli.workers"] = workers
    if workers and run_wall > 0:
        m["cli.parallel_eff"] = sum(s.duration for s in scen) / (workers * run_wall)
    for s in scen:
        m[f"{s.name}.s"] += s.duration
    m["scenarios.assertions_failed"] = sum(s.info["failed"] for s in scen)

    for name in ("expectation.expect_gnormal", "expectation.expect_sequential",
                 *SOLVES):
        m[f"{name}.calls"] = len(by[name])
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = sum(s.self_time for s in by[name])
    for name in ("pde.diffuse_last_axis", "pde.build_grid", "gamma.image_gamma",
                 "gamma.g_function", "testfuncs.construct"):
        m[f"{name}.calls"] = len(outer(name))
        m[f"{name}.s"] = total(name)
    evals = [s for s in by["testfuncs.call"]
             if not s.within("testfuncs.construct") and not s.within("testfuncs.call")]
    m["testfuncs.eval.calls"] = len(evals)
    m["testfuncs.eval.s"] = sum(s.duration for s in evals)

    # exact work counts: cells from each GridSpec (or diffused array), steps
    # from each SolveReport.steps_taken (or diffusion step count). 1D solves
    # are dispatch-bound and reported per step, apart from the array kernels.
    cell_steps = {"diag": 0, "hull": 0, "nested": 0}
    kernel_s = {"diag": 0.0, "hull": 0.0, "nested": m["pde.diffuse_last_axis.s"]}
    all_cs = steps = refine_cs = steps_1d = 0
    time_1d = 0.0
    for key, name in (("diag", SOLVES[0]), ("hull", SOLVES[1])):
        for s in by[name]:
            grid = _solve_grid(s)
            cs = grid["cells"] * s.info["steps"]
            all_cs += cs
            steps += s.info["steps"]
            if s.parent is not None and s.parent.name == name:
                refine_cs += cs  # the refinement re-solve of the parent
            if grid["dims"] == 1:
                time_1d += s.self_time
                steps_1d += s.info["steps"]
            else:
                cell_steps[key] += cs
                kernel_s[key] += s.self_time
    for s in by["pde.diffuse_last_axis"]:
        cell_steps["nested"] += s.info["cells"] * s.info["steps"]
        steps += s.info["steps"]
    all_cs += cell_steps["nested"]
    for seq in by["expectation.expect_sequential"]:
        grids_seen = 0  # the second probe grid starts the refinement sweep
        for c in seq.children:
            if c.name == "pde.build_grid":
                grids_seen += 1
            elif c.name == "pde.diffuse_last_axis" and grids_seen >= 2:
                refine_cs += c.info["cells"] * c.info["steps"]
    m["pde.steps"] = steps
    m["pde.cell_steps"] = all_cs
    m["pde.cells_max"] = max([s.info["cells"] for s in by["pde.build_grid"]]
                             + [s.info["cells"] for s in by["pde.diffuse_last_axis"]] + [0])
    for key in cell_steps:
        if cell_steps[key]:
            m[f"pde.ns_per_cell_step.{key}"] = 1e9 * kernel_s[key] / cell_steps[key]
    if steps_1d:
        m["pde.us_per_step"] = 1e6 * time_1d / steps_1d
    if by["expectation.expect_sequential"]:
        m["expectation.nested_levels"] = (len(by["pde.diffuse_last_axis"])
                                          / len(by["expectation.expect_sequential"]))
    if all_cs:
        m["expectation.refine_share"] = refine_cs / all_cs
    m.update(extra)
    return m
