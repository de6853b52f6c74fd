#!/usr/bin/env python3
"""The benchmark's own checks; run from the repository root:

    python3 perfbench/selfcheck.py

1. A planted wrong reference is counted as a failure (call and catalog paths).
2. The same seed gives identical inputs and identical pde.cell_steps and
   pde.steps in the traced pass; another seed gives other inputs.
3. After a traced run, also one that raised, no gexpect function is left
   wrapped.

Exits 0 when every check passes, 1 otherwise.
"""

import dataclasses
import sys

import run  # pins BLAS/OpenMP threads before numpy loads
import spans

gx = run.import_gexpect()
run.OUT.mkdir(exist_ok=True)

import cases  # noqa: E402  (builds gexpect objects, so only after import_gexpect)

FAILURES = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def planted_reference():
    tol = gx.SolverConfig().target_tol
    case = next(c for c in cases.gnormal(3) if c.label == "interval x^2")
    honest = run.Tally()
    run.run_case(case, honest, tol)
    check(honest.failed_ops() == 0 and honest.fail_frac() == 0.0,
          "an exact case with its true reference passes")
    planted = run.Tally()
    run.run_case(dataclasses.replace(case, ref=case.ref + 1.0), planted, tol)
    check(planted.reasons["bound_miss"] == 1 and planted.wrong == 1
          and planted.failed_ops() == 1, "a planted wrong reference is counted as a failure")

    header = ",".join(gx.cli.CSV_COLUMNS)
    report = (f"{header}\nquadratic-form,E[X1 X2],0.25,0.001,,,\n"
              "quadratic-form,,,,some identity,false,-1\n")
    tally = run.Tally()
    run.check_catalog(tally, 1, report, {("quadratic-form", "E[X1 X2]"): 0.0}, tol)
    check(tally.wrong == 1 and tally.reasons["assertion"] == 1 and tally.failed_ops() == 2,
          "a catalog row off its reference and a failed assertion are both failures")


def traced_counts(pool) -> tuple:
    with spans.Tracer() as tracer:
        run.calls_pass(gx, pool, run.Tally())
    m = spans.layer_metrics(tracer.spans, {})
    return m["pde.cell_steps"], m["pde.steps"]


def same_seed():
    for name, build in cases.WORKLOAD_CASES.items():
        first, again, other = build(5), build(5), build(6)
        same = [(c.label, c.params, c.ref) for c in first] == \
               [(c.label, c.params, c.ref) for c in again]
        check(same, f"{name}: the same seed gives identical inputs")
        differ = [c.params for c in first] != [c.params for c in other]
        check(differ, f"{name}: another seed gives other inputs")
        prefix = [c.params for c in build(5, 10)] == [c.params for c in first[:10]]
        check(prefix, f"{name}: a shorter pool is the start of the full one")
    for name, size in (("gnormal", 8), ("sequential", 4)):
        counts = [traced_counts(cases.WORKLOAD_CASES[name](5)[:size]) for _ in range(2)]
        check(counts[0] == counts[1] and counts[0][0] > 0,
              f"{name}: pde.cell_steps and pde.steps repeat exactly {counts[0]}")


def bindings() -> dict:
    from gexpect import cli, expectation, gamma, pde, scenarios, testfuncs

    found = {}
    for mod in (gx, cli, expectation, gamma, pde, scenarios, testfuncs):
        for attr, value in vars(mod).items():
            if callable(value):
                found[(mod.__name__, attr)] = value
    for attr, value in vars(gx.TestFunction).items():
        found[("TestFunction", attr)] = value
    return found


def restored():
    before = bindings()
    with spans.Tracer() as tracer:
        wrapped = sum(before[k] is not v for k, v in bindings().items() if k in before)
    check(wrapped >= 20 and len(tracer._patches) == 0, f"the tracer wrapped {wrapped} bindings")
    check(bindings() == before, "after a traced run every binding is the original")
    try:
        with spans.Tracer():
            # arity mismatch: raises inside a wrapped function
            gx.expectation.expect_gnormal(gx.Interval1D(gx.UncertaintyInterval(1.0, 2.0)),
                                          cases.psi_function("x^2", (1.0, 1.0)))
    except gx.GExpectError:
        pass
    check(bindings() == before, "after a traced run that raised every binding is the original")


if __name__ == "__main__":
    planted_reference()
    same_seed()
    restored()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    sys.exit(1 if FAILURES else 0)
