#!/usr/bin/env python3
"""gexpect benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. gexpect is imported from ./src, never from
an installed copy. One caller runs a closed loop: each call waits for the
previous result, as a user script or the CLI does. BLAS/OpenMP are pinned
to one thread; the catalog's scenario pool keeps the CLI default worker
count (GEXPECT_THREADS is cleared).

--trace 0 times the workload and reports the end-to-end metrics;
--trace 1 runs four passes over the seeded pool (untraced, traced, traced,
untraced; the catalog runs one traced default pass and those four passes
over three cheap scenarios) and reports the per-layer metrics of the traced
passes (see spans.py) with the tracing overhead. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads
os.environ.pop("GEXPECT_THREADS", None)

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import tempfile
import time
from collections import Counter
from pathlib import Path

import refs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("catalog", "gnormal", "sequential")
# Set-ups per run, some before the timed loop and some after it. setup_s is
# the fastest of them: a busy host only ever adds time to the same set-up,
# and its busy phases last minutes, so a median moves with them.
SETUP_BEFORE, SETUP_AFTER = 4, 3
# |value - ref| below this share of (1 + |ref|) is floating-point rounding,
# which no error estimate is meant to cover
ROUNDING = 1e-12
# scenarios timed with and without tracing to measure the catalog's overhead
OVERHEAD_SCENARIOS = ("asymmetric-independence", "quadratic-form", "reverse-independence")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import gexpect; print(time.perf_counter() - t)")
FAIL_REASONS = ("raised", "nonfinite", "bound_miss", "assertion")
# The accuracy metrics and ok_frac come from a fixed panel, the workload's
# own first cases at PANEL_SEED, so that they compare code rather than drawn
# inputs; the seeded calls still count towards the printed fail_frac.
PANEL_SEED = 0
PANEL_SIZE = {"gnormal": 40, "sequential": 32}


def import_gexpect():
    """Import gexpect from this checkout's src/, or exit non-zero."""
    if not (SRC / "gexpect" / "__init__.py").is_file():
        raise SystemExit(f"error: no gexpect sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import gexpect
    if Path(gexpect.__file__).resolve().parent != (SRC / "gexpect").resolve():
        raise SystemExit(f"error: imported gexpect from {gexpect.__file__}, not {SRC}")
    return gexpect


def child_import_s() -> float:
    """Seconds to import gexpect in a fresh interpreter (timed inside it)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------
# outcome accounting


class Tally:
    """Attempted operations, failures per reason, errors and latencies."""

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()
        self.wrong = 0  # bound misses also outside the correctness tolerance
        self.errors = []
        self.estimates = []
        self.latencies = []

    def absorb(self, other: "Tally"):
        """Add other's operation and failure counts (not its samples)."""
        self.attempted += other.attempted
        self.reasons.update(other.reasons)
        self.wrong += other.wrong

    def failed_ops(self) -> int:
        """Operations whose output is wrong: the result line's 'failed'."""
        return self.reasons["raised"] + self.reasons["nonfinite"] + self.reasons["assertion"] \
            + self.wrong

    def fail_frac(self) -> float:
        return sum(self.reasons[r] for r in FAIL_REASONS) / max(self.attempted, 1)

    def check(self, value: float, estimate: float, ref, target_tol: float) -> str | None:
        """Count one finished operation; return "nonfinite", "bound_miss",
        "wrong" (a bound miss also outside the correctness tolerance) or None."""
        self.attempted += 1
        if not (math.isfinite(value) and math.isfinite(estimate)):
            self.reasons["nonfinite"] += 1
            return "nonfinite"
        if ref is None:
            return None
        err = abs(value - ref)
        slack = ROUNDING * (1.0 + abs(ref))
        self.errors.append(err)
        self.estimates.append(estimate)
        if err <= estimate + slack:
            return None
        self.reasons["bound_miss"] += 1
        if err <= max(10.0 * estimate, target_tol * (1.0 + abs(ref))) + slack:
            return "bound_miss"
        self.wrong += 1
        return "wrong"

    def raised(self, exc: Exception):
        self.attempted += 1
        reason = "nonfinite" if "non-finite" in str(exc) else "raised"
        self.reasons[reason] += 1
        print(f"# operation failed ({reason}): {type(exc).__name__}: {exc}")


def tail(samples):
    """(value, percentile, samples beyond): the highest integer percentile
    with at least ten samples above it; the maximum below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n - rank


# ---------------------------------------------------------------------------
# catalog workload: the default `gexpect run --scenario all`


def catalog_references(cfg) -> dict:
    """Closed forms for the catalog rows that have one, at cfg's settings.

    Mirrors the catalog's fixed inputs: linear-image uses A = [[1,2],[0,1]],
    v = (3,-2) so <v, AY> = 3 Y1 + 4 Y2; quadratic-form uses
    A = [[1,.5],[.5,-1]]; symmetry-identity scales the second interval by alpha.
    """
    lo, hi = cfg.sigma_low_sq * cfg.t, cfg.sigma_high_sq * cfg.t
    width = hi - lo
    asym = refs.asymmetric_moment(hi, width)
    var_image = refs.box_variance((3.0, 4.0), (hi, hi))
    return {
        ("asymmetric-independence", "E[Y2 Y1^2]"): 0.0,
        ("asymmetric-independence", "E[Y1 Y2^2]"): asym,
        ("linear-image", "nested E[x^2(<v,AY>)]"): var_image,
        ("linear-image", "1D E[x^2], scaled interval"): var_image,
        ("linear-image", "nested E[|x|(<v,AY>)]"): refs.gaussian_psi("|x|", math.sqrt(var_image)),
        ("linear-image", "1D E[|x|], scaled interval"): refs.gaussian_psi("|x|", math.sqrt(var_image)),
        ("symmetry-identity", "sequential E[Y2 Y1^2]"): 0.0,
        ("symmetry-identity", "sequential E[Y1 Y2^2]"): refs.asymmetric_moment(hi, cfg.alpha * width),
        ("diag-not-indep", "E[X1^2]"): hi,
        ("diag-not-indep", "-E[-X1^2]"): lo,
        ("diag-not-indep", "E[X2^2]"): hi,
        ("diag-not-indep", "-E[-X2^2]"): lo,
        ("diag-not-indep", "sequential E[Y2 Y1^2]"): 0.0,
        ("diag-not-indep", "sequential E[Y1 Y2^2]"): asym,
        ("quadratic-form", "nested E[<AX,X>]"): refs.quad_box([[1.0, 0.5], [0.5, -1.0]],
                                                              (lo, lo), (hi, hi)),
        ("quadratic-form", "E[X1 X2]"): 0.0,
        ("quadratic-form", "-E[-X1 X2]"): 0.0,
        ("reverse-independence", "sequential E[Xi Xj^2]"): asym,
    }


def catalog_argv(scenarios=("all",), out=None) -> list:
    argv = ["run"]
    for name in scenarios:
        argv += ["--scenario", name]
    return argv + (["--out", str(out)] if out else [])


def run_catalog(gx, scenarios=("all",)):
    """One parse_args/execute pass into a temp dir: (seconds, rc, csv text)."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "report.csv"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gx.cli.execute(gx.cli.parse_args(catalog_argv(scenarios, path)))
        seconds = time.perf_counter() - start
        text = path.read_text(encoding="utf-8")
    return seconds, rc, text


def check_catalog(tally: Tally, rc: int, text: str, references: dict, tol: float):
    seen, assertions_failed = set(), 0
    for row in csv.DictReader(io.StringIO(text)):
        if row["assertion"]:
            tally.attempted += 1
            if row["pass"] != "true":
                assertions_failed += 1
                print(f"# assertion failed: {row['scenario']}: {row['assertion']}")
            continue
        key = (row["scenario"], row["label"])
        seen.add(key)
        ref = references.get(key)
        if tally.check(float(row["value"]), float(row["error_estimate"]), ref, tol):
            print(f"# {key} value={row['value']} ref={ref} "
                  f"estimate={row['error_estimate']}")
    for key in sorted(set(references) - seen):
        tally.attempted += 1
        tally.wrong += 1
        print(f"# catalog row missing: {key}")
    tally.reasons["assertion"] += assertions_failed
    if rc != (1 if assertions_failed else 0):
        tally.attempted += 1
        tally.reasons["raised"] += 1
        print(f"# exit status {rc} disagrees with the assertion rows")


def catalog_setup(gx):
    cfg = gx.cli.parse_args(catalog_argv())
    return cfg, catalog_references(cfg)


def catalog_timed(gx, inputs, seconds: float, tally: Tally, report: dict):
    cfg, references = inputs
    start = time.perf_counter()
    while True:
        wall, rc, text = run_catalog(gx)
        tally.latencies.append(wall)
        check_catalog(tally, rc, text, references, cfg.tol)
        if time.perf_counter() - start >= seconds:
            break
    report["catalog_csv_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    report["catalog_csv_lines"] = text.count("\n")
    return time.perf_counter() - start


def catalog_traced(gx, inputs, tally: Tally):
    cfg, references = inputs
    with spans.Tracer() as tracer:
        wall, rc, text = run_catalog(gx)
    check_catalog(tally, rc, text, references, cfg.tol)
    gaps = [abs(1000.0 * s.duration - s.info["runtime_ms"])
            for s in tracer.spans if s.name.startswith("scenarios.")]
    # tracing overhead, measured on a cheap subset of the catalog
    plain, traced = overhead_passes(lambda _: run_catalog(gx, OVERHEAD_SCENARIOS)[0],
                                    spans.Tracer())
    print(f"# traced catalog pass {wall:.3f} s; overhead subset {plain:.3f} s untraced, "
          f"{traced:.3f} s traced; max scenario span gap {max(gaps):.3f} ms")
    extra = {"trace.overhead_frac": (traced - plain) / plain,
             "trace.scenario_gap_ms": max(gaps),
             "expectation.bound_misses": tally.reasons["bound_miss"]}
    return tracer, extra


# ---------------------------------------------------------------------------
# call workloads: expect / lower_expectation in a closed loop


def run_case(case, tally: Tally, target_tol: float):
    start = time.perf_counter()
    try:
        res = case.call()
    except Exception as exc:  # a failing call is counted, and the loop goes on
        tally.raised(exc)
        return
    tally.latencies.append(time.perf_counter() - start)
    if tally.check(res.value, res.error_estimate, case.ref, target_tol) in ("nonfinite", "wrong"):
        print(f"# wrong result: {case.label} {case.params} value={res.value!r} "
              f"ref={case.ref!r} estimate={res.error_estimate!r}")


def calls_timed(gx, pool, seconds: float, tally: Tally, report: dict):
    tol = gx.SolverConfig().target_tol
    start = time.perf_counter()
    i = 0
    while True:
        run_case(pool[i % len(pool)], tally, tol)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    report["pool_size"] = len(pool)
    return time.perf_counter() - start


def calls_pass(gx, pool, tally: Tally) -> float:
    tol = gx.SolverConfig().target_tol
    start = time.perf_counter()
    for case in pool:
        run_case(case, tally, tol)
    return time.perf_counter() - start


def overhead_passes(one_pass, tracer):
    """Untraced, traced, traced, untraced (ABBA cancels a linear drift in
    machine speed): total untraced and total traced seconds."""
    plain = traced = 0.0
    for with_trace in (False, True, True, False):
        if with_trace:
            with tracer:
                traced += one_pass(True)
        else:
            plain += one_pass(False)
    return plain, traced


def calls_traced(gx, pool, tally: Tally):
    tracer = spans.Tracer()
    plain, traced = overhead_passes(
        lambda with_trace: calls_pass(gx, pool, tally if with_trace else Tally()), tracer)
    print(f"# two passes over {len(pool)} cases each: {plain:.3f} s untraced, "
          f"{traced:.3f} s traced")
    extra = {"trace.overhead_frac": (traced - plain) / plain,
             "expectation.bound_misses": tally.reasons["bound_miss"]}
    return tracer, extra


# ---------------------------------------------------------------------------
# provenance


def provenance(gx) -> dict:
    import numpy
    import scipy

    info = {"gexpect": str(Path(gx.__file__).resolve().parent), "commit": None,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": None, "caches": {}}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        info["commit"] = ref
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gx = import_gexpect()
    import cases  # builds gexpect objects, so only after import_gexpect

    OUT.mkdir(exist_ok=True)
    catalog = args.workload == "catalog"

    def setup():
        """Import gexpect afresh, then build the inputs: (seconds, inputs)."""
        imported = child_import_s()
        start = time.perf_counter()
        if catalog:
            inputs = catalog_setup(gx)
        else:
            build = cases.WORKLOAD_CASES[args.workload]
            inputs = build(args.seed), build(PANEL_SEED, PANEL_SIZE[args.workload])
        return imported + time.perf_counter() - start, inputs

    setup_times = []
    for _ in range(SETUP_BEFORE):
        seconds, inputs = setup()
        setup_times.append(seconds)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(gx)}
    tally = Tally()
    if args.trace:
        tracer, extra = (catalog_traced(gx, inputs, tally) if catalog
                         else calls_traced(gx, inputs[0], tally))
        metrics = spans.layer_metrics(tracer.spans, extra)
        units = spans.LAYER_METRICS
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        if catalog:
            wall = catalog_timed(gx, inputs, args.seconds, tally, report)
            accuracy = tally
        else:
            wall = calls_timed(gx, inputs[0], args.seconds, tally, report)
            report["seeded_max_abs_err"] = max(tally.errors)
            accuracy = Tally()
            calls_pass(gx, inputs[1], accuracy)
            tally.absorb(accuracy)
        setup_times += [setup()[0] for _ in range(SETUP_AFTER)]
        report["panel_attempted"] = accuracy.attempted
        report["panel_fail_counts"] = {r: accuracy.reasons[r] for r in FAIL_REASONS}
        lat = tally.latencies
        tail_value, tail_pct, tail_beyond = tail(lat)
        report["samples"] = len(lat)
        # printed, not gated: it flips with the host's busy phases (see README)
        report["op_p50_ms"] = 1000.0 * statistics.median(lat)
        report["tail_percentile"] = tail_pct
        report["tail_samples_beyond"] = tail_beyond
        metrics = {
            "setup_s": min(setup_times),
            "op_tail_ms": 1000.0 * tail_value,
            "ops_per_s": len(lat) / wall,
            "max_abs_err": max(accuracy.errors),
            "error_estimate_p50": statistics.median(accuracy.estimates),
            "ok_frac": 1.0 - accuracy.fail_frac(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_tail_ms": "ms", "ops_per_s": "1/s",
                 "max_abs_err": "1", "error_estimate_p50": "1", "ok_frac": "1",
                 "peak_rss_mb": "MB"}

    report["setup_runs_s"] = setup_times
    report["attempted"] = tally.attempted
    report["fail_frac"] = tally.fail_frac()
    report["fail_counts"] = {r: tally.reasons[r] for r in FAIL_REASONS}
    report["wrong"] = tally.wrong
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    failed = tally.failed_ops()
    result = {"correct": failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
