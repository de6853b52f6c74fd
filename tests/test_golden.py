"""Golden safety net: a cheap fixed CLI report and four pinned solves.

The golden CSV was written by ``gexpect run`` with GOLDEN_ARGV below. It
covers nested solves, 2D box solves and one ``--refine`` level. At h = 0.25
three "strictly positive" assertions fail because the error estimate is
loose there; they are pinned as they are, so the run exits 1.

Regenerate (only when a change is meant to move the numbers) with
    python -m gexpect run <GOLDEN_ARGV> --out tests/golden/report_h0.25_refine1.csv
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from gexpect.cli import main
from gexpect.expectation import expect_gnormal, expect_sequential
from gexpect.gamma import ConvexHull, DiagonalBox, RankOneFamily, UncertaintyInterval
from gexpect.pde import SolverConfig, solve_gheat_diag, solve_gheat_hull
from gexpect.testfuncs import XY_SQUARED, TestFunction

GOLDEN = Path(__file__).with_name("golden") / "report_h0.25_refine1.csv"
GOLDEN_ARGV = ["run", "--scenario", "asymmetric-independence", "--scenario", "quadratic-form",
               "--scenario", "reverse-independence", "--scenario", "invertible-scan",
               "--scenario", "diag-not-indep", "--h", "0.25", "--refine", "1"]
NUMERIC_COLUMNS = {"value", "error_estimate", "margin", "refinement_delta_1"}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_golden_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(GOLDEN_ARGV + ["--out", str(out)]) == 1
    capsys.readouterr()
    want, got = _read(GOLDEN), _read(out)
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for w_row, g_row in zip(want[1:], got[1:]):
        for col, w, g in zip(header, w_row, g_row):
            if col in NUMERIC_COLUMNS and w != "":
                # abs_tol only admits noise on values that are rounding-level zeros
                assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12), \
                    (w_row[:2], col, g, w)
            else:
                assert g == w, (w_row[:2], col)  # labels, assertion texts, pass flags


IV = UncertaintyInterval(1.0, 4.0)
HULL = ConvexHull((np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, -0.5], [-0.5, 3.0]])))
COARSE = SolverConfig(h=0.25)  # refinement on
KINK = TestFunction(lambda x, y: np.maximum(x - 0.5 * y - 0.3, 0.0), arity=2, growth_order=1,
                    growth_const=2.0, name="(x-y/2-0.3)^+")


@pytest.mark.parametrize("solve, pinned", [
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED, 1.0, cfg=COARSE),
     (1.5845718148833705, 0.2, 0.03331378298029941, 320)),
    (lambda: solve_gheat_hull(HULL, XY_SQUARED, 1.0, cfg=COARSE),
     (1.2902047883147163, 0.20625, 0.010443552684413548, 240)),
    (lambda: expect_sequential((IV, IV), XY_SQUARED, cfg=COARSE).diagnostics[0],
     (2.3908465987703322, 0.4000000000000228, 0.008446095800599629, 320)),
    (lambda: expect_gnormal(RankOneFamily(np.array([1.2, -0.7]), IV), KINK,
                            cfg=COARSE).diagnostics[0],
     (1.0927480028916354, 2.131628207280301e-15, 0.003096354687107006, 160)),
], ids=["box", "hull", "sequential", "rank-one"])
def test_pinned_solve_reports(solve, pinned):
    rep = solve()
    assert (rep.value_at_origin, rep.boundary_influence_estimate,
            rep.refinement_delta, rep.steps_taken) == pinned
