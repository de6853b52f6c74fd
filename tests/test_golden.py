"""Golden safety net: two fixed CLI reports and eight pinned solves.

The golden CSVs were written by ``gexpect run``: one with GOLDEN_ARGV
below, which covers nested solves and 2D box solves at h = 0.25, and one
with the default settings (the whole catalog at each scenario's derived
grid). Every assertion of both passes.
Numeric columns compare within rel 1e-9 / abs 1e-12, but assertion texts
compare as text, and some print rounding-level residues (such as
|lhs-rhs|=3.553e-15), so a change that only moves values at rounding
level can still change the text and need the file regenerated.

Regenerate (only when a change is meant to move the numbers, and after
checking row by row that every value moves by less than the old row's
error_estimate and no pass flag flips to fail) with
    python -m gexpect run <GOLDEN_ARGV> --out tests/golden/report_h0.25.csv
    python -m gexpect run <DEFAULT_ARGV> --out tests/golden/report_default.csv
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

GOLDEN_DIR = Path(__file__).with_name("golden")
GOLDEN_ARGV = ["run", "--scenario", "asymmetric-independence", "--scenario", "quadratic-form",
               "--scenario", "reverse-independence", "--scenario", "invertible-scan",
               "--scenario", "diag-not-indep", "--h", "0.25"]
DEFAULT_ARGV = ["run", "--scenario", "all"]
NUMERIC_COLUMNS = {"value", "error_estimate", "margin"}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _assert_same_report(argv, golden, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    want, got = _read(GOLDEN_DIR / golden), _read(out)
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


def test_golden_report(tmp_path, capsys):
    _assert_same_report(GOLDEN_ARGV, "report_h0.25.csv", tmp_path, capsys)


def test_golden_default_catalog(tmp_path, capsys):
    _assert_same_report(DEFAULT_ARGV, "report_default.csv", tmp_path, capsys)


IV = UncertaintyInterval(1.0, 4.0)
HULL = ConvexHull((np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, -0.5], [-0.5, 3.0]])))
COARSE = SolverConfig(h=0.25)  # refinement on
KINK = TestFunction(lambda x, y: np.maximum(x - 0.5 * y - 0.3, 0.0), arity=2, growth_order=1,
                    growth_const=2.0, name="(x-y/2-0.3)^+")
ABS_SUM = TestFunction(lambda x, y: np.abs(x + y), arity=2, growth_order=1, growth_const=2.0,
                       name="|x+y|")
X2_0Y = TestFunction(lambda x, y: x**2 + 0.0 * y, arity=2, growth_order=1, growth_const=6.0,
                     name="x^2+0y")
QUAD_3 = TestFunction(lambda x, y, z: x**2 + (y - 0.5) ** 2 + z**2, arity=3, growth_order=1,
                      growth_const=12.0, name="x^2+(y-1/2)^2+z^2")


@pytest.mark.parametrize("solve, pinned", [
    # box and sequential extrapolate; hull and rank-one fall back to u_h
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED, cfg=COARSE),
     (1.595676409210137, 5.876172814779698e-11, 0.03331378298029941, 320)),
    (lambda: solve_gheat_hull(HULL, XY_SQUARED, cfg=COARSE),
     (1.2902047883147163, 1.726140097584274e-11, 0.05387472388573733, 240)),
    (lambda: expect_sequential((IV, IV), XY_SQUARED, cfg=COARSE),
     (2.3936619640371988, 5.876172814779698e-11, 0.008446095800599629, 320)),
    (lambda: expect_gnormal(RankOneFamily(np.array([1.2, -0.7]), IV), KINK, cfg=COARSE),
     (1.0927480028916354, 8.799062223510633e-13, 0.003096354687107006, 160)),
    # |x+y| is even only under x -> -x: point folds of the box and the hull
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), ABS_SUM, cfg=COARSE),
     (2.256760256505919, 9.118199195347805e-13, 0.0039741495976151064, 320)),
    (lambda: solve_gheat_hull(HULL, ABS_SUM, cfg=COARSE),
     (1.954478407167076, 3.262326800948795e-13, 0.009923318821932536, 240)),
    # y is dropped as a constant axis: a 1D solve on the 2D grid
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), X2_0Y, cfg=COARSE),
     (3.999999999999973, 2.735459758604342e-12, 2.2648549702353193e-14, 320)),
    # 65^3 nodes: the first sweep folds its swept axis and x, and cuts slabs
    (lambda: expect_sequential((UncertaintyInterval(0.5, 1.0),) * 3, QUAD_3, cfg=COARSE),
     (3.2500000000000018, 4.559099597673904e-12, 2.6645352591003757e-15, 120)),
], ids=["box", "hull", "sequential", "rank-one", "box-point-fold", "hull-point-fold",
        "box-constant-axis", "sequential-3d-slabs"])
def test_pinned_solve_reports(solve, pinned):
    rep = solve()
    assert (rep.value, rep.tail_bound, rep.refinement_delta, rep.steps_taken) == pinned
