"""Golden safety net: two fixed CLI reports and eleven pinned solves.

The golden CSVs were written by ``gexpect run``: one with GOLDEN_ARGV
below, whose config file ``report_h0.25.cfg`` selects nested solves and 2D
box solves at h = 0.25, and one with the default settings (the whole
catalog at each scenario's derived grid). Every assertion of both passes.
Numeric columns compare within rel 1e-9 / abs 1e-12, but assertion texts
compare as text, and some print rounding-level residues (such as
|lhs-rhs|=1.378e-12), so a change that only moves values at rounding
level can still change the text and need the file regenerated.

Regenerate (only when a change is meant to move the numbers, and after
checking row by row that every value moves by less than the old row's
error_estimate and no pass flag flips to fail) with
    python -m gexpect run --config tests/golden/report_h0.25.cfg --out tests/golden/report_h0.25.csv
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
GOLDEN_ARGV = ["run", "--config", str(GOLDEN_DIR / "report_h0.25.cfg")]
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
COARSE = SolverConfig(h=0.25)
KINK = TestFunction(lambda x, y: np.maximum(x - 0.5 * y - 0.3, 0.0), arity=2, growth_order=1,
                    growth_const=2.0, name="(x-y/2-0.3)^+")
ABS_SUM = TestFunction(lambda x, y: np.abs(x + y), arity=2, growth_order=1, growth_const=2.0,
                       name="|x+y|")
X2_0Y = TestFunction(lambda x, y: x**2 + 0.0 * y, arity=2, growth_order=1, growth_const=6.0,
                     name="x^2+0y")
X2_KINK = TestFunction(lambda x, y: x**2 * np.maximum(y - 0.3, 0.0), arity=2, growth_order=2,
                       growth_const=8.0, name="x^2(y-0.3)^+")
XY_CUBED = TestFunction(lambda x, y: x * y**3, arity=2, growth_order=3, growth_const=2.0,
                        name="xy^3")
QUAD_3 = TestFunction(lambda x, y, z: x**2 + (y - 0.5) ** 2 + z**2, arity=3, growth_order=1,
                      growth_const=12.0, name="x^2+(y-1/2)^2+z^2")


@pytest.mark.parametrize("solve, pinned", [
    # box and sequential extrapolate; hull and rank-one fall back to u_h. The
    # sweeps, the rank-one and the constant-axis solves have no mixed row
    # along their one diffusing axis and are one dot product per row
    # (pde._walk_slab)
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED, cfg=COARSE),
     (1.5956764092101388, 5.876172814779698e-11, 0.03331378298030052, 320)),
    (lambda: solve_gheat_hull(HULL, XY_SQUARED, cfg=COARSE),
     (1.2888526152139697, 1.726140097584274e-11, 0.06937587515769827, 140)),
    (lambda: expect_sequential((IV, IV), XY_SQUARED, cfg=COARSE),
     (2.393661964037197, 5.876172814779698e-11, 0.008446095800599185, 320)),
    (lambda: expect_gnormal(RankOneFamily(np.array([1.2, -0.7]), IV), KINK, cfg=COARSE),
     (1.092748002891635, 8.799062223510633e-13, 0.00309635468710745, 160)),
    # |x+y| is convex along both axes: the box solve is a mixture of 1D walks
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), ABS_SUM, cfg=COARSE),
     (2.256760256505918, 9.118199195347805e-13, 0.003974149597614662, 320)),
    # x y^3 and |x+y| are even only under x -> -x: point folds of the box
    # (whose x y^3 is mixed along y) and the hull
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), XY_CUBED, cfg=COARSE),
     (4.972709104154371, 2.4892683803299513e-10, 0.09536247755807725, 320)),
    (lambda: solve_gheat_hull(HULL, ABS_SUM, cfg=COARSE),
     (1.9544551912279873, 3.262326800948795e-13, 0.00765637051017154, 140)),
    # y is dropped as a constant axis: a 1D solve on the 2D grid
    (lambda: solve_gheat_diag(DiagonalBox((IV, IV)), X2_0Y, cfg=COARSE),
     (3.999999999999998, 2.735459758604342e-12, 1.9539925233402755e-14, 320)),
    # 65^3 nodes of convex rows: each sweep is one dot product per row, a slab
    # at a time
    (lambda: expect_sequential((UncertaintyInterval(0.5, 1.0),) * 3, QUAD_3, cfg=COARSE),
     (3.249999999999999, 4.559099597673904e-12, 1.3322676295501878e-15, 120)),
    # convex rows along y over passive data that is even in x (x^2 (y - 0.3)^+)
    # or under x -> -x only (|x + y|)
    (lambda: expect_sequential((IV, IV), X2_KINK, cfg=COARSE),
     (2.627596720855786, 5.876172814779698e-11, 0.013651488502834042, 320)),
    (lambda: expect_sequential((IV, IV), ABS_SUM, cfg=COARSE),
     (2.2567602565059186, 9.118199195347805e-13, 0.003974149597614662, 320)),
], ids=["box", "hull", "sequential", "rank-one", "box-walk", "box-point-fold",
        "hull-point-fold", "box-constant-axis", "sequential-3d-slabs", "sequential-halves",
        "sequential-mirrored"])
def test_pinned_solve_reports(solve, pinned):
    rep = solve()
    assert (rep.value, rep.tail_bound, rep.refinement_delta, rep.steps_taken) == pinned
