import math

import numpy as np
import pytest

from gexpect.errors import DimensionMismatch, GExpectError
from gexpect.expectation import (GNormal, LinearImage, Sequential, expect,
                                 expect_gnormal, expect_sequential,
                                 lower_expectation)
from gexpect.gamma import (ConvexHull, DiagonalBox, Interval1D, RankOneFamily,
                           UncertaintyInterval, image_gamma)
from gexpect.pde import SolverConfig
from gexpect.testfuncs import (ABS, NEG_SQUARE, POS_PART, SQUARE, QUARTIC, XY,
                               XY_SQUARED, YX_SQUARED, TestFunction)
from oracles import (convex_oracle_1d, gauss_hermite_expectation,
                     gauss_hermite_expectation_nd)

IV = UncertaintyInterval(1.0, 4.0)
FAST = SolverConfig(h=0.2, refine=False)

# frozen closed forms for sigma_high = 2: E|2Z| = 2 sqrt(2/pi), E[(2Z)^+] = 2/sqrt(2pi)
ABS_MOMENT = 1.5957691216057308
POS_MOMENT = 0.7978845608028654
# (sigma2_high^2 - sigma2_low^2) * sigma1_high / sqrt(2 pi) for [1,4] twice
THIRD_MOMENT = 2.3936536518199186


class TestOracles:
    def test_quadrature_matches_closed_forms(self):
        assert gauss_hermite_expectation(lambda x: x**2, 2.0) == pytest.approx(4.0, rel=1e-12)
        assert gauss_hermite_expectation_nd(lambda x, y: x**2 * y**2, [1.0, 2.0]) == \
            pytest.approx(4.0, rel=1e-10)

    def test_convex_oracle_values(self):
        assert convex_oracle_1d(IV, SQUARE) == pytest.approx(4.0, rel=1e-10)
        assert convex_oracle_1d(IV, QUARTIC) == pytest.approx(48.0, rel=1e-10)
        assert convex_oracle_1d(IV, ABS) == pytest.approx(ABS_MOMENT, rel=1e-4)
        assert convex_oracle_1d(IV, POS_PART) == pytest.approx(POS_MOMENT, rel=1e-4)
        assert convex_oracle_1d(IV, NEG_SQUARE) == pytest.approx(-1.0, rel=1e-10)

    def test_convex_oracle_needs_tagged_function(self):
        untagged = TestFunction(np.sin, arity=1, growth_order=0, growth_const=2.0)
        with pytest.raises(GExpectError):
            convex_oracle_1d(IV, untagged)


class TestExpectGNormal:
    def test_interval_moments(self):
        up = expect_gnormal(Interval1D(IV), SQUARE, cfg=FAST)
        assert up.value == pytest.approx(4.0, rel=1e-6)
        assert up.method == "pde"
        assert expect_gnormal(Interval1D(IV), ABS, cfg=FAST).value == \
            pytest.approx(ABS_MOMENT, abs=2e-3)

    def test_interval1d_and_one_interval_box_agree_bitwise(self):
        for phi in (SQUARE, ABS, POS_PART):
            a = expect_gnormal(Interval1D(IV), phi)
            b = expect_gnormal(DiagonalBox((IV,)), phi)
            assert (a.value, a.error_estimate) == (b.value, b.error_estimate)

    def test_rank_one_reduces_to_ray(self):
        # (3, 4)^T S for S ~ N(0, 1): the image of the 1D box under u w^T, w = 1
        fam = image_gamma(np.array([[3.0], [4.0]]), DiagonalBox((UncertaintyInterval(1.0, 1.0),)))
        assert isinstance(fam, RankOneFamily)
        phi = TestFunction(lambda x, y: x * y, arity=2, growth_order=1,
                           growth_const=8.0, name="")
        # E[(3S)(4S)] = 12 E[S^2] = 12 for S ~ N(0, 1)
        res = expect_gnormal(fam, phi, cfg=FAST)
        assert res.value == pytest.approx(12.0, rel=1e-6)

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expect_gnormal(Interval1D(IV), XY_SQUARED, cfg=FAST)


class TestExpectSequential:
    def test_third_moments(self):
        zero = expect_sequential((IV, IV), YX_SQUARED, cfg=FAST)
        pos = expect_sequential((IV, IV), XY_SQUARED, cfg=FAST)
        assert abs(zero.value) < 1e-10
        assert pos.value == pytest.approx(THIRD_MOMENT, abs=1e-2)
        assert pos.method == "nested"

    def test_order_reverses_roles(self):
        rev = expect_sequential((IV, IV.scaled(2.0)), XY_SQUARED, order=(1, 0), cfg=FAST)
        # with order (1, 0) the squared variable is integrated first
        assert abs(rev.value) < 1e-10

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            expect_sequential((IV,), XY_SQUARED, cfg=FAST)
        with pytest.raises(ValueError, match=r"^order \(0, 0\) is not a permutation of 0..1$"):
            expect_sequential((IV, IV), XY_SQUARED, order=(0, 0), cfg=FAST)
        # a fractional index is not truncated into a permutation
        with pytest.raises(ValueError, match=r"^order \(0.5, 1\) is not a permutation"):
            expect_sequential((IV, IV), XY_SQUARED, order=(0.5, 1), cfg=FAST)
        with pytest.raises(ValueError, match=r"^order \(0.5, 1\) is not a permutation"):
            Sequential((IV, IV), order=(0.5, 1))
        with pytest.raises(DimensionMismatch):
            expect_sequential((IV,) * 4,
                              TestFunction(lambda *c: sum(c), arity=4, growth_order=1,
                                           growth_const=4.0), cfg=FAST)


class TestExpectDispatch:
    def test_gnormal_and_sequential(self):
        assert expect(GNormal(Interval1D(IV)), SQUARE, cfg=FAST).value == \
            pytest.approx(4.0, rel=1e-6)
        assert expect(Sequential((IV, IV)), XY_SQUARED, cfg=FAST).value == \
            pytest.approx(THIRD_MOMENT, abs=1e-2)

    def test_linear_image_of_gnormal_scales(self):
        spec = LinearImage(np.array([[3.0]]), GNormal(Interval1D(IV)))
        assert expect(spec, SQUARE, cfg=FAST).value == pytest.approx(36.0, rel=1e-6)

    def test_linear_image_composition(self):
        inner = LinearImage(np.array([[2.0]]), GNormal(Interval1D(IV)))
        spec = LinearImage(np.array([[3.0]]), inner)
        assert expect(spec, SQUARE, cfg=FAST).value == pytest.approx(144.0, rel=1e-6)

    def test_linear_image_of_sequential_pulls_back(self):
        # (Y1 + Y2) ~ 1D G-normal with variance interval [2, 8]
        spec = LinearImage(np.array([[1.0, 1.0]]), Sequential((IV, IV)))
        assert expect(spec, SQUARE, cfg=FAST).value == pytest.approx(8.0, rel=1e-5)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            expect(GNormal(Interval1D(IV)), XY_SQUARED, cfg=FAST)

    def test_row_image_of_hull_is_1d_solve_over_its_variance_range(self):
        hull = ConvexHull((np.array([[2.0, 1.0], [1.0, 2.0]]),
                           np.array([[1.0, -0.5], [-0.5, 3.0]])))
        w = np.array([0.8, -0.6])
        variances = [float(w @ b @ w) for b in hull.generators]  # 2.2 and 1.04
        res = expect(LinearImage(w.reshape(1, 2), GNormal(hull)), ABS, cfg=FAST)
        iv = UncertaintyInterval(min(variances), max(variances))
        direct = expect_gnormal(Interval1D(iv), ABS, cfg=FAST)
        assert (res.value, res.error_estimate) == (direct.value, direct.error_estimate)


def test_lower_expectation_is_conjugate():
    lo = lower_expectation(GNormal(Interval1D(IV)), SQUARE, cfg=FAST)
    assert lo.value == pytest.approx(1.0, rel=1e-6)
    up = expect(GNormal(Interval1D(IV)), SQUARE, cfg=FAST)
    assert lo.value <= up.value


def test_mean_certainty_check():
    # Y2 is independent from Y1 and has no mean uncertainty, so adding
    # alpha Y2 must not move the expectation: E[psi(Y1) + alpha Y2] = E[psi(Y1)]
    psi = TestFunction(lambda x: x**2, arity=1, growth_order=1, growth_const=6.0,
                       tags={"convex"}, name="x^2")
    alpha = 2.0
    with_term = expect_sequential(
        (IV, IV), TestFunction(lambda x, y: psi.fn(x) + alpha * y, arity=2, growth_order=1,
                               growth_const=6.0 + alpha + 1.0), cfg=FAST)
    without_term = expect_sequential((IV,), psi, cfg=FAST)
    tol = max(FAST.target_tol * (1.0 + abs(without_term.value)),
              5.0 * (with_term.error_estimate + without_term.error_estimate))
    assert with_term.value == pytest.approx(without_term.value, abs=tol)


def test_zero_2d_linear_image_is_phi_at_origin():
    # the image set is the zero singleton, a box of zero-variance intervals:
    # X = 0, so E[phi(X)] = phi(0), in 2D and in 3D
    phi2 = TestFunction(lambda x, y: (x + 1.0) * (y + 2.0), arity=2, growth_order=2,
                        growth_const=4.0)
    phi3 = TestFunction(lambda x, y, z: (x + 1.0) * (y + 2.0) * (z + 3.0), arity=3,
                        growth_order=3, growth_const=8.0)
    box = GNormal(DiagonalBox((IV, IV)))
    killed = np.array([[1.0, -1.0]] * 3)  # maps the direction (1, 1) to 0
    for law, phi, want in [
        (LinearImage(np.zeros((2, 2)), box), phi2, 2.0),
        (LinearImage(np.zeros((3, 2)), box), phi3, 6.0),
        (LinearImage(killed, GNormal(RankOneFamily(np.array([1.0, 1.0]), IV))), phi3, 6.0),
    ]:
        res = expect(law, phi)
        assert (res.value, res.error_estimate) == (want, 0.0)


ZERO = UncertaintyInterval(0.0, 0.0)
SUM_OF_SQUARES = TestFunction(lambda x, y: x**2 + y**2, arity=2, growth_order=1,
                              growth_const=4.0, tags={"convex"}, name="x^2+y^2")


@pytest.mark.parametrize("law", [GNormal(DiagonalBox((ZERO, IV))), GNormal(DiagonalBox((IV, ZERO))),
                                 Sequential((IV, ZERO)), Sequential((ZERO, IV))],
                         ids=["box zero first", "box zero last", "sequential zero last",
                              "sequential zero first"])
def test_zero_variance_coordinate_keeps_the_default_h(law):
    # the zero-variance axis must not set h for the whole grid: its 8e-6
    # truncation radius would ask for h = 1.6e-7, far over the budget
    res = expect(law, SUM_OF_SQUARES)
    assert abs(res.value - 4.0) <= res.error_estimate + 1e-12
    assert res.error_estimate < 1e-6


def test_all_zero_sequential_law_is_phi_at_origin():
    # E^[phi(X)] = phi(0) for X = 0, on every path: a box, a sequential law
    # and a linear image of it
    phi = TestFunction(lambda x, y: (x + 1.0) ** 2 + y, arity=2, growth_order=1,
                       growth_const=4.0, name="(x+1)^2+y")
    for law in (GNormal(DiagonalBox((ZERO, ZERO))), Sequential((ZERO, ZERO)),
                LinearImage(np.array([[1.0, 2.0], [0.0, 1.0]]), Sequential((ZERO, ZERO)))):
        res = expect(law, phi)
        assert (res.value, res.error_estimate) == (1.0, 0.0)


@pytest.mark.parametrize("m, gamma, image_type", [
    (np.array([[0.0, 2.0], [0.5, 0.0]]), DiagonalBox((IV, IV)), DiagonalBox),
    (np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.2]]), DiagonalBox((IV,) * 3), ConvexHull),
], ids=["scaled permutation", "wide 2x3 map"])
def test_box_and_wide_images_are_solved_as_the_image_set(m, gamma, image_type):
    # the hull images of square and tall maps are pulled back instead; their
    # calibration cases are in test_calibration.py
    image = image_gamma(m, gamma)
    assert isinstance(image, image_type)
    res = expect(LinearImage(m, GNormal(gamma)), XY, cfg=FAST)
    direct = expect_gnormal(image, XY, cfg=FAST)
    assert (res.value, res.error_estimate) == (direct.value, direct.error_estimate)


def test_wide_map_with_a_non_dominant_image_hull_is_refused():
    # pulling back would solve on the 3D box; the 2D image hull is refused
    spec = LinearImage(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), GNormal(DiagonalBox((IV,) * 3)))
    with pytest.raises(GExpectError, match="diagonally dominant"):
        expect(spec, XY, cfg=FAST)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("inner", [GNormal(DiagonalBox((IV, IV))), Sequential((IV, IV))],
                         ids=["gnormal", "sequential"])
def test_linear_image_refuses_non_finite_matrices(inner, bad):
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        LinearImage(np.array([[1.0, bad], [0.0, 1.0]]), inner)


CONSTANT = TestFunction(lambda x, y: 1.0, arity=2, name="1")
BOX_2D = DiagonalBox((IV, UncertaintyInterval(0.5, 2.0)))


@pytest.mark.parametrize("law", [
    GNormal(BOX_2D),
    GNormal(ConvexHull((np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, -0.5], [-0.5, 3.0]])))),
    Sequential((IV, IV)),
    LinearImage(np.array([[1.0, 2.0], [0.0, 1.0]]), GNormal(BOX_2D)),
], ids=["box", "hull", "sequential", "shear image"])
def test_phi_returning_a_scalar_gives_the_constant(law):
    # the scalar is broadcast to the grid, and a constant does not diffuse
    assert expect(law, CONSTANT, cfg=FAST).value == 1.0


def test_phi_of_a_shape_off_the_grid_is_refused():
    # transposed, the values of a non-square grid do not broadcast to it
    phi = TestFunction(lambda x, y: (x * y).T, arity=2, growth_order=1, growth_const=4.0)
    with pytest.raises(GExpectError, match="does not broadcast to the grid"):
        expect(GNormal(BOX_2D), phi, cfg=FAST)


def test_lower_expectation_keeps_the_solve_record():
    up = expect(GNormal(Interval1D(IV)), NEG_SQUARE, cfg=SolverConfig(h=0.2))
    lo = lower_expectation(GNormal(Interval1D(IV)), SQUARE, cfg=SolverConfig(h=0.2))
    assert lo.value == -up.value
    assert (lo.tail_bound, lo.refinement_delta, lo.steps_taken, lo.method) == \
        (up.tail_bound, up.refinement_delta, up.steps_taken, "pde")
    assert lo.error_estimate == up.error_estimate == up.tail_bound + up.refinement_delta
