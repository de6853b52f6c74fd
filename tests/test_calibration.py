"""Calibration: error_estimate bounds the true error on every pinned closed form.

Each case runs at the default SolverConfig unless its name gives h, and
asserts |value - exact| <= error_estimate; the cases cover 1D and 2D
G-normal solves (box and hull), linear images of them that are solved by
pulling phi back, and nested solves. Run with
`pytest tests/test_calibration.py -v -s` to see the tightness ratio
error_estimate / |value - exact| of each case; a ratio far above 1 is a
loose bound, one below 1 a miss. The last tests pin the three outcomes of
the three-grid order check in pde.refinement_delta.
"""

import math

import numpy as np
import pytest

from gexpect.expectation import (GNormal, LinearImage, expect, expect_gnormal, expect_sequential,
                                 lower_expectation)
from gexpect.gamma import ConvexHull, DiagonalBox, Interval1D, UncertaintyInterval, g_function
from gexpect.pde import SolverConfig
from gexpect.testfuncs import (ABS, SQUARE, XY_SQUARED, YX_SQUARED, TestFunction,
                               linear_pullback)
from oracles import NEG_SQUARE, POS_PART, QUARTIC, box_u_h

IV = UncertaintyInterval(1.0, 4.0)
SIGMA_HIGH = 2.0


def _quadratic_form(a):
    return TestFunction(
        fn=lambda x, y: a[0, 0] * x * x + 2 * a[0, 1] * x * y + a[1, 1] * y * y,
        arity=2, growth_order=1, growth_const=4.0 * float(np.abs(a).sum()) + 4.0,
        name=f"<Ax,x> A={a.tolist()}")


def _gnormal_1d(phi, exact, cfg=SolverConfig()):
    return f"1d {phi.name}", lambda: expect_gnormal(Interval1D(IV), phi, cfg), exact


def _sequential(name, phi, exact, cfg=SolverConfig()):
    return name, lambda: expect_sequential((IV, IV), phi, cfg=cfg), exact


def _call(k):
    return TestFunction(lambda x: np.maximum(x - k, 0.0), arity=1, growth_order=1,
                        growth_const=2.0, name=f"(x{-k:+g})^+")


def _call_value(k, sigma):
    # E[(sigma Z - K)^+] = sigma pdf(K/sigma) - K (1 - cdf(K/sigma))
    z = k / sigma
    return (sigma * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            - k * 0.5 * math.erfc(z / math.sqrt(2.0)))


def _off_grid_kinks():
    """(x - K)^+ and sequential (x + y - K)^+ with K off every grid node, at
    the default config and at h = 0.2; both are convex, so they see the upper
    variance, 4 and 8."""
    for k in (0.137, 0.71, -1.23):
        for cfg, tag in ((SolverConfig(), ""), (SolverConfig(h=0.2), " h=0.2")):
            one = _gnormal_1d(_call(k), _call_value(k, SIGMA_HIGH), cfg)
            two = _sequential(f"(x+y{-k:+g})^+", linear_pullback(_call(k), np.ones((1, 2))),
                              _call_value(k, SIGMA_HIGH * math.sqrt(2.0)), cfg)
            for name, compute, exact in (one, two):
                name += tag
                yield pytest.param(name, compute, exact, id=name)


# a seeded benchmark case (perfbench/cases.gnormal(13), "interval-lower
# (x-K)+") whose observed order is p = 2.08: it extrapolates, and a grid
# term of |u_h - u_2h| / 3 (1.18e-4) would miss its error of 1.35e-4
SEEDED_K = 1.0670303604147928
SEEDED_IV = UncertaintyInterval(0.6440839268310753, 1.8496482274545551)
SEEDED = ("seeded lower (x-1.067)^+",
          lambda: lower_expectation(GNormal(Interval1D(SEEDED_IV)), _call(SEEDED_K)),
          _call_value(SEEDED_K, math.sqrt(SEEDED_IV.sigma_low_sq)))

# at h = 3 = 1.5 sigma_high, u_h = u_2h for (x + 2)^+ by coincidence; u_4h
# differs, and |u_2h - u_4h| covers the error of about 0.056
COINCIDENT = ("1d (x+2)^+ h=3",
              lambda: expect_gnormal(Interval1D(IV), _call(-2.0), SolverConfig(h=3.0)),
              _call_value(-2.0, SIGMA_HIGH))


# 2D G-normal laws: a box and a three-generator, diagonally dominant hull;
# and linear images M X whose image set is a hull, which expect solves on X's
# law with phi pulled back through M (the hull solver would refuse the image
# hulls: not diagonally dominant, or not 2D)
BOX_2D = DiagonalBox((IV, UncertaintyInterval(0.5, 2.0)))
BOX_3D = DiagonalBox((IV, UncertaintyInterval(0.5, 2.0), UncertaintyInterval(1.0, 2.0)))
HULL_2D = ConvexHull((np.array([[2.0, 1.0], [1.0, 1.5]]), np.array([[1.0, -0.5], [-0.5, 3.0]]),
                      np.diag([4.0, 1.0])))
SHEAR = np.array([[1.0, 2.0], [0.0, 1.0]])  # the linear-image scenario's A
ROTATION_30 = np.array([[math.sqrt(3.0) / 2.0, -0.5], [0.5, math.sqrt(3.0) / 2.0]])

KINKS = ((ABS, lambda s: s * math.sqrt(2.0 / math.pi)), (_call(0.37), lambda s: _call_value(0.37, s)))
CONVEX_PSI = ((SQUARE, lambda s: s * s), *KINKS, (_call(-1.23), lambda s: _call_value(-1.23, s)))


def _inner_product_cases(law, gamma, m, w, moments, cfg=SolverConfig()):
    """psi(<w, M X>) for X ~ N(0, gamma) (M = I when m is None), for each
    (psi, moment) in moments with psi convex. <w, M X> = <M^T w, X> is the 1D
    law at the largest variance v^T g v, v = M^T w, over the set's vertices g
    (a box's upper corner), so the exact value is moment(sqrt of that)."""
    w = np.array(w)
    spec, v = (GNormal(gamma), w) if m is None else (LinearImage(m, GNormal(gamma)), m.T @ w)
    tops = (gamma.generators if isinstance(gamma, ConvexHull)
            else [np.diag([iv.sigma_high_sq for iv in gamma.intervals])])
    sigma = math.sqrt(max(float(v @ g @ v) for g in tops))
    tag = f" h={cfg.h:g}" if cfg.h else ""
    for phi, moment in moments:
        name = f"{law} {phi.name} w=({', '.join(f'{x:g}' for x in w)}){tag}"
        pulled = linear_pullback(phi, w.reshape(1, -1))
        yield pytest.param(name, lambda f=pulled: expect(spec, f, cfg), moment(sigma), id=name)


def _gnormal_2d():
    """|<w, x>| (even under x -> -x, so its solves fold) and (<w, x> - 0.37)^+
    (not even) on the box, the hull, and the box's shear and rotation images."""
    for law, gamma, m in (("box", BOX_2D, None), ("hull", HULL_2D, None),
                          ("shear image", BOX_2D, SHEAR), ("rotation image", BOX_2D, ROTATION_30)):
        for w in ((1.0, 1.0), (0.6, -0.8)):
            yield from _inner_product_cases(f"2d {law}", gamma, m, w, KINKS)


def _pulled_back_images():
    """x^2, |x| and (x - K)^+ at K = 0.37 and -1.23 on one w for each hull
    image of a square or tall map: the shear and the rotation of the box, a
    tall 3 x 2 map of it, a full-rank 3 x 3 map of a 3D box and a shear of the
    hull."""
    for law, gamma, m, w, cfg in (
            ("shear of a box", BOX_2D, SHEAR, (1.0, 0.3), SolverConfig()),
            ("rotation of a box", BOX_2D, ROTATION_30, (1.0, 0.3), SolverConfig()),
            ("tall 3x2 map of a box", BOX_2D, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
             (1.0, -1.0, 0.5), SolverConfig()),
            ("3x3 map of a 3D box", BOX_3D,
             np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]), (1.0, 0.5, -1.0),
             SolverConfig(h=0.4)),
            ("shear of a hull", HULL_2D, SHEAR, (1.0, 1.0), SolverConfig())):
        yield from _inner_product_cases(f"image {law}", gamma, m, w, CONVEX_PSI, cfg)


QUADRATIC_FORMS = [np.diag([1.0, -1.0]), np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
                   np.array([[1.0, 0.5], [0.5, -1.0]]), np.array([[2.0, 1.0], [1.0, 0.0]])]
# <v, AY> = <w, Y> with w = v^T A: the 1D G-normal law scaled by ||w||^2
INNER_PRODUCT_ROWS = [np.array([3.0, -2.0]) @ np.array([[1.0, 2.0], [0.0, 1.0]]),
                      np.array([1.0, 1.0]) @ np.array([[0.6, -0.8], [0.8, 0.6]]),
                      np.array([0.0, 1.0]) @ np.array([[2.0, 0.0], [1.0, 1.0]])]

CASES = [
    # the quadrature-oracle set: convex data sees sigma_high, concave sigma_low
    _gnormal_1d(SQUARE, 4.0),
    _gnormal_1d(QUARTIC, 48.0),
    _gnormal_1d(ABS, SIGMA_HIGH * math.sqrt(2.0 / math.pi)),
    _gnormal_1d(POS_PART, SIGMA_HIGH / math.sqrt(2.0 * math.pi)),
    _gnormal_1d(NEG_SQUARE, -1.0),
    _sequential("E[Y1 Y2^2]", XY_SQUARED, 6.0 / math.sqrt(2.0 * math.pi)),
    _sequential("E[Y2 Y1^2]", YX_SQUARED, 0.0),
    *(_sequential(f"2G(A) A={a.tolist()}", _quadratic_form(a),
                  2.0 * g_function(DiagonalBox((IV, IV)), a)) for a in QUADRATIC_FORMS),
    *(_sequential(f"inner w=({w[0]:g}, {w[1]:g}) {phi.name}",
                  linear_pullback(phi, w.reshape(1, -1)),
                  moment(SIGMA_HIGH * float(np.linalg.norm(w))))
      for w in INNER_PRODUCT_ROWS
      for phi, moment in ((SQUARE, lambda s: s * s),
                          (ABS, lambda s: s * math.sqrt(2.0 / math.pi)))),
    SEEDED,
    COINCIDENT,
]


@pytest.mark.parametrize("name, compute, exact",
                         [pytest.param(*c, id=c[0]) for c in CASES] + list(_off_grid_kinks())
                         + list(_gnormal_2d()) + list(_pulled_back_images()))
def test_error_estimate_bounds_the_error(name, compute, exact):
    res = compute()
    err = abs(res.value - exact)
    ratio = res.error_estimate / err if err else math.inf
    print(f"\n{name}: value {res.value:.10g}, exact {exact:.10g}, error {err:.3e}, "
          f"estimate {res.error_estimate:.3e}, tightness {ratio:.3g}")
    assert err <= res.error_estimate


# the three outcomes of the order check


def test_off_grid_kink_falls_back_to_the_fine_value():
    kink, one = _call(0.71), Interval1D(IV)
    res = expect_gnormal(one, kink, SolverConfig(h=0.2))
    assert res.value == box_u_h(one, kink, 0.2)
    assert res.error_estimate > abs(res.value - _call_value(0.71, SIGMA_HIGH))


def test_quartic_extrapolates():
    # at h = 0.1 the h and 2h grids take 1000 and 250 steps, exactly 4:1, so
    # their error is C h^2 alone and the extrapolation removes nearly all of it
    res = expect_gnormal(Interval1D(IV), QUARTIC, SolverConfig(h=0.1))
    plain = box_u_h(Interval1D(IV), QUARTIC, 0.1)
    assert res.value != plain
    assert 100.0 * abs(res.value - 48.0) <= abs(plain - 48.0)
    assert abs(res.value - 48.0) <= res.error_estimate


@pytest.mark.parametrize("compute, exact", [
    (lambda: expect_gnormal(Interval1D(IV), SQUARE), 4.0),
    (lambda: expect_gnormal(Interval1D(IV), NEG_SQUARE), -1.0),
    (lambda: expect_sequential((IV, IV), _quadratic_form(np.eye(2))), 8.0),
], ids=["x^2", "-(x^2)", "sequential x^2+y^2"])
def test_quadratic_data_stays_exact(compute, exact):
    assert abs(compute().value - exact) <= 1e-12
