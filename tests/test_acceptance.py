"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Each
criterion states its tolerance inline; the numeric targets are closed
forms (moments of the normal distribution and the separable box algebra)
frozen as literals.
"""

import math

import numpy as np
import pytest

from gexpect.expectation import expect_gnormal, expect_sequential
from gexpect.gamma import (DiagonalBox, Interval1D, UncertaintyInterval,
                           g_function, is_diagonal_image)
from gexpect.pde import SolverConfig
from gexpect.testfuncs import (ABS, SQUARE, XY_SQUARED, YX_SQUARED, TestFunction,
                               linear_pullback)
from oracles import CATALOG_1D, NEG_SQUARE, ORACLE_1D, box_u_h, convex_oracle_1d, nested_u_h

IV = UncertaintyInterval(1.0, 4.0)
THIRD_MOMENT = 6.0 / math.sqrt(2.0 * math.pi)  # E[Y1 Y2^2] for [1,4] twice


def _line(num: int, ok: bool, text: str):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_moment_identities():
    up = expect_gnormal(Interval1D(IV), SQUARE).value
    lo = -expect_gnormal(Interval1D(IV), NEG_SQUARE).value
    ok = abs(up - 4.0) / 4.0 <= 1e-3 and abs(lo - 1.0) <= 1e-3
    _line(1, ok, f"E[X^2]={up:.6f} (4), -E[-X^2]={lo:.6f} (1), rel tol 1e-3")


def test_criterion_02_oracle_agreement():
    worst = ("", 0.0)
    for phi, convex in ORACLE_1D:
        res = expect_gnormal(Interval1D(IV), phi)
        oracle = convex_oracle_1d(IV.sigma_high_sq if convex else IV.sigma_low_sq, phi)
        tol = max(1e-3 * abs(oracle), 5.0 * res.error_estimate)
        excess = abs(res.value - oracle) / tol
        if excess > worst[1]:
            worst = (phi.name, excess)
        assert abs(res.value - oracle) <= tol, f"{phi.name}: {res.value} vs {oracle}"
    _line(2, True, f"PDE matches quadrature oracle on 5 functions "
                   f"(worst {worst[0]} at {worst[1]:.2f} of tolerance)")


def test_criterion_03_asymmetric_independence():
    zero = expect_sequential((IV, IV), YX_SQUARED).value
    pos = expect_sequential((IV, IV), XY_SQUARED).value
    ok = abs(zero) <= 1e-2 and abs(pos - THIRD_MOMENT) <= 1e-2
    _line(3, ok, f"E[Y2 Y1^2]={zero:.2e} (0), E[Y1 Y2^2]={pos:.5f} "
                 f"({THIRD_MOMENT:.4f}), abs tol 1e-2")


def test_criterion_04_linear_combination():
    uv2 = TestFunction(lambda x, y: (x + y) * (x - y) ** 2, arity=2, growth_order=2,
                       growth_const=20.0, name="U*V^2")
    vu2 = TestFunction(lambda x, y: (x - y) * (x + y) ** 2, arity=2, growth_order=2,
                       growth_const=20.0, name="V*U^2")
    a = expect_sequential((IV, IV), uv2)
    b = expect_sequential((IV, IV), vu2)
    floor = 10.0 * (a.error_estimate + b.error_estimate)
    classical = UncertaintyInterval(2.0, 2.0)
    ca = expect_sequential((classical, classical), uv2)
    cb = expect_sequential((classical, classical), vu2)
    cfloor = 10.0 * (ca.error_estimate + cb.error_estimate)
    ok = (abs(a.value - b.value) <= 2e-2 and a.value > floor and b.value > floor
          and abs(ca.value) <= cfloor and abs(cb.value) <= cfloor)
    _line(4, ok, f"E[UV^2]={a.value:.4f} = E[VU^2]={b.value:.4f} (tol 2e-2), "
                 f"both > noise floor {floor:.3f}; classical limit below "
                 f"{cfloor:.3f}")


@pytest.mark.parametrize("alpha", [1.0, 4.0])
def test_criterion_05_symmetry_identity(alpha):
    box = DiagonalBox((IV, IV.scaled(alpha)))
    p = expect_gnormal(box, YX_SQUARED).value
    q = expect_gnormal(box, XY_SQUARED).value
    gap = abs(math.sqrt(alpha) * p - q)
    _line(5, gap <= 2e-2,
          f"alpha={alpha:g}: sqrt(alpha)*E[W2 W1^2]={math.sqrt(alpha) * p:.5f} vs "
          f"E[W1 W2^2]={q:.5f}, |gap|={gap:.2e} <= 2e-2")


def test_criterion_06_quadratic_form_closed_form():
    matrices = [np.diag([1.0, -1.0]), np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
                np.array([[1.0, 0.5], [0.5, -1.0]]), np.array([[2.0, 1.0], [1.0, 0.0]])]
    box = DiagonalBox((IV, IV))
    worst = 0.0
    for a in matrices:
        phi = TestFunction(
            fn=lambda x, y, a=a: a[0, 0] * x * x + 2 * a[0, 1] * x * y + a[1, 1] * y * y,
            arity=2, growth_order=1, growth_const=4.0 * float(np.abs(a).sum()) + 4.0,
            name="<Ax,x>")
        nested = nested_u_h((IV, IV), phi, 0.2)  # quadratic data is grid-exact
        closed = 2.0 * g_function(box, a)
        worst = max(worst, abs(nested - closed))
        assert abs(nested - closed) <= 1e-2, f"A={a}: {nested} vs {closed}"
    _line(6, True, f"nested quadratic forms match 2*G(A) on 5 matrices "
                   f"(worst gap {worst:.2e} <= 1e-2)")


def test_criterion_07_convolution_stability():
    worst = 0.0
    for a, b in ((1.0, 1.0), (1.0, -1.0), (2.0, 1.0)):
        scaled = Interval1D(IV.scaled(a * a + b * b))
        for phi in (SQUARE, ABS):
            nested = expect_sequential(
                (IV, IV), linear_pullback(phi, np.array([[a, b]]))).value
            direct = expect_gnormal(scaled, phi).value
            worst = max(worst, abs(nested - direct))
            assert abs(nested - direct) <= 1e-2, f"(a,b)=({a},{b}), {phi.name}"
    _line(7, True, f"aY1 + bY2 matches sqrt(a^2+b^2)-scaled 1D law on 3 pairs "
                   f"x 2 functions (worst gap {worst:.2e} <= 1e-2)")


def test_criterion_08_inner_product_law():
    pairs = [(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([3.0, -2.0])),
             (np.array([[0.6, -0.8], [0.8, 0.6]]), np.array([1.0, 1.0])),
             (np.array([[2.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))]
    worst = 0.0
    for a, v in pairs:
        w = (v @ a).reshape(1, -1)
        scaled = Interval1D(IV.scaled(float((w @ w.T)[0, 0])))
        for phi in (SQUARE, ABS):
            nested = expect_sequential((IV, IV), linear_pullback(phi, w)).value
            direct = expect_gnormal(scaled, phi).value
            worst = max(worst, abs(nested - direct))
            assert abs(nested - direct) <= 1e-2, f"A={a}, v={v}, {phi.name}"
    _line(8, True, f"<v, AY> matches ||v^T A||^2-scaled 1D law on 3 (A, v) pairs "
                   f"(worst gap {worst:.2e} <= 1e-2)")


def test_criterion_09_diagonal_image_predicate():
    rng = np.random.default_rng(20240824)
    box = DiagonalBox((IV, IV))
    vertices = [np.diag([r1, r2]) for r1 in (1.0, 4.0) for r2 in (1.0, 4.0)]
    checked = 0
    for k in range(100):
        a = rng.standard_normal((2, 2))
        if k % 5 == 1:
            a[0, 1] = a[1, 0] = 0.0  # diagonal
        elif k % 5 == 3:
            a[0, 0] = a[1, 1] = 0.0  # antidiagonal
        elif k % 5 == 4:
            a[rng.integers(2), rng.integers(2)] = 0.0
        brute = all(abs((a @ b @ a.T)[0, 1]) <= 1e-11 for b in vertices)
        assert is_diagonal_image(a, box) == brute, f"matrix {a}"
        checked += 1
    _line(9, True, f"is_diagonal_image agrees with vertex enumeration on "
                   f"{checked} sampled matrices")


def test_criterion_10_property_suites():
    cfg = SolverConfig(h=0.25)
    iv1d = Interval1D(IV)

    def u_h(phi):
        # the monotone scheme's value on one grid: sublinear, homogeneous
        # and monotone as the G-expectation is
        return box_u_h(iv1d, phi, cfg.h)

    rng = np.random.default_rng(7)

    # sublinearity on 20 random catalog pairs
    for _ in range(20):
        phi, psi = (CATALOG_1D[i] for i in rng.integers(len(CATALOG_1D), size=2))
        lam = float(rng.uniform(0.0, 3.0))
        c = float(rng.uniform(-2.0, 2.0))
        e_phi, e_psi = u_h(phi), u_h(psi)
        both = TestFunction(lambda x, f=phi.fn, g=psi.fn: np.asarray(f(x)) + np.asarray(g(x)),
                            arity=1, growth_order=max(phi.growth_order, psi.growth_order),
                            growth_const=phi.growth_const + psi.growth_const)
        scaled = TestFunction(lambda x, f=phi.fn, lam=lam: lam * np.asarray(f(x), dtype=float),
                              arity=1, growth_order=phi.growth_order,
                              growth_const=lam * phi.growth_const + 1.0)
        shifted = TestFunction(lambda x, f=phi.fn, c=c: np.asarray(f(x), dtype=float) + c,
                               arity=1, growth_order=phi.growth_order,
                               growth_const=phi.growth_const + abs(c))
        dominating = TestFunction(lambda x, f=phi.fn: np.asarray(f(x), dtype=float) + 1.0,
                                  arity=1, growth_order=phi.growth_order,
                                  growth_const=phi.growth_const + 1.0)
        tol = 1e-8 * (1.0 + abs(e_phi) + abs(e_psi))
        assert u_h(both) <= e_phi + e_psi + tol
        assert u_h(scaled) == pytest.approx(lam * e_phi, abs=tol)
        assert u_h(shifted) == pytest.approx(e_phi + c, abs=tol)  # constants preserved
        assert u_h(dominating) >= e_phi - tol  # monotone

    # grid-refinement contraction on representative scenario functionals
    uv2 = TestFunction(lambda x, y: (x + y) * (x - y) ** 2, arity=2, growth_order=2,
                       growth_const=20.0)
    functionals = [
        ("third moment, nested", lambda h: nested_u_h((IV, IV), XY_SQUARED, h)),
        ("third moment, 2D box", lambda h: box_u_h(DiagonalBox((IV, IV)), XY_SQUARED, h)),
        ("linear combination", lambda h: nested_u_h((IV, IV), uv2, h)),
        ("kinked 1D", lambda h: box_u_h(iv1d, ABS, h)),
    ]
    for name, f in functionals:
        v = [f(h) for h in (0.4, 0.2, 0.1)]
        d1, d2 = abs(v[1] - v[0]), abs(v[2] - v[1])
        assert d2 <= 0.5 * d1 + 1e-9, f"{name}: deltas {d1:.2e} -> {d2:.2e}"

    # sign-flip symmetry
    for phi in CATALOG_1D:
        flipped = TestFunction(lambda x, f=phi.fn: np.asarray(f(-np.asarray(x, dtype=float))),
                               arity=1, growth_order=phi.growth_order,
                               growth_const=phi.growth_const)
        a = expect_gnormal(iv1d, phi, cfg=cfg).value
        b = expect_gnormal(iv1d, flipped, cfg=cfg).value
        assert a == pytest.approx(b, abs=1e-9 + 1e-9 * abs(a))
    flip2 = linear_pullback(XY_SQUARED, -np.eye(2))
    a = expect_sequential((IV, IV), XY_SQUARED, cfg=cfg).value
    b = expect_sequential((IV, IV), flip2, cfg=cfg).value
    assert a == pytest.approx(b, abs=1e-9 + 1e-9 * abs(a))

    _line(10, True, "sublinearity (20 pairs), refinement contraction (4 "
                    "functionals), sign-flip symmetry all hold")
