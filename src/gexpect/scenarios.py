"""Scenario runners: one machine-checkable experiment per comparison fact.

Each runner computes the relevant expectations, records every quantity it
used, and turns the underlying identities/inequalities into assertions with
explicit margins. Strict positivity passes when the value exceeds ten
times the accumulated error estimate; in the classical limit (no variance
uncertainty) those assertions flip to their classical-zero counterparts
and are tagged as such.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import GExpectError
from .gamma import (DiagonalBox, UncertaintyInterval, check_scaling_constraint,
                    g_function, image_gamma, is_diagonal_image)
from .pde import SolverConfig
from .expectation import (ExpectationResult, expect_gnormal, expect_sequential)
from .testfuncs import (ABS, SQUARE, SUM_OF_SQUARES, TestFunction, XY,
                        XY_SQUARED, YX_SQUARED, linear_pullback)

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Quantity:
    label: str
    value: float
    error_estimate: float


@dataclass(frozen=True)
class Assertion:
    description: str
    passed: bool
    margin: float
    classical_zero: bool = False


@dataclass(frozen=True)
class ScenarioOutcome:
    name: str
    quantities: tuple
    assertions: tuple
    runtime_ms: float

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.quantities = []
        self.assertions = []
        self._t0 = time.perf_counter()

    def quantity(self, label: str, value: float, err: float = 0.0) -> float:
        self.quantities.append(Quantity(label, float(value), float(err)))
        return float(value)

    def record(self, label: str, res: ExpectationResult) -> ExpectationResult:
        self.quantities.append(Quantity(label, res.value, res.error_estimate))
        return res

    def assert_close(self, desc: str, lhs: float, rhs: float, tol: float):
        gap = abs(lhs - rhs)
        self.assertions.append(Assertion(f"{desc} (|lhs-rhs|={gap:.3e} <= {tol:.1e})",
                                         gap <= tol, tol - gap))

    def assert_positive(self, desc: str, value: float, err: float, classical: bool,
                        zero_tol: float):
        if classical:
            floor = max(10.0 * err, zero_tol)
            self.assertions.append(Assertion(
                f"{desc}: classical-zero (|{value:.3e}| <= {floor:.1e})",
                abs(value) <= floor, floor - abs(value), classical_zero=True))
        else:
            floor = 10.0 * err
            self.assertions.append(Assertion(
                f"{desc}: strictly positive ({value:.3e} > 10*err={floor:.1e})",
                value > floor, value - floor))

    def assert_true(self, desc: str, condition: bool, margin: float = 0.0):
        self.assertions.append(Assertion(desc, bool(condition), margin))

    def outcome(self) -> ScenarioOutcome:
        ms = 1000.0 * (time.perf_counter() - self._t0)
        return ScenarioOutcome(self.name, tuple(self.quantities), tuple(self.assertions), ms)


def asymmetric_closed_form(iv1: UncertaintyInterval, iv2: UncertaintyInterval) -> float:
    """Exact E^[Y1 Y2^2]: the inner step leaves the convex kink function
    s_high^2 y^+ + s_low^2 y^-, whose classical expectation at the upper
    deviation gives (s2_high - s2_low) * s1_high / sqrt(2 pi)."""
    return iv2.width * math.sqrt(iv1.sigma_high_sq) / SQRT_2PI


def run_asymmetric_independence(iv1: UncertaintyInterval, iv2: UncertaintyInterval,
                                cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """Independence is asymmetric: E^[Y2 Y1^2] = 0 yet E^[Y1 Y2^2] > 0."""
    tol = 1e-2
    if iv1.sigma_high_sq <= 0:
        raise GExpectError("first variable needs sigma_high_sq > 0")
    if iv2.width <= 0:
        raise GExpectError("second variable needs variance uncertainty (width > 0)")
    rec = _Recorder("asymmetric-independence")
    a = rec.record("E[Y2 Y1^2]", expect_sequential((iv1, iv2), YX_SQUARED, cfg=cfg))
    b = rec.record("E[Y1 Y2^2]", expect_sequential((iv1, iv2), XY_SQUARED, cfg=cfg))
    closed = rec.quantity("closed form (s2 width * s1_high / sqrt(2pi))",
                          asymmetric_closed_form(iv1, iv2))
    rec.assert_close("later-linear moment vanishes", a.value, 0.0, tol)
    rec.assert_positive("earlier-linear moment", b.value, b.error_estimate,
                        classical=False, zero_tol=tol)
    rec.assert_close("earlier-linear moment matches closed form", b.value, closed, tol)
    return rec.outcome()


def run_linear_combination(iv: UncertaintyInterval,
                           cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """U = Y1+Y2, V = Y1-Y2: E^[UV^2] = E^[VU^2], both positive, so neither
    is independent from the other despite the orthogonal coefficients."""
    tol = 2e-2
    if iv.sigma_high_sq <= 0:
        raise GExpectError("interval must have sigma_high_sq > 0")
    classical = iv.is_classical
    rec = _Recorder("linear-combination")
    uv2 = TestFunction(lambda x, y: (x + y) * (x - y) ** 2, arity=2, growth_order=2,
                       growth_const=20.0, name="U*V^2")
    vu2 = TestFunction(lambda x, y: (x - y) * (x + y) ** 2, arity=2, growth_order=2,
                       growth_const=20.0, name="V*U^2")
    q_uv = rec.record("E[U V^2]", expect_sequential((iv, iv), uv2, cfg=cfg))
    q_vu = rec.record("E[V U^2]", expect_sequential((iv, iv), vu2, cfg=cfg))
    err = q_uv.error_estimate + q_vu.error_estimate
    rec.assert_close("E[U V^2] = E[V U^2]", q_uv.value, q_vu.value, tol)
    rec.assert_positive("common value (independence would force one side to 0)",
                        0.5 * (q_uv.value + q_vu.value), err, classical, tol)
    # swap identity E^[phi(V, U)] = E^[phi(U, V)] on asymmetric catalog functions
    to_uv = np.array([[1.0, 1.0], [1.0, -1.0]])
    to_vu = np.array([[1.0, -1.0], [1.0, 1.0]])
    x_plus_ysq = TestFunction(lambda x, y: x + y**2, arity=2, growth_order=1,
                              growth_const=6.0, name="x+y^2")
    for phi in (XY_SQUARED, x_plus_ysq):
        lhs = rec.record(f"E[{phi.name}(V,U)]",
                         expect_sequential((iv, iv), linear_pullback(phi, to_vu), cfg=cfg))
        rhs = rec.record(f"E[{phi.name}(U,V)]",
                         expect_sequential((iv, iv), linear_pullback(phi, to_uv), cfg=cfg))
        rec.assert_close(f"swap identity for {phi.name}", lhs.value, rhs.value, tol)
    return rec.outcome()


def run_linear_image(iv: UncertaintyInterval, a, v,
                     cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """<v, AY> is 1D G-normal with the ||v^T A||^2-scaled interval; for
    rank(A) <= 1 the whole image AY is G-normal with a rank-one set."""
    tol = 1e-2
    a = np.atleast_2d(np.asarray(a, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    m, n = a.shape
    if n > 3:
        raise GExpectError("at most 3 columns (nested-solve limit)")
    if v.size != m:
        raise GExpectError(f"v has {v.size} entries but A has {m} rows")
    rec = _Recorder("linear-image")
    w_row = v @ a
    scale = float(w_row @ w_row)
    rec.quantity("||v^T A||^2", scale)
    scaled = DiagonalBox((iv.scaled(scale),))
    for phi in (SQUARE, ABS):
        lhs = rec.record(f"nested E[{phi.name}(<v,AY>)]",
                         expect_sequential((iv,) * n, linear_pullback(phi, w_row.reshape(1, -1)),
                                           cfg=cfg))
        rhs = rec.record(f"1D E[{phi.name}], scaled interval",
                         expect_gnormal(scaled, phi, cfg=cfg))
        rec.assert_close(f"inner-product law for {phi.name}", lhs.value, rhs.value, tol)
    if np.linalg.matrix_rank(a, tol=1e-12) <= 1 and m == 2:
        family = image_gamma(a, DiagonalBox((iv,) * n))
        for phi in (SUM_OF_SQUARES, XY):
            lhs = rec.record(f"nested E[{phi.name}(AY)]",
                             expect_sequential((iv,) * n, linear_pullback(phi, a), cfg=cfg))
            rhs = rec.record(f"rank-one E[{phi.name}]",
                             expect_gnormal(family, phi, cfg=cfg))
            rec.assert_close(f"rank-one image law for {phi.name}", lhs.value, rhs.value, tol)
    return rec.outcome()


def run_symmetry_identity(iv: UncertaintyInterval, alpha: float = 4.0,
                          cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """For the 2D G-normal with box [s_low,s_high] x alpha*[s_low,s_high]:
    sqrt(alpha) E^[W2 W1^2] = E^[W1 W2^2]; the sequential construction
    instead gives (0, positive), so the two joint laws differ."""
    tol = 2e-2
    if alpha <= 0:
        raise GExpectError("alpha must be positive")
    if iv.sigma_high_sq <= 0:
        raise GExpectError("interval must have sigma_high_sq > 0")
    classical = iv.is_classical
    rec = _Recorder("symmetry-identity")
    box = DiagonalBox((iv, iv.scaled(alpha)))
    p = rec.record("pde E[W2 W1^2]", expect_gnormal(box, YX_SQUARED, cfg=cfg))
    q = rec.record("pde E[W1 W2^2]", expect_gnormal(box, XY_SQUARED, cfg=cfg))
    rec.assert_close(f"sqrt(alpha={alpha:g}) * E[W2 W1^2] = E[W1 W2^2]",
                     math.sqrt(alpha) * p.value, q.value, tol)
    ps = rec.record("sequential E[Y2 Y1^2]",
                    expect_sequential((iv, iv.scaled(alpha)), YX_SQUARED, cfg=cfg))
    qs = rec.record("sequential E[Y1 Y2^2]",
                    expect_sequential((iv, iv.scaled(alpha)), XY_SQUARED, cfg=cfg))
    if classical:
        for label, val in (("pde E[W2 W1^2]", p.value), ("pde E[W1 W2^2]", q.value),
                           ("sequential E[Y1 Y2^2]", qs.value)):
            rec.assert_positive(label, val, 0.0, classical=True, zero_tol=tol)
    else:
        err = p.error_estimate + ps.error_estimate
        gap = max(abs(p.value - ps.value), abs(q.value - qs.value))
        rec.assert_true(
            f"joint laws differ: witness gap {gap:.3e} > 10*err={10 * err:.1e}",
            gap > 10.0 * err, gap - 10.0 * err)
    rec.assert_close("sequential later-linear moment vanishes", ps.value, 0.0, tol)
    return rec.outcome()


def run_diag_not_indep(iv: UncertaintyInterval,
                       cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """Square-box 2D G-normal: marginals are the expected 1D laws, the joint
    law is swap-symmetric, yet that symmetry is incompatible with the
    asymmetric (0, positive) pattern independence would impose."""
    tol = 1e-2
    if iv.sigma_high_sq <= 0:
        raise GExpectError("interval must have sigma_high_sq > 0")
    classical = iv.is_classical
    rec = _Recorder("diag-not-indep")
    box = DiagonalBox((iv, iv))
    x1sq = TestFunction(lambda x, y: x**2 + 0.0 * y, arity=2, growth_order=1,
                        growth_const=6.0, tags={"convex"}, name="x1^2")
    x2sq = TestFunction(lambda x, y: y**2 + 0.0 * x, arity=2, growth_order=1,
                        growth_const=6.0, tags={"convex"}, name="x2^2")
    for label, phi in (("X1", x1sq), ("X2", x2sq)):
        up = rec.record(f"E[{label}^2]", expect_gnormal(box, phi, cfg=cfg))
        lo = expect_gnormal(box, phi.negated(), cfg=cfg)
        rec.quantity(f"-E[-{label}^2]", -lo.value, lo.error_estimate)
        rec.assert_close(f"upper variance of {label}", up.value, iv.sigma_high_sq, tol)
        rec.assert_close(f"lower variance of {label}", -lo.value, iv.sigma_low_sq, tol)
    v12 = rec.record("pde E[X1 X2^2]", expect_gnormal(box, XY_SQUARED, cfg=cfg))
    v21 = rec.record("pde E[X2 X1^2]", expect_gnormal(box, YX_SQUARED, cfg=cfg))
    rec.assert_close("swap symmetry of the joint law", v12.value, v21.value, tol)
    a = rec.record("sequential E[Y2 Y1^2]", expect_sequential((iv, iv), YX_SQUARED, cfg=cfg))
    b = rec.record("sequential E[Y1 Y2^2]", expect_sequential((iv, iv), XY_SQUARED, cfg=cfg))
    if classical:
        rec.assert_positive("pde E[X1 X2^2]", v12.value, 0.0, classical=True, zero_tol=tol)
        rec.assert_positive("sequential E[Y1 Y2^2]", b.value, 0.0, classical=True, zero_tol=tol)
    else:
        err = v21.error_estimate + a.error_estimate
        rec.assert_true(
            "pde value of E[X2 X1^2] differs from the sequential 0 "
            f"({v21.value:.3e} vs {a.value:.3e}, 10*err={10 * err:.1e})",
            abs(v21.value - a.value) > 10.0 * err,
            abs(v21.value - a.value) - 10.0 * err)
        rec.assert_positive("sequential E[Y1 Y2^2]", b.value, b.error_estimate,
                            classical=False, zero_tol=tol)
    return rec.outcome()


def run_quadratic_form(intervals, a, cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """Nested E^[<AX, X>] equals the closed form sum of per-coordinate
    gbar terms, i.e. 2 G(A); cross moments vanish in both directions."""
    tol = 1e-2
    intervals = tuple(intervals)
    n = len(intervals)
    if n > 3:
        raise GExpectError("at most 3 intervals")
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + a.T)
    if a.shape != (n, n):
        raise GExpectError(f"matrix shape {a.shape} does not match {n} intervals")
    rec = _Recorder("quadratic-form")
    quad = TestFunction(
        fn=lambda *c: sum(a[i, j] * c[i] * c[j] for i in range(n) for j in range(n)),
        arity=n, growth_order=1, growth_const=4.0 * float(np.abs(a).sum()) + 4.0,
        name="<Ax,x>")
    box = DiagonalBox(intervals)
    nested = rec.record("nested E[<AX,X>]",
                        expect_sequential(intervals, quad, cfg=cfg))
    closed = rec.quantity("closed form 2 G(A)", 2.0 * g_function(box, a))
    rec.assert_close("quadratic form matches closed form", nested.value, closed, tol)
    for i in range(n):
        for j in range(i + 1, n):
            cross = TestFunction(
                fn=lambda *c, i=i, j=j: c[i] * c[j], arity=n, growth_order=1,
                growth_const=4.0, name=f"x{i + 1}*x{j + 1}")
            up = rec.record(f"E[X{i + 1} X{j + 1}]",
                            expect_sequential(intervals, cross, cfg=cfg))
            lo = expect_sequential(intervals, cross.negated(), cfg=cfg)
            rec.quantity(f"-E[-X{i + 1} X{j + 1}]", -lo.value, lo.error_estimate)
            rec.assert_close(f"cross moment E[X{i + 1} X{j + 1}] vanishes", up.value, 0.0, tol)
            rec.assert_close(f"cross moment -E[-X{i + 1} X{j + 1}] vanishes", -lo.value, 0.0, tol)
    return rec.outcome()


def run_reverse_independence_witness(intervals, i: int, j: int,
                                     cfg: SolverConfig = SolverConfig()) -> ScenarioOutcome:
    """The later coordinate (sequence position j) cannot also leave the
    earlier one (position i) independent from it: a concrete third-moment
    functional takes incompatible values under the two hypotheses."""
    tol = 1e-2
    intervals = tuple(intervals)
    n = len(intervals)
    if not (0 <= i < j < n):
        raise GExpectError(f"need 0 <= i < j < {n}")
    iv_i, iv_j = intervals[i], intervals[j]
    cond_a = iv_i.width > 0 and iv_j.sigma_high_sq > 0
    cond_b = iv_j.width > 0 and iv_i.sigma_high_sq > 0
    if not (cond_a or cond_b):
        raise GExpectError("neither hypothesis holds: no variance uncertainty "
                           "on either coordinate with the other non-degenerate")
    rec = _Recorder("reverse-independence")
    if cond_b:
        true_val = rec.record("sequential E[Xi Xj^2]",
                              expect_sequential((iv_i, iv_j), XY_SQUARED, cfg=cfg))
        rec.quantity("value forced by reverse independence", 0.0)
        rec.quantity("closed form of the true value", asymmetric_closed_form(iv_i, iv_j))
        rec.assert_positive("witness gap E[Xi Xj^2]", true_val.value,
                            true_val.error_estimate, classical=False, zero_tol=tol)
    else:
        # only (a): the reversed functional separates the hypotheses
        true_val = rec.record("sequential E[Xj Xi^2]",
                              expect_sequential((iv_i, iv_j), YX_SQUARED, cfg=cfg))
        forced = rec.record("value forced by reverse independence",
                            expect_sequential((iv_j, iv_i), XY_SQUARED, cfg=cfg))
        rec.assert_close("true reversed moment vanishes", true_val.value, 0.0, tol)
        gap = abs(forced.value - true_val.value)
        err = forced.error_estimate + true_val.error_estimate
        rec.assert_true(f"witness gap {gap:.3e} > 10*err={10 * err:.1e}",
                        gap > 10.0 * err, gap - 10.0 * err)
    return rec.outcome()


def default_invertible_sample():
    mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 3.0])]
    for deg in range(15, 90, 15):
        th = math.radians(deg)
        mats.append(np.array([[math.cos(th), -math.sin(th)],
                              [math.sin(th), math.cos(th)]]))
    mats.append(np.array([[1.0, 1.0], [0.0, 1.0]]))
    mats.append(np.array([[1.0, 0.0], [1.0, 1.0]]))
    return mats


def run_invertible_scan(iv: UncertaintyInterval, sample=None) -> ScenarioOutcome:
    """No invertible A decouples the square-box 2D G-normal: either A Gamma A^T
    leaves the diagonal matrices, or the two marginals are positive scalings
    of one uncertain interval, which the box-coordinate constraint forbids."""
    if not (0 < iv.sigma_low_sq < iv.sigma_high_sq):
        raise GExpectError("need 0 < sigma_low_sq < sigma_high_sq")
    box = DiagonalBox((iv, iv))
    mats = list(default_invertible_sample()) + [np.asarray(m, dtype=float) for m in (sample or [])]
    rec = _Recorder("invertible-scan")
    for k, a in enumerate(mats):
        det = float(np.linalg.det(a))
        if abs(det) < 1e-12:
            rec.quantity(f"A{k}: skipped (singular, det={det:.1e})", det)
            continue
        if not is_diagonal_image(a, box):
            # off-diagonal of A diag(r1,r2) A^T at the worst box vertex
            offs = [r1 * a[0, 0] * a[1, 0] + r2 * a[0, 1] * a[1, 1]
                    for r1 in (iv.sigma_low_sq, iv.sigma_high_sq)
                    for r2 in (iv.sigma_low_sq, iv.sigma_high_sq)]
            worst = max(offs, key=abs)
            rec.quantity(f"A{k}: off-diagonal witness at a box vertex", worst)
            rec.assert_true(f"A{k}: image leaves the diagonal matrices "
                            f"(|off|={abs(worst):.3e})", abs(worst) > 1e-9, abs(worst))
        else:
            c1, c2 = (a[0, 0], a[1, 1]) if abs(a[0, 0]) > abs(a[0, 1]) else (a[0, 1], a[1, 0])
            m1, m2 = iv.scaled(c1 * c1), iv.scaled(c2 * c2)
            alpha = m2.sigma_low_sq / m1.sigma_low_sq
            rec.quantity(f"A{k}: marginal scaling ratio alpha", alpha)
            conflict = check_scaling_constraint([m1, m2])
            rec.assert_true(
                f"A{k}: marginals [{m1.sigma_low_sq:g},{m1.sigma_high_sq:g}] and "
                f"[{m2.sigma_low_sq:g},{m2.sigma_high_sq:g}] violate the scaling "
                f"constraint (alpha={alpha:g})", bool(conflict))
    return rec.outcome()
