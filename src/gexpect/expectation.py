"""Sublinear-expectation calculator.

G-normal expectations are solved through the G-heat equation; sequential
vectors (each coordinate independent from all earlier ones) are evaluated
by a backward recursion of 1D solves on a shared tensor grid; maximal
distributions reduce to a sup. Gauss-Hermite quadrature provides an
independent oracle for convex/concave test functions, where the extremal
variance is known a priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from .errors import DimensionMismatch, GExpectError
from .gamma import (ConvexHull, DiagonalBox, GammaSet, Interval1D, RankOneFamily,
                    UncertaintyInterval, image_gamma)
from .pde import (SolverConfig, SolveReport, _eval_initial, build_grid, diffuse_last_axis,
                  refinement_delta, solve_gheat_diag, solve_gheat_hull)
from .testfuncs import TestFunction, linear_pullback

_GH_NODES = 64


# ---------------------------------------------------------------------------
# random-vector descriptions


class RandomVectorSpec:
    """Base class for the law descriptions accepted by expect()."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class GNormal(RandomVectorSpec):
    gamma: GammaSet

    @property
    def dim(self) -> int:
        return self.gamma.dim


@dataclass(frozen=True)
class Sequential(RandomVectorSpec):
    """Coordinates each 1D G-normal; coordinate at sequence position k+1 is
    independent from all coordinates at positions 1..k. order[k] names the
    argument index sitting at sequence position k (identity by default)."""

    intervals: tuple
    order: tuple | None = None

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not ivs or not all(isinstance(iv, UncertaintyInterval) for iv in ivs):
            raise TypeError("intervals must be a nonempty list of UncertaintyInterval")
        object.__setattr__(self, "intervals", ivs)
        if self.order is not None:
            order = tuple(int(i) for i in self.order)
            if sorted(order) != list(range(len(ivs))):
                raise ValueError(f"order {order} is not a permutation of 0..{len(ivs) - 1}")
            object.__setattr__(self, "order", order)

    @property
    def dim(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class Maximal(RandomVectorSpec):
    """Maximal distribution over a finite point set or an axis-aligned box."""

    points: np.ndarray | None = None
    box: tuple | None = None

    def __post_init__(self):
        if (self.points is None) == (self.box is None):
            raise ValueError("give exactly one of points or box")
        if self.points is not None:
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            if pts.size == 0 or not np.all(np.isfinite(pts)):
                raise ValueError("support points must be nonempty and finite")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)
        else:
            box = tuple((float(lo), float(hi)) for lo, hi in self.box)
            if not box or any(lo > hi or not np.isfinite([lo, hi]).all() for lo, hi in box):
                raise ValueError("box must be nonempty with finite lo <= hi per axis")
            object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.points.shape[1] if self.points is not None else len(self.box)


@dataclass(frozen=True)
class LinearImage(RandomVectorSpec):
    matrix: np.ndarray
    inner: RandomVectorSpec

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if a.shape[1] != self.inner.dim:
            raise DimensionMismatch(
                f"matrix has {a.shape[1]} columns but the inner vector has dimension {self.inner.dim}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ExpectationResult:
    value: float
    error_estimate: float
    method: str  # "pde" | "nested" | "maximal" | "oracle"
    diagnostics: tuple = ()

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.error_estimate)):
            raise GExpectError("expectation produced a non-finite value or error estimate")


def _report_error(r: SolveReport) -> float:
    return r.boundary_influence_estimate + (r.refinement_delta or 0.0)


# ---------------------------------------------------------------------------
# quadrature oracles


def gauss_hermite_expectation(phi, sigma: float, nodes: int = _GH_NODES) -> float:
    """Classical E[phi(sigma Z)], Z standard normal, by Gauss-Hermite quadrature."""
    x, w = roots_hermite(nodes)
    return float(w @ np.asarray(phi(sigma * math.sqrt(2.0) * x), dtype=float) / math.sqrt(math.pi))


def gauss_hermite_expectation_nd(phi, sigmas, nodes: int = 24) -> float:
    """Tensor quadrature for E[phi(sigma_1 Z_1, ..., sigma_n Z_n)], independent Z_i."""
    x, w = roots_hermite(nodes)
    sigmas = np.asarray(sigmas, dtype=float)
    grids = np.meshgrid(*[s * math.sqrt(2.0) * x for s in sigmas], indexing="ij")
    weights = np.meshgrid(*[w] * sigmas.size, indexing="ij")
    wprod = np.prod(np.stack(weights), axis=0)
    vals = np.asarray(phi(*grids), dtype=float)
    return float((wprod * vals).sum() / math.pi ** (sigmas.size / 2.0))


def convex_oracle_1d(iv: UncertaintyInterval, phi: TestFunction) -> float:
    """Quadrature oracle: convex phi saturates the upper variance, concave the lower.

    Starts at 64 Gauss-Hermite nodes and doubles until two successive rules
    agree; plain 64-node quadrature is not accurate enough for kinked
    integrands such as |x|.
    """
    if phi.arity != 1:
        raise DimensionMismatch("convex_oracle_1d needs a 1-argument function")
    if "convex" in phi.tags:
        sigma = math.sqrt(iv.sigma_high_sq)
    elif "concave" in phi.tags:
        sigma = math.sqrt(iv.sigma_low_sq)
    else:
        raise GExpectError("phi must be tagged convex or concave to use the oracle")
    nodes = _GH_NODES
    value = gauss_hermite_expectation(phi, sigma, nodes)
    while nodes < 8192:
        nodes *= 2
        refined = gauss_hermite_expectation(phi, sigma, nodes)
        if abs(refined - value) <= 1e-5 * (1.0 + abs(refined)):
            return refined
        value = refined
    return value


# ---------------------------------------------------------------------------
# G-normal expectations


def expect_gnormal(gamma: GammaSet, phi: TestFunction,
                   cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """E^[phi(X)] for X ~ N(0, gamma), via the matching solver.

    A rank-one family {u r u^T} is the law of u S with S ~ N(0, r), so it is
    the 1D solve of phi pulled back along u; a 1D hull is the box of its
    variance range.
    """
    if phi.arity != gamma.dim:
        raise DimensionMismatch(f"phi takes {phi.arity} arguments but X has dimension {gamma.dim}")
    if isinstance(gamma, RankOneFamily):
        phi = linear_pullback(phi, gamma.direction.reshape(-1, 1))
        gamma = DiagonalBox((gamma.scalar_range,))
    elif isinstance(gamma, ConvexHull) and gamma.dim == 1:
        vals = [float(b[0, 0]) for b in gamma.generators]
        gamma = DiagonalBox((UncertaintyInterval(min(vals), max(vals)),))
    if isinstance(gamma, (Interval1D, DiagonalBox)):
        rep = solve_gheat_diag(gamma, phi, 1.0, cfg=cfg)
    elif isinstance(gamma, ConvexHull):
        if gamma.dim != 2:
            raise DimensionMismatch("convex-hull sets are solvable in dimension 2 only")
        rep = solve_gheat_hull(gamma, phi, 1.0, cfg=cfg)
    else:
        raise GExpectError(f"uncertainty set {type(gamma).__name__} is not solvable")
    return ExpectationResult(rep.value_at_origin, _report_error(rep), "pde", (rep,))


# ---------------------------------------------------------------------------
# sequential (nested) expectations


def _nested_value(intervals, order, phi, cfg: SolverConfig):
    n = len(intervals)
    probe = build_grid([iv.sigma_high_sq for iv in intervals], phi, 1.0, None, cfg)
    # reorder axes so axis k holds the variable at sequence position k
    u = np.transpose(_eval_initial(phi, probe), axes=order)
    binfl, steps = 0.0, 0
    for k in range(n - 1, -1, -1):
        iv = intervals[order[k]]
        u, b, s = diffuse_last_axis(u, iv, probe.h, 1.0, cfg.dt)
        center = (u.shape[-1] - 1) // 2
        u = u[..., center]
        binfl += b
        steps += s
    return float(u), binfl, steps, probe.h


def expect_sequential(intervals, phi: TestFunction, order=None,
                      cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """Backward recursion: integrate out the last variable in the independence
    order with a 1D solve per outer grid node (batched), then recurse."""
    intervals = tuple(intervals)
    n = len(intervals)
    if phi.arity != n:
        raise DimensionMismatch(f"phi takes {phi.arity} arguments for {n} variables")
    if n > 3:
        raise DimensionMismatch("nested recursion supports at most 3 variables")
    order = tuple(range(n)) if order is None else tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")

    value, binfl, steps, h = _nested_value(intervals, order, phi, cfg)
    delta = refinement_delta(value, h, cfg, lambda c: _nested_value(intervals, order, phi, c)[0])
    rep = SolveReport(value, binfl, delta, steps,
                      degenerate=any(iv.sigma_low_sq == 0.0 for iv in intervals))
    return ExpectationResult(value, _report_error(rep), "nested", (rep,))


# ---------------------------------------------------------------------------
# maximal distributions


def expect_maximal(support: Maximal, phi: TestFunction) -> ExpectationResult:
    """sup of phi over the support; exact on points, grid-refined on a box."""
    if phi.arity != support.dim:
        raise DimensionMismatch(f"phi takes {phi.arity} arguments for dimension {support.dim}")
    if support.points is not None:
        vals = phi(*(support.points[:, i] for i in range(support.dim)))
        return ExpectationResult(float(np.max(vals)), 0.0, "maximal")

    lows = np.array([lo for lo, _ in support.box])
    highs = np.array([hi for _, hi in support.box])
    radius = float(np.linalg.norm(np.maximum(np.abs(lows), np.abs(highs))))
    lip = phi.growth_const * (1.0 + 2.0 * radius**phi.growth_order)
    centers, widths = 0.5 * (lows + highs), highs - lows
    per_axis = 65
    best = -math.inf
    for _ in range(6):
        axes = [np.linspace(c - 0.5 * w, c + 0.5 * w, per_axis) for c, w in zip(centers, widths)]
        axes = [np.clip(a, lo, hi) for a, lo, hi in zip(axes, lows, highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(phi(*mesh), dtype=float)
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = max(best, float(vals[idx]))
        centers = np.array([axes[i][idx[i]] for i in range(support.dim)])
        widths = widths * (4.0 / per_axis)
        spacing = float(np.max(widths)) / (per_axis - 1)
        if lip * spacing <= 1e-6 * (1.0 + abs(best)):
            break
    return ExpectationResult(best, lip * spacing, "maximal")


# ---------------------------------------------------------------------------
# dispatch and derived operations


def expect(spec: RandomVectorSpec, phi: TestFunction,
           cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """E^[phi(X)] for any supported law description."""
    if phi.arity != spec.dim:
        raise DimensionMismatch(f"phi takes {phi.arity} arguments but X has dimension {spec.dim}")
    if isinstance(spec, GNormal):
        return expect_gnormal(spec.gamma, phi, cfg=cfg)
    if isinstance(spec, Sequential):
        return expect_sequential(spec.intervals, phi, order=spec.order, cfg=cfg)
    if isinstance(spec, Maximal):
        return expect_maximal(spec, phi)
    if isinstance(spec, LinearImage):
        inner, a = spec.inner, spec.matrix
        if isinstance(inner, LinearImage):
            return expect(LinearImage(a @ inner.matrix, inner.inner), phi, cfg)
        if isinstance(inner, GNormal):
            return expect_gnormal(image_gamma(a, inner.gamma), phi, cfg=cfg)
        if isinstance(inner, Sequential):
            pulled = linear_pullback(phi, a)
            return expect_sequential(inner.intervals, pulled, order=inner.order, cfg=cfg)
        if isinstance(inner, Maximal):
            if inner.points is not None:
                return expect_maximal(Maximal(points=inner.points @ a.T), phi)
            return expect_maximal(Maximal(box=inner.box), linear_pullback(phi, a))
    raise GExpectError(f"unsupported law description {type(spec).__name__}")


def lower_expectation(spec: RandomVectorSpec, phi: TestFunction,
                      cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """-E^[-phi(X)], the conjugate (lower) expectation."""
    res = expect(spec, phi.negated(), cfg)
    return ExpectationResult(-res.value, res.error_estimate, res.method, res.diagnostics)


@dataclass(frozen=True)
class MeanCertaintyReport:
    passed: bool
    with_term: float
    without_term: float
    tolerance: float


def mean_certainty_check(spec: Sequential, psi: TestFunction, alpha: float,
                         cfg: SolverConfig = SolverConfig()) -> MeanCertaintyReport:
    """Adding alpha * Y_{k+1} to a function of the earlier variables must not
    move the expectation: the later coordinate has no mean uncertainty and is
    independent from everything before it."""
    if not isinstance(spec, Sequential) or spec.dim < 2:
        raise GExpectError("mean_certainty_check needs a Sequential spec with >= 2 variables")
    if spec.order is not None and spec.order != tuple(range(spec.dim)):
        raise GExpectError("mean_certainty_check supports the identity order only")
    k = psi.arity
    if k + 1 > spec.dim:
        raise DimensionMismatch(f"psi uses {k} variables but the spec has only {spec.dim}")
    f = psi.fn
    augmented = TestFunction(
        fn=lambda *c: np.asarray(f(*c[:k]), dtype=float) + alpha * c[k],
        arity=k + 1,
        growth_order=psi.growth_order,
        growth_const=psi.growth_const + abs(alpha) + 1.0,
        name=f"{psi.name} + a*y{k + 1}",
    )
    lhs = expect_sequential(spec.intervals[:k + 1], augmented, cfg=cfg)
    rhs = expect_sequential(spec.intervals[:k], psi, cfg=cfg)
    tol = max(cfg.target_tol * (1.0 + abs(rhs.value)),
              5.0 * (lhs.error_estimate + rhs.error_estimate))
    return MeanCertaintyReport(abs(lhs.value - rhs.value) <= tol, lhs.value, rhs.value, tol)
