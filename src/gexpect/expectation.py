"""Sublinear-expectation calculator.

G-normal expectations are solved through the G-heat equation; sequential
vectors (each coordinate independent from all earlier ones) are evaluated
by a backward recursion of 1D solves on a shared tensor grid; linear
images of either reduce to one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GExpectError
from .gamma import (ConvexHull, DiagonalBox, GammaSet, RankOneFamily, UncertaintyInterval,
                    image_gamma)
from .pde import (SolverConfig, SolveReport, _at_rest, _eval_initial, build_grid, diffuse_last_axis,
                  refinement_delta, solve_gheat_diag, solve_gheat_hull)
from .testfuncs import TestFunction, linear_pullback


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
    method: str  # "pde" | "nested"
    diagnostics: tuple = ()

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.error_estimate)):
            raise GExpectError("expectation produced a non-finite value or error estimate")


def _report_error(r: SolveReport) -> float:
    return r.tail_bound + (r.refinement_delta or 0.0)


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
    if isinstance(gamma, DiagonalBox):
        rep = solve_gheat_diag(gamma, phi, cfg=cfg)
    elif isinstance(gamma, ConvexHull):
        rep = solve_gheat_hull(gamma, phi, cfg=cfg)
    else:
        raise GExpectError(f"uncertainty set {type(gamma).__name__} is not solvable")
    return ExpectationResult(rep.value_at_origin, _report_error(rep), "pde", (rep,))


# ---------------------------------------------------------------------------
# sequential (nested) expectations


def _nested_value(intervals, order, phi, cfg: SolverConfig):
    n = len(intervals)
    probe = build_grid([iv.sigma_high_sq for iv in intervals], phi, cfg)
    # reorder axes so axis k holds the variable at sequence position k
    u = np.transpose(_eval_initial(phi, probe), axes=order)
    steps = 0
    for k in range(n - 1, -1, -1):
        u, _, s = diffuse_last_axis(u, intervals[order[k]], probe.h, cfg.dt)
        steps += s
    return float(u), steps, probe


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

    if max(iv.sigma_high_sq for iv in intervals) == 0.0:
        rep = _at_rest(phi, cfg)
    else:
        u_h, steps, probe = _nested_value(intervals, order, phi, cfg)
        value, grid_term = refinement_delta(
            u_h, probe.h, cfg, lambda c: _nested_value(intervals, order, phi, c)[0])
        rep = SolveReport(value, probe.tail_bound, grid_term, steps)
    return ExpectationResult(rep.value_at_origin, _report_error(rep), "nested", (rep,))


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
    if isinstance(spec, LinearImage):
        inner, a = spec.inner, spec.matrix
        if isinstance(inner, LinearImage):
            return expect(LinearImage(a @ inner.matrix, inner.inner), phi, cfg)
        if isinstance(inner, GNormal):
            return expect_gnormal(image_gamma(a, inner.gamma), phi, cfg=cfg)
        if isinstance(inner, Sequential):
            pulled = linear_pullback(phi, a)
            return expect_sequential(inner.intervals, pulled, order=inner.order, cfg=cfg)
    raise GExpectError(f"unsupported law description {type(spec).__name__}")


def lower_expectation(spec: RandomVectorSpec, phi: TestFunction,
                      cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """-E^[-phi(X)], the conjugate (lower) expectation."""
    res = expect(spec, phi.negated(), cfg)
    return ExpectationResult(-res.value, res.error_estimate, res.method, res.diagnostics)
