"""Covariance-uncertainty sets and the sublinear function G.

An uncertainty set here is a bounded, closed, convex family of positive
semidefinite matrices, stored symbolically by variant (a diagonal box,
whose one-interval case is a 1D law, a finite convex hull, or a rank-one
family).
G(A) = 1/2 sup over the set of tr[A B]; since the objective is linear in
B, only the extreme points of each variant ever matter, so every
evaluation below is exact up to rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyHull, GExpectError

EPS_PSD = 1e-10
EPS_ALG = 1e-12

# image_gamma enumerates all 2^n vertices of a box whose image is not a box.
_VERTEX_DIM_CAP = 12


@dataclass(frozen=True)
class UncertaintyInterval:
    """Variance range [sigma_low_sq, sigma_high_sq] of a scalar law."""

    sigma_low_sq: float
    sigma_high_sq: float

    def __post_init__(self):
        lo, hi = self.sigma_low_sq, self.sigma_high_sq
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise GExpectError("variance bounds must be finite")
        if lo < 0 or lo > hi:
            raise ValueError(f"need 0 <= sigma_low_sq <= sigma_high_sq, got [{lo}, {hi}]")

    @property
    def is_classical(self) -> bool:
        return self.sigma_low_sq == self.sigma_high_sq

    @property
    def width(self) -> float:
        return self.sigma_high_sq - self.sigma_low_sq

    def scaled(self, factor: float) -> "UncertaintyInterval":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return UncertaintyInterval(factor * self.sigma_low_sq, factor * self.sigma_high_sq)


def _as_sym_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * (arr + arr.T)


class GammaSet:
    """Base class for the three uncertainty-set variants."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class DiagonalBox(GammaSet):
    intervals: tuple

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not ivs:
            raise ValueError("diagonal box needs at least one interval")
        if not all(isinstance(iv, UncertaintyInterval) for iv in ivs):
            raise TypeError("diagonal box entries must be UncertaintyInterval")
        object.__setattr__(self, "intervals", ivs)

    @property
    def dim(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class ConvexHull(GammaSet):
    generators: tuple

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        if not gens:
            raise EmptyHull("convex hull needs at least one generator")
        n = gens[0].shape[0]
        canon = []
        for g in gens:
            if g.shape != (n, n):
                raise DimensionMismatch("hull generators must share one square shape")
            g = 0.5 * (g + g.T)
            if np.linalg.eigvalsh(g).min() < -EPS_PSD:
                raise ValueError(f"hull generator is not positive semidefinite:\n{g}")
            g.setflags(write=False)
            canon.append(g)
        object.__setattr__(self, "generators", tuple(canon))

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]


@dataclass(frozen=True)
class RankOneFamily(GammaSet):
    """The family {u r u^T : r in scalar_range} for a fixed direction u."""

    direction: np.ndarray
    scalar_range: UncertaintyInterval

    def __post_init__(self):
        u = np.asarray(self.direction, dtype=float).reshape(-1)
        if u.size == 0 or not np.all(np.isfinite(u)):
            raise ValueError("direction must be a nonempty finite vector")
        u.setflags(write=False)
        object.__setattr__(self, "direction", u)

    @property
    def dim(self) -> int:
        return self.direction.size


def Interval1D(iv: UncertaintyInterval) -> DiagonalBox:
    """The 1D law with variance interval iv: the one-interval box."""
    return DiagonalBox((iv,))


def singleton_zero(n: int) -> GammaSet:
    """The degenerate set containing only the n x n zero matrix: the box of
    n zero-variance intervals, which every box solve takes at rest."""
    return DiagonalBox((UncertaintyInterval(0.0, 0.0),) * n)


def gbar(iv: UncertaintyInterval, x: float):
    """1D generator: 1/2 (sigma_high_sq * x^+ - sigma_low_sq * x^-).

    Accepts scalars or arrays; continuous and nondecreasing in x.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.where(x > 0, iv.sigma_high_sq * x, iv.sigma_low_sq * x)
    return out if out.ndim else float(out)


def g_function(gamma: GammaSet, a) -> float:
    """G(A) = 1/2 sup over the set of tr[A B], evaluated in closed form."""
    arr = _as_sym_array(a)
    if not isinstance(gamma, (DiagonalBox, ConvexHull, RankOneFamily)):
        raise TypeError(f"unknown uncertainty-set variant {type(gamma).__name__}")
    if arr.shape[0] != gamma.dim:
        raise DimensionMismatch(
            f"matrix is {arr.shape[0]}x{arr.shape[0]} but the set has dimension {gamma.dim}"
        )
    if isinstance(gamma, DiagonalBox):
        # tr[A diag(r)] = sum_i a_ii r_i, separable across coordinates.
        return float(sum(gbar(iv, arr[i, i]) for i, iv in enumerate(gamma.intervals)))
    if isinstance(gamma, ConvexHull):
        # Linear objective: the sup over the hull sits at a generator.
        return 0.5 * max(float(np.trace(arr @ b)) for b in gamma.generators)
    u = gamma.direction
    return float(gbar(gamma.scalar_range, float(u @ arr @ u)))


def _box_vertices(box: DiagonalBox):
    ranges = [(iv.sigma_low_sq, iv.sigma_high_sq) for iv in box.intervals]
    for combo in itertools.product(*ranges):
        yield np.diag(combo)


def image_gamma(m, gamma: GammaSet) -> GammaSet:
    """The set {M B M^T : B in gamma}, in the tightest representable variant."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    rows, cols = m.shape
    if not isinstance(gamma, (DiagonalBox, ConvexHull, RankOneFamily)):
        raise TypeError(f"unknown uncertainty-set variant {type(gamma).__name__}")
    if cols != gamma.dim:
        raise DimensionMismatch(f"matrix has {cols} columns but the set has dimension {gamma.dim}")

    if rows == cols and np.array_equal(m, np.eye(rows)):
        return gamma

    if isinstance(gamma, RankOneFamily):
        v = m @ gamma.direction
        if not np.any(v):
            return singleton_zero(rows)
        if rows == 1:
            return DiagonalBox((gamma.scalar_range.scaled(float(v[0] ** 2)),))
        return RankOneFamily(v, gamma.scalar_range)

    if isinstance(gamma, DiagonalBox):
        if np.linalg.matrix_rank(m, tol=1e-12) <= 1:
            # M = u w^T; w^T diag(r) w sweeps an interval.
            uu, ss, vh = np.linalg.svd(m)
            u, w = uu[:, 0], ss[0] * vh[0]
            lo = float(sum(wi**2 * iv.sigma_low_sq for wi, iv in zip(w, gamma.intervals)))
            hi = float(sum(wi**2 * iv.sigma_high_sq for wi, iv in zip(w, gamma.intervals)))
            if hi == 0.0:
                return singleton_zero(rows)
            if rows == 1:
                return DiagonalBox((UncertaintyInterval(lo * u[0] ** 2, hi * u[0] ** 2),))
            return RankOneFamily(u, UncertaintyInterval(lo, hi))
        if np.all(np.count_nonzero(m, axis=0) <= 1):
            # each coordinate feeds at most one row, so M diag(r) M^T is
            # diagonal and row i sweeps sum_k m_ik^2 r_k independently of the rest
            # of Python floats, which overflow to inf without numpy's warning
            ivs = gamma.intervals
            return DiagonalBox(tuple(
                UncertaintyInterval(sum(a * a * float(iv.sigma_low_sq) for a, iv in zip(row, ivs)),
                                    sum(a * a * float(iv.sigma_high_sq) for a, iv in zip(row, ivs)))
                for row in m.tolist()))
        if gamma.dim > _VERTEX_DIM_CAP:
            raise ValueError(
                f"vertex enumeration capped at dimension {_VERTEX_DIM_CAP}, got {gamma.dim}"
            )
        return ConvexHull(tuple(m @ b @ m.T for b in _box_vertices(gamma)))

    return ConvexHull(tuple(m @ b @ m.T for b in gamma.generators))


def is_diagonal_image(a, box: DiagonalBox) -> bool:
    """Whether A Gamma A^T contains only diagonal matrices, for a 2D box.

    With strictly positive per-coordinate widths this reduces to the
    algebraic predicate a11*a21 == a12*a22 == 0 (within EPS_ALG).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2) or box.dim != 2:
        raise DimensionMismatch("is_diagonal_image expects a 2x2 matrix and a 2D box")
    if any(iv.width <= 0 for iv in box.intervals):
        raise ValueError("box must have strictly positive widths per coordinate")
    return abs(a[0, 0] * a[1, 0]) <= EPS_ALG and abs(a[0, 1] * a[1, 1]) <= EPS_ALG


def check_scaling_constraint(intervals) -> list:
    """Index pairs (i, j) whose intervals are positive multiples of each other.

    A pair violates the box-coordinate constraint when interval i has
    0 < sigma_low_sq < sigma_high_sq and some alpha > 0 carries it onto
    interval j.
    """
    ivs = list(intervals)
    if not ivs:
        raise ValueError("need at least one interval")
    bad = []
    for i, a in enumerate(ivs):
        if not (0 < a.sigma_low_sq < a.sigma_high_sq):
            continue
        for j, b in enumerate(ivs):
            if i == j:
                continue
            alpha = b.sigma_low_sq / a.sigma_low_sq
            if alpha > 0 and np.isclose(alpha * a.sigma_high_sq, b.sigma_high_sq, rtol=1e-12, atol=1e-12):
                bad.append((i, j))
    return bad
