"""Monotone explicit finite-difference solvers for the G-heat equation.

All schemes are forward Euler in time with 3-point second differences per
axis; cross terms (hull generators) use the upwinded 9-point splitting.
Boundary nodes keep zero discrete curvature (linear extrapolation), so no
flux is generated there, and the domain is truncated wide enough that the
Gaussian-type tail of the initial data cannot reach the evaluation point.

Every diagonal step -- full box solves and the batched last-axis sweeps
of the nested recursion -- runs through one kernel, ``_advance_diag``;
hull solves run through ``_advance_hull``. Both advance a C-contiguous
array in place, allocate their work buffers once per solve and use only
``out=`` ufuncs inside the step loop. Their results are bit-identical to
the allocating form of the same scheme (a fresh zero increment per step,
one sign-selected product per axis or generator).

When the leading axis is a passive batch axis (the nested sweeps),
``_advance_diag`` cuts it into slabs of whole rows of at most
``_SLAB_CELLS`` cells and runs each slab through all of its steps before
the next, so a slab and its buffers are reused from L2 cache instead of
the whole grid streaming from memory once per step. The rows are
independent problems and every op is elementwise, so the values are the
same bits. A 67^3 nested sweep drops from about 9 to about 6 ns per
cell-step on a 2-vCPU Xeon with 2 MiB of L2 per core.

The box and hull solvers check their own set, then share one skeleton,
``_solve`` (which returns phi(x0) when t = 0 or every variance is zero).
A solve's error estimate is the analytic tail bound of its grid (computed
once by ``build_grid``) plus the grid term of ``refinement_delta``, the one
three-grid helper of every solve, nested recursions included. ``build_grid``
refuses a grid of more than ``_CELL_STEP_BUDGET`` cells times steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CFLViolation, DimensionMismatch, GExpectError
from .gamma import ConvexHull, DiagonalBox, UncertaintyInterval
from .testfuncs import TestFunction

_TAIL_FACTOR = 8.0
_CFL_SAFETY = 0.4
# The three-grid check extrapolates only when the observed order
# p = log2(d2/d1) lies within this band of 2. Over seeds 20-29 of the
# benchmark's gnormal and sequential pools, a band of 0.5 let one nested
# off-grid kink extrapolate past its error estimate and 0.25 left none;
# the default catalog report was the same under both.
_ORDER_BAND = 0.25
# Largest grid, in cells times steps, that build_grid accepts: 250 times
# the largest solve of the default catalog and the benchmark pools (about
# 4e7), and a minute or two of one core at the measured 6-12 ns per
# cell-step.
_CELL_STEP_BUDGET = 1e10
# Rows along a passive leading axis are independent problems, so
# _advance_diag steps them a slab at a time, sized for a 2 MiB per-core L2
# cache: 2**16 float64 cells are 512 KiB per buffer. Of 2**14, 2**15 and
# 2**16 cells, 2**15 and 2**16 were fastest on one thread; 2**16 makes half
# the ufunc calls (each a GIL hand-over), and under the two-thread scenario
# pool only 2**16 did not slow the sweeps against one pass.
_SLAB_CELLS = 1 << 16


def _step_count(t: float, dt: float) -> int:
    return max(1, math.ceil(t / dt - 1e-12))


def _require_finite_positive(**values):
    for name, v in values.items():
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class SolverConfig:
    """User-tunable solver knobs; None means derive automatically."""

    h: float | None = None
    half_width: float | None = None
    dt: float | None = None
    target_tol: float = 1e-3
    refine: bool = True  # re-solve at 2h and 4h (see refinement_delta)

    def __post_init__(self):
        _require_finite_positive(h=self.h, half_width=self.half_width, dt=self.dt,
                                 target_tol=self.target_tol)
        if not isinstance(self.refine, bool):
            raise ValueError(f"refine must be True or False, got {self.refine!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid: [-L_i, L_i] per axis at spacing h, stepped by dt.
    tail_bound bounds what truncating the domain at L_i costs the solve."""

    half_width: tuple
    h: float
    dims: int
    time_horizon: float
    dt: float
    tail_bound: float = 0.0

    def __post_init__(self):
        hw = self.half_width
        if np.isscalar(hw):
            hw = (float(hw),) * self.dims
        hw = tuple(float(v) for v in hw)
        object.__setattr__(self, "half_width", hw)
        if len(hw) != self.dims:
            raise ValueError("half_width must have one entry per axis")
        _require_finite_positive(h=self.h, dt=self.dt)
        if not (math.isfinite(self.time_horizon) and self.time_horizon >= 0):
            raise ValueError(f"time_horizon must be finite and >= 0, got {self.time_horizon}")
        for L in hw:
            _require_finite_positive(half_width=L)
            cells = L / self.h
            if abs(cells - round(cells)) > 1e-9 or round(cells) < 8:
                raise ValueError(f"half width {L} must be an integer multiple >= 8 of h={self.h}")

    def axis(self, i: int) -> np.ndarray:
        n = round(self.half_width[i] / self.h)
        return np.linspace(-self.half_width[i], self.half_width[i], 2 * n + 1)

    @property
    def steps(self) -> int:
        return _step_count(self.time_horizon, self.dt)


@dataclass(frozen=True)
class SolveReport:
    value_at_origin: float
    tail_bound: float
    refinement_delta: float | None  # the grid term; None with refinement off
    steps_taken: int
    degenerate: bool = False


def _tail(phi: TestFunction, L: float, k: float) -> float:
    """Analytic tail bound C (1 + (1 + L)^m) exp(-k^2/2) of phi's declared
    growth beyond a half width L that lies k standard deviations out."""
    return phi.growth_const * (1.0 + (1.0 + L) ** phi.growth_order) * math.exp(-0.5 * k * k)


def _scale(sigma: float, t: float) -> float:
    return max(sigma, 1e-6) * math.sqrt(max(t, 1e-12))


def _tail_halfwidth(center: float, sigma: float, t: float, phi: TestFunction, tol: float) -> float:
    """Per-axis truncation radius whose tail bound is at most tol / 10."""
    k = _TAIL_FACTOR
    while k < 20.0:
        L = abs(center) + k * _scale(sigma, t)
        if _tail(phi, L, k) <= 0.1 * tol:
            return L
        k += 1.0
    return abs(center) + k * _scale(sigma, t)


def build_grid(sigma_high_sqs, phi: TestFunction, t: float, x0, cfg: SolverConfig,
               cfl_denominator: float | None = None) -> GridSpec:
    """Derive a grid from the variance scales and the declared growth of phi.

    cfl_denominator defaults to sum of the per-axis sigma_high_sq values
    (the diagonal-generator stability weight); hull solves pass their own.
    The grid's tail_bound sums the analytic tail bound over the axes, each
    at its actual half width. A grid of more than _CELL_STEP_BUDGET cells
    times steps is refused before anything is allocated.
    """
    sig_sq = np.asarray(sigma_high_sqs, dtype=float)
    n = sig_sq.size
    x0 = np.zeros(n) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != n:
        raise DimensionMismatch(f"x0 has {x0.size} entries for a {n}-dimensional solve")
    sig_max = math.sqrt(float(sig_sq.max()))
    if sig_max == 0.0:
        raise GExpectError("all variances are zero; nothing to diffuse")

    if cfg.half_width is not None:
        halves = [cfg.half_width] * n
    else:
        halves = [_tail_halfwidth(float(x0[i]), math.sqrt(sig_sq[i]), t, phi, cfg.target_tol)
                  for i in range(n)]
    h = cfg.h if cfg.h is not None else min(0.02 * min(halves), 0.1 * sig_max * math.sqrt(t))
    denom = cfl_denominator if cfl_denominator is not None else float(sig_sq.sum())
    dt = cfg.dt if cfg.dt is not None else _CFL_SAFETY * h * h / denom
    # counted before the half widths round up to whole cells, since L / h may
    # overflow; steps >= 1, so a grid over budget in cells alone needs no
    # step count (whose h * h may underflow)
    cells = math.prod(2.0 * max(L / h, 8.0) + 1.0 for L in halves)
    steps = _step_count(t, dt) if cells <= _CELL_STEP_BUDGET else 1
    cost = cells * steps
    if cost > _CELL_STEP_BUDGET:
        raise GExpectError(f"grid of about {cost:.1e} cells x steps at h={h:g} exceeds the "
                           f"budget of {_CELL_STEP_BUDGET:.0e}; use a coarser h or a smaller L")
    halves = [max(math.ceil(L / h - 1e-9), 8) * h for L in halves]
    tail = sum(_tail(phi, L, max(L - abs(c), 0.0) / _scale(math.sqrt(s), t))
               for L, c, s in zip(halves, x0, sig_sq))
    return GridSpec(half_width=tuple(halves), h=h, dims=n, time_horizon=t, dt=t / steps,
                    tail_bound=tail)


def _check_monotone(dt: float, h: float, weight: float):
    # weight = sum of off-center stencil coefficients times h^2
    if dt * weight / (h * h) > 1.0 + 1e-9:
        raise CFLViolation(
            f"dt={dt:g} breaks monotonicity: need dt <= {h * h / weight:g} for h={h:g}"
        )


def _axis_slices(ndim: int, axis: int):
    """(interior, lower neighbour, upper neighbour) index tuples along axis."""
    mid = [slice(None)] * ndim
    lo, hi = list(mid), list(mid)
    mid[axis], lo[axis], hi[axis] = slice(1, -1), slice(None, -2), slice(2, None)
    return tuple(mid), tuple(lo), tuple(hi)


def _advance_diag(u: np.ndarray, intervals, axes, h: float, dt: float, steps: int):
    """Advance u in place by `steps` explicit steps of du/dt = sum_k Gbar_k(d2u/dx_k^2),
    interval k acting along axis axes[k]; other axes are passive batch axes.

    A passive leading axis is cut into slabs of whole rows of at most
    _SLAB_CELLS cells, and each slab runs through all steps before the next
    (see _advance_slab).
    """
    ivs, axes = list(intervals), list(axes)
    _check_monotone(dt, h, sum(iv.sigma_high_sq for iv in ivs))
    lam = dt / (h * h)
    rows = len(u) if 0 in axes else max(1, _SLAB_CELLS // u[0].size)
    for i in range(0, len(u), rows):
        _advance_slab(u[i:i + rows], ivs, axes, lam, steps)


def _advance_slab(u: np.ndarray, ivs, axes, lam: float, steps: int):
    """_advance_diag on one C-contiguous slab, lam = dt/h^2. Buffers are
    allocated once; each step runs on out= ufuncs only."""
    incr = np.zeros_like(u)
    work = []
    for k, (iv, ax) in enumerate(zip(ivs, axes)):
        mid, lo, hi = _axis_slices(u.ndim, ax)
        shape = u[mid].shape
        flux = incr[mid] if k == 0 else np.empty(shape)
        work.append((mid, lo, hi, 0.5 * iv.sigma_low_sq, 0.5 * iv.sigma_high_sq,
                     np.empty(shape), np.empty(shape), flux))
    # the first axis writes its flux straight into the interior of incr; the
    # later axes add theirs on top, also onto the first axis' two end faces,
    # which are cleared each step (they carry no flux of their own)
    faces = []
    if len(axes) > 1:
        for end in (0, -1):
            face = [slice(None)] * u.ndim
            face[axes[0]] = end
            faces.append(tuple(face))
    # the allocating form of the scheme sums each increment onto zeros
    # (0.0 + flux is never -0.0), so its u holds no -0.0 after one step;
    # clearing -0.0 from u once here keeps the in-place steps bit-identical
    # to it, zero signs included
    u += 0.0
    for _ in range(steps):
        for f in faces:
            incr[f] = 0.0
        for k, (mid, lo, hi, c_lo, c_hi, d, d_hi, flux) in enumerate(work):
            np.multiply(u[mid], 2.0, out=d)
            np.subtract(u[hi], d, out=d)
            np.add(d, u[lo], out=d)
            # Gbar(d) = max(c_lo d, c_hi d) since c_lo <= c_hi: the same
            # product as selecting on the sign of d, without a masked pass
            np.multiply(d, c_hi, out=d_hi)
            np.multiply(d, c_lo, out=d)
            np.maximum(d, d_hi, out=flux)
            if k:
                np.add(incr[mid], flux, out=incr[mid])
        incr *= lam
        u += incr


def diffuse_last_axis(u0: np.ndarray, iv: UncertaintyInterval, h: float, t: float,
                      dt: float | None = None) -> tuple:
    """Diffuse a tabulated array along its last axis only (nested recursion step).

    Returns (final array, dt used, steps taken); dt is 0.0 when t = 0.
    """
    u = np.array(u0, dtype=float, order="C")
    if t == 0.0:
        return u, 0.0, 0
    if dt is None:
        dt = _CFL_SAFETY * h * h / max(iv.sigma_high_sq, 1e-300)
    _require_finite_positive(h=h, t=t, dt=dt)
    dt = t / _step_count(t, dt)
    steps = _step_count(t, dt)
    _advance_diag(u, [iv], [u.ndim - 1], h, dt, steps)
    return u, dt, steps


def _interp_multilinear(u: np.ndarray, axes, point) -> float:
    for coord, g in zip(point, axes):
        if coord < g[0] - 1e-12 or coord > g[-1] + 1e-12:
            raise GExpectError(f"evaluation point {coord} outside the grid [{g[0]}, {g[-1]}]")
        j = min(int(np.searchsorted(g, coord, side="right")) - 1, g.size - 2)
        j = max(j, 0)
        w = (coord - g[j]) / (g[j + 1] - g[j])
        u = (1.0 - w) * u[j] + w * u[j + 1]
    return float(u)


def _eval_initial(phi: TestFunction, grid: GridSpec) -> np.ndarray:
    axes = [grid.axis(i) for i in range(grid.dims)]
    # broadcast views of the axes, not full grid copies; read-only, since
    # each one aliases a whole axis (a phi writing into one would corrupt it)
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    for m in mesh:
        m.setflags(write=False)
    u0 = np.array(phi(*mesh), dtype=float, order="C")  # stepped in place
    if not np.all(np.isfinite(u0)):
        raise GExpectError("initial data evaluates to non-finite values on the grid")
    return u0


def refinement_delta(u_h: float, h: float, cfg: SolverConfig, solve_at) -> tuple:
    """(value, grid term) from u_h and re-solves u_2h, u_4h by
    solve_at(cfg at 2h or 4h, dt re-derived, refinement off); (u_h, None)
    when cfg.refine is off.

    With d1 = u_h - u_2h and d2 = u_2h - u_4h, the observed order is
    p = log2(d2 / d1). When p is within _ORDER_BAND of 2 the error behaves
    as C h^2 and the value is the extrapolated (4 u_h - u_2h) / 3, with |d1|
    as its grid term; otherwise the value is u_h with max(|d1|, |d2|).
    This is the three-grid check of Roache's grid convergence index.
    """
    if not cfg.refine:
        return u_h, None
    u_2h, u_4h = (solve_at(replace(cfg, refine=False, h=k * h, dt=None)) for k in (2.0, 4.0))
    d1, d2 = u_h - u_2h, u_2h - u_4h
    if d1 == 0.0:
        return u_h, 0.0
    if d1 * d2 > 0.0 and abs(math.log2(d2 / d1) - 2.0) <= _ORDER_BAND:
        return (4.0 * u_h - u_2h) / 3.0, abs(d1)
    return u_h, max(abs(d1), abs(d2))


def _solve(phi: TestFunction, t: float, x0, cfg: SolverConfig, sig_sqs, degenerate: bool,
           advance, solve_at, cfl_denominator: float | None = None) -> SolveReport:
    """Solve skeleton shared by the box and hull solvers: grid, initial data,
    advance(u, grid), interpolation at x0, and the re-solves solve_at(cfg)
    -> value of refinement_delta."""
    if t < 0:
        raise GExpectError("time horizon must be nonnegative")
    x0 = np.zeros(len(sig_sqs)) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if t == 0.0 or max(sig_sqs) == 0.0:
        return SolveReport(float(phi(*x0)), 0.0, 0.0 if cfg.refine else None, 0, degenerate)
    grid = build_grid(sig_sqs, phi, t, x0, cfg, cfl_denominator)
    u = _eval_initial(phi, grid)
    advance(u, grid)
    u_h = _interp_multilinear(u, [grid.axis(i) for i in range(grid.dims)], x0)
    value, grid_term = refinement_delta(u_h, grid.h, cfg, solve_at)
    return SolveReport(value, grid.tail_bound, grid_term, grid.steps, degenerate)


def solve_gheat_diag(box: DiagonalBox, phi: TestFunction, t: float, x0=None,
                     cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """u(t, x0) for du/dt = sum_i Gbar_i(d2u/dx_i^2) on a tensor grid."""
    n = box.dim
    if n > 3:
        raise DimensionMismatch(f"diagonal solver supports dimension <= 3, got {n}")
    if phi.arity != n:
        raise DimensionMismatch(f"phi takes {phi.arity} arguments but the box has dimension {n}")
    return _solve(
        phi, t, x0, cfg, [iv.sigma_high_sq for iv in box.intervals],
        any(iv.sigma_low_sq == 0.0 for iv in box.intervals),
        lambda u, g: _advance_diag(u, box.intervals, range(n), g.h, g.dt, g.steps),
        lambda c: solve_gheat_diag(box, phi, t, x0, cfg=c).value_at_origin,
    )


def _hull_weight(gens) -> float:
    # off-center stencil weight (times h^2) of the widest generator
    return max(float(np.abs(b).sum()) for b in gens)


def _advance_hull(u: np.ndarray, gens, h: float, dt: float, steps: int):
    """Advance the 2D array u in place by `steps` explicit steps of the flux max
    over the hull generators (upwinded 9-point cross stencil); boundary nodes
    stay fixed. Buffers are allocated once."""
    _check_monotone(dt, h, _hull_weight(gens))
    shape = (u.shape[0] - 2, u.shape[1] - 2)
    c = u[1:-1, 1:-1]
    xp, xm, yp, ym = u[2:, 1:-1], u[:-2, 1:-1], u[1:-1, 2:], u[1:-1, :-2]
    two_c, dxx, dyy, best, flux, cross = (np.empty(shape) for _ in range(6))
    # plus serves generators with b12 >= 0, minus those with b12 < 0
    plus = np.empty(shape) if any(b[0, 1] >= 0 for b in gens) else None
    minus = np.empty(shape) if any(b[0, 1] < 0 for b in gens) else None
    for _ in range(steps):
        np.multiply(c, 2.0, out=two_c)
        np.subtract(xp, two_c, out=dxx)
        dxx += xm
        np.subtract(yp, two_c, out=dyy)
        dyy += ym
        if plus is not None:
            np.add(u[2:, 2:], u[:-2, :-2], out=plus)
            plus += two_c
            plus -= xp
            plus -= xm
            plus -= yp
            plus -= ym
        if minus is not None:
            np.add(xp, xm, out=minus)
            minus += yp
            minus += ym
            minus -= two_c
            minus -= u[2:, :-2]
            minus -= u[:-2, 2:]
        for k, b in enumerate(gens):
            out = flux if k else best
            # 0.5 * (b00 dxx + b11 dyy) + 0.5 * (b01 * plus|minus), in this op order
            np.multiply(dxx, b[0, 0], out=out)
            np.multiply(dyy, b[1, 1], out=cross)
            out += cross
            out *= 0.5
            np.multiply(plus if b[0, 1] >= 0 else minus, b[0, 1], out=cross)
            cross *= 0.5
            out += cross
            if k:
                np.maximum(best, flux, out=best)
        best /= h * h
        best *= dt
        c += best


def solve_gheat_hull(hull: ConvexHull, phi: TestFunction, t: float, x0=None,
                     cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """2D solve with flux max over hull generators (Kushner 9-point stencil)."""
    if hull.dim != 2:
        raise DimensionMismatch("hull solver is 2D only")
    if phi.arity != 2:
        raise DimensionMismatch("phi must take 2 arguments")
    gens = hull.generators
    for b in gens:
        if b[0, 0] - abs(b[0, 1]) < -1e-12 or b[1, 1] - abs(b[0, 1]) < -1e-12:
            raise GExpectError(
                f"hull generator is not diagonally dominant (scheme would lose monotonicity):\n{b}"
            )
    return _solve(
        phi, t, x0, cfg, [max(b[i, i] for b in gens) for i in range(2)],
        any(np.linalg.eigvalsh(b).min() <= 1e-12 for b in gens),
        lambda u, g: _advance_hull(u, gens, g.h, g.dt, g.steps),
        lambda c: solve_gheat_hull(hull, phi, t, x0, cfg=c).value_at_origin,
        cfl_denominator=_hull_weight(gens),
    )
