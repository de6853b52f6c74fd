"""Monotone explicit finite-difference solvers for the G-heat equation.

All schemes are forward Euler in time with 3-point second differences per
axis; cross terms (hull generators) use the upwinded 9-point splitting.
Boundary nodes keep zero discrete curvature (linear extrapolation), so no
flux is generated there, and the domain is truncated wide enough that the
Gaussian-type tail of the initial data cannot reach the origin.

Every solve computes u(1, 0) = E^[phi(X)], read at the centre node of the
grid. The value at a horizon t and a start y is E^[phi(y + X)] over
variances scaled by t.

A box solve and a sweep of the nested recursion are the same diagonal
solve, run by one driver, ``_diag_centre``: its intervals diffuse along
the leading axes of u, and any later axes are passive rows (a sweep is a
box solve whose other coordinates are passive). Every diagonal step runs
through one kernel, ``_advance_diag``; hull solves run through
``_advance_hull``. Each call copies the view it is given (a cone view or a
slab, usually strided) into one C-ordered buffer, steps it in place as a
flat 1D array and writes it back. Along an axis of stride s, node f reads
f - s and f + s, so every op of a step is one contiguous slice, and 2u is
formed once per step for all axes. The slice also covers the axis' two
end faces, where f +- s wraps into the next row: the flux there is junk
and is overwritten with -0.0 before it is added, since x + (-0.0) is x
for every x, zero signs included. Work buffers are allocated once per
call and only ``out=`` ufuncs run inside the step loop.

A solve needs only u(1, 0), and one explicit step moves information one
node along each axis, so with `left` steps to go only the nodes within
`left` of the centre can still reach it. ``_advance_cone`` runs the
kernels on views of the grid that shrink with this cone of dependence
(Courant, Friedrichs and Lewy); the centre value is the same bits.

The diagonal driver first drops every diffusing axis along which the
initial data is exactly constant: the flux along it is (v - 2v) + v = 0
at every step, so the other axes step alone at the same grid, dt and
steps, and a sweep along such an axis returns without stepping. Hull
solves drop nothing, since their cross stencil does not cancel exactly.

A solve whose initial data is exactly even and has more than
``_CONE_CELLS`` cells steps half the grid (a mirror fold). The nodes are
h * k, antisymmetric bit for bit, so evenness is one ``np.array_equal``
against ``np.flip``. Along a folded axis the half starts at the centre
node - 1: plane 0 is a ghost, overwritten from plane 2 before every step
(in a point fold, plane 2 flipped over the other axes), and u(1, 0) is
read at node 1. A box is unchanged by flipping any one axis, so the
diagonal driver folds every diffusing axis along which the data is even,
and failing all, when no axis is passive, the point reflection x -> -x; a
hull is unchanged only by x -> -x, which is all a hull solve folds. An
even passive axis keeps half its rows, and the centre slice is mirrored
back. The unfolded scheme rounds mirror images differently, (a - b) + c
against (c - b) + a, so a ghost fold moves u(1, 0) at rounding level; a
passive half gives the same bits.

``diffuse_last_axis`` copies its input once with the swept axis moved to
the front, so cone views are contiguous blocks, and returns the centre
slice along it. ``_advance_diag`` cuts the first passive axis into slabs
of at most ``_SLAB_CELLS`` cells and runs each slab through all of its
steps before the next, so a slab and its buffers are reused from L2 cache
instead of the whole grid streaming from memory once per step. The rows
are independent problems and every op is elementwise, so the values are
the same bits.

The box and hull solvers check their own set, then share one skeleton,
``_solve`` (which returns phi(0) when every variance is zero). Every
solve, nested recursions included, returns one record,
``ExpectationResult``: its error estimate is the analytic tail bound of
its grid (computed once by ``build_grid``) plus the grid term of
``refinement_delta``, the one three-grid helper of every solve.
``build_grid`` refuses a grid of more than ``_CELL_STEP_BUDGET`` cells
times steps.
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
# Rows along a passive axis are independent problems, so
# _advance_diag steps them a slab at a time, sized for a 2 MiB per-core L2
# cache: 2**16 float64 cells are 512 KiB per buffer, and a one-axis slab
# uses four (its copy, 2u, the increment and one product). On 67**3 and
# 101**3 nested sweeps, 2**14, 2**15 and 2**16 cells timed alike within the
# host's noise and 2**17 was 20-40% slower; 2**16 makes the fewest ufunc calls.
_SLAB_CELLS = 1 << 16
# _advance_cone runs all steps left on a view of at most this many cells
# without re-cutting it: a step of so few cells costs mostly dispatch, which
# a narrower view does not save, while each cut costs a kernel set-up. Cut
# down to radius 0, 1D box solves of 161 nodes ran 5-10% slower than on the
# whole grid; 2**8, 2**10 and 2**12 cells timed alike on 1D, 2D and nested
# 3D grids.
_CONE_CELLS = 1 << 12


def _step_count(dt: float) -> int:
    # the tolerance is relative: 1 / (1 / s) can exceed s by more than any
    # fixed 1e-12 (from s = 23294 on), and an extra step overshoots time 1
    return max(1, math.ceil((1.0 - 1e-12) / dt))


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
    """Uniform tensor grid: [-L_i, L_i] per axis at spacing h, stepped by dt
    up to time 1. tail_bound bounds what truncating the domain at L_i costs
    the solve."""

    half_width: tuple
    h: float
    dims: int
    dt: float
    tail_bound: float = 0.0

    def __post_init__(self):
        hw = tuple(float(v) for v in self.half_width)
        object.__setattr__(self, "half_width", hw)
        if len(hw) != self.dims:
            raise ValueError("half_width must have one entry per axis")
        _require_finite_positive(h=self.h, dt=self.dt)
        for L in hw:
            _require_finite_positive(half_width=L)
            cells = L / self.h
            if abs(cells - round(cells)) > 1e-9 or round(cells) < 8:
                raise ValueError(f"half width {L} must be an integer multiple >= 8 of h={self.h}")

    def axis(self, i: int) -> np.ndarray:
        # h * k is exactly -(h * -k): the nodes are antisymmetric, bit for
        # bit, so even data is even under ==; linspace's are not
        n = round(self.half_width[i] / self.h)
        return self.h * np.arange(-n, n + 1)

    @property
    def steps(self) -> int:
        return _step_count(self.dt)


@dataclass(frozen=True)
class ExpectationResult:
    """One solve: its value, the tail bound of its grid, its grid term and
    the steps of its finest grid (a nested solve sums its sweeps)."""

    value: float
    tail_bound: float
    refinement_delta: float | None  # the grid term; None with refinement off
    steps_taken: int
    method: str  # "pde" | "nested"

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise GExpectError("expectation produced a non-finite value or error estimate")

    @property
    def error_estimate(self) -> float:
        return self.tail_bound + (self.refinement_delta or 0.0)


def _tail(phi: TestFunction, L: float, k: float) -> float:
    """Analytic tail bound C (1 + (1 + L)^m) exp(-k^2/2) of phi's declared
    growth beyond a half width L that lies k standard deviations out."""
    return phi.growth_const * (1.0 + (1.0 + L) ** phi.growth_order) * math.exp(-0.5 * k * k)


def _tail_halfwidth(sigma: float, phi: TestFunction, tol: float) -> float:
    """Per-axis truncation radius k sigma, 8 <= k <= 20, whose tail bound is
    at most tol / 10 if any is."""
    k = _TAIL_FACTOR
    while k < 20.0 and _tail(phi, k * sigma, k) > 0.1 * tol:
        k += 1.0
    return k * sigma


def build_grid(sigma_high_sqs, phi: TestFunction, cfg: SolverConfig,
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
    sig_max = math.sqrt(float(sig_sq.max()))
    if sig_max == 0.0:
        raise GExpectError("all variances are zero; nothing to diffuse")

    # floored so that an axis of zero variance has a finite tail; it needs
    # only its minimum of 8 cells
    sigmas = [max(math.sqrt(s), 1e-6) for s in sig_sq]
    if cfg.half_width is not None:
        halves = [cfg.half_width] * n
    else:
        halves = [_tail_halfwidth(s, phi, cfg.target_tol) for s in sigmas]
    # only diffusing axes set the default h
    h = cfg.h if cfg.h is not None else min(
        0.02 * min(L for L, s in zip(halves, sig_sq) if s > 0.0), 0.1 * sig_max)
    denom = cfl_denominator if cfl_denominator is not None else float(sig_sq.sum())
    dt = cfg.dt if cfg.dt is not None else _CFL_SAFETY * h * h / denom
    # counted before the half widths round up to whole cells, since L / h may
    # overflow; steps >= 1, so a grid over budget in cells alone needs no
    # step count (whose h * h may underflow)
    cells = math.prod(2.0 * max(L / h, 8.0) + 1.0 for L in halves)
    steps = _step_count(dt) if cells <= _CELL_STEP_BUDGET else 1
    cost = cells * steps
    if cost > _CELL_STEP_BUDGET:
        raise GExpectError(f"grid of about {cost:.1e} cells x steps at h={h:g} exceeds the "
                           f"budget of {_CELL_STEP_BUDGET:.0e}; use a coarser h or a smaller L")
    halves = [max(math.ceil(L / h - 1e-9), 8) * h for L in halves]
    tail = sum(_tail(phi, L, L / s) for L, s in zip(halves, sigmas))
    return GridSpec(half_width=tuple(halves), h=h, dims=n, dt=1.0 / steps, tail_bound=tail)


def _check_monotone(dt: float, h: float, weight: float):
    # weight = sum of off-center stencil coefficients times h^2
    if dt * weight / (h * h) > 1.0 + 1e-9:
        raise CFLViolation(
            f"dt={dt:g} breaks monotonicity: need dt <= {h * h / weight:g} for h={h:g}"
        )


def _advance_diag(u: np.ndarray, intervals, h: float, dt: float, steps: int,
                  ghosts=(), point: bool = False):
    """Advance u in place by `steps` explicit steps of du/dt = sum_k Gbar_k(d2u/dx_k^2),
    interval k acting along axis k; the axes after the last interval are
    passive batch axes. Plane 0 along each axis in `ghosts` is the ghost of
    a fold, a point fold when `point` (see _ghost_pairs).

    The first passive axis is cut into slabs of at most _SLAB_CELLS cells,
    and each slab runs through all steps before the next (see _advance_slab).
    """
    ivs = list(intervals)
    _check_monotone(dt, h, sum(iv.sigma_high_sq for iv in ivs))
    lam = dt / (h * h)
    p = len(ivs)
    if p == u.ndim:
        _advance_slab(u, ivs, lam, steps, ghosts, point)
        return
    rows = max(1, _SLAB_CELLS // (u.size // u.shape[p]))
    for i in range(0, u.shape[p], rows):
        _advance_slab(u[(slice(None),) * p + (slice(i, i + rows),)], ivs, lam, steps,
                      ghosts, point)


def _faces(a: np.ndarray, axis: int) -> np.ndarray:
    """Both end faces along `axis` of the C-ordered array a, as one view."""
    n = a.shape[axis]
    return a.reshape(-1, n, math.prod(a.shape[axis + 1:]))[:, ::max(n - 1, 1)]


def _ghost_pairs(buf: np.ndarray, ghosts, point: bool) -> list:
    """(ghost, source) views of buf for a fold: plane 0 along each axis in
    `ghosts` mirrors plane 2 across plane 1, where the centre lies; in a
    point fold (one ghost axis) plane 2 is also flipped over every other
    axis, which the caller keeps symmetric about its centre."""
    pairs = []
    for a in ghosts:
        ghost, src = (buf[(slice(None),) * a + (i,)] for i in (0, 2))
        pairs.append((ghost, np.flip(src) if point else src))
    return pairs


def _advance_slab(u: np.ndarray, ivs, lam: float, steps: int, ghosts=(),
                  point: bool = False):
    """_advance_diag on one slab (any view), lam = dt/h^2. A C-ordered copy
    of the slab (unless it is one) is stepped flat and written back after
    the last step; an axis of stride s steps the slice [s, N - s), whose
    flux on the axis' end faces is junk, overwritten with -0.0. Each ghost
    plane is overwritten from its source before every step."""
    buf = np.ascontiguousarray(u)
    flat = buf.reshape(-1)
    size = flat.size
    two_u, incr, d_hi = np.empty(size), np.zeros(size), np.empty(size)
    d = np.empty(size) if len(ivs) > 1 else None
    work = []
    for k, iv in enumerate(ivs):
        s = math.prod(buf.shape[k + 1:])
        mid = slice(s, size - s)
        # the first axis works straight in incr, whose faces along it lie
        # outside its slice; they keep last step's flux of the later axes
        # unless cleared, and stay at zero when the axis is alone
        flux = d if k else incr
        faces = None if len(ivs) == 1 else _faces(flux.reshape(buf.shape), k)
        work.append((flat[2 * s:], two_u[mid], flat[:size - 2 * s], flux[mid], d_hi[mid],
                     incr[mid], faces, 0.5 * iv.sigma_low_sq, 0.5 * iv.sigma_high_sq))
    # the reference scheme sums each increment onto zeros (0.0 + flux is
    # never -0.0), so its u holds no -0.0 after one step; clearing -0.0 from
    # u once here gives the same bits, and u + incr is then the same bits
    # whatever the zero signs in incr
    flat += 0.0
    pairs = _ghost_pairs(buf, ghosts, point)
    for _ in range(steps):
        for ghost, src in pairs:
            ghost[...] = src
        np.multiply(flat, 2.0, out=two_u)
        for k, (hi, two_mid, lo, flux, flux_hi, incr_mid, faces, c_lo, c_hi) in enumerate(work):
            np.subtract(hi, two_mid, out=flux)
            np.add(flux, lo, out=flux)
            # Gbar(d) = max(c_lo d, c_hi d) since c_lo <= c_hi: the same
            # product as selecting on the sign of d, without a masked pass
            np.multiply(flux, c_hi, out=flux_hi)
            np.multiply(flux, c_lo, out=flux)
            np.maximum(flux, flux_hi, out=flux)
            if faces is not None:
                faces[...] = -0.0
            if k:
                np.add(incr_mid, flux, out=incr_mid)
        incr *= lam
        flat += incr
    if buf is not u:
        u[...] = buf


def _advance_cone(u: np.ndarray, centre: tuple, steps: int, advance):
    """Run advance(view, k) on views of u for `steps` steps in all, each view
    cut to the dependence cone of the node `centre` along the first
    len(centre) axes, and return u at that centre (a slice over the other
    axes). The centre is the middle node, or node 1 along a folded axis.

    A step moves information one node along each axis, so with `left` steps
    to go only nodes within `left` of the centre can still reach it. The
    view is the whole grid while the cone is wider, then of radius `left`,
    re-cut each time the cone has shrunk by a quarter, until the view has
    at most _CONE_CELLS cells. A view's faces are not stepped; the error this
    leaves moves one node inward per step, as the cone shrinks by one, so
    it never reaches a node that the centre reads.
    """
    widest = max(n - 1 - c for n, c in zip(u.shape, centre))  # to the far face
    left = steps
    while left:
        view = u[tuple(slice(max(c - left, 0), c + left + 1) for c in centre)]
        k = left if view.size <= _CONE_CELLS else max(left - widest, left // 4, 1)
        advance(view, k)
        left -= k
    return u[centre]


def _even(u: np.ndarray, axis: int | None = None) -> bool:
    """Whether u is exactly even about its centre node under a flip of
    `axis`, or of every axis (a point reflection) when axis is None; an
    axis of even length has no centre node. The end planes along the axis
    (axis 0 for a point reflection) are compared first: at the cost of one
    plane, that rejects most data that is not even."""
    if any(u.shape[a] % 2 == 0 for a in (range(u.ndim) if axis is None else [axis])):
        return False
    a = 0 if axis is None else axis
    first, last = (u[(slice(None),) * a + (i,)] for i in (0, -1))
    if not np.array_equal(first, last if axis is not None else np.flip(last)):
        return False
    return np.array_equal(u, np.flip(u, axis))


def _fold(u: np.ndarray, ghosts, halves=()) -> tuple:
    """(view, centre): u cut to its half from the centre node - 1 along each
    axis in `ghosts` (plane 0 a ghost, the centre at node 1) and from the
    centre along each axis in `halves`; the centre node of the view along
    every axis."""
    start = [n // 2 - 1 if a in ghosts else n // 2 if a in halves else 0
             for a, n in enumerate(u.shape)]
    centre = tuple(n // 2 - s for n, s in zip(u.shape, start))
    return u[tuple(slice(s, None) for s in start)], centre


def _flat_along(u: np.ndarray, axis: int) -> bool:
    """Whether u is exactly constant along axis, so that the flux along it,
    (v - 2v) + v, is exactly 0 at every step."""
    return bool(np.all(u == u[(slice(None),) * axis + (slice(0, 1),)]))


def _diag_centre(u: np.ndarray, ivs, h: float, dt: float, steps: int) -> np.ndarray:
    """u(1, 0) of a diagonal solve from the initial data u, stepped in place:
    interval k diffuses along axis k, and later axes are passive rows. A 0-d
    value for a box solve, an array over the passive axes for a sweep.
    Constant axes are dropped and even data is folded (see the module
    docstring); only a ghost fold moves the value, at rounding level.
    """
    # checked on every axis, dropped ones included
    _check_monotone(dt, h, sum(iv.sigma_high_sq for iv in ivs))
    keep = [a for a in range(len(ivs)) if not _flat_along(u, a)]
    u = u[tuple(slice(None) if a in keep else u.shape[a] // 2 for a in range(len(ivs)))]
    if not keep:
        return u + 0.0  # + 0.0 clears -0.0 as a step would
    ivs, n = [ivs[a] for a in keep], len(keep)
    # a box is unchanged by flipping any one axis, so the solution keeps each
    # mirror symmetry of the data; failing all, when every axis diffuses, the
    # point reflection. Passive rows are independent: a mirrored row has the
    # same bits, so only the half from the centre on is stepped
    fold = u.size > _CONE_CELLS
    ghosts = [a for a in range(n) if fold and _even(u, a)]
    point = fold and not ghosts and n == u.ndim and _even(u)
    if point:
        ghosts = [0]
    halves = [a for a in range(n, u.ndim) if fold and _even(u, a)]
    u, centre = _fold(u, ghosts, halves)
    out = _advance_cone(np.ascontiguousarray(u), centre[:n], steps,
                        lambda v, k: _advance_diag(v, ivs, h, dt, k, ghosts, point))
    for a in halves:
        ax = a - n  # out has no diffusing axes
        out = np.concatenate([out[(slice(None),) * ax + (slice(None, 0, -1),)], out], axis=ax)
    return out


def diffuse_last_axis(u0: np.ndarray, iv: UncertaintyInterval, h: float,
                      dt: float | None = None) -> tuple:
    """Diffuse a tabulated array along its last axis only, up to time 1
    (nested recursion step). Returns (the result at the centre node of that
    axis, an array over the other axes; dt used; steps taken).
    """
    # the one copy puts the swept axis first, so cone views are contiguous
    # blocks and the slabs cut the next axis
    u = np.array(np.moveaxis(u0, -1, 0), dtype=float, order="C")
    if dt is None:
        dt = _CFL_SAFETY * h * h / max(iv.sigma_high_sq, 1e-300)
    _require_finite_positive(h=h, dt=dt)
    dt = 1.0 / _step_count(dt)
    steps = _step_count(dt)
    return _diag_centre(u, [iv], h, dt, steps), dt, steps


def _eval_initial(phi: TestFunction, grid: GridSpec) -> np.ndarray:
    axes = [grid.axis(i) for i in range(grid.dims)]
    # broadcast views of the axes, not full grid copies; read-only, since
    # each one aliases a whole axis (a phi writing into one would corrupt it)
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    for m in mesh:
        m.setflags(write=False)
    values = np.asarray(phi(*mesh), dtype=float)
    try:  # a phi that ignores its arguments may return a scalar
        values = np.broadcast_to(values, mesh[0].shape)
    except ValueError:
        raise GExpectError(f"phi returned shape {values.shape}, which does not broadcast to "
                           f"the grid {mesh[0].shape}") from None
    u0 = np.array(values, order="C")  # stepped in place
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


def _at_rest(phi: TestFunction, cfg: SolverConfig, method: str) -> ExpectationResult:
    """The solve of a law whose variances are all zero: phi(0), exactly."""
    return ExpectationResult(float(phi(*np.zeros(phi.arity))), 0.0,
                             0.0 if cfg.refine else None, 0, method)


def _solve(phi: TestFunction, cfg: SolverConfig, sig_sqs, centre, solve_at,
           cfl_denominator: float | None = None) -> ExpectationResult:
    """Solve skeleton shared by the box and hull solvers: grid, initial data,
    centre(u, grid) -> u(1, 0), and the re-solves solve_at(cfg) -> value of
    refinement_delta."""
    if max(sig_sqs) == 0.0:
        return _at_rest(phi, cfg, "pde")
    grid = build_grid(sig_sqs, phi, cfg, cfl_denominator)
    u_h = float(centre(_eval_initial(phi, grid), grid))
    value, grid_term = refinement_delta(u_h, grid.h, cfg, solve_at)
    return ExpectationResult(value, grid.tail_bound, grid_term, grid.steps, "pde")


def solve_gheat_diag(box: DiagonalBox, phi: TestFunction, *,
                     cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """u(1, 0) = E^[phi(X)] for du/dt = sum_i Gbar_i(d2u/dx_i^2) on a tensor grid."""
    n = box.dim
    if n > 3:
        raise DimensionMismatch(f"diagonal solver supports dimension <= 3, got {n}")
    if phi.arity != n:
        raise DimensionMismatch(f"phi takes {phi.arity} arguments but the box has dimension {n}")
    return _solve(
        phi, cfg, [iv.sigma_high_sq for iv in box.intervals],
        lambda u, g: _diag_centre(u, box.intervals, g.h, g.dt, g.steps),
        lambda c: solve_gheat_diag(box, phi, cfg=c).value,
    )


def _hull_weight(gens) -> float:
    # off-center stencil weight (times h^2) of the widest generator
    return max(float(np.abs(b).sum()) for b in gens)


def _advance_hull(u: np.ndarray, gens, h: float, dt: float, steps: int, point: bool = False):
    """Advance the 2D array u in place by `steps` explicit steps of the flux max
    over the hull generators (upwinded 9-point cross stencil); boundary nodes
    stay fixed. Stepped flat as _advance_slab is: each op is one slice of
    the interior rows, whose flux on the second axis' end faces is junk,
    overwritten with -0.0, so the faces keep their bits. With `point`, row 0
    is the ghost of a point fold, overwritten from row 2 reversed before
    every step."""
    _check_monotone(dt, h, _hull_weight(gens))
    if min(u.shape) < 3:
        return  # every node is a boundary node
    buf = np.ascontiguousarray(u)
    flat = buf.reshape(-1)
    size, n1 = flat.size, buf.shape[1]
    o = n1 + 1  # node (1, 1); the stepped slice is [o, size - o)

    def at(shift):
        # the stepped slice, each node moved by `shift` flat nodes
        return flat[o + shift:size - o + shift]

    c, xp, xm, yp, ym = at(0), at(n1), at(-n1), at(1), at(-1)
    pp, mm, pm, mp = at(n1 + 1), at(-n1 - 1), at(n1 - 1), at(1 - n1)  # diagonal neighbours
    two_c, dxx, dyy, flux, cross = (np.empty(c.size) for _ in range(5))
    best_all = np.empty(size)
    best, faces = best_all[o:size - o], _faces(best_all.reshape(buf.shape), 1)
    # plus serves generators with b12 >= 0, minus those with b12 < 0
    plus = np.empty(c.size) if any(b[0, 1] >= 0 for b in gens) else None
    minus = np.empty(c.size) if any(b[0, 1] < 0 for b in gens) else None
    pairs = _ghost_pairs(buf, [0] if point else [], point)
    for _ in range(steps):
        for ghost, src in pairs:
            ghost[...] = src
        np.multiply(c, 2.0, out=two_c)
        np.subtract(xp, two_c, out=dxx)
        dxx += xm
        np.subtract(yp, two_c, out=dyy)
        dyy += ym
        if plus is not None:
            np.add(pp, mm, out=plus)
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
            minus -= pm
            minus -= mp
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
        faces[...] = -0.0
        c += best
    if buf is not u:
        u[...] = buf


def _hull_centre(u: np.ndarray, gens, g: GridSpec) -> float:
    """u(1, 0) of a hull solve from the initial data u, stepped in place.

    A hull is unchanged by x -> -x but not by flipping one axis, so only
    the point reflection folds."""
    point = u.size > _CONE_CELLS and _even(u)
    u, centre = _fold(u, [0] if point else [])
    return float(_advance_cone(u, centre, g.steps,
                               lambda v, k: _advance_hull(v, gens, g.h, g.dt, k, point)))


def solve_gheat_hull(hull: ConvexHull, phi: TestFunction, *,
                     cfg: SolverConfig = SolverConfig()) -> ExpectationResult:
    """u(1, 0) = E^[phi(X)] in 2D with the flux max over the hull generators
    (Kushner 9-point stencil)."""
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
        phi, cfg, [max(b[i, i] for b in gens) for i in range(2)],
        lambda u, g: _hull_centre(u, gens, g),
        lambda c: solve_gheat_hull(hull, phi, cfg=c).value,
        cfl_denominator=_hull_weight(gens),
    )
