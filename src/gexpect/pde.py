"""Monotone explicit finite-difference solvers for the G-heat equation.

The scheme. Every solve computes u(1, 0) = E^[phi(X)], read at the centre
node of the grid; the value at a horizon t and a start y is E^[phi(y + X)]
over variances scaled by t. Steps are forward Euler in time. Each
diffusing axis takes the 3-point second difference at the variance Gbar
selects per node, and a hull's cross term takes each generator's upwinded
9-point stencil. Both kernels form them in the flux form of Kushner and
Dupuis' monotone schemes (Numerical Methods for Stochastic Control
Problems in Continuous Time, 2001): along an axis of stride s, one first
difference g[f] = u[f + s] - u[f], then d[f] = g[f] - g[f - s], with lam =
dt / h^2 and the 1/2 of G folded into each coefficient. At the step count
of ``_steps`` every coefficient is nonnegative (a hull's generators must
be diagonally dominant), so every step is monotone. End faces keep zero
discrete curvature (linear extrapolation), so no flux is generated there,
and ``build_grid`` truncates the domain wide enough that the tail of the
initial data cannot reach the origin.

One solve. ``_solve`` is the skeleton of box, hull and nested solves: it
builds the grids at h, 2h and 4h, evaluates phi on each
(``_eval_initial``) and lets ``refinement_delta`` judge the three values.
A box solve and each sweep of a nested solve (``diffuse_last_axis``) are
one diagonal solve, whose later axes are passive rows:

    _diag_centre              constant axes dropped; oriented, memo key
      _diag_step              passive rows cut into slabs
        _walk_slab            a slab convex or concave along each axis
        _fold_and_cone        any other slab: even data folded
          _advance_cone       the dependence cone stepped
            _advance_diag

A hull solve takes ``_fold_and_cone`` straight from ``_solve``, with
``_advance_hull`` as its kernel.

The bits. The constant-axis drop, the folds, the cone views, the slab
cuts, the slab-wise evaluation of phi and the run memo each return the
bits of stepping the whole grid in one pass; each function says why. Only
the walks move a value, at rounding level: over the benchmark's gnormal
and sequential pools of seeds 0-10, by at most 2.1e-14 of 1 + |value|, and
no exact zero moved. steps_taken counts the steps the scheme stands for
either way.

The walk (``_walk_slab``, ``_walk``, ``_mixture``, ``_binomial``,
``_mirror_pairs``) is the discrete form of Peng's result that the
G-expectation of a convex phi of a G-normal is the classical one at the
upper variance (Nonlinear Expectations and Stochastic Calculus under
Uncertainty, 2019), here along each axis at one variance. Let a slab's
rows be convex or concave along each diffusing axis a, and let a take
r_a = lam sigma^2 / 2 at sigma_high^2 where convex and sigma_low^2 where
concave, so that rho = sum r_a <= 0.2. One step of the linear scheme S =
I + sum r_a D_a maps the second differences along each axis to a
nonnegative combination of themselves (at least 1 - 2 rho on the node
itself, r_b on its neighbours, faces included), so each axis keeps its
sign, Gbar selects the same coefficient at every step, and the solve is
S^N. S = sum alpha_a P_a with alpha_a = r_a / rho and P_a = I + rho D_a,
the 1D scheme along axis a. The P_a act on different axes, so they
commute, and e_c S^N is the sum over the counts k of steps per axis of
Multinomial(N, alpha)(k) times the product over the axes of the 1D walks
e_c P_a^k_a. Every term is nonnegative, so nothing cancels. Each 1D walk
is symmetric about the centre, so the data enters as its mirrored node
pairs, and data odd along an axis comes back exactly 0. With one axis
the mixture is one walk, one dot product per row; with more, axis 0's
count is binomial and the later axes take the remaining steps. Every sum
is of elementwise products with sum, never a matrix product, so the bits
do not depend on the BLAS build.

The images (``_diag_centre``, ``_canonical``). Within ``solve_once()``
the diagonal driver solves each distinct problem once, and it also serves
the images of a solved problem under which stepping returns the same
bits. Flipping a diffusing axis maps g to -g and d to d, mirrored bit for
bit (a - b is exactly -(b - a)), and the transpose of a 2D box with equal
intervals swaps the two fluxes of x + y, which is y + x. The folds, the
cone views and the slab cuts commute with both, so every such image steps
to the same bits. The walk's mirrored pairs commute with the flips too,
but its contraction of two axes does not commute with a transpose: a
transpose walks to other bits. So the driver puts a problem in one
orientation wherever the memo key needs it, within the block, and outside
it only where a transpose could move the bits, a 2D box with equal
intervals on a square grid, which then gets the same bits in a run and
outside one. A passive axis is never flipped (that would
reverse the returned rows), and three axes are never swapped: (a + b) + c
is not (a + c) + b bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GExpectError
from .gamma import ConvexHull, DiagonalBox, UncertaintyInterval
from .testfuncs import TestFunction

_TAIL_FACTOR = 8.0
_CFL_SAFETY = 0.4
# The three-grid check extrapolates only when the observed order
# p = log2(d2/d1) lies within this band of 2. Over seeds 20-29 of the
# benchmark's gnormal and sequential pools, a band of 0.5 let one nested
# off-grid kink extrapolate past its error estimate and 0.25 left none
# there; the default catalog report was the same under both. Over seeds
# 0-10, two nested (x - K)^+ cases still extrapolate inside 0.25 (p = 1.82
# and 2.23) past their estimates (pinned in tests/test_calibration.py).
_ORDER_BAND = 0.25
# Largest grid, in cells times steps, that build_grid accepts: 250 times
# the largest solve of the default catalog and the benchmark pools (about
# 4e7), and a minute or two of one core at the measured 6-12 ns per
# cell-step.
_CELL_STEP_BUDGET = 1e10
# Rows along a passive axis are independent problems, so
# _diag_step solves them a slab at a time, sized for a 2 MiB per-core L2
# cache: 2**16 float64 cells are 512 KiB per buffer, and a one-axis slab
# uses three (its copy, g and incr). On 67**3 and
# 101**3 nested sweeps, 2**14, 2**15 and 2**16 cells timed alike within the
# host's noise and 2**17 was 20-40% slower; 2**16 makes the fewest ufunc calls.
# _eval_initial evaluates phi in slabs of the same size along axis 0, so
# that phi's temporaries stay in L2 as well.
_SLAB_CELLS = 1 << 16
# _advance_cone runs all steps left on a view of at most this many cells
# without re-cutting it: a step of so few cells costs mostly dispatch, which
# a narrower view does not save, while each cut costs a kernel set-up. Cut
# down to radius 0, 1D box solves of 161 nodes ran 5-10% slower than on the
# whole grid; 2**8, 2**10 and 2**12 cells timed alike on 1D, 2D and nested
# 3D grids.
_CONE_CELLS = 1 << 12
# u(1, 0) of each diagonal problem solved so far, by key; None outside
# solve_once(), where nothing is kept
_MEMO: contextvars.ContextVar = contextvars.ContextVar("gexpect_solve_memo", default=None)


def _require_finite_positive(**values):
    for name, v in values.items():
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class SolverConfig:
    """User-tunable solver knobs; h None derives the spacing. The half widths
    and the time step are always derived, and every solve also solves its
    grid at 2h and 4h (see _solve)."""

    h: float | None = None
    target_tol: float = 1e-3

    def __post_init__(self):
        _require_finite_positive(h=self.h, target_tol=self.target_tol)
        # dt scales with the square of the coarsest spacing solved, 4h
        if self.h is not None and not math.isfinite((4.0 * self.h) * (4.0 * self.h)):
            raise ValueError(f"h={self.h:g} is too coarse: "
                             "4h * 4h overflows, and refinement re-solves at 4h")


@dataclass(frozen=True)
class GridSpec:
    """The grid build_grid derives: [-L_i, L_i] per axis at spacing h, each
    L_i a whole multiple >= 8 of h, and `steps` explicit steps of 1 / steps
    up to time 1. tail_bound bounds what truncating the domain at L_i costs
    the solve."""

    half_width: tuple
    h: float
    steps: int
    tail_bound: float = 0.0

    def axis(self, i: int) -> np.ndarray:
        # h * k is exactly -(h * -k): the nodes are antisymmetric, bit for
        # bit, so even data is even under ==; linspace's are not
        n = round(self.half_width[i] / self.h)
        return self.h * np.arange(-n, n + 1)

    @property
    def dims(self) -> int:
        return len(self.half_width)

    @property
    def lam(self) -> float:
        """lam = dt / h^2 at dt = 1 / steps: a step as the kernels read it."""
        return (1.0 / self.steps) / (self.h * self.h)


@dataclass(frozen=True)
class ExpectationResult:
    """One solve: its value, the tail bound of its grid, its grid term and
    the steps of its finest grid (a nested solve sums its sweeps)."""

    value: float
    tail_bound: float
    refinement_delta: float  # the grid term
    steps_taken: int
    method: str  # "pde" | "nested"

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise GExpectError("expectation produced a non-finite value or error estimate")

    @property
    def error_estimate(self) -> float:
        return self.tail_bound + self.refinement_delta


def _tail(phi: TestFunction, L: float, k: float) -> float:
    """Analytic tail bound C (1 + (1 + L)^m) exp(-k^2/2), or inf if it overflows,
    of phi's declared growth beyond a half width L, k standard deviations out."""
    try:
        return phi.growth_const * (1.0 + (1.0 + L) ** phi.growth_order) * math.exp(-0.5 * k * k)
    except OverflowError:
        return math.inf


def _tail_halfwidth(sigma: float, phi: TestFunction, tol: float) -> float:
    """Per-axis truncation radius k sigma, 8 <= k <= 20, whose tail bound is
    at most tol / 10 if any is."""
    k = _TAIL_FACTOR
    while k < 20.0 and _tail(phi, k * sigma, k) > 0.1 * tol:
        k += 1.0
    return k * sigma


def build_grid(sigma_high_sqs, phi: TestFunction, cfg: SolverConfig,
               cfl_denominator: float | None = None, h: float | None = None) -> GridSpec:
    """Derive a grid from the variance scales and the declared growth of phi,
    at spacing h if given, else cfg.h, else one derived from the variances.

    The step count comes from _steps at the stencil weight cfl_denominator,
    the costliest step's off-centre coefficients times h^2 / dt: a box's sum
    of sigma_high_sq by default, a nested solve its largest sigma_high_sq
    (each sweep steps at its own, and the budget counts the costliest sweep
    on the full grid), and a hull the largest b00 + b11 - |b01| over its
    generators, each one's 9-point off-centre sum.
    tail_bound sums the analytic tail bound over the axes, each at its actual
    half width, which _tail_halfwidth derives from sigma and phi's growth.
    A grid of more than _CELL_STEP_BUDGET cells times steps or a tail bound
    that overflows is refused before allocating.
    """
    sig_sq = [float(s) for s in sigma_high_sqs]  # numpy would warn where a sum overflows
    sig_max = math.sqrt(max(sig_sq))
    if sig_max == 0.0:
        raise GExpectError("all variances are zero; nothing to diffuse")

    # floored so that an axis of zero variance has a finite tail; it needs
    # only its minimum of 8 cells
    sigmas = [max(math.sqrt(s), 1e-6) for s in sig_sq]
    halves = [_tail_halfwidth(s, phi, cfg.target_tol) for s in sigmas]
    # only diffusing axes set the default h
    h = h or cfg.h or min(0.02 * min(L for L, s in zip(halves, sig_sq) if s > 0.0),
                          0.1 * sig_max)
    weight = cfl_denominator if cfl_denominator is not None else sum(sig_sq)
    if not math.isfinite(weight):
        raise GExpectError("the variances' stencil weight overflows; use smaller variances")
    # counted before the half widths round up to whole cells, since L / h may
    # overflow; steps >= 1, so a grid over budget in cells alone needs no
    # step count (whose h * h may underflow)
    cells = math.prod(2.0 * max(L / h, 8.0) + 1.0 for L in halves)
    steps = _steps(h, weight) if cells <= _CELL_STEP_BUDGET else 1
    cost = cells * steps
    if cost > _CELL_STEP_BUDGET:
        raise GExpectError(f"grid of about {cost:.1e} cells x steps at h={h:g} exceeds the "
                           f"budget of {_CELL_STEP_BUDGET:.0e}; use a coarser h")
    halves = [max(math.ceil(L / h - 1e-9), 8) * h for L in halves]
    tail = sum(_tail(phi, L, L / s) for L, s in zip(halves, sigmas))
    if not math.isfinite(tail):
        raise GExpectError("the grid's tail bound overflows; use smaller variances")
    return GridSpec(half_width=tuple(halves), h=h, steps=steps, tail_bound=tail)


def _steps(h: float, weight: float) -> int:
    """The fewest whole explicit steps to time 1 at spacing h whose step
    1 / steps is at most dt = _CFL_SAFETY h^2 / weight; every solve and
    sweep takes its steps from here. The weight is the sum of the costliest
    stencil's off-centre coefficients times h^2 / dt (see build_grid for
    the weight of each solve), so the centre coefficient is at least 1 -
    _CFL_SAFETY and every step keeps the scheme monotone. A dt of 1 or more
    (inf where h^2 / weight overflows) is one step."""
    dt = min(_CFL_SAFETY * h * h / max(weight, 1e-300), 1.0)
    _require_finite_positive(h=h, dt=dt)
    # the tolerance is relative: 1 / (1 / s) can exceed s by more than any
    # fixed 1e-12 (from s = 23294 on), and an extra step overshoots time 1
    return max(1, math.ceil((1.0 - 1e-12) / dt))


def _faces(a: np.ndarray, axis: int) -> np.ndarray:
    """Both end faces along `axis` of the C-ordered array a, as one view."""
    n = a.shape[axis]
    return a.reshape(-1, n, math.prod(a.shape[axis + 1:]))[:, ::max(n - 1, 1)]


def _aligned(raw: np.ndarray, size: int, first: int = 0) -> np.ndarray:
    """The view of `size` elements of the float64 array raw (of size + 7 or
    more) whose element `first` starts a 64-byte cache line. The kernels
    write each op's output from such an element: on an AVX-512 host, a
    subtraction of 26k doubles into an unaligned output took 20-23 us, into
    an aligned one 10-11 us; numpy aligns its arrays to 16 bytes only."""
    skip = -(raw.ctypes.data // 8 + first) % 8
    return raw[skip:skip + size]


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


def _advance_diag(u: np.ndarray, ivs, lam: float, steps: int, ghosts=(),
                  point: bool = False):
    """Advance u (any view) in place by `steps` explicit steps, at lam =
    dt / h^2, of du/dt = sum_k Gbar_k(d2u/dx_k^2), interval k acting along
    axis k; the axes after the last interval are passive batch axes. Plane
    0 along each axis in `ghosts` is the ghost of a fold, a point fold when
    `point` (see _ghost_pairs).

    A C-ordered copy of u (unless it is one; a cone view is often strided)
    is stepped flat and written back after the last step, one copy per
    call. Along an axis of stride s the flux form's g is formed on [0, N -
    s) and d on [s, N - s), so every op of a step is one contiguous slice,
    where numpy would walk a strided view such as u[:, 2:] one short row at
    a time. The slices also cover the axis' two end faces, where f +- s
    wraps into the next row: d there is junk, overwritten with -0.0 before
    it is added, and x + (-0.0) is x for every x, zero signs included, so
    the faces keep their bits. Work buffers are allocated once per call,
    each aligned by _aligned, and only out= ufuncs run inside the step
    loop. Each ghost plane is overwritten from its source before every
    step."""
    buf = np.ascontiguousarray(u)
    flat = buf.reshape(-1)
    size = flat.size
    # the axes sum their flux in incr, where the first axis works straight:
    # its faces along it lie outside its slice and keep last step's flux of
    # the later axes unless cleared (a lone axis leaves them 0.0). Each later
    # axis has its own view of d, aligned at its slice
    g = _aligned(np.empty(size + 7), size)
    incr = _aligned(np.zeros(size + 7), size, math.prod(buf.shape[1:]))
    raw_d = np.empty(size + 7) if len(ivs) > 1 else None
    work = []
    for k, iv in enumerate(ivs):
        s = math.prod(buf.shape[k + 1:])
        flux = _aligned(raw_d, size, s) if k else incr
        faces = _faces(flux.reshape(buf.shape), k) if k or len(ivs) > 1 else None
        # g is spent once d is formed, so its head holds c_hi d
        mid = slice(s, size - s)
        work.append((flat[s:], flat[:size - s], g[:size - s], g[mid], g[:size - 2 * s],
                     flux[mid], None if k == 0 else incr[mid], faces,
                     lam * (0.5 * iv.sigma_low_sq), lam * (0.5 * iv.sigma_high_sq)))
    # the reference scheme sums each increment onto zeros (0.0 + flux is
    # never -0.0), so its u holds no -0.0 after one step; clearing -0.0 from
    # u once here gives the same bits, and u + incr is then the same bits
    # whatever the zero signs in incr
    flat += 0.0
    pairs = _ghost_pairs(buf, ghosts, point)
    for _ in range(steps):
        for ghost, src in pairs:
            ghost[...] = src
        for hi, lo, g_all, g_hi, g_lo, flux, incr_mid, faces, c_lo, c_hi in work:
            np.subtract(hi, lo, out=g_all)
            np.subtract(g_hi, g_lo, out=flux)
            # Gbar(d) = max(c_lo d, c_hi d) since c_lo <= c_hi: the same
            # product as selecting on the sign of d, without a masked pass
            np.multiply(flux, c_hi, out=g_lo)
            np.multiply(flux, c_lo, out=flux)
            np.maximum(flux, g_lo, out=flux)
            if faces is not None:
                faces[...] = -0.0
            if incr_mid is not None:
                np.add(incr_mid, flux, out=incr_mid)
        np.add(flat, incr, out=flat)
    if buf is not u:
        u[...] = buf


def _advance_cone(u: np.ndarray, centre: tuple, steps: int, advance):
    """Run advance(view, k) on views of u for `steps` steps in all, each view
    cut to the dependence cone of the node `centre` along the first
    len(centre) axes, and return u at that centre (a slice over the other
    axes). The centre is the middle node, or node 1 along a folded axis.

    A step moves information one node along each axis, so with `left` steps
    to go only nodes within `left` of the centre can still reach it (the
    domain-of-dependence argument of Courant, Friedrichs and Lewy), and the
    centre value is the bits of stepping the whole grid. The
    view is the whole grid while the cone is wider, then of radius `left`,
    re-cut each time the cone has shrunk by a quarter, until the view has
    at most _CONE_CELLS cells. A view's faces are not stepped; the error this
    leaves moves one node inward per step, as the cone shrinks by one, so
    it never reaches a node that the centre reads. Every view spans at least
    3 nodes along each cut axis, so the kernels always have an interior to
    step: left >= 1, and the centre has a node on either side (it is the
    middle of at least 17 nodes, or node 1 of at least 10 after a fold).
    """
    widest = max(n - 1 - c for n, c in zip(u.shape, centre))  # to the far face
    left = steps
    while left:
        view = u[tuple(slice(max(c - left, 0), c + left + 1) for c in centre)]
        k = left if view.size <= _CONE_CELLS else max(left - widest, left // 4, 1)
        advance(view, k)
        left -= k
    return u[centre]


def _compare(a: np.ndarray, b: np.ndarray) -> int:
    """-1, 0 or 1 as a comes before, equals or comes after b (of one shape)
    in C order, by value: a is less at the first entry where they differ.
    Their planes 0 along axis 0 are compared first: at the cost of one
    plane, that settles most pairs of a grid's images, since plane 0 is an
    end plane of the data."""
    for x, y in ((a[:1], b[:1]), (a[1:], b[1:])):
        ne = (x != y).ravel()
        i = ne.argmax()
        if ne[i]:
            return -1 if x.flat[i] < y.flat[i] else 1
    return 0


def _fold(u: np.ndarray, ghosts) -> tuple:
    """(view, centre): u cut to its half from the centre node - 1 along each
    axis in `ghosts` (plane 0 a ghost, the centre at node 1); the centre node
    of the view along every axis."""
    start = [n // 2 - 1 if a in ghosts else 0 for a, n in enumerate(u.shape)]
    centre = tuple(n // 2 - s for n, s in zip(u.shape, start))
    return u[tuple(slice(s, None) for s in start)], centre


def _flat_along(u: np.ndarray, axis: int) -> bool:
    """Whether u is exactly constant along axis, so that the flux along it,
    (v - v) - (v - v), is exactly 0 at every step."""
    return bool(np.all(u == u[(slice(None),) * axis + (slice(0, 1),)]))


@contextlib.contextmanager
def solve_once():
    """Within the block, every diagonal problem is solved once and a repeat
    or an image of one is served the same bits (see _diag_centre and the
    module docstring)."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _diag_centre(u: np.ndarray, ivs, lam: float, steps: int) -> np.ndarray:
    """u(1, 0) of a diagonal solve from the initial data u, stepped in place:
    interval k diffuses along axis k, and later axes are passive rows. A 0-d
    value for a box solve, an array over the passive axes for a sweep.

    First every diffusing axis along which u is exactly constant is dropped
    (see _flat_along): the other axes step alone at the same lam and steps,
    so the grid, its tail bound and steps_taken are unchanged, and a sweep
    along such an axis returns its centre slice without stepping. Hull
    solves drop nothing, since their cross stencil does not cancel exactly.

    Within solve_once() the data is then put in its canonical orientation
    (_canonical) and keyed on the kept intervals' bounds, lam, steps, the
    shape and a 128-bit BLAKE2b digest of the data, copied to C order (a
    digest, not the bytes, so the memo holds only results). The key holds
    everything the stepping reads, so a repeat or an image of a solved
    problem is served the same bits unstepped. Keying on the data rather
    than on phi catches pulled-back duplicates, a marginal whose other axes
    were dropped, and the mirror images and transposes that the catalog's
    symmetry assertions compare. The walks are kept in the run memo, so a
    run finds each walk once; outside a run, in a dict of this problem's
    own, which its slabs share. Which problems are oriented outside a run,
    and why, is in the module docstring.
    """
    keep = [a for a in range(len(ivs)) if not _flat_along(u, a)]
    u = u[tuple(slice(None) if a in keep else u.shape[a] // 2 for a in range(len(ivs)))]
    if not keep:
        return u + 0.0  # + 0.0 clears -0.0 as a step would
    ivs = [ivs[a] for a in keep]
    memo = _MEMO.get()
    bounds = tuple((iv.sigma_low_sq, iv.sigma_high_sq) for iv in ivs)
    # the one image that a walk takes to other bits: a 2D box's transpose
    swap = u.ndim == len(ivs) == 2 and u.shape[0] == u.shape[1] and bounds[0] == bounds[1]
    if memo is not None or swap:
        u = _canonical(u, len(ivs), swap)
    if memo is None:
        return _diag_step(u, ivs, lam, steps, {})
    u = np.ascontiguousarray(u)  # the digest reads its bytes
    key = (bounds, lam, steps, u.shape, hashlib.blake2b(u, digest_size=16).digest())
    if key not in memo:
        memo[key] = _diag_step(u, ivs, lam, steps, memo)
        memo[key].setflags(write=False)
    return memo[key]


def _canonical(u: np.ndarray, n: int, swap: bool) -> np.ndarray:
    """u's first image in C order (compared by value, see _compare), as a
    view, among those under which a diagonal solve returns the same bits:
    the flips of its first n (diffusing) axes and, with `swap` (a 2D box
    with equal intervals on a square grid), the transposes (see the module
    docstring). Images that compare equal may differ in their zero signs;
    any of them gives the same bits."""
    images = [u]
    for a in range(n):
        images += [np.flip(v, a) for v in images]
    if swap:
        images += [v.T for v in images]
    first = images[0]
    for v in images[1:]:
        if _compare(v, first) < 0:
            first = v
    return first


def _diag_step(u: np.ndarray, ivs, lam: float, steps: int, cache: dict) -> np.ndarray:
    """_diag_centre once no axis of u is constant. The passive rows are cut
    along the first passive axis into slabs of at most _SLAB_CELLS cells (a
    box problem is one slab), and each slab is solved whole before the
    next: when no row of it is mixed along a diffusing axis, as a mixture of
    1D walks (see _walk_slab, which keeps its walks in `cache`), else
    stepped (see _fold_and_cone), so one mixed row costs the stepping of its
    own slab only. A slab's flat copy and its work buffers are then reused
    from L2 cache, where the whole grid would stream from memory on every
    step. The rows are independent problems and every op is elementwise,
    so the values are the bits of one pass."""
    n = len(ivs)
    if u.ndim == n:
        cuts = [()]
    else:
        rows = max(1, _SLAB_CELLS // (u.size // u.shape[n]))
        cuts = [(slice(i, i + rows),) for i in range(0, u.shape[n], rows)]
    out = np.empty(u.shape[n:])
    for at in cuts:
        slab = u[(slice(None),) * n + at]
        value = _walk_slab(slab, ivs, lam, steps, cache)
        if value is None:
            value = _fold_and_cone(slab, n, steps, True, lambda v, k, ghosts, point:
                                   _advance_diag(v, ivs, lam, k, ghosts, point))
        out[at] = value
    return out


def _fold_and_cone(u: np.ndarray, n: int, steps: int, axis_folds: bool, advance):
    """u(1, 0) over the later axes of a solve whose first n axes diffuse,
    from the initial data u: even data of a whole problem (no passive axis)
    larger than _CONE_CELLS is folded (see _fold), and advance(view, k,
    ghosts, point) steps the dependence cone (see _advance_cone).

    X and -X have the same G-normal law, so the solution of even data stays
    even. A box is also unchanged by flipping any one axis, so with
    `axis_folds` every axis along which u is even is folded; failing all,
    the point reflection x -> -x, under which a hull is unchanged as well.
    The nodes are h k, antisymmetric bit for bit (see GridSpec.axis), so
    evenness is one _compare of u with its np.flip, by value. On even data
    g is exactly odd and d exactly even (a - b is exactly -(b - a), and x +
    y is y + x), so the unfolded scheme keeps even data even bit for bit,
    and every fold returns the unfolded bits. Below _CONE_CELLS a step
    costs mostly dispatch, and a fold would only add the ghost copy. A slab
    with passive axes is never folded: most sweeps are walks, and no
    stepped sweep slab of the default catalog, the h = 0.25 golden run or
    the benchmark's gnormal and sequential pools (seeds 0-5) was even along
    any axis."""
    fold = u.ndim == n and u.size > _CONE_CELLS
    ghosts = [a for a in range(n)
              if fold and axis_folds and _compare(np.flip(u, a), u) == 0]
    point = fold and not ghosts and _compare(np.flip(u), u) == 0
    if point:
        ghosts = [0]
    u, centre = _fold(u, ghosts)
    return _advance_cone(np.ascontiguousarray(u), centre[:n], steps,
                         lambda v, k: advance(v, k, ghosts, point))


def _walk_slab(slab: np.ndarray, ivs, lam: float, steps: int, cache: dict):
    """u(1, 0) of a slab whose first len(ivs) axes diffuse (none constant)
    and whose later axes are passive rows, when every row is convex or
    concave along each diffusing axis; None when a row is mixed along one.
    A box problem is one row; the module docstring derives the walk.

    A row's sign along an axis is _curvature's, all its lines along the
    axis taken as one. The rows of each sign pattern present are contracted
    at that pattern's rates r_a. The slab is folded once into mirrored node
    pairs along its diffusing axes (see _mirror_pairs), and an axis at r_a
    = 0 (sigma_low^2 = 0 where concave) keeps its centre plane, plane 0 of
    the pairs. With one axis left, the value is one dot product per row
    with the pairs, w_0 f_c + sum_m w_m (f_c+m + f_c-m), w the last row of
    the walk; with more, a mixture of the walks at rho = sum r_a (see
    _mixture), row by row. Each walk is kept in `cache` (see _cached_walk).
    """
    n = len(ivs)
    lines = slab.reshape(slab.shape[:n] + (-1,))
    signs = []
    for a in range(n):
        convex = _curvature(lines.swapaxes(0, a))
        if convex is None:
            return None
        signs.append(convex)
    pairs = _mirror_pairs(lines, n)
    out = np.empty(lines.shape[-1])
    for pattern in itertools.product((True, False), repeat=n):
        chosen = functools.reduce(np.logical_and, [s if p else ~s for s, p in zip(signs, pattern)])
        if not chosen.any():
            continue
        rates = [lam * (0.5 * (iv.sigma_high_sq if p else iv.sigma_low_sq))
                 for iv, p in zip(ivs, pattern)]
        # an axis at r_a = 0 keeps its centre plane, plane 0 of the pairs
        f = pairs[tuple(slice(None) if r > 0.0 else 0 for r in rates)]
        lengths = [m for m, r in zip(lines.shape, rates) if r > 0.0]
        rates = [r for r in rates if r > 0.0]
        if len(rates) == 1:
            w = _cached_walk(cache, lengths[0], rates[0], steps, steps)[0]
            f = w[0] * f[0] + (w[1:, None] * f[1:]).sum(axis=0)
        elif rates:
            # the counts of steps each axis takes that carry weight: its own
            # counts of the multinomial, whose marginals are binomial
            windows = np.array([_binomial(steps, r, sum(rates[:a] + rates[a + 1:]))[0][[0, -1]]
                                for a, r in enumerate(rates)])
            # axes of one length share a walk, over all their windows: rho
            # is the same for every axis
            lengths, walks = np.array(lengths), []
            for m in lengths:
                lo, hi = windows[lengths == m, 0].min(), windows[lengths == m, 1].max()
                walks.append((lo, _cached_walk(cache, m, sum(rates), lo, hi)))
            f = np.array([_mixture(f[..., j], walks, rates, steps) for j in range(f.shape[-1])])
        out[chosen] = (f + 0.0)[chosen]  # + 0.0 clears -0.0 as a step would
    return out.reshape(slab.shape[n:])


def _curvature(lines: np.ndarray):
    """Per row (along the last axis of `lines`), whether its lines along
    axis 0, over the axes between, are convex (True, linear lines included)
    or concave (False) as one; None when a row is mixed.

    A line is convex or concave when its second differences all have one
    sign, within 1e-12 (1 + max |line|): a linear piece of (x - K)^+ has
    second differences of +-1 ulp of its values. A row whose lines pass
    both tests is concave when it has a negative second difference and no
    positive one, else convex."""
    g = lines[1:] - lines[:-1]
    d = g[1:] - g[:-1]
    # max |line| from its max and min: no array of |lines| to allocate
    tol = 1e-12 * (1.0 + np.maximum(lines.max(axis=0), -lines.min(axis=0)))
    d_min, d_max = d.min(axis=0), d.max(axis=0)
    convex, concave = d_min >= -tol, d_max <= tol
    across = tuple(range(convex.ndim - 1))
    if across:
        convex, concave = convex.all(axis=across), concave.all(axis=across)
        d_min, d_max = d_min.min(axis=across), d_max.max(axis=across)
    if not np.all(convex | concave):
        return None
    # a concave line whose curvature is below the tolerance is still concave
    return convex & ((d_max > 0.0) | (d_min >= 0.0))


def _walk(n: int, coeff: float, first: int, last: int) -> np.ndarray:
    """The rows e_c S^k, k = first, ..., last, of the linear scheme S at
    coefficient coeff on n nodes, end faces held fixed, from the centre
    node c on (each row is symmetric about c): the centre row of k steps,
    found by stepping the adjoint vector from c."""
    c = n // 2
    w = np.zeros(n)
    w[c] = 1.0
    rows = np.empty((last - first + 1, n - c))
    # q[i + 1] = coeff w[i] on the interior; the faces and the two pads are 0
    q, g, d = np.zeros(n + 2), np.empty(n + 1), np.empty(n)
    for k in range(last):
        if k >= first:
            rows[k - first] = w[c:]
        np.multiply(w[1:-1], coeff, out=q[2:-2])
        np.subtract(q[1:], q[:-1], out=g)
        np.subtract(g[1:], g[:-1], out=d)
        w += d
    rows[-1] = w[c:]
    return rows


def _cached_walk(cache: dict, n: int, coeff: float, first: int, last: int) -> np.ndarray:
    """_walk(n, coeff, first, last), kept read-only in `cache` under
    ("walk", n, coeff, first, last): the run memo, or the problem's own
    dict."""
    key = ("walk", n, coeff, first, last)
    if key not in cache:
        cache[key] = _walk(n, coeff, first, last)
        cache[key].setflags(write=False)
    return cache[key]


def _mirror_pairs(f: np.ndarray, k: int) -> np.ndarray:
    """f folded about its centre node along each of its first k >= 1 axes,
    as a C-ordered array: plane 0 is the centre plane and plane m the sum of
    the planes m nodes either side; later axes (the passive rows) are kept.
    a + b is b + a, so every flip of f folds to the same bits, and data odd
    along an axis, or under the point reflection, folds to exact zeros. Each
    fold is written into a new C-ordered array, so the walk's sums over the
    pairs do not depend on the strides of f."""
    for a in range(k):
        c = f.shape[a] // 2
        pairs = np.empty(f.shape[:a] + (c + 1,) + f.shape[a + 1:])
        v, p = f.swapaxes(0, a), pairs.swapaxes(0, a)
        p[0] = v[c]
        np.add(v[c + 1:], v[c - 1::-1], out=p[1:])
        f = pairs
    return f


def _binomial(steps: int, r: float, rest: float) -> tuple:
    """(k, weights): the counts k of Binomial(steps, r / (r + rest)), r and
    rest > 0, whose weight exceeds 1e-20 of the largest, and their weights
    scaled to sum to 1. The weights are products of the ratios of
    neighbouring weights, outward from the mode, so no factorial is formed.
    A walk keeps only the rows of these counts: 189 of 626 at steps = 625
    and r / (r + rest) = 0.2."""
    k = np.arange(steps + 1)
    mode = min(int((steps + 1) * (r / (r + rest))), steps)
    up = np.cumprod((steps - k[mode:-1]) / (k[mode:-1] + 1) * (r / rest))
    down = np.cumprod(k[mode:0:-1] / (steps - k[mode:0:-1] + 1) * (rest / r))
    beta = np.concatenate([down[::-1], [1.0], up])
    keep = beta > 1e-20 * beta.max()
    return k[keep], beta[keep] / beta[keep].sum()


def _mixture(f: np.ndarray, walks, rates, steps: int) -> float:
    """e_c S^steps f for S = sum_a alpha_a P_a, alpha_a = rates[a] / rho and
    P_a the 1D scheme at rho along axis a of the folded data f: the sum over
    the counts k of steps per axis of Multinomial(steps, alpha)(k) times f
    contracted with row k_a of each axis' walk. walks[a] is (lo, rows), the
    half rows (from the centre node) of counts lo, lo + 1, ... of axis a.

    Axis 0's count k is binomial; f is contracted with its row k a block of
    counts at a time (at most _SLAB_CELLS cells), then the other axes take
    the remaining steps - k: the last axis all of them, else the same
    mixture over the later axes. Counts outside an axis' walked rows carry
    no weight and are skipped."""
    (lo, rows), rest = walks[0], walks[1:]
    ks, beta = _binomial(steps, rates[0], sum(rates[1:]))
    keep = (ks >= lo) & (ks < lo + len(rows))
    if len(rest) == 1:
        last_lo, last = rest[0]
        keep &= (steps - ks >= last_lo) & (steps - ks < last_lo + len(last))
    ks, beta = ks[keep], beta[keep]
    flat = f.reshape(len(f), -1)
    block = max(1, _SLAB_CELLS // flat.size)
    values = np.empty(len(ks))
    for i in range(0, len(ks), block):
        k = ks[i:i + block]
        part = (rows[k - lo, :, None] * flat).sum(axis=1)
        if len(rest) == 1:
            values[i:i + block] = (part * last[steps - k - last_lo]).sum(axis=1)
        else:
            values[i:i + block] = [_mixture(p.reshape(f.shape[1:]), rest, rates[1:], steps - j)
                                   for p, j in zip(part, k)]
    return (beta * values).sum()


def diffuse_last_axis(u0: np.ndarray, iv: UncertaintyInterval, h: float) -> tuple:
    """Diffuse a tabulated array along its last axis only, up to time 1
    (nested recursion step), at the time step _steps derives for iv.
    Returns (the result at the centre node of that axis, an array over the
    other axes; dt used; steps taken). The swept axis must have a centre
    node, as every grid axis does: an axis of even length is refused, as
    are a 0-d input and data that is not finite.
    """
    if np.ndim(u0) == 0:
        raise GExpectError("diffuse_last_axis needs an array with an axis to sweep, got 0-d")
    if u0.shape[-1] % 2 == 0:
        raise GExpectError(f"the swept axis has {u0.shape[-1]} nodes, an even number, "
                           "so no centre node to read the result at")
    steps = _steps(h, iv.sigma_high_sq)
    dt = 1.0 / steps
    # the one copy puts the swept axis first, so cone views are contiguous
    # blocks and the slabs cut the next axis
    u = np.array(np.moveaxis(u0, -1, 0), dtype=float, order="C")
    if not np.all(np.isfinite(u)):
        raise GExpectError("the data to diffuse holds non-finite values")
    return _diag_centre(u, [iv], dt / (h * h), steps), dt, steps


def _eval_initial(phi: TestFunction, grid: GridSpec) -> np.ndarray:
    """phi on the grid's nodes, as one C-ordered array (stepped in place).

    phi gets an open mesh, one array per axis of length 1 along the others,
    so a part of phi that depends on fewer coordinates (a pullback's partial
    sums) is formed on a smaller array. The meshes are read-only, since each
    entry stands for a whole plane of nodes. phi runs on one slab of at most
    _SLAB_CELLS cells along axis 0 at a time, written straight into the
    result, so its temporaries stay in L2 cache; its ops are elementwise, so
    the values are the same bits as on the full mesh.
    """
    mesh = np.meshgrid(*(grid.axis(i) for i in range(grid.dims)), indexing="ij", sparse=True)
    for m in mesh:
        m.setflags(write=False)
    u0 = np.empty(tuple(m.size for m in mesh))
    rows = max(1, _SLAB_CELLS // (u0.size // u0.shape[0]))
    for i in range(0, u0.shape[0], rows):
        slab = u0[i:i + rows]
        # a phi that overflows is refused just below, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(phi(mesh[0][i:i + rows], *mesh[1:]), dtype=float)
        try:  # a phi that ignores its arguments may return a scalar
            slab[...] = np.broadcast_to(values, slab.shape)
        except ValueError:
            raise GExpectError(f"phi returned shape {values.shape}, which does not broadcast to "
                               f"the grid {u0.shape} (its slab {slab.shape})") from None
        if not np.all(np.isfinite(slab)):
            raise GExpectError("initial data evaluates to non-finite values on the grid")
    _check_growth(phi, mesh, u0)
    return u0


def _check_growth(phi: TestFunction, mesh, u0: np.ndarray):
    """Refuse phi when its values on an end face of the grid break its
    declared growth bound against the centre node y = 0, |phi(x) - phi(0)|
    <= C (1 + |x|^m) |x| for m >= 1: the tail bound relies on that growth
    out to the half widths, past the radius that the spot check samples."""
    centre = u0[tuple(n // 2 for n in u0.shape)]
    for a in range(u0.ndim):
        # at a huge h the radius or the difference may overflow to inf,
        # without numpy's warnings; an infinite bound is never broken
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.sqrt(sum(np.take(m, [0, -1], axis=a) ** 2 for m in mesh))
            diff = np.abs(np.take(u0, [0, -1], axis=a) - centre)
        if np.any(phi.breaks_growth(diff, r, 0.0, r)):
            raise GExpectError(f"{phi.name or 'phi'} breaks its declared growth bound (order "
                               f"{phi.growth_order}, constant {phi.growth_const:g}) on the grid's "
                               f"end faces along axis {a}; declare a larger order or constant")


def refinement_delta(u_h: float, u_2h: float, u_4h: float) -> tuple:
    """(value, grid term) from the solves at h, 2h and 4h.

    With d1 = u_h - u_2h and d2 = u_2h - u_4h, the observed order is
    p = log2(d2 / d1). When p is within _ORDER_BAND of 2 the error behaves
    as C h^2 and the value is the extrapolated (4 u_h - u_2h) / 3, with |d1|
    as its grid term; otherwise the value is u_h with max(|d1|, |d2|).
    This is the three-grid check of Roache's grid convergence index.
    """
    d1, d2 = u_h - u_2h, u_2h - u_4h
    if d1 * d2 > 0.0 and abs(math.log2(d2 / d1) - 2.0) <= _ORDER_BAND:
        return (4.0 * u_h - u_2h) / 3.0, abs(d1)
    return u_h, max(abs(d1), abs(d2))


def _solve(phi: TestFunction, cfg: SolverConfig, sig_sqs, centre,
           cfl_denominator: float | None = None, method: str = "pde") -> ExpectationResult:
    """Solve skeleton of box, hull and nested solves: phi(0) when every
    variance is zero, else the grids at h, 2h and 4h, all built (and so
    checked) before phi is evaluated, then on each in turn the initial data
    and centre(u, grid) -> (u(1, 0), steps taken); refinement_delta judges
    the three values. The steps are those of the h grid."""
    if max(sig_sqs) == 0.0:
        return ExpectationResult(float(phi(*np.zeros(phi.arity))), 0.0, 0.0, 0, method)
    grid = build_grid(sig_sqs, phi, cfg, cfl_denominator)
    grids = [grid] + [build_grid(sig_sqs, phi, cfg, cfl_denominator, k * grid.h)
                      for k in (2.0, 4.0)]
    solved = [centre(_eval_initial(phi, g), g) for g in grids]
    value, grid_term = refinement_delta(*(float(u) for u, _ in solved))
    return ExpectationResult(value, grid.tail_bound, grid_term, solved[0][1], method)


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
        lambda u, g: (_diag_centre(u, box.intervals, g.lam, g.steps), g.steps),
    )


def _advance_hull(u: np.ndarray, gens, lam: float, steps: int, point: bool = False):
    """Advance the 2D array u in place by `steps` explicit steps, at lam =
    dt / h^2, of the flux max over the hull generators (upwinded 9-point
    cross stencil); boundary nodes stay fixed. Stepped flat as _advance_diag
    is: each op is one slice of the interior rows, whose flux on the second
    axis' end faces is junk, overwritten with -0.0, so the faces keep their
    bits. The cross term sums two cell differences M[f] = gy[f + n1] -
    gy[f] of gy[f] = u[f + 1] - u[f], formed once per step for every
    generator. With `point`, row 0 is the ghost of a point fold,
    overwritten from row 2 reversed before every step."""
    buf = np.ascontiguousarray(u)
    flat = buf.reshape(-1)
    size, n1 = flat.size, buf.shape[1]
    o = n1 + 1  # node (1, 1); the stepped slice is [o, size - o)

    def at(a, shift=0):
        # the stepped slice of a flat buffer, each node moved by `shift` nodes
        return a[o + shift:size - o + shift]

    m = size - 2 * o  # nodes in the stepped slice

    def work():
        # a buffer of the stepped slice's length, aligned as _aligned says
        return _aligned(np.empty(m + 7), m)

    # g holds gx[f] = u[f + n1] - u[f] on [0, size - o), then gy[f] =
    # u[f + 1] - u[f] on [0, size - 1), then each generator's product with
    # dyy or with plus|minus; mixed holds M[f] = gy[f + n1] - gy[f] on
    # [0, size - o), then the flux of each generator after the first
    g, mixed = (_aligned(np.empty(size + 7), size) for _ in range(2))
    dxx, dyy = work(), work()
    best_all = _aligned(np.empty(size + 7), size, o)
    c, best, flux, cross = at(flat), at(best_all), mixed[:m], g[:m]
    faces = _faces(best_all.reshape(buf.shape), 1)
    # plus = M[f] + M[f - n1 - 1] serves generators with b01 >= 0, minus =
    # M[f - 1] + M[f - n1] those with b01 < 0; both are 2 h^2 u_xy + O(h^4)
    plus = work() if any(b[0, 1] >= 0 for b in gens) else None
    minus = work() if any(b[0, 1] < 0 for b in gens) else None
    coeffs = [(lam * (0.5 * b[0, 0]), lam * (0.5 * b[1, 1]), lam * (0.5 * b[0, 1]),
               plus if b[0, 1] >= 0 else minus) for b in gens]
    ops = [(flat[n1:size - 1], flat[:size - o], g[:size - o]), (at(g), at(g, -n1), dxx),
           (flat[1:], flat[:size - 1], g[:size - 1]), (at(g), at(g, -1), dyy),
           (g[n1:size - 1], g[:size - o], mixed[:size - o])]
    sums = [(at(mixed), at(mixed, -o), plus), (at(mixed, -1), at(mixed, -n1), minus)]
    sums = [s for s in sums if s[2] is not None]
    pairs = _ghost_pairs(buf, [0] if point else [], point)
    for _ in range(steps):
        for ghost, src in pairs:
            ghost[...] = src
        for hi, lo, out in ops:
            np.subtract(hi, lo, out=out)
        for a, b, out in sums:
            np.add(a, b, out=out)
        for k, (c00, c11, c01, pm) in enumerate(coeffs):
            out = flux if k else best
            # (c00 dxx + c11 dyy) + c01 (plus|minus), in this op order
            np.multiply(dxx, c00, out=out)
            np.multiply(dyy, c11, out=cross)
            out += cross
            np.multiply(pm, c01, out=cross)
            out += cross
            if k:
                np.maximum(best, flux, out=best)
        faces[...] = -0.0
        c += best
    if buf is not u:
        u[...] = buf


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
        lambda u, g: (_fold_and_cone(u, 2, g.steps, False, lambda v, k, ghosts, point:
                                     _advance_hull(v, gens, g.lam, k, point)), g.steps),
        # each generator's 9-point stencil has off-centre coefficients
        # summing to lam (b00 + b11 - |b01|), each >= 0 by dominance
        cfl_denominator=max(b[0, 0] + b[1, 1] - abs(b[0, 1]) for b in gens),
    )
