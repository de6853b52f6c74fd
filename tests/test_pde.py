import math
from types import SimpleNamespace

import numpy as np
import pytest

from gexpect import pde
from gexpect.errors import CFLViolation, DimensionMismatch, GExpectError
from gexpect.expectation import GNormal, expect, expect_sequential
from gexpect.gamma import ConvexHull, DiagonalBox, UncertaintyInterval
from gexpect.pde import (GridSpec, SolverConfig, build_grid, diffuse_last_axis,
                         solve_gheat_diag, solve_gheat_hull)
from gexpect.testfuncs import (ABS, IDENTITY, NEG_SQUARE, QUARTIC, SQUARE,
                               XY, XY_SQUARED, YX_SQUARED, TestFunction)

IV = UncertaintyInterval(1.0, 4.0)
BOX_1D = DiagonalBox((IV,))
FAST = SolverConfig(h=0.2, refine=False)


class TestGridSpec:
    def test_axis_centered_at_zero(self):
        g = GridSpec(half_width=(2.0,), h=0.25, dims=1, dt=0.01)
        ax = g.axis(0)
        assert ax.size == 17
        assert ax[(ax.size - 1) // 2] == 0.0

    def test_half_width_multiple_of_h(self):
        with pytest.raises(ValueError, match="multiple"):
            GridSpec(half_width=(2.1,), h=0.25, dims=1, dt=0.01)
        with pytest.raises(ValueError, match="multiple"):
            # fewer than 8 cells per side
            GridSpec(half_width=(1.0,), h=0.25, dims=1, dt=0.01)

    def test_steps_cover_horizon(self):
        g = GridSpec(half_width=(2.0,), h=0.25, dims=1, dt=0.3)
        assert g.steps == 4

    def test_steps_of_a_derived_dt_reach_time_one(self):
        # 1 / (1 / s) exceeds s by more than 1e-12 for these s; s + 1 steps
        # of 1 / s would overshoot time 1 (a 1D x^2 solve at h = 0.020661
        # would return 4.00017 for 4)
        for s in (23294, 23427, 10**6):
            assert pde._step_count(1.0 / s) == s
        g = build_grid([4.0], SQUARE, SolverConfig(h=0.020661, half_width=8.0))
        assert g.steps * g.dt == pytest.approx(1.0, rel=1e-12)


BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0]


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", ["h", "half_width", "dt", "target_tol"])
def test_solver_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", ["h", "dt", "half_width"])
def test_grid_spec_rejects_non_finite(name, bad):
    kwargs = dict(half_width=(2.0,), h=0.25, dims=1, dt=0.01)
    kwargs[name] = (bad,) if name == "half_width" else bad
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(h=math.nan), dict(h=0.0), dict(h=math.inf),
                                    dict(dt=0.0), dict(dt=math.nan)])
def test_diffuse_last_axis_rejects_bad_settings(kwargs):
    args = dict(h=0.2, dt=None) | kwargs
    with pytest.raises(ValueError, match="finite and positive"):
        diffuse_last_axis(np.zeros((3, 21)), IV, **args)


class TestBuildGrid:
    def test_domain_covers_tails(self):
        g = build_grid([4.0], SQUARE, SolverConfig())
        assert g.half_width[0] >= 8.0 * 2.0  # 8 sigma_high
        assert g.dt <= 0.4 * g.h * g.h / 4.0 + 1e-15

    def test_overrides_respected(self):
        g = build_grid([4.0], SQUARE, SolverConfig(h=0.5, half_width=20.0))
        assert g.h == 0.5
        assert g.half_width == (20.0, 20.0) or g.half_width == (20.0,)

    def test_zero_variance_rejected(self):
        with pytest.raises(GExpectError):
            build_grid([0.0], SQUARE, SolverConfig())


class TestSolve1D:
    def test_upper_and_lower_variance(self):
        up = solve_gheat_diag(BOX_1D, SQUARE, cfg=FAST)
        lo = solve_gheat_diag(BOX_1D, NEG_SQUARE, cfg=FAST)
        assert up.value == pytest.approx(4.0, rel=1e-6)
        assert -lo.value == pytest.approx(1.0, rel=1e-6)

    def test_linear_data_is_invariant(self):
        rep = solve_gheat_diag(BOX_1D, IDENTITY, cfg=FAST)
        assert abs(rep.value) < 1e-12

    def test_quartic_moment(self):
        rep = solve_gheat_diag(BOX_1D, QUARTIC, cfg=SolverConfig(refine=False))
        assert rep.value == pytest.approx(48.0, rel=2e-3)

    def test_shifted_start_and_time_scaling(self):
        # u(t, x0) = E^[(x0 + X)^2] over the t-scaled box = x0^2 + t sigma_high^2
        shifted = TestFunction(lambda x: (x + 1.6) ** 2, arity=1, growth_order=1,
                               growth_const=4.0, name="(x+1.6)^2")
        res = expect(GNormal(DiagonalBox((IV.scaled(0.5),))), shifted, FAST)
        assert res.value == pytest.approx(1.6**2 + 0.5 * 4.0, rel=1e-5)

    def test_refinement_delta_reported(self):
        rep = solve_gheat_diag(BOX_1D, ABS, cfg=SolverConfig(h=0.2))
        assert rep.refinement_delta is not None
        assert rep.refinement_delta < 0.05


class TestSolveDiag:
    def test_separable_sum(self):
        box = DiagonalBox((IV, IV.scaled(2.0)))
        phi = TestFunction(lambda x, y: x**2 + y**2, arity=2, growth_order=1,
                           growth_const=8.0, tags={"convex"}, name="")
        rep = solve_gheat_diag(box, phi, cfg=FAST)
        assert rep.value == pytest.approx(4.0 + 8.0, rel=1e-6)

    def test_dimension_cap(self):
        box = DiagonalBox((IV,) * 4)
        phi = TestFunction(lambda *c: sum(c), arity=4, growth_order=1,
                           growth_const=4.0, name="")
        with pytest.raises(DimensionMismatch):
            solve_gheat_diag(box, phi, cfg=FAST)

    def test_arity_check(self):
        with pytest.raises(DimensionMismatch):
            solve_gheat_diag(DiagonalBox((IV, IV)), SQUARE, cfg=FAST)


def _one_step(u, h, dt):
    out = u.copy()
    pde._advance_diag(out, [IV], h, dt, 1)
    return out


class TestStepDiag:
    def test_cfl_violation_raises(self):
        with pytest.raises(CFLViolation):
            pde._advance_diag(np.zeros(17), [IV], 0.1, 1.0, 1)

    def test_monotone_and_constant_preserving(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(33)
        v = u + rng.uniform(0.0, 1.0, 33)
        h, dt = 0.2, 0.4 * 0.2**2 / 4.0
        su, sv = _one_step(u, h, dt), _one_step(v, h, dt)
        assert np.all(sv >= su - 1e-12)
        const = _one_step(np.full(33, 7.0), h, dt)
        assert np.allclose(const, 7.0)


def test_diffuse_last_axis_matches_full_solve():
    # batched 1D diffusion of x*y^2 along y, sliced at x rows, equals
    # per-row 1D solves of the scaled quadratic
    g = build_grid([4.0], SQUARE, SolverConfig(h=0.2))
    x = np.array([-1.0, 0.5, 2.0])
    u0 = x[:, None] * g.axis(0)[None, :] ** 2
    out, _, steps = diffuse_last_axis(u0, IV, g.h)
    # E[x Y^2] = 4x for x > 0, -(-x) E[-Y^2] -> 1x for x < 0
    assert out == pytest.approx([-1.0, 2.0, 8.0], rel=1e-6)
    assert steps >= 1


class TestSolveHull:
    def test_singleton_cross_term(self):
        hull = ConvexHull((np.array([[2.0, 1.0], [1.0, 2.0]]),))
        rep = solve_gheat_hull(hull, XY, cfg=SolverConfig(h=0.25, refine=False))
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_matches_diag_on_diagonal_generators(self):
        hull = ConvexHull(tuple(np.diag([a, b]) for a in (1.0, 4.0) for b in (1.0, 4.0)))
        rh = solve_gheat_hull(hull, XY_SQUARED, cfg=SolverConfig(h=0.25, refine=False))
        rd = solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED,
                              cfg=SolverConfig(h=0.25, refine=False))
        assert rh.value == pytest.approx(rd.value, abs=1e-9)

    def test_rejects_non_dominant_generator(self):
        hull = ConvexHull((np.array([[1.0, 2.0], [2.0, 5.0]]),))
        with pytest.raises(GExpectError, match="diagonally dominant"):
            solve_gheat_hull(hull, XY, cfg=FAST)

    def test_2d_only(self):
        hull = ConvexHull((np.eye(3),))
        with pytest.raises(DimensionMismatch):
            solve_gheat_hull(hull, XY, cfg=FAST)


def test_tail_bound_is_small_on_sized_grids():
    # the derived half width keeps the tail bound below target_tol / 10;
    # a user-set L that truncates 1.5 sigma out gets an honest, larger term
    cfg = SolverConfig(h=0.2, refine=False)
    sized = solve_gheat_diag(BOX_1D, ABS, cfg=cfg)
    assert 0.0 < sized.tail_bound <= 0.1 * cfg.target_tol
    narrow = solve_gheat_diag(BOX_1D, ABS, cfg=SolverConfig(h=0.2, half_width=3.0,
                                                                 refine=False))
    # 2 (1 + (1 + L)) exp(-k^2 / 2) at L = 3, k = L / sigma_high = 1.5
    assert narrow.tail_bound == pytest.approx(10.0 * math.exp(-1.125))
    assert abs(narrow.value - 2.0 * math.sqrt(2.0 / math.pi)) <= narrow.tail_bound


def test_tail_bound_sums_over_axes():
    box = DiagonalBox((IV, IV.scaled(2.0)))
    cfg = SolverConfig(h=0.25, half_width=4.0, refine=False)
    grid = build_grid([4.0, 8.0], XY, cfg)
    want = sum(4.0 * (1.0 + 5.0) * math.exp(-0.5 * (4.0 / s) ** 2)
               for s in (2.0, math.sqrt(8.0)))
    assert grid.tail_bound == pytest.approx(want)
    assert solve_gheat_diag(box, XY, cfg=cfg).tail_bound == grid.tail_bound


@pytest.mark.parametrize("h", [1e-4, 1e-300, 5e-324])
def test_build_grid_refuses_oversized_grids(h):
    with pytest.raises(GExpectError, match="budget"):
        build_grid([4.0], SQUARE, SolverConfig(h=h))


# ---------------------------------------------------------------------------
# the in-place kernels against the allocating form of the scheme, written out
# term by term: fresh zero increments, np.where selection, temporaries


def _ref_second_diff(u, axis):
    d = np.zeros_like(u)
    mid = [slice(None)] * u.ndim
    lo, hi = list(mid), list(mid)
    mid[axis], lo[axis], hi[axis] = slice(1, -1), slice(None, -2), slice(2, None)
    d[tuple(mid)] = u[tuple(hi)] - 2.0 * u[tuple(mid)] + u[tuple(lo)]
    return d


def _ref_run_diag(u0, ivs, h, dt, steps, axes):
    lam = dt / (h * h)
    u = np.array(u0, dtype=float)
    for _ in range(steps):
        incr = np.zeros_like(u)
        for iv, ax in zip(ivs, axes):
            d = _ref_second_diff(u, ax)
            incr += np.where(d > 0.0, 0.5 * iv.sigma_high_sq * d, 0.5 * iv.sigma_low_sq * d)
        incr *= lam
        u += incr
    return u


def _ref_hull_fluxes(u, gens, h):
    c = u[1:-1, 1:-1]
    dxx = u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]
    dyy = u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]
    plus = u[2:, 2:] + u[:-2, :-2] + 2.0 * c - u[2:, 1:-1] - u[:-2, 1:-1] - u[1:-1, 2:] - u[1:-1, :-2]
    minus = u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 2.0 * c - u[2:, :-2] - u[:-2, 2:]
    best = None
    for b in gens:
        b12 = b[0, 1]
        cross = b12 * (plus if b12 >= 0 else minus)
        flux = 0.5 * (b[0, 0] * dxx + b[1, 1] * dyy) + 0.5 * cross
        best = flux if best is None else np.maximum(best, flux)
    return best / (h * h)


def _ref_run_hull(u0, gens, h, dt, steps):
    u = np.array(u0, dtype=float)
    for _ in range(steps):
        u[1:-1, 1:-1] += dt * _ref_hull_fluxes(u, gens, h)
    return u


def _rough(shape, seed):
    # kinked data: both signs of every second difference occur; -0.0 entries
    # and a zero lower variance make zero signs part of the comparison
    rng = np.random.default_rng(seed)
    u = np.abs(rng.standard_normal(shape)).cumsum(axis=-1) * rng.choice([-1.0, 1.0], shape)
    u[rng.random(shape) < 0.2] = -0.0
    return u


def _centre_slice(u):
    # u at the centre node of its last axis, as diffuse_last_axis returns it
    return u[..., u.shape[-1] // 2]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


KERNEL_IVS = (UncertaintyInterval(0.0, 2.0), UncertaintyInterval(1.0, 4.0),
              UncertaintyInterval(0.5, 0.5))


class TestKernelEquivalence:
    @pytest.mark.parametrize("shape", [(41,), (23, 31), (6, 29), (13, 11, 17)])
    def test_box_matches_reference(self, shape):
        ivs = KERNEL_IVS[:len(shape)]
        h = 0.2
        dt = 0.4 * h * h / sum(iv.sigma_high_sq for iv in ivs)
        u0 = _rough(shape, len(shape))
        want = _ref_run_diag(u0, ivs, h, dt, 25, range(len(shape)))
        got = u0.copy()
        pde._advance_diag(got, ivs, h, dt, 25)
        assert _same_bits(got, want)

    def test_advance_diag_batch_axis(self):
        u0 = _rough((5, 19, 21), 7)
        ivs = KERNEL_IVS[:2]
        h, dt = 0.25, 0.4 * 0.25**2 / 6.0
        want = _ref_run_diag(u0, ivs, h, dt, 1, (1, 2))
        got = u0.copy()
        pde._advance_diag(np.moveaxis(got, (1, 2), (0, 1)), ivs, h, dt, 1)
        assert _same_bits(got, want)

    def test_diffuse_last_axis_transposed_input(self):
        base = _rough((17, 9, 23), 11)
        u0 = np.transpose(base, (2, 0, 1))  # F-ordered view, as _nested_value passes
        assert not u0.flags.c_contiguous
        h = 0.4  # 63 steps
        out, used_dt, steps = diffuse_last_axis(u0, IV, h)
        dt = 1.0 / math.ceil(1.0 / (0.4 * h * h / IV.sigma_high_sq) - 1e-12)
        assert used_dt == dt
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [IV], h, dt, steps, [2])))
        assert np.array_equal(u0, np.transpose(_rough((17, 9, 23), 11), (2, 0, 1)))

    # slabs: a passive leading axis is stepped pde._SLAB_CELLS cells at a time

    @staticmethod
    def _slab_data(shape, seed):
        u = _rough(shape, seed)
        u *= np.arange(1.0, shape[0] + 1.0).reshape((-1,) + (1,) * (len(shape) - 1))
        rows = max(1, pde._SLAB_CELLS // u[0].size)
        assert len(u) > rows, "input must span more than one slab"
        return u, rows

    @pytest.mark.parametrize("shape, order", [((97, 29, 47), (2, 0, 1)),  # 3 slabs, last 1 row
                                              ((250, 300), (0, 1)),  # 2 slabs, last 32 rows
                                              ((3, 260, 257), (0, 1, 2))])  # rows over budget
    def test_slabs_diffuse_last_axis(self, shape, order):
        data, _ = self._slab_data(shape, 17)
        # the same values as a transposed view of a C-ordered grid, the form
        # _nested_value passes (np.transpose(grid, order))
        u0 = np.transpose(np.ascontiguousarray(np.transpose(data, np.argsort(order))), order)
        assert np.array_equal(u0, data)
        assert u0.flags.c_contiguous == (order == tuple(range(len(shape))))
        h = 0.625  # 13 steps
        iv = KERNEL_IVS[0]
        out, used_dt, steps = diffuse_last_axis(u0, iv, h)
        dt = 1.0 / math.ceil(1.0 / (0.4 * h * h / iv.sigma_high_sq) - 1e-12)
        assert used_dt == dt
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [iv], h, dt, steps, [u0.ndim - 1])))

    def test_slabs_advance_diag_two_batch_axes(self):
        u0, rows = self._slab_data((7, 9, 31, 37), 19)  # slabs of 6 and 1 rows
        assert len(u0) % rows
        ivs = KERNEL_IVS[:2]
        h, dt = 0.25, 0.4 * 0.25**2 / 6.0
        for steps in (1, 20):
            got = u0.copy()
            pde._advance_diag(np.moveaxis(got, (2, 3), (0, 1)), ivs, h, dt, steps)
            assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, steps, (2, 3)))

    def test_hull_both_cross_signs(self):
        gens = (np.array([[2.0, 1.0], [1.0, 1.5]]), np.array([[1.0, -0.5], [-0.5, 3.0]]),
                np.diag([4.0, 1.0]))
        h = 0.2
        dt = 0.4 * h * h / max(float(np.abs(b).sum()) for b in gens)
        u0 = _rough((27, 33), 5)
        got = u0.copy()
        pde._advance_hull(got, gens, h, dt, 30)
        assert _same_bits(got, _ref_run_hull(u0, gens, h, dt, 30))


# the kernels step a C-ordered copy of their view as one flat buffer: each
# stencil op is one contiguous slice, and the flux it computes on an axis'
# end faces, where f +- s wraps into the next row, is overwritten with -0.0

HULL_GENS = (np.array([[2.0, 1.0], [1.0, 1.5]]), np.array([[1.0, -0.5], [-0.5, 3.0]]),
             np.diag([4.0, 1.0]))


def _box_dt(ivs, h):
    return 0.4 * h * h / sum(iv.sigma_high_sq for iv in ivs)


def _hull_dt(gens, h):
    return 0.4 * h * h / max(float(np.abs(b).sum()) for b in gens)


def _signed_zeros(shape, seed, kind):
    # -0.0 on both end faces of every axis and on interior nodes, in rough
    # data or in data that is -0.0 but for a few nodes
    if kind == "rough":
        u = _rough(shape, seed)
    else:
        rng = np.random.default_rng(seed)
        u = np.full(shape, -0.0)
        few = rng.random(shape) < 0.1
        u[few] = rng.standard_normal(int(few.sum()))
    for ax in range(len(shape)):
        for end in (0, -1):
            u[(slice(None),) * ax + (end,)] = -0.0
    assert np.signbit(u[0]).all() and np.signbit(u[1:-1][u[1:-1] == 0.0]).any()
    return u


class TestFlatKernels:
    @pytest.mark.parametrize("shape", [(7, 11), (11, 7), (3, 40), (5, 9, 13), (9, 4, 6),
                                       (2, 9), (1, 9), (9, 1, 5)])
    def test_box_every_axis_active(self, shape):
        # non-square grids; an axis of fewer than 3 nodes is all end faces
        ivs = KERNEL_IVS[:len(shape)]
        h = 0.2
        dt = _box_dt(ivs, h)
        u0 = _rough(shape, 41)
        got = u0.copy()
        pde._advance_diag(got, ivs, h, dt, 17)
        assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, 17, range(len(shape))))

    @pytest.mark.parametrize("axes", [(1,), (2,), (1, 2), (2, 1), (2, 0)])
    def test_first_active_axis_not_leading(self, axes):
        u0 = _rough((6, 9, 11), 43)
        ivs = KERNEL_IVS[:len(axes)]
        h = 0.25
        dt = _box_dt(ivs, h)
        got = u0.copy()
        pde._advance_diag(np.moveaxis(got, axes, range(len(axes))), ivs, h, dt, 15)
        assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, 15, axes))

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9), (3, 7), (7, 3)])
    @pytest.mark.parametrize("gens", [HULL_GENS, HULL_GENS[:1], HULL_GENS[1:2]],
                             ids=["both-signs", "plus", "minus"])
    def test_hull_non_square(self, shape, gens):
        h = 0.2
        dt = _hull_dt(gens, h)
        u0 = _rough(shape, 47)
        got = u0.copy()
        pde._advance_hull(got, gens, h, dt, 12)
        assert _same_bits(got, _ref_run_hull(u0, gens, h, dt, 12))

    @pytest.mark.parametrize("kind", ["rough", "sparse"])
    @pytest.mark.parametrize("shape, axes", [((13, 8), (0, 1)), ((5, 7, 9), (0, 1, 2)),
                                             ((5, 7, 9), (2,)), ((6, 9, 11), (1, 2))])
    def test_box_signed_zeros(self, shape, axes, kind):
        ivs = KERNEL_IVS[:len(axes)]
        h = 0.2
        dt = _box_dt(ivs, h)
        u0 = _signed_zeros(shape, 53, kind)
        for steps in (1, 9):
            got = u0.copy()
            pde._advance_diag(np.moveaxis(got, axes, range(len(axes))), ivs, h, dt, steps)
            assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, steps, axes))

    @pytest.mark.parametrize("kind", ["rough", "sparse"])
    def test_hull_signed_zeros(self, kind):
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        u0 = _signed_zeros((12, 17), 59, kind)
        got = u0.copy()
        pde._advance_hull(got, HULL_GENS, h, dt, 10)
        assert _same_bits(got, _ref_run_hull(u0, HULL_GENS, h, dt, 10))
        # the fixed faces keep their -0.0
        assert np.signbit(got[[0, -1]]).all() and np.signbit(got[:, [0, -1]]).all()


class TestViews:
    # a kernel steps the view it is given and nothing else: a random border
    # around the view keeps its bits, and so do the hull view's fixed faces

    CUTS = {"block": np.s_[3:14, 4:19], "stepped": np.s_[1:18:2, 2:24:3]}

    @staticmethod
    def _step_view(big, cut, advance):
        before = big.copy()
        inside = np.zeros(big.shape, dtype=bool)
        inside[cut] = True
        advance(big[cut])
        assert _same_bits(big[~inside], before[~inside])
        return before[cut], big[cut]

    @pytest.mark.parametrize("cut", CUTS.values(), ids=CUTS.keys())
    def test_box_view(self, cut):
        ivs = KERNEL_IVS[:2]
        h = 0.2
        dt = _box_dt(ivs, h)
        view0, got = self._step_view(_rough((20, 25), 61), cut,
                                     lambda v: pde._advance_diag(v, ivs, h, dt, 9))
        assert _same_bits(got, _ref_run_diag(view0, ivs, h, dt, 9, (0, 1)))

    def test_slabbed_view(self, monkeypatch):
        # slabs of 2 of the view's 25 rows along its passive axis 1
        monkeypatch.setattr(pde, "_SLAB_CELLS", 100)
        ivs = KERNEL_IVS[:2]
        h = 0.25
        dt = _box_dt(ivs, h)
        view0, got = self._step_view(_rough((8, 30, 12), 67), np.s_[1:7, 2:27, 3:11],
                                     lambda v: pde._advance_diag(np.moveaxis(v, (0, 2), (0, 1)),
                                                                ivs, h, dt, 11))
        assert _same_bits(got, _ref_run_diag(view0, ivs, h, dt, 11, (0, 2)))

    @pytest.mark.parametrize("cut", CUTS.values(), ids=CUTS.keys())
    def test_hull_view(self, cut):
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        view0, got = self._step_view(_rough((20, 25), 71), cut,
                                     lambda v: pde._advance_hull(v, HULL_GENS, h, dt, 9))
        assert _same_bits(got, _ref_run_hull(view0, HULL_GENS, h, dt, 9))
        for face in (np.s_[[0, -1], :], np.s_[:, [0, -1]]):
            assert _same_bits(got[face], view0[face])


# the solves step only the dependence cone of the centre node, cut along a
# swept leading axis, and drop the axes along which the data is constant; the
# centre values are the bits of the full-grid reference


def _centre(u):
    return u[tuple(n // 2 for n in u.shape)]


def _grid(h, dt, steps):
    return SimpleNamespace(h=h, dt=dt, steps=steps)


class TestCone:
    # _CONE_CELLS = 0 re-cuts the view down to radius 0; the default stops
    # re-cutting small views
    @pytest.fixture(params=[0, pde._CONE_CELLS], ids=["recut", "default"], autouse=True)
    def cone_cells(self, request, monkeypatch):
        monkeypatch.setattr(pde, "_CONE_CELLS", request.param)

    @pytest.mark.parametrize("shape", [(41,), (23, 31), (13, 11, 17)])
    @pytest.mark.parametrize("extra", [-4, 0, 5], ids=["below", "at", "above"])
    def test_box_centre(self, shape, extra):
        # steps below, equal to and above the widest half width
        ivs = KERNEL_IVS[:len(shape)]
        h = 0.2
        dt = 0.4 * h * h / sum(iv.sigma_high_sq for iv in ivs)
        steps = max(shape) // 2 + extra
        u0 = _rough(shape, len(shape))
        want = _centre(_ref_run_diag(u0, ivs, h, dt, steps, range(len(shape))))
        got = pde._diag_centre(u0.copy(), ivs, h, dt, steps)
        assert _same_bits(np.float64(got), want)

    @pytest.mark.parametrize("steps", [9, 13, 16, 22])  # half widths 13 and 16
    def test_hull_centre(self, steps):
        gens = (np.array([[2.0, 1.0], [1.0, 1.5]]), np.array([[1.0, -0.5], [-0.5, 3.0]]))
        h = 0.2
        dt = 0.4 * h * h / max(float(np.abs(b).sum()) for b in gens)
        u0 = _rough((27, 33), 5)
        got = pde._hull_centre(u0.copy(), gens, _grid(h, dt, steps))
        assert _same_bits(np.float64(got), _centre(_ref_run_hull(u0, gens, h, dt, steps)))

    @pytest.mark.parametrize("steps", [6, 10, 15])  # half width 10 along the swept axis
    def test_nested_sweep_with_passive_axes(self, steps):
        u0 = _rough((9, 5, 21), 23)
        iv = KERNEL_IVS[0]
        out, dt, taken = diffuse_last_axis(u0, iv, 1.0, 1.0 / steps)
        assert (dt, taken) == (1.0 / steps, steps)
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [iv], 1.0, dt, steps, [2])))


@pytest.mark.parametrize("axes", [(0,), (0, 2)])
def test_slabs_cut_a_non_leading_passive_axis(axes):
    # axis 1 is the first passive axis: slabs of 259 and 41 of its 300 rows
    u0 = _rough((23, 300, 11), 29)
    assert pde._SLAB_CELLS // (u0.size // 300) == 259
    ivs = KERNEL_IVS[:len(axes)]
    h = 0.25
    dt = 0.4 * h * h / sum(iv.sigma_high_sq for iv in ivs)
    got = u0.copy()
    pde._advance_diag(np.moveaxis(got, axes, range(len(axes))), ivs, h, dt, 12)
    assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, 12, axes))


def _fn(fn, arity):
    return TestFunction(fn, arity=arity, growth_order=2, growth_const=4.0, name="")


class TestConstantAxes:
    # solve_gheat_diag against the unreduced path: every axis stepped on the
    # whole grid by the full-array kernel
    @pytest.mark.parametrize("phi, box", [
        (XY_SQUARED, DiagonalBox((IV, IV.scaled(0.5)))),  # no constant axis
        (_fn(lambda x, y: x * x + 0.0 * y, 2), DiagonalBox((IV, IV.scaled(0.5)))),
        (_fn(lambda x, y: y * y + 0.0 * x, 2), DiagonalBox((IV, IV.scaled(0.5)))),
        (_fn(lambda x, y, z: np.abs(y - 0.3) + 0.0 * x * z, 3),
         DiagonalBox((IV.scaled(0.25),) * 3)),
        (_fn(lambda x, y: 3.0 + 0.0 * x * y, 2), DiagonalBox((IV, IV))),
        # -0.0 and 0.0 compare equal; the solve still returns the stepped 0.0
        (_fn(lambda x: -0.0 * x, 1), BOX_1D),
    ], ids=["xy2", "x2+0y", "y2+0x", "3d-two-constant", "constant", "signed-zero"])
    def test_box_solve_drops_constant_axes(self, phi, box):
        cfg = SolverConfig(h=0.4, refine=False)
        grid = build_grid([iv.sigma_high_sq for iv in box.intervals], phi, cfg)
        u = pde._eval_initial(phi, grid)
        pde._advance_diag(u, box.intervals, grid.h, grid.dt, grid.steps)
        rep = solve_gheat_diag(box, phi, cfg=cfg)
        assert _same_bits(np.float64(rep.value), _centre(u))
        assert rep.steps_taken == grid.steps

    def test_nested_sweep_along_a_constant_axis(self):
        u0 = np.repeat(_rough((7, 5), 31)[:, :, None], 21, axis=2)
        out, dt, steps = diffuse_last_axis(u0, IV, 0.5)
        assert steps == 40
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [IV], 0.5, dt, steps, [2])))


def test_initial_data_mesh_is_read_only():
    # the mesh is broadcast views of the grid axes: a phi writing into its
    # argument must raise, not change every node that shares the axis entry
    def shift_in_place(x, y):
        x += 1.0
        return x * y

    phi = TestFunction(shift_in_place, arity=2, growth_order=2, growth_const=4.0, name="")
    with pytest.raises(ValueError, match="read-only"):
        solve_gheat_diag(DiagonalBox((IV, IV)), phi, cfg=FAST)
    grid = GridSpec(half_width=(2.0, 3.0), h=0.25, dims=2, dt=0.01)
    u0 = pde._eval_initial(XY, grid)
    x, y = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
    assert u0.flags.c_contiguous and u0.flags.writeable
    assert _same_bits(u0, x * y)


def test_hull_with_zero_variance_returns_phi_at_x0():
    # E^[phi(x0 + X)] for phi = xy, x0 = (1.5, -2) and X = 0 is phi(x0)
    shifted = TestFunction(lambda x, y: (x + 1.5) * (y - 2.0), arity=2, growth_order=1,
                           growth_const=4.0, name="(x+1.5)(y-2)")
    rep = solve_gheat_hull(ConvexHull((np.zeros((2, 2)),)), shifted)
    assert (rep.value, rep.refinement_delta, rep.steps_taken) == (-3.0, 0.0, 0)


@pytest.mark.parametrize("refine", ["coarsen", "halve", None, 1])
def test_refine_must_be_a_bool(refine):
    with pytest.raises(ValueError, match="refine"):
        SolverConfig(refine=refine)


# mirror folds: a solve whose data is exactly even steps the half from the
# centre - 1 on, plane 0 a ghost overwritten from plane 2 before every step.
# The unfolded scheme rounds mirror images differently, so the centre values
# agree within rounding, not in bits.


def _made_even(u, axis=None):
    # a + b and b + a are the same bits, so this is exactly even
    return u + np.flip(u, axis)


def _assert_rounding_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def _xy(shape, h):
    x, y = np.meshgrid(*(h * np.arange(-(n // 2), n // 2 + 1) for n in shape), indexing="ij")
    return x * y  # even under the point reflection, odd along each axis


@pytest.fixture
def folds(monkeypatch):
    # the (ghost axes, point) of every kernel call; the shapes of the views
    seen, shapes = set(), []
    diag, hull = pde._advance_diag, pde._advance_hull

    def spy_diag(u, ivs, h, dt, steps, ghosts=(), point=False):
        seen.add((tuple(ghosts), point))
        shapes.append(u.shape)
        diag(u, ivs, h, dt, steps, ghosts, point)

    def spy_hull(u, gens, h, dt, steps, point=False):
        seen.add(((0,) if point else (), point))
        shapes.append(u.shape)
        hull(u, gens, h, dt, steps, point)

    monkeypatch.setattr(pde, "_advance_diag", spy_diag)
    monkeypatch.setattr(pde, "_advance_hull", spy_hull)
    return SimpleNamespace(seen=seen, shapes=shapes)


EXTRA = pytest.mark.parametrize("extra", [-4, 0, 5], ids=["below", "at", "above"])


class TestFolds:
    @EXTRA
    @pytest.mark.parametrize("shape, even", [((67, 71), [0]), ((69, 67), [1]),
                                             ((67, 71), [0, 1]), ((19, 17, 21), [0, 2])])
    def test_box_axis_folds(self, shape, even, extra, folds):
        # steps below, equal to and above the widest half width
        ivs = KERNEL_IVS[:len(shape)]
        h = 0.2
        dt = _box_dt(ivs, h)
        steps = max(shape) // 2 + extra
        u0 = _rough(shape, 83)
        for a in even:
            u0 = _made_even(u0, a)
        assert u0.size > pde._CONE_CELLS
        want = _centre(_ref_run_diag(u0, ivs, h, dt, steps, range(len(shape))))
        got = pde._diag_centre(u0.copy(), ivs, h, dt, steps)
        _assert_rounding_close(got, want)
        assert folds.seen == {(tuple(even), False)}

    @EXTRA
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["xy", "-xy"])
    @pytest.mark.parametrize("shape", [(67, 71), (17, 19, 21)])
    def test_box_point_fold(self, shape, sign, extra, folds):
        ivs = KERNEL_IVS[:len(shape)]
        h = 0.2
        dt = _box_dt(ivs, h)
        steps = max(shape) // 2 + extra
        cross = _xy(shape[:2], h).reshape(shape[:2] + (1,) * (len(shape) - 2))
        u0 = _made_even(_rough(shape, 89)) + sign * 5.0 * cross
        assert not any(np.array_equal(u0, np.flip(u0, a)) for a in range(len(shape)))
        want = _centre(_ref_run_diag(u0, ivs, h, dt, steps, range(len(shape))))
        got = pde._diag_centre(u0.copy(), ivs, h, dt, steps)
        _assert_rounding_close(got, want)
        assert folds.seen == {((0,), True)}

    @pytest.mark.parametrize("steps", [28, 33, 40])  # half widths 33 and 35
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["xy", "-xy"])
    @pytest.mark.parametrize("gens", [HULL_GENS, HULL_GENS[:1], HULL_GENS[1:2]],
                             ids=["both-signs", "plus", "minus"])
    def test_hull_point_fold(self, gens, sign, steps, folds):
        h = 0.2
        dt = _hull_dt(gens, h)
        u0 = _made_even(_rough((67, 71), 97)) + sign * 5.0 * _xy((67, 71), h)
        want = _centre(_ref_run_hull(u0, gens, h, dt, steps))
        got = pde._hull_centre(u0.copy(), gens, _grid(h, dt, steps))
        _assert_rounding_close(got, want)
        assert folds.seen == {((0,), True)}

    def test_hull_does_not_fold_one_axis(self, folds):
        # a hull is not invariant under one axis flip: data even along an
        # axis but not under the point reflection is stepped whole
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        u0 = _made_even(_rough((67, 71), 101), 1)
        want = _centre(_ref_run_hull(u0, HULL_GENS, h, dt, 30))
        got = pde._hull_centre(u0.copy(), HULL_GENS, _grid(h, dt, 30))
        assert _same_bits(np.float64(got), want)
        assert folds.seen == {((), False)}

    @pytest.mark.parametrize("steps", [26, 30, 35])  # half width 30 along the swept axis
    def test_nested_swept_axis_fold_in_slabs(self, steps, folds):
        # moved to the front, the swept axis leads a (61, 31, 41) array of
        # more than _SLAB_CELLS cells: slabs of 26 and 5 rows of axis 1
        u0 = _made_even(_rough((31, 41, 61), 103), 2)
        assert u0.size > pde._SLAB_CELLS
        iv = KERNEL_IVS[0]
        out, dt, _ = diffuse_last_axis(u0, iv, 1.0, 1.0 / steps)
        _assert_rounding_close(out, _centre_slice(_ref_run_diag(u0, [iv], 1.0, dt, steps, [2])))
        assert folds.seen == {((0,), False)}

    @pytest.mark.parametrize("even", [[0], [1], [0, 1], [0, 1, 2]])
    def test_nested_passive_folds_same_bits(self, even, folds):
        # the passive rows are independent: the mirrored half has the bits
        # of the unfolded sweep; a swept-axis fold (axis 2) does not
        u0 = _rough((13, 11, 41), 107)
        for a in even:
            u0 = _made_even(u0, a)
        iv = KERNEL_IVS[1]
        out, dt, steps = diffuse_last_axis(u0, iv, 0.5)
        want = _centre_slice(_ref_run_diag(u0, [iv], 0.5, dt, steps, [2]))
        if 2 in even:
            _assert_rounding_close(out, want)
        else:
            assert _same_bits(out, want)
        assert folds.seen == {((0,) if 2 in even else (), False)}
        # the passive axes, 1 and 2 once the swept axis leads, keep half the rows
        assert folds.shapes[0][1:] == tuple(n // 2 + 1 if a in even else n
                                            for a, n in enumerate(u0.shape[:2]))

    def _assert_unfolded(self, u0, kind, folds):
        # the solve of u0 by kind has the bits of the unfolded reference
        h = 0.2
        if kind == "hull":
            dt = _hull_dt(HULL_GENS, h)
            got = pde._hull_centre(u0.copy(), HULL_GENS, _grid(h, dt, 30))
            want = _centre(_ref_run_hull(u0, HULL_GENS, h, dt, 30))
        elif kind == "box":
            ivs = KERNEL_IVS[:u0.ndim]
            dt = _box_dt(ivs, h)
            got = pde._diag_centre(u0.copy(), ivs, h, dt, 30)
            want = _centre(_ref_run_diag(u0, ivs, h, dt, 30, range(u0.ndim)))
        else:
            out, dt, steps = diffuse_last_axis(u0, KERNEL_IVS[0], 1.0, 1.0 / 30)
            got, want = out, _centre_slice(_ref_run_diag(u0, [KERNEL_IVS[0]], 1.0, dt, 30,
                                                         [u0.ndim - 1]))
        assert _same_bits(np.float64(got), np.float64(want))
        assert folds.seen == {((), False)}

    @pytest.mark.parametrize("kind, shape", [("box", (67, 71)), ("box", (19, 17, 21)),
                                             ("hull", (67, 71)), ("nested", (5, 13, 67))])
    def test_one_ulp_off_even_is_not_folded(self, kind, shape, folds):
        u0 = _made_even(_rough(shape, 109))
        for a in range(len(shape)):
            u0 = _made_even(u0, a)
        u0[(1,) * len(shape)] = np.nextafter(u0[(1,) * len(shape)], np.inf)
        self._assert_unfolded(u0, kind, folds)

    @pytest.mark.parametrize("kind, shape", [("box", (61, 67)), ("box", (15, 15, 17)),
                                             ("hull", (61, 67)), ("nested", (3, 21, 65))])
    def test_small_grids_are_not_folded(self, kind, shape, folds):
        u0 = _rough(shape, 113)
        for a in range(len(shape)):
            u0 = _made_even(u0, a)
        assert u0.size <= pde._CONE_CELLS
        self._assert_unfolded(u0, kind, folds)


def test_even_length_axes_are_not_folded(folds):
    # data equal to its flip along an axis of even length is symmetric about
    # a midpoint between nodes, not about the centre node the sweep reads
    u0 = _rough((14, 12, 66), 137)
    for a in range(3):
        u0 = _made_even(u0, a)
    out, dt, steps = diffuse_last_axis(u0, KERNEL_IVS[0], 1.0, 1.0 / 40)
    assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [KERNEL_IVS[0]], 1.0, dt, steps, [2])))
    assert folds.seen == {((), False)}


class TestGhostKernels:
    # a kernel overwrites each ghost plane before every step, so what the
    # ghost holds when the kernel is called is never read

    @pytest.mark.parametrize("ghosts, point", [([0], False), ([1], False), ([0, 1], False),
                                               ([0], True)])
    def test_box_ghost_is_written_before_it_is_read(self, ghosts, point):
        ivs = KERNEL_IVS[:2]
        h = 0.2
        dt = _box_dt(ivs, h)
        u0 = _made_even(_rough((21, 25), 127)) if point else _rough((21, 25), 127)
        for a in ([] if point else ghosts):
            u0 = _made_even(u0, a)
        want = _ref_run_diag(u0, ivs, h, dt, 12, (0, 1))
        half, _ = pde._fold(u0.copy(), ghosts)
        half = np.ascontiguousarray(half)
        for a in ghosts:
            half[(slice(None),) * a + (0,)] = np.nan
        pde._advance_diag(half, ivs, h, dt, 12, ghosts, point)
        inner = tuple(slice(1, None) if a in ghosts else slice(None) for a in range(2))
        _assert_rounding_close(half[inner], pde._fold(want, ghosts)[0][inner])

    def test_hull_ghost_is_written_before_it_is_read(self):
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        u0 = _made_even(_rough((21, 25), 131)) + 5.0 * _xy((21, 25), h)
        want = _ref_run_hull(u0, HULL_GENS, h, dt, 12)
        half = np.ascontiguousarray(u0[9:])
        half[0] = np.nan
        pde._advance_hull(half, HULL_GENS, h, dt, 12, point=True)
        _assert_rounding_close(half[1:], want[10:])


def test_grid_nodes_and_odd_moments_are_exact():
    # the nodes are antisymmetric bit for bit (the centre is +0.0), so the
    # sequential odd moments E[Y2 Y1^2] and E[X1 X2] come out exactly 0.0
    g = build_grid([4.0, 1.0], XY, SolverConfig(h=0.1 * math.sqrt(4.0 / 3.0)))
    for i in range(2):
        ax = g.axis(i)
        n = ax.size // 2
        assert _same_bits(ax[:n], -ax[:n:-1]) and _same_bits(ax[n:n + 1], np.zeros(1))
    for phi in (YX_SQUARED, XY):
        value = expect_sequential((IV, IV), phi).value
        assert value == 0.0, value
