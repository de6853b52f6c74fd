import math

import numpy as np
import pytest

from gexpect import pde
from gexpect.errors import CFLViolation, DimensionMismatch, GExpectError
from gexpect.gamma import ConvexHull, DiagonalBox, UncertaintyInterval, singleton_zero
from gexpect.pde import (GridSpec, SolverConfig, build_grid, diffuse_last_axis,
                         solve_gheat_diag, solve_gheat_hull)
from gexpect.testfuncs import (ABS, IDENTITY, NEG_SQUARE, QUARTIC, SQUARE,
                               XY, XY_SQUARED, TestFunction)

IV = UncertaintyInterval(1.0, 4.0)
BOX_1D = DiagonalBox((IV,))
FAST = SolverConfig(h=0.2, refine=False)


class TestGridSpec:
    def test_axis_centered_at_zero(self):
        g = GridSpec(half_width=(2.0,), h=0.25, dims=1, time_horizon=1.0, dt=0.01)
        ax = g.axis(0)
        assert ax.size == 17
        assert ax[(ax.size - 1) // 2] == 0.0

    def test_half_width_multiple_of_h(self):
        with pytest.raises(ValueError, match="multiple"):
            GridSpec(half_width=(2.1,), h=0.25, dims=1, time_horizon=1.0, dt=0.01)
        with pytest.raises(ValueError, match="multiple"):
            # fewer than 8 cells per side
            GridSpec(half_width=(1.0,), h=0.25, dims=1, time_horizon=1.0, dt=0.01)

    def test_steps_cover_horizon(self):
        g = GridSpec(half_width=(2.0,), h=0.25, dims=1, time_horizon=1.0, dt=0.3)
        assert g.steps == 4


BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0]


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", ["h", "half_width", "dt", "target_tol"])
def test_solver_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", ["h", "dt", "half_width"])
def test_grid_spec_rejects_non_finite(name, bad):
    kwargs = dict(half_width=(2.0,), h=0.25, dims=1, time_horizon=1.0, dt=0.01)
    kwargs[name] = (bad,) if name == "half_width" else bad
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_grid_spec_rejects_bad_horizon(bad):
    with pytest.raises(ValueError, match="time_horizon"):
        GridSpec(half_width=(2.0,), h=0.25, dims=1, time_horizon=bad, dt=0.01)


@pytest.mark.parametrize("kwargs", [dict(h=math.nan), dict(h=0.0), dict(t=-1.0),
                                    dict(t=math.inf), dict(dt=math.nan)])
def test_diffuse_last_axis_rejects_bad_settings(kwargs):
    args = dict(h=0.2, t=1.0, dt=None) | kwargs
    with pytest.raises(ValueError, match="finite and positive"):
        diffuse_last_axis(np.zeros((3, 21)), IV, **args)


class TestBuildGrid:
    def test_domain_covers_tails(self):
        g = build_grid([4.0], SQUARE, 1.0, None, SolverConfig())
        assert g.half_width[0] >= 8.0 * 2.0  # 8 sigma_high
        assert g.dt <= 0.4 * g.h * g.h / 4.0 + 1e-15

    def test_overrides_respected(self):
        g = build_grid([4.0], SQUARE, 1.0, None, SolverConfig(h=0.5, half_width=20.0))
        assert g.h == 0.5
        assert g.half_width == (20.0, 20.0) or g.half_width == (20.0,)

    def test_zero_variance_rejected(self):
        with pytest.raises(GExpectError):
            build_grid([0.0], SQUARE, 1.0, None, SolverConfig())


class TestSolve1D:
    def test_upper_and_lower_variance(self):
        up = solve_gheat_diag(BOX_1D, SQUARE, 1.0, cfg=FAST)
        lo = solve_gheat_diag(BOX_1D, NEG_SQUARE, 1.0, cfg=FAST)
        assert up.value_at_origin == pytest.approx(4.0, rel=1e-6)
        assert -lo.value_at_origin == pytest.approx(1.0, rel=1e-6)

    def test_linear_data_is_invariant(self):
        rep = solve_gheat_diag(BOX_1D, IDENTITY, 1.0, cfg=FAST)
        assert abs(rep.value_at_origin) < 1e-12

    def test_quartic_moment(self):
        rep = solve_gheat_diag(BOX_1D, QUARTIC, 1.0, cfg=SolverConfig(refine=False))
        assert rep.value_at_origin == pytest.approx(48.0, rel=2e-3)

    def test_shifted_start_and_time_scaling(self):
        # u(t, x0) = E[(x0 + sqrt(t) X)^2] = x0^2 + t sigma_high^2; x0 on-grid
        rep = solve_gheat_diag(BOX_1D, SQUARE, 0.5, [1.6], cfg=FAST)
        assert rep.value_at_origin == pytest.approx(1.6**2 + 0.5 * 4.0, rel=1e-5)

    def test_t_zero_returns_initial(self):
        rep = solve_gheat_diag(BOX_1D, SQUARE, 0.0, [3.0], cfg=FAST)
        assert rep.value_at_origin == 9.0
        assert rep.steps_taken == 0

    def test_degenerate_flagged(self):
        rep = solve_gheat_diag(DiagonalBox((UncertaintyInterval(0.0, 4.0),)), SQUARE, 1.0,
                               cfg=FAST)
        assert rep.degenerate

    def test_refinement_delta_reported(self):
        rep = solve_gheat_diag(BOX_1D, ABS, 1.0, cfg=SolverConfig(h=0.2))
        assert rep.refinement_delta is not None
        assert rep.refinement_delta < 0.05


class TestSolveDiag:
    def test_separable_sum(self):
        box = DiagonalBox((IV, IV.scaled(2.0)))
        phi = TestFunction(lambda x, y: x**2 + y**2, arity=2, growth_order=1,
                           growth_const=8.0, tags={"convex"}, name="")
        rep = solve_gheat_diag(box, phi, 1.0, cfg=FAST)
        assert rep.value_at_origin == pytest.approx(4.0 + 8.0, rel=1e-6)

    def test_dimension_cap(self):
        box = DiagonalBox((IV,) * 4)
        phi = TestFunction(lambda *c: sum(c), arity=4, growth_order=1,
                           growth_const=4.0, name="")
        with pytest.raises(DimensionMismatch):
            solve_gheat_diag(box, phi, 1.0, cfg=FAST)

    def test_arity_check(self):
        with pytest.raises(DimensionMismatch):
            solve_gheat_diag(DiagonalBox((IV, IV)), SQUARE, 1.0, cfg=FAST)


def _one_step(u, h, dt):
    out = u.copy()
    pde._advance_diag(out, [IV], [0], h, dt, 1)
    return out


class TestStepDiag:
    def test_cfl_violation_raises(self):
        with pytest.raises(CFLViolation):
            pde._advance_diag(np.zeros(17), [IV], [0], 0.1, 1.0, 1)

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
    g = build_grid([4.0], SQUARE, 1.0, None, SolverConfig(h=0.2))
    x = np.array([-1.0, 0.5, 2.0])
    u0 = x[:, None] * g.axis(0)[None, :] ** 2
    out, _, steps = diffuse_last_axis(u0, IV, g.h, 1.0)
    center = (out.shape[-1] - 1) // 2
    # E[x Y^2] = 4x for x > 0, -(-x) E[-Y^2] -> 1x for x < 0
    assert out[:, center] == pytest.approx([-1.0, 2.0, 8.0], rel=1e-6)
    assert steps >= 1


class TestSolveHull:
    def test_singleton_cross_term(self):
        hull = ConvexHull((np.array([[2.0, 1.0], [1.0, 2.0]]),))
        rep = solve_gheat_hull(hull, XY, 1.0, cfg=SolverConfig(h=0.25, refine=False))
        assert rep.value_at_origin == pytest.approx(1.0, abs=1e-6)

    def test_matches_diag_on_diagonal_generators(self):
        hull = ConvexHull(tuple(np.diag([a, b]) for a in (1.0, 4.0) for b in (1.0, 4.0)))
        rh = solve_gheat_hull(hull, XY_SQUARED, 1.0, cfg=SolverConfig(h=0.25, refine=False))
        rd = solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED, 1.0,
                              cfg=SolverConfig(h=0.25, refine=False))
        assert rh.value_at_origin == pytest.approx(rd.value_at_origin, abs=1e-9)

    def test_rejects_non_dominant_generator(self):
        hull = ConvexHull((np.array([[1.0, 2.0], [2.0, 5.0]]),))
        with pytest.raises(GExpectError, match="diagonally dominant"):
            solve_gheat_hull(hull, XY, 1.0, cfg=FAST)

    def test_2d_only(self):
        hull = ConvexHull((np.eye(3),))
        with pytest.raises(DimensionMismatch):
            solve_gheat_hull(hull, XY, 1.0, cfg=FAST)


def test_tail_bound_is_small_on_sized_grids():
    # the derived half width keeps the tail bound below target_tol / 10;
    # a user-set L that truncates 1.5 sigma out gets an honest, larger term
    cfg = SolverConfig(h=0.2, refine=False)
    sized = solve_gheat_diag(BOX_1D, ABS, 1.0, cfg=cfg)
    assert 0.0 < sized.tail_bound <= 0.1 * cfg.target_tol
    narrow = solve_gheat_diag(BOX_1D, ABS, 1.0, cfg=SolverConfig(h=0.2, half_width=3.0,
                                                                 refine=False))
    # 2 (1 + (1 + L)) exp(-k^2 / 2) at L = 3, k = L / sigma_high = 1.5
    assert narrow.tail_bound == pytest.approx(10.0 * math.exp(-1.125))
    assert abs(narrow.value_at_origin - 2.0 * math.sqrt(2.0 / math.pi)) <= narrow.tail_bound


def test_tail_bound_sums_over_axes():
    box = DiagonalBox((IV, IV.scaled(2.0)))
    cfg = SolverConfig(h=0.25, half_width=4.0, refine=False)
    grid = build_grid([4.0, 8.0], XY, 1.0, None, cfg)
    want = sum(4.0 * (1.0 + 5.0) * math.exp(-0.5 * (4.0 / s) ** 2)
               for s in (2.0, math.sqrt(8.0)))
    assert grid.tail_bound == pytest.approx(want)
    assert solve_gheat_diag(box, XY, 1.0, cfg=cfg).tail_bound == grid.tail_bound


@pytest.mark.parametrize("h", [1e-4, 1e-300, 5e-324])
def test_build_grid_refuses_oversized_grids(h):
    with pytest.raises(GExpectError, match="budget"):
        build_grid([4.0], SQUARE, 1.0, None, SolverConfig(h=h))


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
        pde._advance_diag(got, ivs, range(len(shape)), h, dt, 25)
        assert _same_bits(got, want)

    def test_advance_diag_batch_axis(self):
        u0 = _rough((5, 19, 21), 7)
        ivs = KERNEL_IVS[:2]
        h, dt = 0.25, 0.4 * 0.25**2 / 6.0
        want = _ref_run_diag(u0, ivs, h, dt, 1, (1, 2))
        got = u0.copy()
        pde._advance_diag(got, ivs, (1, 2), h, dt, 1)
        assert _same_bits(got, want)

    def test_diffuse_last_axis_transposed_input(self):
        base = _rough((17, 9, 23), 11)
        u0 = np.transpose(base, (2, 0, 1))  # F-ordered view, as _nested_value passes
        assert not u0.flags.c_contiguous
        h, t = 0.2, 0.3
        out, used_dt, steps = diffuse_last_axis(u0, IV, h, t)
        dt = t / math.ceil(t / (0.4 * h * h / IV.sigma_high_sq) - 1e-12)
        assert used_dt == dt
        assert _same_bits(out, _ref_run_diag(u0, [IV], h, dt, steps, [2]))
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
        h, t = 0.2, 0.1
        iv = KERNEL_IVS[0]
        out, used_dt, steps = diffuse_last_axis(u0, iv, h, t)
        dt = t / math.ceil(t / (0.4 * h * h / iv.sigma_high_sq) - 1e-12)
        assert used_dt == dt
        assert _same_bits(out, _ref_run_diag(u0, [iv], h, dt, steps, [u0.ndim - 1]))

    def test_slabs_advance_diag_two_batch_axes(self):
        u0, rows = self._slab_data((7, 9, 31, 37), 19)  # slabs of 6 and 1 rows
        assert len(u0) % rows
        ivs = KERNEL_IVS[:2]
        h, dt = 0.25, 0.4 * 0.25**2 / 6.0
        for steps in (1, 20):
            got = u0.copy()
            pde._advance_diag(got, ivs, (2, 3), h, dt, steps)
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


def test_initial_data_mesh_is_read_only():
    # the mesh is broadcast views of the grid axes: a phi writing into its
    # argument must raise, not change every node that shares the axis entry
    def shift_in_place(x, y):
        x += 1.0
        return x * y

    phi = TestFunction(shift_in_place, arity=2, growth_order=2, growth_const=4.0, name="")
    with pytest.raises(ValueError, match="read-only"):
        solve_gheat_diag(DiagonalBox((IV, IV)), phi, 1.0, cfg=FAST)
    grid = GridSpec(half_width=(2.0, 3.0), h=0.25, dims=2, time_horizon=1.0, dt=0.01)
    u0 = pde._eval_initial(XY, grid)
    x, y = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
    assert u0.flags.c_contiguous and u0.flags.writeable
    assert _same_bits(u0, x * y)


def test_hull_with_zero_variance_returns_phi_at_x0():
    rep = solve_gheat_hull(singleton_zero(2), XY, 1.0, x0=[1.5, -2.0])
    assert (rep.value_at_origin, rep.refinement_delta, rep.steps_taken) == (-3.0, 0.0, 0)
    assert rep.degenerate


@pytest.mark.parametrize("refine", ["coarsen", "halve", None, 1])
def test_refine_must_be_a_bool(refine):
    with pytest.raises(ValueError, match="refine"):
        SolverConfig(refine=refine)
