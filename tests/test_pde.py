import itertools
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import pde
from gexpect.errors import DimensionMismatch, GExpectError
from gexpect.expectation import GNormal, LinearImage, expect, expect_sequential
from gexpect.gamma import ConvexHull, DiagonalBox, RankOneFamily, UncertaintyInterval
from gexpect.pde import (GridSpec, SolverConfig, build_grid, diffuse_last_axis,
                         solve_gheat_diag, solve_gheat_hull)
from gexpect.testfuncs import (ABS, SQUARE, XY, XY_SQUARED, YX_SQUARED, TestFunction,
                               linear_pullback)
from oracles import IDENTITY, NEG_SQUARE, QUARTIC, box_u_h

IV = UncertaintyInterval(1.0, 4.0)
BOX_1D = DiagonalBox((IV,))
FAST = SolverConfig(h=0.2)


class TestGridSpec:
    def test_axis_centered_at_zero(self):
        g = GridSpec(half_width=(2.0,), h=0.25, steps=100)
        ax = g.axis(0)
        assert ax.size == 17
        assert ax[(ax.size - 1) // 2] == 0.0

    def test_steps_of_a_derived_dt_reach_time_one(self):
        # one step more than the fewest whose step is at most the monotone
        # dt would overshoot time 1 (a 1D x^2 solve at h = 0.020661 returned
        # 4.00017 for 4 when it took one)
        g = build_grid([4.0], SQUARE, SolverConfig(h=0.020661))
        dt = 0.4 * g.h * g.h / 4.0
        assert g.steps == 23426
        assert 1.0 / g.steps <= dt < 1.0 / (g.steps - 1)


BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0]
# derived from h and the variances, never set: refused as unknown
DERIVED = ("dt", "half_width")


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("name", ["h", "half_width", "dt", "target_tol"])
def test_solver_config_rejects_non_finite(name, bad):
    with pytest.raises(TypeError if name in DERIVED else ValueError, match=name):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize("h", [1e200, 1e308, 1.4e154])
def test_solver_config_rejects_an_h_whose_square_overflows(h):
    # the time step scales with the square of the coarsest spacing solved
    with pytest.raises(ValueError, match=r"4h \* 4h overflows"):
        SolverConfig(h=h)


def test_solver_config_has_no_refine_switch():
    # every solve runs its three-grid check; h and target_tol are the knobs
    assert [f.name for f in fields(SolverConfig)] == ["h", "target_tol"]
    with pytest.raises(TypeError, match="refine"):
        SolverConfig(refine=False)


def test_refinement_refuses_an_h_whose_4h_square_overflows():
    # every solve also solves at 2h and 4h: (4h)^2 = 1.6e309 overflows, and
    # at h = 3.3e153 it is 1.74e308, just below the largest float
    with pytest.raises(ValueError, match=r"h=1e\+154 is too coarse: 4h \* 4h overflows"):
        SolverConfig(h=1e154)
    assert SolverConfig(h=3.3e153).h == 3.3e153


# 1e-200: h * h, and so the time step, underflows to 0
@pytest.mark.parametrize("kwargs", [dict(h=math.nan), dict(h=0.0), dict(h=math.inf),
                                    dict(h=1e-200), dict(h=-0.2)])
def test_diffuse_last_axis_rejects_bad_settings(kwargs):
    args = dict(h=0.2) | kwargs
    with pytest.raises(ValueError, match="finite and positive"):
        diffuse_last_axis(np.zeros((3, 21)), IV, **args)


def test_a_time_step_of_one_or_more_is_one_step():
    # h^2 / weight overflows at a subnormal variance: one step, not an error
    assert pde._steps(1e5, 1e-320) == pde._steps(10.0, 4.0) == 1
    assert pde._steps(0.2, 4.0) == 250


class TestBuildGrid:
    def test_domain_covers_tails(self):
        g = build_grid([4.0], SQUARE, SolverConfig())
        assert g.half_width[0] >= 8.0 * 2.0  # 8 sigma_high
        assert 1.0 / g.steps <= 0.4 * g.h * g.h / 4.0 + 1e-15

    def test_overrides_respected(self):
        g = build_grid([4.0], SQUARE, SolverConfig(h=0.5))
        assert g.h == 0.5
        assert g.half_width == (16.0,)  # 8 sigma_high, a whole number of cells

    def test_zero_variance_rejected(self):
        with pytest.raises(GExpectError):
            build_grid([0.0], SQUARE, SolverConfig())


    def test_a_tail_bound_that_overflows_is_refused(self):
        # (1 + L)^2 overflows at L = 20 sigma = 2e155
        with pytest.raises(GExpectError, match="tail bound overflows"):
            build_grid([1e308, 1e307], XY_SQUARED, SolverConfig())

    def test_variances_whose_sum_overflows_are_refused(self):
        with pytest.raises(GExpectError, match="weight overflows"):
            build_grid([1e308, 1e308], XY, SolverConfig())


def test_a_nested_budget_counts_its_costliest_sweep(monkeypatch):
    # on 81 x 81 nodes each sweep takes 63 steps (sigma_high^2 = 4), within
    # the budget; a box step is over the sum 8, 125 steps, which is not
    monkeypatch.setattr(pde, "_CELL_STEP_BUDGET", 81 * 81 * 100)
    cfg = SolverConfig(h=0.4)
    assert expect_sequential((IV, IV), XY_SQUARED, cfg=cfg).steps_taken == 2 * 63
    with pytest.raises(GExpectError, match="budget"):
        solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED, cfg=cfg)


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
        rep = solve_gheat_diag(BOX_1D, QUARTIC)
        assert rep.value == pytest.approx(48.0, rel=2e-3)

    def test_shifted_start_and_time_scaling(self):
        # u(t, x0) = E^[(x0 + X)^2] over the t-scaled box = x0^2 + t sigma_high^2
        shifted = TestFunction(lambda x: (x + 1.6) ** 2, arity=1, growth_order=1,
                               growth_const=4.0, name="(x+1.6)^2")
        res = expect(GNormal(DiagonalBox((IV.scaled(0.5),))), shifted, FAST)
        assert res.value == pytest.approx(1.6**2 + 0.5 * 4.0, rel=1e-5)

    def test_refinement_delta_reported(self):
        rep = solve_gheat_diag(BOX_1D, ABS, cfg=SolverConfig(h=0.2))
        assert isinstance(rep.refinement_delta, float)
        assert 0.0 < rep.refinement_delta < 0.05


@pytest.fixture
def grid_events(monkeypatch):
    # ("grid", h) for each grid built and ("phi", h) for each evaluation of
    # phi on one, in call order
    seen = []
    build, evaluate = pde.build_grid, pde._eval_initial

    def build_spy(*args, **kwargs):
        grid = build(*args, **kwargs)
        seen.append(("grid", grid.h))
        return grid

    def eval_spy(phi, grid):
        seen.append(("phi", grid.h))
        return evaluate(phi, grid)

    monkeypatch.setattr(pde, "build_grid", build_spy)
    monkeypatch.setattr(pde, "_eval_initial", eval_spy)
    return seen


# every route into the solve skeleton, at h = 0.5: (call(cfg), grid spacings)
H_2H_4H = [0.5, 1.0, 2.0]
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
SKELETON_ROUTES = {
    "box-1d": (lambda c: expect(GNormal(BOX_1D), ABS, c), H_2H_4H),
    "box-2d": (lambda c: expect(GNormal(DiagonalBox((IV, IV))), XY_SQUARED, c), H_2H_4H),
    "hull": (lambda c: expect(GNormal(ConvexHull((np.diag([1.0, 4.0]), SHEAR + SHEAR.T))),
                              XY_SQUARED, c), H_2H_4H),
    "nested-2": (lambda c: expect_sequential((IV, IV), XY_SQUARED, cfg=c), H_2H_4H),
    "nested-3": (lambda c: expect_sequential((IV.scaled(0.25),) * 3,
                                             _fn(lambda x, y, z: x * y * z * z, 3),
                                             order=(2, 0, 1), cfg=c), H_2H_4H),
    "rank-one": (lambda c: expect(GNormal(RankOneFamily([1.0, 2.0], IV)), XY, c), H_2H_4H),
    "hull-1d": (lambda c: expect(GNormal(ConvexHull((np.eye(1), 4.0 * np.eye(1)))), ABS, c),
                H_2H_4H),
    "pulled-back-image": (lambda c: expect(LinearImage(SHEAR, GNormal(DiagonalBox((IV, IV)))),
                                           XY, c), H_2H_4H),
    "at-rest": (lambda c: expect(GNormal(DiagonalBox((UncertaintyInterval(0.0, 0.0),))),
                                 SQUARE, c), []),
}


class TestRefinementDelta:
    @pytest.mark.parametrize("u_2h, u_4h, want", [
        (1.0, 7.0, (1.0, 6.0)),  # d1 = 0: |d2|, the larger difference
        (0.75, -0.25, (13.0 / 12.0, 0.25)),  # p = 2: extrapolated, |d1|
        (1.5, 1.0, (1.0, 0.5)),  # d1 and d2 of opposite signs: max(|d1|, |d2|)
    ], ids=["d1-zero", "order-2", "erratic"])
    def test_the_rule_on_three_values(self, u_2h, u_4h, want):
        assert pde.refinement_delta(1.0, u_2h, u_4h) == want

    @pytest.mark.parametrize("call, hs", SKELETON_ROUTES.values(), ids=SKELETON_ROUTES.keys())
    def test_the_skeleton_re_solves_at_2h_then_4h(self, call, hs, grid_events):
        # every route builds its h, 2h and 4h grids before phi is first
        # evaluated on one, then evaluates and solves them in that order
        rep = call(SolverConfig(h=0.5))
        assert grid_events == [("grid", h) for h in hs] + [("phi", h) for h in hs]
        assert isinstance(rep.refinement_delta, float)

    def test_a_solve_with_d1_zero_still_re_solves_at_4h(self, grid_events):
        # x is invariant on every grid: u_h = u_2h = u_4h, so the value,
        # estimate and steps are those of u_h, from three solved grids
        rep = pde.solve_gheat_diag(BOX_1D, IDENTITY, cfg=SolverConfig(h=0.2))
        assert [e for e in grid_events if e[0] == "grid"] == [("grid", h) for h in (0.2, 0.4, 0.8)]
        steps = build_grid([IV.sigma_high_sq], IDENTITY, SolverConfig(h=0.2)).steps
        assert (rep.value, rep.refinement_delta, rep.steps_taken) == \
            (box_u_h(BOX_1D, IDENTITY, 0.2), 0.0, steps)


class TestSolveDiag:
    def test_separable_sum(self):
        box = DiagonalBox((IV, IV.scaled(2.0)))
        phi = TestFunction(lambda x, y: x**2 + y**2, arity=2, growth_order=1,
                           growth_const=8.0, name="")
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
    pde._advance_diag(out, [IV], dt / (h * h), 1)
    return out


class TestStepDiag:
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
        rep = solve_gheat_hull(hull, XY, cfg=SolverConfig(h=0.25))
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_matches_diag_on_diagonal_generators(self):
        hull = ConvexHull(tuple(np.diag([a, b]) for a in (1.0, 4.0) for b in (1.0, 4.0)))
        rh = solve_gheat_hull(hull, XY_SQUARED, cfg=SolverConfig(h=0.25))
        rd = solve_gheat_diag(DiagonalBox((IV, IV)), XY_SQUARED,
                              cfg=SolverConfig(h=0.25))
        assert rh.value == pytest.approx(rd.value, abs=1e-9)

    def test_rejects_non_dominant_generator(self):
        hull = ConvexHull((np.array([[1.0, 2.0], [2.0, 5.0]]),))
        with pytest.raises(GExpectError, match="diagonally dominant"):
            solve_gheat_hull(hull, XY, cfg=FAST)

    def test_2d_only(self):
        hull = ConvexHull((np.eye(3),))
        with pytest.raises(DimensionMismatch):
            solve_gheat_hull(hull, XY, cfg=FAST)


def test_tail_bound_is_small_on_sized_grids(monkeypatch):
    # the derived half width keeps the tail bound below target_tol / 10;
    # a domain truncated 1.5 sigma out (a tolerance so large that the
    # half width stays at _TAIL_FACTOR sigma) gets an honest, larger term
    cfg = SolverConfig(h=0.2)
    sized = solve_gheat_diag(BOX_1D, ABS, cfg=cfg)
    assert 0.0 < sized.tail_bound <= 0.1 * cfg.target_tol
    monkeypatch.setattr(pde, "_TAIL_FACTOR", 1.5)
    narrow = solve_gheat_diag(BOX_1D, ABS, cfg=SolverConfig(h=0.2, target_tol=1e3))
    # 2 (1 + (1 + L)) exp(-k^2 / 2) at L = 3, k = L / sigma_high = 1.5
    assert narrow.tail_bound == pytest.approx(10.0 * math.exp(-1.125))
    assert abs(narrow.value - 2.0 * math.sqrt(2.0 / math.pi)) <= narrow.tail_bound


def test_tail_bound_sums_over_axes(monkeypatch):
    # half widths of 2 sigma: 4 and 2 sqrt(8), rounded up to 23 cells of 0.25
    monkeypatch.setattr(pde, "_TAIL_FACTOR", 2.0)
    box = DiagonalBox((IV, IV.scaled(2.0)))
    cfg = SolverConfig(h=0.25, target_tol=1e3)
    grid = build_grid([4.0, 8.0], XY, cfg)
    assert grid.half_width == (4.0, 5.75)
    want = sum(4.0 * (1.0 + (1.0 + L)) * math.exp(-0.5 * (L / s) ** 2)
               for L, s in ((4.0, 2.0), (5.75, math.sqrt(8.0))))
    assert grid.tail_bound == pytest.approx(want)
    assert solve_gheat_diag(box, XY, cfg=cfg).tail_bound == grid.tail_bound


@pytest.mark.parametrize("h", [1e-4, 1e-300, 5e-324])
def test_build_grid_refuses_oversized_grids(h):
    with pytest.raises(GExpectError, match="budget"):
        build_grid([4.0], SQUARE, SolverConfig(h=h))


# ---------------------------------------------------------------------------
# the in-place kernels against the allocating flux form of the scheme, written
# out term by term: first differences g, fresh zero increments, np.where
# selection, temporaries, lam = dt / h^2 folded into the coefficients


def _along(a, axis, lo, hi):
    return a[(slice(None),) * axis + (slice(lo, hi),)]


def _ref_second_diff(u, axis):
    # g[f] = u[f + 1] - u[f] along axis, d[f] = g[f] - g[f - 1]; d = 0 on the
    # axis' end faces
    g = _along(u, axis, 1, None) - _along(u, axis, None, -1)
    d = np.zeros_like(u)
    d[(slice(None),) * axis + (slice(1, -1),)] = _along(g, axis, 1, None) - _along(g, axis, None, -1)
    return d


def _ref_run_diag(u0, ivs, h, dt, steps, axes):
    lam = dt / (h * h)
    u = np.array(u0, dtype=float)
    for _ in range(steps):
        incr = np.zeros_like(u)
        for iv, ax in zip(ivs, axes):
            d = _ref_second_diff(u, ax)
            incr += np.where(d > 0.0, lam * (0.5 * iv.sigma_high_sq) * d,
                             lam * (0.5 * iv.sigma_low_sq) * d)
        u += incr
    return u


def _ref_hull_fluxes(u, gens, lam):
    gx = u[1:] - u[:-1]
    gy = u[:, 1:] - u[:, :-1]
    dxx = gx[1:, 1:-1] - gx[:-1, 1:-1]
    dyy = gy[1:-1, 1:] - gy[1:-1, :-1]
    m = gy[1:] - gy[:-1]  # M[i, j] = gy[i + 1, j] - gy[i, j], the mixed difference of a cell
    plus = m[1:, 1:] + m[:-1, :-1]  # M[i, j] + M[i - 1, j - 1]
    minus = m[1:, :-1] + m[:-1, 1:]  # M[i, j - 1] + M[i - 1, j]
    best = None
    for b in gens:
        c00, c11, c01 = (lam * (0.5 * b[i, j]) for i, j in ((0, 0), (1, 1), (0, 1)))
        flux = c00 * dxx + c11 * dyy + c01 * (plus if b[0, 1] >= 0 else minus)
        best = flux if best is None else np.maximum(best, flux)
    return best


def _ref_run_hull(u0, gens, h, dt, steps):
    u = np.array(u0, dtype=float)
    for _ in range(steps):
        u[1:-1, 1:-1] += _ref_hull_fluxes(u, gens, dt / (h * h))
    return u


# the same scheme in its 2u form: (u[f + s] - 2 u[f]) + u[f - s], the 9-point
# cross sums node by node, and dt / h^2 applied to the summed increment. It
# rounds differently from the flux form, so the two agree only within rounding


def _twou_run_diag(u0, ivs, h, dt, steps, axes):
    lam = dt / (h * h)
    u = np.array(u0, dtype=float)
    for _ in range(steps):
        incr = np.zeros_like(u)
        for iv, ax in zip(ivs, axes):
            d = np.zeros_like(u)
            d[(slice(None),) * ax + (slice(1, -1),)] = (
                _along(u, ax, 2, None) - 2.0 * _along(u, ax, 1, -1) + _along(u, ax, None, -2))
            incr += np.where(d > 0.0, 0.5 * iv.sigma_high_sq * d, 0.5 * iv.sigma_low_sq * d)
        incr *= lam
        u += incr
    return u


def _twou_run_hull(u0, gens, h, dt, steps):
    u = np.array(u0, dtype=float)
    for _ in range(steps):
        c = u[1:-1, 1:-1]
        dxx = u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]
        dyy = u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]
        plus = (u[2:, 2:] + u[:-2, :-2] + 2.0 * c
                - u[2:, 1:-1] - u[:-2, 1:-1] - u[1:-1, 2:] - u[1:-1, :-2])
        minus = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
                 - 2.0 * c - u[2:, :-2] - u[:-2, 2:])
        best = None
        for b in gens:
            flux = 0.5 * (b[0, 0] * dxx + b[1, 1] * dyy) + 0.5 * b[0, 1] * (
                plus if b[0, 1] >= 0 else minus)
            best = flux if best is None else np.maximum(best, flux)
        u[1:-1, 1:-1] += dt * (best / (h * h))
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
        pde._advance_diag(got, ivs, dt / (h * h), 25)
        assert _same_bits(got, want)

    def test_advance_diag_batch_axis(self):
        u0 = _rough((5, 19, 21), 7)
        ivs = KERNEL_IVS[:2]
        h, dt = 0.25, 0.4 * 0.25**2 / 6.0
        want = _ref_run_diag(u0, ivs, h, dt, 1, (1, 2))
        got = u0.copy()
        pde._advance_diag(np.moveaxis(got, (1, 2), (0, 1)), ivs, dt / (h * h), 1)
        assert _same_bits(got, want)

    def test_diffuse_last_axis_transposed_input(self):
        base = _rough((17, 9, 23), 11)
        u0 = np.transpose(base, (2, 0, 1))  # F-ordered view, as a nested solve passes
        assert not u0.flags.c_contiguous
        h = 0.4  # 63 steps
        out, used_dt, steps = diffuse_last_axis(u0, IV, h)
        dt = 1.0 / math.ceil(1.0 / (0.4 * h * h / IV.sigma_high_sq) - 1e-12)
        assert used_dt == dt
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [IV], h, dt, steps, [2])))
        assert np.array_equal(u0, np.transpose(_rough((17, 9, 23), 11), (2, 0, 1)))

    # slabs: _diag_step solves the passive rows pde._SLAB_CELLS cells at a time

    @staticmethod
    def _slab_data(shape, seed):
        u = _rough(shape, seed)
        u *= np.arange(1.0, shape[0] + 1.0).reshape((-1,) + (1,) * (len(shape) - 1))
        rows = max(1, pde._SLAB_CELLS // u[0].size)
        assert len(u) > rows, "input must span more than one slab"
        return u, rows

    @pytest.mark.parametrize("shape, order", [((97, 29, 47), (2, 0, 1)),  # 3 slabs, last 1 row
                                              ((250, 301), (0, 1)),  # 2 slabs, last 33 rows
                                              ((3, 260, 257), (0, 1, 2))])  # rows over budget
    def test_slabs_diffuse_last_axis(self, shape, order):
        data, _ = self._slab_data(shape, 17)
        # the same values as a transposed view of a C-ordered grid, the form
        # a nested solve passes (np.transpose(grid, order))
        u0 = np.transpose(np.ascontiguousarray(np.transpose(data, np.argsort(order))), order)
        assert np.array_equal(u0, data)
        assert u0.flags.c_contiguous == (order == tuple(range(len(shape))))
        h = 0.625  # 13 steps
        iv = KERNEL_IVS[0]
        out, used_dt, steps = diffuse_last_axis(u0, iv, h)
        dt = 1.0 / math.ceil(1.0 / (0.4 * h * h / iv.sigma_high_sq) - 1e-12)
        assert used_dt == dt
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [iv], h, dt, steps, [u0.ndim - 1])))

    def test_slabs_diag_step_two_batch_axes(self):
        u0, rows = self._slab_data((7, 9, 31, 37), 19)  # slabs of 6 and 1 rows
        assert len(u0) % rows
        ivs = KERNEL_IVS[:2]
        h, dt = 0.25, 0.4 * 0.25**2 / 6.0
        for steps in (1, 20):
            got = pde._diag_step(np.moveaxis(u0.copy(), (2, 3), (0, 1)), ivs, dt / (h * h),
                                 steps, {})
            want = _ref_run_diag(u0, ivs, h, dt, steps, (2, 3))[:, :, 15, 18]
            assert _same_bits(got, want)

    def test_hull_both_cross_signs(self):
        gens = (np.array([[2.0, 1.0], [1.0, 1.5]]), np.array([[1.0, -0.5], [-0.5, 3.0]]),
                np.diag([4.0, 1.0]))
        h = 0.2
        dt = 0.4 * h * h / max(float(np.abs(b).sum()) for b in gens)
        u0 = _rough((27, 33), 5)
        got = u0.copy()
        pde._advance_hull(got, gens, dt / (h * h), 30)
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


@pytest.mark.parametrize("seed", range(5))
def test_flux_form_matches_the_2u_form_within_rounding(seed):
    # 25 steps on rough data: the two forms differed by at most 2.1e-16 of
    # max |u| over seeds 0-19 (box) and 1.5e-16 (hull); the bound is 1e-14
    for shape in [(41,), (23, 31), (13, 11, 17)]:
        ivs = KERNEL_IVS[:len(shape)]
        dt = _box_dt(ivs, 0.2)
        u0 = _rough(shape, seed)
        flux = _ref_run_diag(u0, ivs, 0.2, dt, 25, range(len(shape)))
        twou = _twou_run_diag(u0, ivs, 0.2, dt, 25, range(len(shape)))
        assert np.max(np.abs(flux - twou)) <= 1e-14 * np.max(np.abs(twou))
    for gens in [HULL_GENS, HULL_GENS[:1], HULL_GENS[1:2]]:
        dt = _hull_dt(gens, 0.2)
        u0 = _rough((27, 33), seed)
        flux, twou = (run(u0, gens, 0.2, dt, 25) for run in (_ref_run_hull, _twou_run_hull))
        assert np.max(np.abs(flux - twou)) <= 1e-14 * np.max(np.abs(twou))


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
        pde._advance_diag(got, ivs, dt / (h * h), 17)
        assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, 17, range(len(shape))))

    @pytest.mark.parametrize("axes", [(1,), (2,), (1, 2), (2, 1), (2, 0)])
    def test_first_active_axis_not_leading(self, axes):
        u0 = _rough((6, 9, 11), 43)
        ivs = KERNEL_IVS[:len(axes)]
        h = 0.25
        dt = _box_dt(ivs, h)
        got = u0.copy()
        pde._advance_diag(np.moveaxis(got, axes, range(len(axes))), ivs, dt / (h * h), 15)
        assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, 15, axes))

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9), (3, 7), (7, 3)])
    @pytest.mark.parametrize("gens", [HULL_GENS, HULL_GENS[:1], HULL_GENS[1:2]],
                             ids=["both-signs", "plus", "minus"])
    def test_hull_non_square(self, shape, gens):
        h = 0.2
        dt = _hull_dt(gens, h)
        u0 = _rough(shape, 47)
        got = u0.copy()
        pde._advance_hull(got, gens, dt / (h * h), 12)
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
            pde._advance_diag(np.moveaxis(got, axes, range(len(axes))), ivs, dt / (h * h), steps)
            assert _same_bits(got, _ref_run_diag(u0, ivs, h, dt, steps, axes))

    @pytest.mark.parametrize("kind", ["rough", "sparse"])
    def test_hull_signed_zeros(self, kind):
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        u0 = _signed_zeros((12, 17), 59, kind)
        got = u0.copy()
        pde._advance_hull(got, HULL_GENS, dt / (h * h), 10)
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
                                     lambda v: pde._advance_diag(v, ivs, dt / (h * h), 9))
        assert _same_bits(got, _ref_run_diag(view0, ivs, h, dt, 9, (0, 1)))

    def test_slabbed_view(self, monkeypatch):
        # slabs of 2 of the view's 25 rows along its passive axis 1; the
        # centre values over them, and nothing written outside the view
        monkeypatch.setattr(pde, "_SLAB_CELLS", 130)
        ivs = KERNEL_IVS[:2]
        h = 0.25
        dt = _box_dt(ivs, h)
        centres = []
        view0, _ = self._step_view(_rough((8, 30, 12), 67), np.s_[1:8, 2:27, 2:11],
                                   lambda v: centres.append(pde._diag_step(
                                       np.moveaxis(v, (0, 2), (0, 1)), ivs, dt / (h * h), 11,
                                       {})))
        assert _same_bits(centres[0], _ref_run_diag(view0, ivs, h, dt, 11, (0, 2))[3, :, 4])

    @pytest.mark.parametrize("cut", CUTS.values(), ids=CUTS.keys())
    def test_hull_view(self, cut):
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        view0, got = self._step_view(_rough((20, 25), 71), cut,
                                     lambda v: pde._advance_hull(v, HULL_GENS, dt / (h * h), 9))
        assert _same_bits(got, _ref_run_hull(view0, HULL_GENS, h, dt, 9))
        for face in (np.s_[[0, -1], :], np.s_[:, [0, -1]]):
            assert _same_bits(got[face], view0[face])


# the solves step only the dependence cone of the centre node, cut along a
# swept leading axis, and drop the axes along which the data is constant; the
# centre values are the bits of the full-grid reference


def _centre(u):
    return u[tuple(n // 2 for n in u.shape)]


def _sweep(u0, iv, steps):
    # diffuse_last_axis at h = 1 stepped `steps` times: the diagonal driver
    # on the C-ordered copy with the swept axis moved to the front
    u = np.array(np.moveaxis(u0, -1, 0), dtype=float, order="C")
    return pde._diag_centre(u, [iv], 1.0 / steps, steps)


def _hull_solve(u, gens, lam, steps):
    # u(1, 0) of a hull solve, as solve_gheat_hull finds it: the shared
    # fold-and-cone path with axis folds off
    return pde._fold_and_cone(u, 2, steps, False, lambda v, k, ghosts, point:
                              pde._advance_hull(v, gens, lam, k, point))


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
        got = pde._diag_centre(u0.copy(), ivs, dt / (h * h), steps)
        assert _same_bits(np.float64(got), want)

    @pytest.mark.parametrize("steps", [9, 13, 16, 22])  # half widths 13 and 16
    def test_hull_centre(self, steps):
        gens = (np.array([[2.0, 1.0], [1.0, 1.5]]), np.array([[1.0, -0.5], [-0.5, 3.0]]))
        h = 0.2
        dt = 0.4 * h * h / max(float(np.abs(b).sum()) for b in gens)
        u0 = _rough((27, 33), 5)
        got = _hull_solve(u0.copy(), gens, dt / (h * h), steps)
        assert _same_bits(np.float64(got), _centre(_ref_run_hull(u0, gens, h, dt, steps)))

    @pytest.mark.parametrize("steps", [6, 10, 15])  # half width 10 along the swept axis
    def test_nested_sweep_with_passive_axes(self, steps):
        u0 = _rough((9, 5, 21), 23)
        iv = KERNEL_IVS[0]
        out = _sweep(u0, iv, steps)
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [iv], 1.0, 1.0 / steps, steps,
                                                           [2])))


@pytest.mark.parametrize("axes", [(0,), (0, 2)])
def test_slabs_cut_a_non_leading_passive_axis(axes):
    # axis 1 is the first passive axis: slabs of 259 and 41 of its 300 rows
    u0 = _rough((23, 300, 11), 29)
    assert pde._SLAB_CELLS // (u0.size // 300) == 259
    ivs = KERNEL_IVS[:len(axes)]
    h = 0.25
    dt = 0.4 * h * h / sum(iv.sigma_high_sq for iv in ivs)
    got = pde._diag_step(np.moveaxis(u0.copy(), axes, range(len(axes))), ivs, dt / (h * h), 12,
                         {})
    want = _ref_run_diag(u0, ivs, h, dt, 12, axes)[tuple(n // 2 if a in axes else slice(None)
                                                         for a, n in enumerate(u0.shape))]
    assert _same_bits(got, want)


def _fn(fn, arity):
    return TestFunction(fn, arity=arity, growth_order=2, growth_const=4.0, name="")


class TestConstantAxes:
    # solve_gheat_diag against its reduced problem, the kept axes alone
    # through the driver, to the same bits; and against the unreduced path,
    # every axis stepped on the whole grid by the full-array kernel, within
    # rounding, since a problem left with one axis takes the dot path
    @pytest.mark.parametrize("phi, box, kept", [
        (XY_SQUARED, DiagonalBox((IV, IV.scaled(0.5))), [0, 1]),  # no constant axis
        (_fn(lambda x, y: x * x + 0.0 * y, 2), DiagonalBox((IV, IV.scaled(0.5))), [0]),
        (_fn(lambda x, y: y * y + 0.0 * x, 2), DiagonalBox((IV, IV.scaled(0.5))), [1]),
        (_fn(lambda x, y, z: np.abs(y - 0.3) + 0.0 * x * z, 3),
         DiagonalBox((IV.scaled(0.25),) * 3), [1]),
        (_fn(lambda x, y: 3.0 + 0.0 * x * y, 2), DiagonalBox((IV, IV)), []),
        # -0.0 and 0.0 compare equal; the solve still returns the stepped 0.0
        (_fn(lambda x: -0.0 * x, 1), BOX_1D, []),
    ], ids=["xy2", "x2+0y", "y2+0x", "3d-two-constant", "constant", "signed-zero"])
    def test_box_solve_drops_constant_axes(self, phi, box, kept):
        centres, steps = [], []
        for h in (0.4, 0.8, 1.6):
            grid = build_grid([iv.sigma_high_sq for iv in box.intervals], phi,
                              SolverConfig(h=h))
            u = pde._eval_initial(phi, grid)
            reduced = np.array(u[tuple(slice(None) if a in kept else n // 2
                                       for a, n in enumerate(u.shape))])
            centres.append(float(pde._diag_centre(reduced, [box.intervals[a] for a in kept],
                                                  grid.lam, grid.steps)))
            pde._advance_diag(u, box.intervals, grid.lam, grid.steps)
            stepped = float(_centre(u))
            assert abs(centres[-1] - stepped) <= 1e-12 * (1.0 + abs(stepped))
            steps.append(grid.steps)
        rep = solve_gheat_diag(box, phi, cfg=SolverConfig(h=0.4))
        value, grid_term = pde.refinement_delta(*centres)
        assert _same_bits(np.float64(rep.value), np.float64(value))
        assert (rep.refinement_delta, rep.steps_taken) == (grid_term, steps[0])

    def test_nested_sweep_along_a_constant_axis(self):
        u0 = np.repeat(_rough((7, 5), 31)[:, :, None], 21, axis=2)
        out, dt, steps = diffuse_last_axis(u0, IV, 0.5)
        assert steps == 40
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [IV], 0.5, dt, steps, [2])))


# the dot path: a one-axis problem whose rows are all convex, concave or
# linear along axis 0 is one dot product per row (pde._walk_slab, the
# one-axis case of the walk mixture)


def _dot_row(kind, x, a, b, s, t):
    if kind == "linear":
        return s * x + t
    if kind == "kink":  # (x - K)^+: linear pieces with second differences of +-1 ulp
        return abs(a) * np.maximum(x - b, 0.0) + s * x + t
    row = abs(a) * (x - b) ** 2 + abs(s) * np.abs(x - t) + s * x + t
    return row if kind == "convex" else -row


def _dot_problem(lo, width, h, c, passive, rows):
    # rows along axis 0 over the nodes h k, |k| <= c, the passive axes after
    # it; the interval, lam and steps of a sweep at h
    iv = UncertaintyInterval(lo, lo + width)
    x = h * np.arange(-c, c + 1)
    u = np.stack([row(x) for row in rows], axis=1).reshape((2 * c + 1,) + tuple(passive))
    steps = pde._steps(h, iv.sigma_high_sq)
    return u, iv, (1.0 / steps) / (h * h), steps


_DOT_SETTINGS = dict(lo=st.floats(0.0, 2.0), width=st.floats(0.0, 3.0), h=st.floats(0.1, 0.5),
                     c=st.integers(1, 20), passive=st.lists(st.integers(1, 4), max_size=2))
_ROW_PARAMS = st.tuples(*[st.floats(-2.0, 2.0)] * 4)
_ROW_KINDS = st.sampled_from(["convex", "concave", "linear", "kink"])


class TestDotRows:
    @given(**_DOT_SETTINGS, rows=st.lists(st.tuples(_ROW_KINDS, _ROW_PARAMS), min_size=16,
                                          max_size=16))
    # a concave row whose curvature is below the sign test's tolerance: dotted
    # at sigma_high^2 it missed the kernel by 1.5e-12
    @example(lo=0.0, width=2.0, h=0.5, c=3, passive=[3],
             rows=[("convex", (0.0,) * 4)] * 2 + [("concave", (1e-12, 0.0, 0.0, 0.0))] * 14)
    @settings(max_examples=40, deadline=None)
    def test_rows_of_one_sign_match_the_kernel(self, lo, width, h, c, passive, rows):
        u, iv, lam, steps = _dot_problem(
            lo, width, h, c, passive,
            [lambda x, k=k, p=p: _dot_row(k, x, *p) for k, p in rows[:math.prod(passive)]])
        got = pde._walk_slab(u, [iv], lam, steps, {})
        assert got is not None and got.shape == u.shape[1:]
        want = u.copy()
        pde._advance_diag(want, [iv], lam, steps)
        assert np.all(np.abs(got - want[c]) <= 1e-12 * (1.0 + np.abs(want[c])))

    @given(**_DOT_SETTINGS, slopes=st.lists(st.floats(-5.0, 5.0), min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_odd_rows_come_back_exactly_zero(self, lo, width, h, c, passive, slopes):
        # h k is exactly -(h -k), so the rows s x are exactly odd
        u, iv, lam, steps = _dot_problem(lo, width, h, c, passive,
                                         [lambda x, s=s: s * x
                                          for s in slopes[:math.prod(passive)]])
        got = pde._walk_slab(u, [iv], lam, steps, {})
        assert _same_bits(got, np.zeros(u.shape[1:]))

    @given(**{**_DOT_SETTINGS, "c": st.integers(2, 20)}, mixed=st.integers(0, 15),
           params=st.lists(_ROW_PARAMS, min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_a_mixed_row_falls_back_to_the_kernel(self, lo, width, h, c, passive, params,
                                                  mixed):
        # x^3 is concave left of the centre and convex right of it (from two
        # nodes out: on three nodes it is linear)
        m = math.prod(passive)
        rows = [lambda x, p=p: _dot_row("convex", x, *p) for p in params[:m]]
        rows[mixed % m] = lambda x: x ** 3
        u, iv, lam, steps = _dot_problem(lo, width, h, c, passive, rows)
        assert pde._walk_slab(u, [iv], lam, steps, {}) is None
        kernel = pde._advance_diag
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "_advance_diag", lambda *a: calls.append(a) or kernel(*a))
            got = pde._diag_centre(u.copy(), [iv], lam, steps)
        assert calls
        want = _ref_run_diag(u, [iv], h, 1.0 / steps, steps, [0])[c]
        assert _same_bits(got, want)

    def test_a_mixed_row_steps_only_its_own_slab(self, monkeypatch):
        # 21 x 100 x 100 cells: slabs of 31, 31, 31 and 7 rows of passive
        # axis 1. Every row is convex or concave but the x^3 rows, which all
        # lie in the second slab, so the dot path serves the other three
        h, c, steps, lam = 0.2, 10, 30, 0.2
        iv = KERNEL_IVS[1]
        x = (h * np.arange(-c, c + 1))[:, None, None]
        rng = np.random.default_rng(151)
        sign = np.where(rng.random((100, 100)) < 0.5, 1.0, -1.0)
        u = sign * _dot_row("convex", x, *rng.uniform(-2.0, 2.0, (4, 100, 100)))
        u[:, 40:45, 7] = x[:, :, 0] ** 3
        u[:, 61, :] = x[:, 0] ** 3
        assert u.size > pde._SLAB_CELLS
        served, walk = [], pde._walk_slab

        def spy(slab, *args):
            out = walk(slab, *args)
            served.append((slab.shape, out is not None))
            return out

        monkeypatch.setattr(pde, "_walk_slab", spy)
        got = pde._diag_centre(u.copy(), [iv], lam, steps)
        assert served == [((21, 31, 100), True), ((21, 31, 100), False),
                          ((21, 31, 100), True), ((21, 7, 100), True)]
        want = u.copy()
        pde._advance_diag(want, [iv], lam, steps)
        assert np.all(np.abs(got - want[c]) <= 1e-12 * (1.0 + np.abs(want[c])))
        assert _same_bits(got[31:62], want[c, 31:62])

    def test_a_problem_finds_each_walk_once(self, monkeypatch):
        # 21 x 100 x 100 cells of convex and concave rows: four slabs, each
        # served by the dot path at both coefficients. Outside a run each
        # problem finds its walks once; within one, the run does
        h, c, steps, lam = 0.2, 10, 30, 0.2
        iv = KERNEL_IVS[1]
        x = (h * np.arange(-c, c + 1))[:, None, None]
        rng = np.random.default_rng(157)
        sign = np.where(rng.random((100, 100)) < 0.5, 1.0, -1.0)
        u = sign * _dot_row("convex", x, *rng.uniform(-2.0, 2.0, (4, 100, 100)))
        assert u.size > 3 * pde._SLAB_CELLS
        found, walk = [], pde._walk
        monkeypatch.setattr(pde, "_walk", lambda *a: found.append(a) or walk(*a))
        coeffs = {(21, lam * (0.5 * iv.sigma_high_sq), steps, steps),
                  (21, lam * (0.5 * iv.sigma_low_sq), steps, steps)}
        outside = pde._diag_centre(u.copy(), [iv], lam, steps)
        assert len(found) == 2 and set(found) == coeffs
        pde._diag_centre(-u, [iv], lam, steps)
        assert len(found) == 4 and set(found[2:]) == coeffs
        found.clear()
        with pde.solve_once():
            inside = pde._diag_centre(u.copy(), [iv], lam, steps)
            pde._diag_centre(-u, [iv], lam, steps)
            assert len(pde._MEMO.get()) == 4  # two problems, two walks
        assert len(found) == 2 and set(found) == coeffs
        assert _same_bits(inside, outside)

    def test_walks_are_kept_in_the_run_memo_only(self):
        # convex, concave and linear rows: the walks at both coefficients
        h = 0.2
        x = h * np.arange(-10, 11)
        u = np.stack([x * x, -x * x, x + 1.0], axis=1)
        steps = pde._steps(h, IV.sigma_high_sq)
        lam = (1.0 / steps) / (h * h)
        outside = pde._diag_centre(u.copy(), [IV], lam, steps)
        assert pde._MEMO.get() is None
        with pde.solve_once():
            inside = pde._diag_centre(u.copy(), [IV], lam, steps)
            kept = {k: w for k, w in pde._MEMO.get().items() if k[0] == "walk"}
        assert pde._MEMO.get() is None
        assert _same_bits(inside, outside)
        coeffs = [lam * (0.5 * IV.sigma_high_sq), lam * (0.5 * IV.sigma_low_sq)]
        assert set(kept) == {("walk", 21, c, steps, steps) for c in coeffs}
        for (_, n, coeff, first, last), w in kept.items():
            assert _same_bits(w, pde._walk(n, coeff, first, last)) and not w.flags.writeable
            # the linear scheme keeps constants: its centre row, the half
            # row w[0] mirrored about the centre, sums to 1
            assert np.all(w >= 0.0) and abs(w[0, 0] + 2.0 * w[0, 1:].sum() - 1.0) <= 1e-12
        # _walk itself keeps nothing, in a run or out of one
        with pde.solve_once():
            pde._walk(21, coeffs[0], steps, steps)
            assert pde._MEMO.get() == {}


# the walk: a box problem whose data is convex or concave along each axis is
# a mixture of 1D walks (pde._walk_slab) instead of `steps` steps of the grid;
# the `folds` fixture below records the shape of every kernel call


def _box_data(shape, h, fn):
    x = np.meshgrid(*(h * np.arange(-(n // 2), n // 2 + 1) for n in shape), indexing="ij",
                    sparse=True)
    return np.broadcast_to(fn(*x), shape) + 0.0


def _axis_wise(shape, h, rng):
    # along each axis a convex or a concave parabola plus a kink, and a
    # product of all coordinates, which is linear along each
    def fn(*x):
        out = rng.uniform(-1.0, 1.0) * math.prod(x)
        for xa in x:
            a, t, r = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            out = out + rng.choice([-1.0, 1.0]) * (a * (xa - t) ** 2 + np.abs(xa - r))
        return out
    return _box_data(shape, h, fn)


def _box_problem(ivs, h):
    # (dt, steps) of a box solve at spacing h
    steps = pde._steps(h, sum(iv.sigma_high_sq for iv in ivs))
    return 1.0 / steps, steps


def _stepped(u, ivs, lam, steps):
    # the same problem with the walk off: every step through the kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "_walk_slab", lambda *a: None)
        return pde._diag_centre(u.copy(), ivs, lam, steps)


W3 = (1.0, 0.5, -1.0)
WALK_DATA = {
    "|<w,x>|": lambda *x: np.abs(sum(w * xa for w, xa in zip(W3, x))),
    "(<w,x>-0.3)^+": lambda *x: np.maximum(sum(w * xa for w, xa in zip(W3, x)) - 0.3, 0.0),
    "-|x|^2": lambda *x: -sum(xa * xa for xa in x),
    "x+y^2": lambda *x: x[0] + sum(xa * xa for xa in x[1:]),
    "-x^2+|y|": lambda *x: -x[0] ** 2 + sum(np.abs(xa) for xa in x[1:]),
}
# KERNEL_IVS[0] has sigma_low^2 = 0: an axis concave along it does not move,
# and with every axis so, rho = 0
WALK_BOXES = {"2d": (KERNEL_IVS[:2], (31, 41)), "3d": (KERNEL_IVS, (17, 21, 15)),
              "2d-zero-lows": ((KERNEL_IVS[0], UncertaintyInterval(0.0, 1.0)), (27, 23))}


class TestWalk:
    @pytest.mark.parametrize("data", WALK_DATA)
    @pytest.mark.parametrize("box", WALK_BOXES)
    def test_walk_matches_the_kernel(self, box, data, folds):
        ivs, shape = WALK_BOXES[box]
        h = 0.4
        dt, steps = _box_problem(ivs, h)
        u = _box_data(shape, h, WALK_DATA[data])
        got = float(pde._diag_centre(u.copy(), ivs, dt / (h * h), steps))
        assert not folds.shapes
        want = float(_stepped(u, ivs, dt / (h * h), steps))
        assert folds.shapes
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (got, want)

    @pytest.mark.parametrize("box", WALK_BOXES)
    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_axis_wise_data_matches_the_kernel(self, box, seed, folds):
        ivs, shape = WALK_BOXES[box]
        h = 0.3
        dt, steps = _box_problem(ivs, h)
        u = _axis_wise(shape, h, np.random.default_rng(seed))
        got = float(pde._diag_centre(u.copy(), ivs, dt / (h * h), steps))
        assert not folds.shapes
        want = float(_stepped(u, ivs, dt / (h * h), steps))
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (got, want)

    @pytest.mark.parametrize("fn", [lambda *x: sum(x), lambda *x: math.prod(x),
                                    lambda *x: x[0] * x[1] + x[-1]],
                             ids=["sum", "product", "xy+last"])
    @pytest.mark.parametrize("box", ["2d", "3d"])
    def test_odd_data_comes_back_exactly_zero(self, box, fn, folds):
        ivs, shape = WALK_BOXES[box]
        h = 0.4
        dt, steps = _box_problem(ivs, h)
        got = pde._diag_centre(_box_data(shape, h, fn), ivs, dt / (h * h), steps)
        assert _same_bits(np.float64(got), np.float64(0.0)) and not folds.shapes

    @pytest.mark.parametrize("fn", [lambda x, y: x * y ** 2, lambda x, y: x * y ** 3,
                                    lambda x, y: x ** 3 + y ** 2],
                             ids=["xy^2", "xy^3", "x^3+y^2"])
    def test_mixed_data_steps(self, fn, folds):
        ivs, shape = WALK_BOXES["2d"]
        h = 0.4
        dt, steps = _box_problem(ivs, h)
        u = _box_data(shape, h, fn)
        assert pde._walk_slab(u, ivs, dt / (h * h), steps, {}) is None
        got = pde._diag_centre(u.copy(), ivs, dt / (h * h), steps)
        assert folds.shapes
        want = _centre(_ref_run_diag(u, ivs, h, dt, steps, (0, 1)))
        assert _same_bits(np.float64(got), want)

    def test_solves_of_the_pool_kinds(self, folds):
        # psi(<w, x>) and quadratic forms are walk-served, x y^2 steps
        box = DiagonalBox((IV, IV.scaled(2.0)))
        walked = [_fn(lambda x, y: np.abs(0.6 * x - 0.8 * y), 2),
                  _fn(lambda x, y: x * x - 1.5 * x * y + 0.5 * y * y, 2)]
        for phi in walked:
            solve_gheat_diag(box, phi, cfg=SolverConfig(h=0.5))
        assert not folds.shapes
        solve_gheat_diag(box, XY_SQUARED, cfg=SolverConfig(h=0.5))
        assert folds.shapes

    def test_a_3d_image_is_walk_served(self, folds):
        # |<w, M x>| = |<M^T w, x>| is convex along every axis: its classical
        # value at sigma_high is sqrt(2 / pi) |M^T w|_sigma
        ivs = (UncertaintyInterval(1.0, 4.0), UncertaintyInterval(0.5, 2.0),
               UncertaintyInterval(1.0, 2.0))
        m = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0]])
        phi = TestFunction(lambda x, y, z: np.abs(x + 0.5 * y - z), arity=3, growth_order=1,
                           growth_const=3.0, name="|<w,x>|")
        rep = expect(LinearImage(m, GNormal(DiagonalBox(ivs))), phi, SolverConfig(h=0.4))
        assert not folds.shapes
        v = m.T @ np.array([1.0, 0.5, -1.0])
        want = math.sqrt(2.0 / math.pi * sum(va * va * iv.sigma_high_sq for va, iv in zip(v, ivs)))
        assert abs(rep.value - want) <= rep.error_estimate

    def test_a_run_finds_each_box_walk_once(self, monkeypatch, folds):
        # two box problems convex along both axes of one length, at the same
        # rates: one walk serves both axes of each, and a run finds it once.
        # A 2D box with equal intervals on a square grid has a transpose
        # image that walks to other bits, so each is put in its canonical
        # orientation once, in a run or out of one
        ivs, h = (IV, IV), 0.4
        dt, steps = _box_problem(ivs, h)
        data = [_box_data((23, 23), h, WALK_DATA["|<w,x>|"]),
                _box_data((23, 23), h, lambda x, y: x * x + np.abs(y - 0.3))]
        found, walk = [], pde._walk
        monkeypatch.setattr(pde, "_walk", lambda *a: found.append(a) or walk(*a))
        oriented, canonical = [], pde._canonical
        monkeypatch.setattr(pde, "_canonical", lambda *a: oriented.append(1) or canonical(*a))
        outside = [pde._diag_centre(u.copy(), ivs, dt / (h * h), steps) for u in data]
        assert len(found) == 2 and found[0] == found[1] and len(oriented) == 2
        with pde.solve_once():
            inside = [pde._diag_centre(u.copy(), ivs, dt / (h * h), steps) for u in data]
            kept = [w for k, w in pde._MEMO.get().items() if k[0] == "walk"]
        assert len(found) == 3 and found[2] == found[0] and len(oriented) == 4
        assert len(kept) == 1 and not kept[0].flags.writeable
        assert all(_same_bits(a, b) for a, b in zip(inside, outside)) and not folds.shapes

    def test_a_box_without_a_transpose_image_is_oriented_in_a_run_only(self, monkeypatch,
                                                                        folds):
        # flips take a walk to the same bits, so outside a run a box whose
        # axes the intervals tell apart keeps the orientation it came in;
        # within a run its memo key needs the canonical one (a flip of u)
        ivs, h = (IV, IV.scaled(2.0)), 0.4
        dt, steps = _box_problem(ivs, h)
        u = _box_data((23, 23), h, lambda x, y: np.maximum(0.5 * y - x - 0.3, 0.0))
        assert pde._canonical(u, 2, False) is not u
        oriented, canonical = [], pde._canonical
        monkeypatch.setattr(pde, "_canonical", lambda *a: oriented.append(1) or canonical(*a))
        outside = pde._diag_centre(u.copy(), ivs, dt / (h * h), steps)
        assert not oriented
        with pde.solve_once():
            inside = pde._diag_centre(u.copy(), ivs, dt / (h * h), steps)
        assert len(oriented) == 1 and _same_bits(inside, outside) and not folds.shapes

    def test_the_walk_does_not_read_the_layout_of_its_data(self, folds):
        # a box-1 |<w, x>| case of the benchmark's gnormal pool (seed 0,
        # case 13), which walked to other bits in F order: the mirrored pairs
        # are C-ordered, whatever the strides of the data
        iv = UncertaintyInterval(1.4701843703441353, 1.9348653258348738)
        ivs, h = (iv, iv), 0.25
        dt, steps = _box_problem(ivs, h)
        u = _box_data((91, 91), h, lambda x, y: np.abs(-0.6586010029185945 * x
                                                       - 0.7524923381368223 * y))
        want = pde._walk_slab(u, ivs, dt / (h * h), steps, {})
        got = pde._walk_slab(np.asfortranarray(u), ivs, dt / (h * h), steps, {})
        assert _same_bits(got, want) and not folds.shapes

    def test_a_still_axis_is_the_one_axis_solve_of_its_centre_line(self, folds):
        # sigma_low^2 = 0 along y, along which the data is concave, so y does
        # not move: the box solve is the one-axis solve of the centre line
        # y = 0 at the box's lam and steps, bit for bit
        ivs, h = (IV, UncertaintyInterval(0.0, 1.0)), 0.4
        dt, steps = _box_problem(ivs, h)
        u = _box_data((31, 41), h, lambda x, y: np.abs(x - 0.3) + 0.5 * x * y - y * y)
        got = pde._diag_centre(u.copy(), ivs, dt / (h * h), steps)
        line = pde._diag_centre(u[:, 20].copy(), ivs[:1], dt / (h * h), steps)
        assert _same_bits(np.float64(got), np.float64(line)) and not folds.shapes
        want = float(_stepped(u, ivs, dt / (h * h), steps))
        assert abs(float(got) - want) <= 1e-13 * (1.0 + abs(want))

    def test_walk_rows_are_the_linear_scheme(self):
        # row k of the walk dotted with data is the centre of k steps of the
        # linear scheme at that coefficient (sigma_low^2 = sigma_high^2)
        coeff, n = 0.15, 21
        rows = pde._walk(n, coeff, 4, 30)
        u = _rough((n,), 163)
        c = n // 2
        for k in (4, 17, 30):
            want = _centre(_ref_run_diag(u, [UncertaintyInterval(1.0, 1.0)], 1.0, 2.0 * coeff, k,
                                         [0]))
            # each row is the half from the centre of a row symmetric about it
            got = rows[k - 4, 0] * u[c] + rows[k - 4, 1:] @ (u[c + 1:] + u[c - 1::-1])
            assert abs(got - want) <= 1e-12 * (1.0 + np.abs(u).max())
            assert _same_bits(rows[k - 4], pde._walk(n, coeff, k, k)[0])

    @pytest.mark.parametrize("steps, r, rest", [(50, 1.0, 3.0), (625, 0.2, 0.8),
                                                (40, 1e-9, 1.0), (40, 1.0, 1e-9)])
    def test_binomial_weights(self, steps, r, rest):
        k, beta = pde._binomial(steps, r, rest)
        p, q = r / (r + rest), rest / (r + rest)
        exact = np.array([math.comb(steps, j) * p ** j * q ** (steps - j)
                          for j in range(steps + 1)])
        # every weight above 1e-20 of the largest, within a factor 10 of it
        assert (set(np.flatnonzero(exact > 1e-19 * exact.max())) <= set(k)
                <= set(np.flatnonzero(exact > 1e-21 * exact.max())))
        assert np.allclose(beta, exact[k], rtol=1e-13, atol=0.0)

    def test_curvature_of_whole_axes(self):
        # a row's lines (along the axes between the first and the last) that
        # are each convex or concave, but not all alike, are mixed as one;
        # linear lines are convex, and flat ones with a negative second
        # difference below the tolerance concave
        x = np.arange(-5.0, 6.0)[:, None]

        def one_row(*lines):
            return pde._curvature(np.hstack(lines)[:, :, None])

        assert one_row(x * x, -x * x) is None
        assert list(pde._curvature(np.hstack([x * x, -x * x]))) == [True, False]
        assert list(one_row(x * x, 2.0 * x)) == [True]
        assert list(one_row(-x * x, 2.0 * x)) == [False]
        assert list(one_row(-1e-14 * x * x, 0.0 * x)) == [False]
        rows = np.stack([np.hstack([x * x, 2.0 * x]), np.hstack([-x * x, x])], axis=2)
        assert list(pde._curvature(rows)) == [True, False]


def test_initial_data_mesh_is_read_only():
    # the mesh is broadcast views of the grid axes: a phi writing into its
    # argument must raise, not change every node that shares the axis entry
    def shift_in_place(x, y):
        x += 1.0
        return x * y

    phi = TestFunction(shift_in_place, arity=2, growth_order=2, growth_const=4.0, name="")
    with pytest.raises(ValueError, match="read-only"):
        solve_gheat_diag(DiagonalBox((IV, IV)), phi, cfg=FAST)
    grid = GridSpec(half_width=(2.0, 3.0), h=0.25, steps=100)
    u0 = pde._eval_initial(XY, grid)
    x, y = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
    assert u0.flags.c_contiguous and u0.flags.writeable
    assert _same_bits(u0, x * y)


# phi is evaluated on an open mesh, a slab of rows of axis 0 at a time: on a
# 67^3 grid, slabs of 14, 14, 14, 14 and 11 rows
GRID_67 = GridSpec(half_width=(6.6,) * 3, h=0.2, steps=100)
PULLED = linear_pullback(
    _fn(lambda x, y, z: x * x + 0.5 * x * y - y * z + 0.25 * z * z, 3),
    np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))


@pytest.mark.parametrize("phi", [
    PULLED,
    _fn(lambda x, y, z: np.maximum(0.6 * x - 0.3 * y + 0.7 * z - 0.4, 0.0), 3),
    _fn(lambda x, y, z: np.abs(x - 2.0 * y), 3),
    _fn(lambda x, y, z: 2.5, 3),
], ids=["pulled-back-quadratic", "psi(<w,x>)", "ignores-z", "scalar"])
def test_slabs_of_an_open_mesh_give_the_dense_bits(phi):
    assert 67**3 > pde._SLAB_CELLS
    dense = np.meshgrid(*(GRID_67.axis(i) for i in range(3)), indexing="ij")
    want = np.broadcast_to(np.asarray(phi.fn(*dense), dtype=float), dense[0].shape)
    got = pde._eval_initial(phi, GRID_67)
    assert got.flags.c_contiguous and _same_bits(got, np.ascontiguousarray(want))


def test_a_shape_off_the_grid_in_a_later_slab_is_refused():
    # only the slabs past the centre of axis 0 lose their last column
    slabs = []

    def off_past_the_centre(x, y, z):
        slabs.append(x.shape)
        v = x * y * z
        return v[..., :-1] if v.ndim == 3 and x.min() > 0.0 else v

    phi = _fn(off_past_the_centre, 3)
    slabs.clear()  # the construction's spot check
    with pytest.raises(GExpectError, match="does not broadcast to the grid"):
        pde._eval_initial(phi, GRID_67)
    assert slabs == [(14, 1, 1)] * 4


def test_hull_with_zero_variance_returns_phi_at_x0():
    # E^[phi(x0 + X)] for phi = xy, x0 = (1.5, -2) and X = 0 is phi(x0)
    shifted = TestFunction(lambda x, y: (x + 1.5) * (y - 2.0), arity=2, growth_order=1,
                           growth_const=4.0, name="(x+1.5)(y-2)")
    rep = solve_gheat_hull(ConvexHull((np.zeros((2, 2)),)), shifted)
    assert (rep.value, rep.refinement_delta, rep.steps_taken) == (-3.0, 0.0, 0)


# mirror folds: a solve whose data is exactly even steps the half from the
# centre - 1 on, plane 0 a ghost overwritten from plane 2 before every step.
# On even data g is exactly odd and d exactly even (a - b is -(b - a)), so
# the unfolded scheme keeps the data even bit for bit and a fold returns its
# bits.


def _made_even(u, axis=None):
    # a + b and b + a are the same bits, so this is exactly even
    return u + np.flip(u, axis)


def _xy(shape, h):
    x, y = np.meshgrid(*(h * np.arange(-(n // 2), n // 2 + 1) for n in shape), indexing="ij")
    return x * y  # even under the point reflection, odd along each axis


@pytest.fixture
def folds(monkeypatch):
    # the (ghost axes, point) of every kernel call; the shapes of the views
    seen, shapes = set(), []
    diag, hull = pde._advance_diag, pde._advance_hull

    def spy_diag(u, ivs, lam, steps, ghosts=(), point=False):
        seen.add((tuple(ghosts), point))
        shapes.append(u.shape)
        diag(u, ivs, lam, steps, ghosts, point)

    def spy_hull(u, gens, lam, steps, point=False):
        seen.add(((0,) if point else (), point))
        shapes.append(u.shape)
        hull(u, gens, lam, steps, point)

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
        got = pde._diag_centre(u0.copy(), ivs, dt / (h * h), steps)
        assert _same_bits(np.float64(got), want)
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
        got = pde._diag_centre(u0.copy(), ivs, dt / (h * h), steps)
        assert _same_bits(np.float64(got), want)
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
        got = _hull_solve(u0.copy(), gens, dt / (h * h), steps)
        assert _same_bits(np.float64(got), want)
        assert folds.seen == {((0,), True)}

    def test_hull_does_not_fold_one_axis(self, folds):
        # a hull is not invariant under one axis flip: data even along an
        # axis but not under the point reflection is stepped whole
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        u0 = _made_even(_rough((67, 71), 101), 1)
        want = _centre(_ref_run_hull(u0, HULL_GENS, h, dt, 30))
        got = _hull_solve(u0.copy(), HULL_GENS, dt / (h * h), 30)
        assert _same_bits(np.float64(got), want)
        assert folds.seen == {((), False)}

    @pytest.mark.parametrize("steps", [26, 30, 35])  # half width 30 along the swept axis
    def test_nested_sweep_slabs_step_unfolded(self, steps, folds):
        # moved to the front, the swept axis leads a (61, 31, 41) array of
        # more than _SLAB_CELLS cells: slabs of 26 and 5 rows of axis 1, each
        # stepped whole along the swept axis though the data is even along it
        u0 = _made_even(_rough((31, 41, 61), 103), 2)
        assert u0.size > pde._SLAB_CELLS
        iv = KERNEL_IVS[0]
        out = _sweep(u0, iv, steps)
        assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [iv], 1.0, 1.0 / steps, steps,
                                                           [2])))
        assert folds.seen == {((), False)}

    def _assert_unfolded(self, u0, kind, folds):
        # the solve of u0 by kind has the bits of the unfolded reference
        h = 0.2
        if kind == "hull":
            dt = _hull_dt(HULL_GENS, h)
            got = _hull_solve(u0.copy(), HULL_GENS, dt / (h * h), 30)
            want = _centre(_ref_run_hull(u0, HULL_GENS, h, dt, 30))
        elif kind == "box":
            ivs = KERNEL_IVS[:u0.ndim]
            dt = _box_dt(ivs, h)
            got = pde._diag_centre(u0.copy(), ivs, dt / (h * h), 30)
            want = _centre(_ref_run_diag(u0, ivs, h, dt, 30, range(u0.ndim)))
        else:
            got = _sweep(u0, KERNEL_IVS[0], 30)
            want = _centre_slice(_ref_run_diag(u0, [KERNEL_IVS[0]], 1.0, 1.0 / 30, 30,
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


@pytest.mark.parametrize("solver, even, seen", [("box", [0], ((0,), False)),
                                                 ("box", [0, 1], ((0, 1), False)),
                                                 ("box", None, ((0,), True)),
                                                 ("hull", None, ((0,), True))],
                         ids=["box-axis", "box-both-axes", "box-point", "hull-point"])
def test_folds_return_the_unfolded_bits(solver, even, seen, folds, monkeypatch):
    # the folded solve, the same solve with folds off (no view is small
    # enough to fold) and the unfolded reference return the same bits
    h, steps, shape = 0.2, 40, (67, 71)
    u0 = _rough(shape, 139)
    for a in even or [None]:
        u0 = _made_even(u0, a)
    if even is None:  # even under the point reflection only
        u0 = u0 + 5.0 * _xy(shape, h)
    if solver == "hull":
        dt = _hull_dt(HULL_GENS, h)
        want = _centre(_ref_run_hull(u0, HULL_GENS, h, dt, steps))

        def solve():
            return _hull_solve(u0.copy(), HULL_GENS, dt / (h * h), steps)
    else:
        ivs = KERNEL_IVS[:2]
        dt = _box_dt(ivs, h)
        want = _centre(_ref_run_diag(u0, ivs, h, dt, steps, (0, 1)))

        def solve():
            return pde._diag_centre(u0.copy(), ivs, dt / (h * h), steps)
    folded = solve()
    assert folds.seen == {seen}
    monkeypatch.setattr(pde, "_CONE_CELLS", u0.size)
    assert _same_bits(np.float64(folded), want) and _same_bits(np.float64(solve()), want)
    assert folds.seen == {seen, ((), False)}


@pytest.mark.parametrize("kind, flips", [("box", (0,)), ("box", (1,)), ("box", (0, 1)),
                                         ("box", None), ("box3", (2,)), ("box3", None),
                                         ("hull", None)])
def test_even_data_stays_even(kind, flips):
    # a flip of each axis in flips, or of every axis (None): the whole grid
    # after each of 20 steps equals its mirror image bit for bit
    shape = (19, 17, 21) if kind == "box3" else (21, 25)
    u = _rough(shape, 149)
    for a in flips or [None]:
        u = _made_even(u, a)
    if kind == "hull":
        u = u + 5.0 * _xy(shape, 0.2)
    ivs = KERNEL_IVS[:len(shape)]
    for _ in range(20):
        if kind == "hull":
            pde._advance_hull(u, HULL_GENS, _hull_dt(HULL_GENS, 0.2) / (0.2 * 0.2), 1)
        else:
            pde._advance_diag(u, ivs, _box_dt(ivs, 0.2) / (0.2 * 0.2), 1)
        assert _same_bits(u, np.flip(u, flips))


def test_even_length_axes_are_not_folded(folds):
    # data equal to its flip along a passive axis of even length is
    # symmetric about a midpoint between nodes; a sweep's slab has passive
    # axes, so it steps unfolded, its swept axis (of 2m + 1 nodes, as
    # diffuse_last_axis requires) included
    u0 = _rough((14, 12, 67), 137)
    for a in range(3):
        u0 = _made_even(u0, a)
    out = _sweep(u0, KERNEL_IVS[0], 40)
    assert _same_bits(out, _centre_slice(_ref_run_diag(u0, [KERNEL_IVS[0]], 1.0, 1.0 / 40, 40,
                                                       [2])))
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
        pde._advance_diag(half, ivs, dt / (h * h), 12, ghosts, point)
        inner = tuple(slice(1, None) if a in ghosts else slice(None) for a in range(2))
        assert _same_bits(half[inner], pde._fold(want, ghosts)[0][inner])

    def test_hull_ghost_is_written_before_it_is_read(self):
        h = 0.2
        dt = _hull_dt(HULL_GENS, h)
        u0 = _made_even(_rough((21, 25), 131)) + 5.0 * _xy((21, 25), h)
        want = _ref_run_hull(u0, HULL_GENS, h, dt, 12)
        half = np.ascontiguousarray(u0[9:])
        half[0] = np.nan
        pde._advance_hull(half, HULL_GENS, dt / (h * h), 12, point=True)
        assert _same_bits(half[1:], want[10:])


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


# A flip of a diffusing axis maps g to -g and d to d, mirrored bit for bit,
# and a 2D box's transpose swaps the two fluxes of x + y; the folds, the cone
# cuts, the walk's mirrored pairs and the slabs all commute with these
# images. A walk of two axes does not commute with a transpose, so the driver
# orients a 2D box with equal intervals on a square grid, and each image of
# the data gives the same bits (which the run memo relies on).


def _images(u, n, transpose):
    # u flipped along every subset of its first n axes, and each of those
    # transposed when `transpose`
    flips = [np.flip(u, axes) for k in range(n + 1)
             for axes in itertools.combinations(range(n), k)]
    return flips + [v.T for v in flips] if transpose else flips


def _image_problem(kind, seed, sym, draw_rows):
    # (data, intervals, transposes allowed) of one image-test problem
    rng = np.random.default_rng(seed)
    if kind == "dot":  # a sweep whose rows are all convex, concave or linear
        passive = tuple(rng.integers(1, 5, 2))
        u = np.stack([_dot_row(k, 0.2 * np.arange(-10, 11), *p)
                      for k, p in draw_rows[:math.prod(passive)]], axis=1)
        return u.reshape((21,) + passive), KERNEL_IVS[:1], False
    if kind == "slabs":  # three slabs, of which only the second has mixed rows
        x = (0.2 * np.arange(-10, 11))[:, None, None]
        u = _dot_row("convex", x, *rng.uniform(-2.0, 2.0, (4, 130, 50)))
        u[:, 70:75] = _rough((21, 5, 50), seed)
        return u, KERNEL_IVS[1:2], False
    shape, ivs = {"mixed": ((21, 9, 4), KERNEL_IVS[:1]),
                  "box2-equal": ((67, 67), (IV, IV)),
                  "box2": ((67, 71), KERNEL_IVS[:2]),
                  "box3": ((17, 19, 21), KERNEL_IVS),
                  "walk2-equal": ((23, 23), (IV, IV)),
                  "walk3": ((13, 11, 15), KERNEL_IVS)}[kind]
    # walk kinds: convex or concave along each axis, so a mixture of walks
    u = _axis_wise(shape, 0.2, rng) if kind.startswith("walk") else _rough(shape, seed)
    if sym == "point":
        u = _made_even(u)
    elif sym is not None:
        u = _made_even(u, sym)
    return u, ivs, kind.endswith("-equal")


# sym: the rough data made even along that axis, or under the point reflection
@pytest.mark.parametrize("kind, sym", [("dot", None), ("slabs", None), ("mixed", None)] + [
    (kind, sym) for kind in ("box2-equal", "box2", "box3", "walk2-equal", "walk3")
    for sym in (None, 0, 1, "point")])
@given(seed=st.integers(0, 2**16), steps=st.integers(1, 45),
       rows=st.lists(st.tuples(_ROW_KINDS, _ROW_PARAMS), min_size=16, max_size=16))
@settings(max_examples=6, deadline=None)
def test_every_allowed_image_gives_the_same_bits(kind, sym, seed, steps, rows):
    u, ivs, transpose = _image_problem(kind, seed, sym, rows)
    lam = _box_dt(ivs, 0.2) / (0.2 * 0.2)
    assert pde._MEMO.get() is None
    want = pde._diag_centre(u.copy(), ivs, lam, steps)
    for image in _images(u, len(ivs), transpose)[1:]:
        assert _same_bits(pde._diag_centre(image.copy(), ivs, lam, steps), want)


class TestSolveOnce:
    def test_identical_expects_outside_a_run_both_step(self, stepped):
        assert pde._MEMO.get() is None
        first = expect(GNormal(DiagonalBox((IV, IV))), XY_SQUARED, FAST)
        once = stepped.calls
        assert once > 0
        second = expect(GNormal(DiagonalBox((IV, IV))), XY_SQUARED, FAST)
        assert stepped.calls == 2 * once
        assert second == first

    def test_a_repeat_is_served_the_same_bits_unstepped(self, stepped):
        u0 = _rough((21, 7), 41)
        lam = _box_dt(KERNEL_IVS[:1], 0.2) / (0.2 * 0.2)
        plain = pde._diag_centre(u0.copy(), KERNEL_IVS[:1], lam, 12)
        with pde.solve_once():
            first = pde._diag_centre(u0.copy(), KERNEL_IVS[:1], lam, 12)
            once = stepped.calls
            again = pde._diag_centre(u0.copy(), KERNEL_IVS[:1], lam, 12)
            assert stepped.calls == once
        assert _same_bits(first, plain) and _same_bits(again, plain)
        assert not again.flags.writeable
        assert pde._MEMO.get() is None

    def test_a_dropped_axis_matches_the_lower_problem(self, stepped):
        # x^2 on a 2D box with a constant second axis is the 1D problem
        x = 0.2 * np.arange(-10, 11)
        ivs = [IV, IV]
        lam = _box_dt(ivs, 0.2) / (0.2 * 0.2)
        with pde.solve_once():
            one = pde._diag_centre((x * x)[:, None] + np.zeros(15), ivs, lam, 30)
            once = stepped.calls
            two = pde._diag_centre(np.zeros(15)[:, None] + (x * x)[None, :], ivs, lam, 30)
            assert stepped.calls == once
        assert one == two

    @pytest.mark.parametrize("change", ["sigma_low_sq", "sigma_high_sq", "h", "ulp"])
    def test_a_key_one_setting_apart_misses(self, change, stepped):
        u0 = _rough((21, 9), 43)
        ivs = [UncertaintyInterval(1.0, 2.0)]
        h, dt, steps = 0.2, _box_dt([UncertaintyInterval(1.0, 4.0)], 0.2), 10
        with pde.solve_once():
            pde._diag_centre(u0.copy(), ivs, dt / (h * h), steps)
            once = stepped.calls
            u = u0.copy()
            if change == "ulp":
                u[10, 4] = np.nextafter(u[10, 4], np.inf)
            elif change == "h":
                h = np.nextafter(h, np.inf)
            else:
                ivs = [replace(ivs[0], **{change: 1.5})]
            pde._diag_centre(u, ivs, dt / (h * h), steps)
            assert stepped.calls > once
            assert len(pde._MEMO.get()) == 2

    # a problem's images (see test_every_allowed_image_gives_the_same_bits)
    # are one memo entry; an image outside that rule is a problem of its own

    @pytest.mark.parametrize("shape, ivs, transpose", [
        ((21, 7), KERNEL_IVS[:1], False),  # a sweep, flipped along its swept axis
        ((23, 23), (IV, IV), True),  # every flip and transpose of an equal-interval box
        ((13, 11, 15), KERNEL_IVS, False),  # every flip of a 3D box
    ], ids=["sweep", "box2-equal", "box3"])
    def test_an_image_is_served_the_same_bits_unstepped(self, shape, ivs, transpose, stepped):
        u0 = _rough(shape, 47)
        lam = _box_dt(ivs, 0.2) / (0.2 * 0.2)
        plain = pde._diag_centre(u0.copy(), ivs, lam, 12)
        with pde.solve_once():
            for image in _images(u0, len(ivs), transpose):
                assert _same_bits(pde._diag_centre(image.copy(), ivs, lam, 12), plain)
            assert stepped.calls == 2 and len(pde._MEMO.get()) == 1

    @pytest.mark.parametrize("shape, ivs, move", [
        # the returned rows would come back reversed
        ((21, 7), KERNEL_IVS[:1], lambda u: np.flip(u, 1)),
        # a square grid, so that only the intervals tell its axes apart
        ((23, 23), KERNEL_IVS[:2], lambda u: u.T),
        # (a + b) + c is not (a + c) + b, bit for bit
        ((13, 13, 13), (IV, IV, IV), lambda u: np.swapaxes(u, 0, 1)),
    ], ids=["passive-flip", "unequal-transpose", "box3-swap"])
    def test_an_image_outside_the_rule_misses(self, shape, ivs, move, stepped):
        u0 = _rough(shape, 53)
        lam = _box_dt(ivs, 0.2) / (0.2 * 0.2)
        plain = pde._diag_centre(move(u0).copy(), ivs, lam, 12)
        with pde.solve_once():
            pde._diag_centre(u0.copy(), ivs, lam, 12)
            moved = pde._diag_centre(move(u0).copy(), ivs, lam, 12)
            assert stepped.calls == 3 and len(pde._MEMO.get()) == 2
        assert _same_bits(moved, plain)
