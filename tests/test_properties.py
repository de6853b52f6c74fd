import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gexpect.expectation import expect_gnormal
from gexpect.gamma import (ConvexHull, DiagonalBox, Interval1D,
                           UncertaintyInterval, g_function, gbar, image_gamma,
                           is_diagonal_image)
from gexpect import pde
from gexpect.pde import SolverConfig
from gexpect.testfuncs import TestFunction
from oracles import gamma_sets_equal

FAST = SolverConfig(h=0.25, refine=False)

intervals = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)).map(
    lambda p: UncertaintyInterval(min(p), max(p)))
strict_intervals = st.tuples(st.floats(0.1, 3.0), st.floats(0.2, 4.0)).map(
    lambda p: UncertaintyInterval(p[0], p[0] + p[1]))
sym2 = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(
    lambda v: np.array([[v[0], v[1]], [v[1], v[2]]]))


@given(iv=intervals, x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0))
def test_gbar_monotone_and_homogeneous(iv, x, y):
    lo, hi = min(x, y), max(x, y)
    assert gbar(iv, lo) <= gbar(iv, hi) + 1e-12
    assert gbar(iv, 2.0 * x) == pytest.approx(2.0 * gbar(iv, x), abs=1e-12)


@given(iv1=intervals, iv2=intervals, a=sym2, b=sym2,
       lam=st.floats(0.0, 4.0))
def test_g_function_is_sublinear_on_boxes(iv1, iv2, a, b, lam):
    box = DiagonalBox((iv1, iv2))
    ga, gb = g_function(box, a), g_function(box, b)
    scale = 1.0 + abs(ga) + abs(gb)
    assert g_function(box, a + b) <= ga + gb + 1e-9 * scale
    assert g_function(box, lam * a) == pytest.approx(lam * ga, abs=1e-9 * scale)


@given(a=sym2, b=sym2, lam=st.floats(0.0, 4.0))
def test_g_function_is_sublinear_on_hulls(a, b, lam):
    hull = ConvexHull((np.diag([1.0, 2.0]), np.array([[4.0, 1.0], [1.0, 3.0]])))
    ga, gb = g_function(hull, a), g_function(hull, b)
    scale = 1.0 + abs(ga) + abs(gb)
    assert g_function(hull, a + b) <= ga + gb + 1e-9 * scale
    assert g_function(hull, lam * a) == pytest.approx(lam * ga, abs=1e-9 * scale)


@given(iv1=strict_intervals, iv2=strict_intervals,
       m1=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       m2=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
@settings(max_examples=40)
def test_image_composition(iv1, iv2, m1, m2):
    box = DiagonalBox((iv1, iv2))
    a1, a2 = np.array(m1).reshape(2, 2), np.array(m2).reshape(2, 2)
    composed = image_gamma(a2 @ a1, box)
    chained = image_gamma(a2, image_gamma(a1, box))
    assert gamma_sets_equal(composed, chained, tol=1e-8)


entry_or_zero = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))


@given(entries=st.lists(entry_or_zero, min_size=4, max_size=4))
def test_is_diagonal_image_iff_diagonal_or_antidiagonal(entries):
    a = np.array(entries).reshape(2, 2)
    assume(abs(np.linalg.det(a)) > 1e-6)
    box = DiagonalBox((UncertaintyInterval(1.0, 4.0), UncertaintyInterval(1.0, 4.0)))
    structural = (a[0, 1] == 0.0 and a[1, 0] == 0.0) or (a[0, 0] == 0.0 and a[1, 1] == 0.0)
    assert is_diagonal_image(a, box) == structural


@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 2.0))
@settings(max_examples=25)
def test_advance_diag_monotone_constant_translation(seed, shift):
    rng = np.random.default_rng(seed)
    iv = UncertaintyInterval(1.0, 4.0)
    h = 0.25
    dt = 0.4 * h * h / iv.sigma_high_sq

    def step(w):
        out = w.copy()
        pde._advance_diag(out, [iv], h, dt, 1)
        return out

    u = rng.standard_normal(33)
    v = u + rng.uniform(0.0, 1.0, 33)
    su, sv = step(u), step(v)
    assert np.all(sv >= su - 1e-12)  # monotone
    shifted = step(u + shift)
    assert np.allclose(shifted, su + shift)  # constants pass through


@st.composite
def coarse_test_functions(draw):
    a = draw(st.floats(-2.0, 2.0))
    b = draw(st.floats(-2.0, 2.0))
    c = draw(st.floats(-2.0, 2.0))
    return TestFunction(lambda x: a * x * x + b * np.abs(x) + c * x, arity=1,
                        growth_order=1, growth_const=4.0 * (abs(a) + abs(b) + abs(c)) + 4.0,
                        name="quad+kink")


@given(phi=coarse_test_functions(), psi=coarse_test_functions(),
       lam=st.floats(0.0, 3.0))
@settings(max_examples=12, deadline=None)
def test_computed_expectation_is_sublinear(phi, psi, lam):
    iv = Interval1D(UncertaintyInterval(1.0, 4.0))
    both = TestFunction(lambda x: phi.fn(x) + psi.fn(x), arity=1, growth_order=1,
                        growth_const=phi.growth_const + psi.growth_const, name="sum")
    scaled = TestFunction(lambda x: lam * np.asarray(phi.fn(x), dtype=float), arity=1,
                          growth_order=1, growth_const=lam * phi.growth_const + 1.0,
                          name="scaled")
    e_phi = expect_gnormal(iv, phi, cfg=FAST).value
    e_psi = expect_gnormal(iv, psi, cfg=FAST).value
    e_sum = expect_gnormal(iv, both, cfg=FAST).value
    e_scaled = expect_gnormal(iv, scaled, cfg=FAST).value
    tol = 1e-8 * (1.0 + abs(e_phi) + abs(e_psi))
    assert e_sum <= e_phi + e_psi + tol  # subadditive
    assert e_scaled == pytest.approx(lam * e_phi, abs=1e-8 + 1e-8 * abs(e_phi))


@given(phi=coarse_test_functions())
@settings(max_examples=10, deadline=None)
def test_expectation_symmetric_under_sign_flip(phi):
    iv = Interval1D(UncertaintyInterval(1.0, 4.0))
    flipped = TestFunction(lambda x: phi.fn(-np.asarray(x, dtype=float)), arity=1,
                           growth_order=1, growth_const=phi.growth_const, name="flip")
    a = expect_gnormal(iv, phi, cfg=FAST).value
    b = expect_gnormal(iv, flipped, cfg=FAST).value
    assert a == pytest.approx(b, abs=1e-9 + 1e-9 * abs(a))
