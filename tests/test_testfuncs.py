import numpy as np
import pytest

from gexpect.testfuncs import (ABS, CATALOG_1D, CATALOG_2D, IDENTITY,
                               PIECEWISE_LINEAR, POS_PART, SQUARE, TestFunction,
                               XY_SQUARED, linear_pullback, monomial)


def test_growth_bound_is_spot_checked():
    with pytest.raises(ValueError, match="growth bound"):
        TestFunction(np.exp, arity=1, growth_order=0, growth_const=0.5, name="exp")


def test_construction_validation():
    with pytest.raises(ValueError):
        TestFunction(np.abs, arity=0)
    with pytest.raises(ValueError):
        TestFunction(np.abs, arity=1, growth_const=0.0)


def test_call_checks_arity():
    with pytest.raises(ValueError, match="argument"):
        SQUARE(1.0, 2.0)


def test_call_vectorizes():
    out = XY_SQUARED(np.array([1.0, 2.0]), np.array([3.0, -1.0]))
    assert np.allclose(out, [9.0, 2.0])


def test_negated_flips_values_and_tags():
    neg = SQUARE.negated()
    assert neg(3.0) == -9.0
    assert "concave" in neg.tags and "convex" not in neg.tags
    assert "convex" in neg.negated().tags


def test_linear_pullback_evaluates_phi_of_ax():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    pulled = linear_pullback(XY_SQUARED, a)
    x, y = 0.5, -1.5
    assert pulled(x, y) == pytest.approx((x + 2 * y) * y**2)
    # convexity is not preserved in general, the tag must go
    assert "convex" not in linear_pullback(SQUARE, np.array([[1.0, 1.0]])).tags


def test_linear_pullback_shape_check():
    with pytest.raises(ValueError, match="rows"):
        linear_pullback(XY_SQUARED, np.eye(3))


def test_monomial():
    assert monomial(3)(2.0) == 8.0
    assert "convex" in monomial(4).tags
    assert "convex" not in monomial(3).tags


def test_catalog_sanity():
    for phi in CATALOG_1D:
        assert phi.arity == 1
        assert np.isfinite(phi(0.7))
    for phi in CATALOG_2D:
        assert phi.arity == 2
        assert np.isfinite(phi(0.7, -0.3))
    assert IDENTITY(5.0) == 5.0
    assert ABS(-2.0) == 2.0
    assert POS_PART(-2.0) == 0.0
    assert PIECEWISE_LINEAR(-4.0) == -1.0
