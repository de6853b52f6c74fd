import numpy as np
import pytest

from gexpect.testfuncs import ABS, SQUARE, TestFunction, XY_SQUARED, linear_pullback, monomial
from oracles import CATALOG_1D, CATALOG_2D, IDENTITY, PIECEWISE_LINEAR, POS_PART


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


def test_negated_flips_values():
    neg = SQUARE.negated()
    assert neg(3.0) == -9.0
    assert neg.negated()(3.0) == 9.0


def test_linear_pullback_evaluates_phi_of_ax():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    pulled = linear_pullback(XY_SQUARED, a)
    x, y = 0.5, -1.5
    assert pulled(x, y) == pytest.approx((x + 2 * y) * y**2)


def test_linear_pullback_shape_check():
    with pytest.raises(ValueError, match="rows"):
        linear_pullback(XY_SQUARED, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_pullback_refuses_non_finite_matrices(bad):
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        linear_pullback(XY_SQUARED, np.array([[1.0, bad], [0.0, 1.0]]))


def test_monomial():
    assert monomial(3)(2.0) == 8.0


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


def test_wrong_shape_is_refused_by_name_and_expected_shape():
    with pytest.raises(ValueError, match=r"wide returned shape \(3,\).*expected shape \(32,\)"):
        TestFunction(lambda x, y: np.zeros(3), arity=2, name="wide")
    with pytest.raises(ValueError, match=r"test function returned shape \(32, 1\)"):
        TestFunction(lambda x, y: np.zeros((x.size, 1)), arity=2)


def test_scalar_valued_phi_constructs():
    const = TestFunction(lambda x, y: 1.5, arity=2, name="1.5")
    assert const(np.zeros(4), np.ones(4)) == 1.5
