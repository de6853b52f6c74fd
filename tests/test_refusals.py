"""Documented refusals of the library that no other test reaches: (call,
error type, message fragment)."""

import math

import numpy as np
import pytest

from gexpect.errors import DimensionMismatch, EmptyHull, GExpectError
from gexpect.expectation import (GNormal, LinearImage, RandomVectorSpec, Sequential, expect,
                                 expect_gnormal)
from gexpect.gamma import (ConvexHull, DiagonalBox, GammaSet, RankOneFamily, UncertaintyInterval,
                           check_scaling_constraint, g_function, image_gamma, is_diagonal_image)
from gexpect.pde import ExpectationResult, diffuse_last_axis, solve_gheat_hull
from gexpect.scenarios import check_asymmetric_independence, check_variance, run_linear_image
from gexpect.testfuncs import SQUARE

IV = UncertaintyInterval(1.0, 4.0)
AT_REST = UncertaintyInterval(0.0, 0.0)
BOX_2D = DiagonalBox((IV, IV))

REFUSALS = {
    "box-no-interval": (lambda: DiagonalBox(()), ValueError, "at least one interval"),
    "box-not-an-interval": (lambda: DiagonalBox((1.0,)), TypeError,
                            "entries must be UncertaintyInterval"),
    "hull-no-generator": (lambda: ConvexHull(()), EmptyHull, "at least one generator"),
    "hull-mixed-shapes": (lambda: ConvexHull((np.eye(2), np.eye(3))), DimensionMismatch,
                          "share one square shape"),
    "hull-not-psd": (lambda: ConvexHull((np.diag([1.0, -1.0]),)), ValueError,
                     "not positive semidefinite"),
    "rank-one-empty": (lambda: RankOneFamily([], IV), ValueError, "nonempty finite vector"),
    "rank-one-not-finite": (lambda: RankOneFamily([1.0, math.inf], IV), ValueError,
                            "nonempty finite vector"),
    "g-not-square": (lambda: g_function(BOX_2D, np.ones((2, 3))), ValueError,
                     r"square matrix, got shape \(2, 3\)"),
    "g-not-finite": (lambda: g_function(BOX_2D, [[math.nan, 0.0], [0.0, 1.0]]), ValueError,
                     "matrix entries must be finite"),
    "image-columns": (lambda: image_gamma(np.eye(3), BOX_2D), DimensionMismatch,
                      "3 columns but the set has dimension 2"),
    "image-not-finite": (lambda: image_gamma([[math.nan, 0.0], [0.0, 1.0]], BOX_2D), ValueError,
                         "matrix entries must be finite"),
    # a rank-2 map that is not axis-aligned would enumerate 2^13 box vertices
    "image-vertex-cap": (lambda: image_gamma(np.vstack([np.ones(13), np.arange(13.0)]),
                                             DiagonalBox((IV,) * 13)),
                         ValueError, "capped at dimension 12, got 13"),
    "diagonal-image-3x3": (lambda: is_diagonal_image(np.eye(3), BOX_2D), DimensionMismatch,
                           "expects a 2x2 matrix"),
    "scaling-no-interval": (lambda: check_scaling_constraint([]), ValueError,
                            "at least one interval"),
    "sequential-not-an-interval": (lambda: Sequential([1.0]), TypeError,
                                   "nonempty list of UncertaintyInterval"),
    "linear-image-columns": (lambda: LinearImage(np.eye(3), GNormal(BOX_2D)), DimensionMismatch,
                             "3 columns but the inner vector has dimension 2"),
    "hull-one-argument-phi": (lambda: solve_gheat_hull(ConvexHull((np.diag([1.0, 2.0]),)), SQUARE),
                              DimensionMismatch, "phi must take 2 arguments"),
    "variance-at-rest": (lambda: check_variance(AT_REST), GExpectError, "sigma_high_sq > 0"),
    "asymmetric-first-at-rest": (lambda: check_asymmetric_independence(AT_REST, IV),
                                 GExpectError, "first variable needs sigma_high_sq > 0"),
    "linear-image-v-length": (lambda: run_linear_image(IV, np.eye(2), [1.0, 2.0, 3.0]),
                              GExpectError, "v has 3 entries but A has 2 rows"),
    # an axis of even length has no centre node: on x = 0.2 (-80..81), a
    # sweep of x^2 read at node 81 is E[(0.2 + X)^2], not E[X^2]
    "sweep-even-axis": (lambda: diffuse_last_axis((0.2 * np.arange(-80.0, 82.0)) ** 2, IV, 0.2),
                        GExpectError, "the swept axis has 162 nodes"),
    "sweep-0d": (lambda: diffuse_last_axis(np.float64(1.0), IV, 0.2), GExpectError,
                 "an axis to sweep, got 0-d"),
    "sweep-not-finite": (lambda: diffuse_last_axis(np.array([[1.0, math.nan, 2.0]]), IV, 0.2),
                         GExpectError, "non-finite values"),
    "result-nan": (lambda: ExpectationResult(math.nan, 0.0, 0.0, 0, "pde"), GExpectError,
                   "non-finite value"),
    # the base classes are no variant: each call refuses before reading dim
    "expect-unsupported-law": (lambda: expect(RandomVectorSpec(), SQUARE), GExpectError,
                               "unsupported law description RandomVectorSpec"),
    "gnormal-unsupported-set": (lambda: expect_gnormal(GammaSet(), SQUARE), GExpectError,
                                "uncertainty set GammaSet is not solvable"),
    "expect-unsupported-set": (lambda: expect(GNormal(GammaSet()), SQUARE), GExpectError,
                               "uncertainty set GammaSet is not solvable"),
    "g-unknown-variant": (lambda: g_function(GammaSet(), np.eye(1)), TypeError,
                          "unknown uncertainty-set variant GammaSet"),
    "image-unknown-variant": (lambda: image_gamma(np.eye(1), GammaSet()), TypeError,
                              "unknown uncertainty-set variant GammaSet"),
    "image-of-unsupported-law": (lambda: LinearImage(np.eye(1), RandomVectorSpec()),
                                 GExpectError, "unsupported law description RandomVectorSpec"),
    "image-of-unsupported-set": (lambda: LinearImage(np.eye(1), GNormal(GammaSet())),
                                 GExpectError, "uncertainty set GammaSet is not solvable"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refused_call_raises_its_documented_error(call, error, fragment):
    with pytest.raises(error, match=fragment) as info:
        call()
    # pytest.raises accepts subclasses; the documented type is exact
    assert type(info.value) is error
