"""Sublinear expectations of G-normal and sequentially independent vectors.

Expectations are computed by monotone explicit finite-difference solvers
for the G-heat equation; sequential (nested) independence is handled by a
backward recursion of 1D solves. Scenario runners turn the comparison
identities and inequalities separating the two constructions into
machine-checkable reports.
"""

from .errors import DimensionMismatch, EmptyHull, GExpectError
from .gamma import (ConvexHull, DiagonalBox, GammaSet, Interval1D,
                    RankOneFamily, UncertaintyInterval,
                    check_scaling_constraint, g_function, gbar, image_gamma,
                    is_diagonal_image, singleton_zero)
from .testfuncs import TestFunction, linear_pullback, monomial
from .pde import (ExpectationResult, GridSpec, SolverConfig, build_grid,
                  diffuse_last_axis, solve_gheat_diag, solve_gheat_hull)
from .expectation import (GNormal, LinearImage,
                          RandomVectorSpec, Sequential, expect, expect_gnormal,
                          expect_sequential, lower_expectation)
from .scenarios import (Assertion, Quantity, ScenarioOutcome,
                        run_asymmetric_independence, run_diag_not_indep,
                        run_invertible_scan, run_linear_combination,
                        run_linear_image, run_quadratic_form,
                        run_reverse_independence_witness,
                        run_symmetry_identity)
from .cli import RunConfig, SCENARIO_NAMES, execute, main, parse_args

__version__ = "0.1.0"
