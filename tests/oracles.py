"""Reference implementations the tests compare the library against, and
the test functions only the tests use.

Gauss-Hermite quadrature gives an independent oracle for convex/concave
test functions, where the caller knows the extremal variance; set
equality of uncertainty sets is decided through G on fixed probes. Only
the tests use these, so scipy is a test dependency, not a runtime one.
"""

import math

import numpy as np
from scipy.special import roots_hermite

from gexpect import pde
from gexpect.errors import DimensionMismatch
from gexpect.gamma import DiagonalBox, GammaSet, g_function
from gexpect.testfuncs import (ABS, SQUARE, SUM_OF_SQUARES, TestFunction, XY, XY_SQUARED,
                               YX_SQUARED, monomial)

_GH_NODES = 64

# Equality of uncertainty sets is decided through G on this many
# pseudo-random unit-norm symmetric probes (plus the canonical basis).
_EQ_PROBES = 64
_EQ_TOL = 1e-9

IDENTITY = monomial(1)
QUARTIC = monomial(4)
NEG_SQUARE = SQUARE.negated()
POS_PART = TestFunction(lambda x: np.maximum(x, 0.0), arity=1, growth_order=1,
                        growth_const=2.0, name="x^+")
PIECEWISE_LINEAR = TestFunction(lambda x: np.maximum(x, 0.0) + 0.25 * np.minimum(x, 0.0),
                                arity=1, growth_order=1, growth_const=2.0, name="x^+ + x^-/4")
SUM_SQUARE = TestFunction(lambda x, y: (x + y) ** 2, arity=2, growth_order=1,
                          growth_const=8.0, name="(x+y)^2")
DIFF_SQUARE = TestFunction(lambda x, y: (x - y) ** 2, arity=2, growth_order=1,
                           growth_const=8.0, name="(x-y)^2")

# Catalogs the acceptance and sanity tests iterate over.
CATALOG_1D = (SQUARE, QUARTIC, ABS, POS_PART, NEG_SQUARE, PIECEWISE_LINEAR)
CATALOG_2D = (XY_SQUARED, YX_SQUARED, XY, SUM_SQUARE, DIFF_SQUARE, SUM_OF_SQUARES)

# (phi, whether phi is convex) for convex_oracle_1d: the G-expectation of a
# convex phi is the classical one at the upper variance, of a concave phi
# at the lower
ORACLE_1D = ((SQUARE, True), (QUARTIC, True), (ABS, True), (POS_PART, True),
             (NEG_SQUARE, False))


def gauss_hermite_expectation(phi, sigma: float, nodes: int = _GH_NODES) -> float:
    """Classical E[phi(sigma Z)], Z standard normal, by Gauss-Hermite quadrature."""
    x, w = roots_hermite(nodes)
    return float(w @ np.asarray(phi(sigma * math.sqrt(2.0) * x), dtype=float) / math.sqrt(math.pi))


def gauss_hermite_expectation_nd(phi, sigmas, nodes: int = 24) -> float:
    """Tensor quadrature for E[phi(sigma_1 Z_1, ..., sigma_n Z_n)], independent Z_i."""
    x, w = roots_hermite(nodes)
    sigmas = np.asarray(sigmas, dtype=float)
    grids = np.meshgrid(*[s * math.sqrt(2.0) * x for s in sigmas], indexing="ij")
    weights = np.meshgrid(*[w] * sigmas.size, indexing="ij")
    wprod = np.prod(np.stack(weights), axis=0)
    vals = np.asarray(phi(*grids), dtype=float)
    return float((wprod * vals).sum() / math.pi ** (sigmas.size / 2.0))


def convex_oracle_1d(sigma_sq: float, phi: TestFunction) -> float:
    """Quadrature oracle E[phi(sigma Z)] at the variance sigma_sq that phi
    saturates: the caller passes sigma_high_sq for a convex phi and
    sigma_low_sq for a concave one.

    Starts at 64 Gauss-Hermite nodes and doubles until two successive rules
    agree; plain 64-node quadrature is not accurate enough for kinked
    integrands such as |x|.
    """
    if phi.arity != 1:
        raise DimensionMismatch("convex_oracle_1d needs a 1-argument function")
    sigma = math.sqrt(sigma_sq)
    nodes = _GH_NODES
    value = gauss_hermite_expectation(phi, sigma, nodes)
    while nodes < 8192:
        nodes *= 2
        refined = gauss_hermite_expectation(phi, sigma, nodes)
        if abs(refined - value) <= 1e-5 * (1.0 + abs(refined)):
            return refined
        value = refined
    return value


def box_u_h(box: DiagonalBox, phi: TestFunction, h: float) -> float:
    """u_h of a box solve at spacing h: the centre value of its h grid
    alone, without the 2h and 4h grids that the solve's value weighs in."""
    grid = pde.build_grid([iv.sigma_high_sq for iv in box.intervals], phi, pde.SolverConfig(h=h))
    u0 = pde._eval_initial(phi, grid)
    return float(pde._diag_centre(u0, box.intervals, grid.lam, grid.steps))


def nested_u_h(intervals, phi: TestFunction, h: float) -> float:
    """u_h of a nested solve in the identity order at spacing h: its sweeps
    on the h grid alone."""
    sig_sqs = [iv.sigma_high_sq for iv in intervals]
    grid = pde.build_grid(sig_sqs, phi, pde.SolverConfig(h=h), max(sig_sqs))
    u = pde._eval_initial(phi, grid)
    for iv in reversed(intervals):
        u = pde.diffuse_last_axis(u, iv, grid.h)[0]
    return float(u)


def _probe_matrices(n: int):
    probes = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            probes.append(e)
    rng = np.random.default_rng(20240517)
    for _ in range(_EQ_PROBES):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        probes.append(a / np.linalg.norm(a))
    return probes


def gamma_sets_equal(g1: GammaSet, g2: GammaSet, tol: float = _EQ_TOL) -> bool:
    """Set equality through G, which determines the set one-to-one.

    Compares G on the canonical basis of symmetric matrices plus a fixed
    pseudo-random sample of unit-norm probes.
    """
    if g1.dim != g2.dim:
        return False
    scale = 1.0 + abs(g_function(g1, np.eye(g1.dim)))
    return all(
        abs(g_function(g1, a) - g_function(g2, a)) <= tol * scale for a in _probe_matrices(g1.dim)
    )
