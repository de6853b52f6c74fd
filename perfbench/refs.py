"""Closed-form references for the benchmark, independent of gexpect.

Every value here comes from a textbook formula for a Gaussian law and
from the extreme-point structure of the uncertainty set; nothing calls
into gexpect (in particular not ``g_function`` or the quadrature oracles),
so a solver defect cannot hide in its own reference.

Conventions: ``psi`` names a one-dimensional function of a linear
combination s = <w, x>; ``k`` is the strike of the call payoff (s - k)^+.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

# psi name -> numpy implementation on the combined coordinate s
PSI_FUNCS = {
    "x": lambda s, k: s,
    "x^2": lambda s, k: s * s,
    "x^4": lambda s, k: s ** 4,
    "|x|": lambda s, k: np.abs(s),
    "(x-K)+": lambda s, k: np.maximum(s - k, 0.0),
}

# psi name -> (growth order, growth constant for ||w|| = 1, power of ||w||)
PSI_GROWTH = {
    "x": (1, 2.0, 1),
    "x^2": (1, 2.0, 2),
    "x^4": (3, 10.0, 4),
    "|x|": (1, 2.0, 1),
    "(x-K)+": (1, 2.0, 1),
}


def normal_sf(x: float) -> float:
    """P(Z > x) for a standard normal Z."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gaussian_psi(psi: str, sigma: float, k: float = 0.0) -> float:
    """Classical E[psi(sigma Z)] for Z standard normal."""
    if psi == "x":
        return 0.0
    if psi == "x^2":
        return sigma * sigma
    if psi == "x^4":
        return 3.0 * sigma ** 4
    if psi == "|x|":
        return sigma * math.sqrt(2.0 / math.pi)
    if psi == "(x-K)+":
        if sigma == 0.0:
            return max(-k, 0.0)
        # Bachelier call: sigma pdf(K/sigma) - K P(Z > K/sigma)
        d = k / sigma
        return sigma * math.exp(-0.5 * d * d) / SQRT_2PI - k * normal_sf(d)
    raise ValueError(f"no closed form for psi={psi!r}")


def box_variance(w, sig_sqs) -> float:
    """Variance of <w, X> at the box vertex sig_sqs: sum_i w_i^2 sigma_i^2."""
    return float(sum(wi * wi * s for wi, s in zip(w, sig_sqs)))


def hull_variance_max(w, generators) -> float:
    """Largest variance of <w, X> over a convex hull: max_k w^T B_k w."""
    w = np.asarray(w, dtype=float)
    return max(float(w @ b @ w) for b in generators)


def quad_box(a, lows, highs) -> float:
    """E^[<AX, X>] = 2G(A) on a diagonal box (also the sequential value):
    sum over the diagonal of a_ii sigma_high_i^2 or a_ii sigma_low_i^2 by sign."""
    a = np.asarray(a, dtype=float)
    return float(sum(a[i, i] * (highs[i] if a[i, i] > 0 else lows[i])
                     for i in range(a.shape[0])))


def quad_hull(a, generators) -> float:
    """E^[<AX, X>] = 2G(A) on a convex hull: max over generators of tr(AB)."""
    a = np.asarray(a, dtype=float)
    return max(float(np.trace(a @ b)) for b in generators)


def asymmetric_moment(earlier_high: float, later_width: float) -> float:
    """E^[Y_e Y_l^2] for Y_l independent from Y_e: width_l sigma_high_e / sqrt(2 pi).

    The reversed moment E^[Y_l Y_e^2], linear in the later coordinate,
    vanishes.
    """
    return later_width * math.sqrt(earlier_high) / SQRT_2PI
