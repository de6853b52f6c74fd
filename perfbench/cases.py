"""Seeded inputs of the call workloads, with their closed-form references.

Each workload function returns a fixed-size pool of cases. A case is one
call of the public API (``expect`` or ``lower_expectation``) plus, where a
closed form exists, its reference value from ``refs``. The seed drives every
continuous parameter (variance bounds, weights, strikes, matrices, orders);
the pool's structure (which law, which function family, which grid) is a
fixed cycle, so the cost mix is the same for every seed and the timings
differ between seeds only through the drawn parameters.

The upper variance bounds, hull generators and image scalings are drawn
from narrow bands because they set the grid and the time step, and so the
cost of a call; the lower bounds, weights, strikes, matrices and orders,
which change the answer but not the cost, are drawn from wide ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gexpect import (ConvexHull, DiagonalBox, GNormal, Interval1D, LinearImage,
                     RankOneFamily, Sequential, SolverConfig, TestFunction,
                     UncertaintyInterval, expect, lower_expectation)

import refs

WORKLOAD_POOL = {"gnormal": 100, "sequential": 32}


@dataclass(frozen=True)
class Case:
    label: str
    spec: object
    phi: TestFunction
    cfg: SolverConfig
    lower: bool
    ref: float | None
    params: tuple  # plain numbers that define the case, for the same-seed check

    def call(self):
        fn = lower_expectation if self.lower else expect
        return fn(self.spec, self.phi, self.cfg)


def psi_function(psi: str, w, k: float = 0.0) -> TestFunction:
    """psi(<w, x>) as a TestFunction with a valid declared growth bound."""
    w = tuple(float(v) for v in w)
    f = refs.PSI_FUNCS[psi]
    order, const, power = refs.PSI_GROWTH[psi]
    norm = max(1.0, math.sqrt(sum(v * v for v in w)))
    tags = {"convex"} if psi != "x" else set()
    if len(w) == 1:
        fn = lambda x, w0=w[0]: f(w0 * np.asarray(x, dtype=float), k)
    else:
        fn = lambda *c: f(sum(wi * np.asarray(ci, dtype=float) for wi, ci in zip(w, c)), k)
    return TestFunction(fn=fn, arity=len(w), growth_order=order,
                        growth_const=const * norm ** power, tags=frozenset(tags),
                        name=f"{psi}(<w,x>)")


def quad_function(a) -> TestFunction:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return TestFunction(
        fn=lambda *c: sum(a[i, j] * c[i] * c[j] for i in range(n) for j in range(n)),
        arity=n, growth_order=1, growth_const=2.0 * float(np.abs(a).sum()) + 1.0,
        name="<Ax,x>")


def cubic_function(n: int, a: int, b: int) -> TestFunction:
    """x_a * x_b^2 as a function of n coordinates."""
    return TestFunction(fn=lambda *c: c[a] * c[b] ** 2, arity=n,
                        growth_order=2, growth_const=8.0, name=f"x{a}*x{b}^2")


def _interval(rng, high_lo: float, high_hi: float) -> UncertaintyInterval:
    high = rng.uniform(high_lo, high_hi)
    return UncertaintyInterval(high * rng.uniform(0.1, 0.9), high)


def _strike(rng, psi: str, sigma_up: float) -> float:
    """Strike K of the call payoff, drawn continuously; 0 for other families."""
    return rng.uniform(-1.5, 1.5) * sigma_up if psi == "(x-K)+" else 0.0


def _sym(rng, n: int) -> np.ndarray:
    """Random symmetric matrix of unit Frobenius norm."""
    a = rng.standard_normal((n, n))
    a = a + a.T
    return a / np.linalg.norm(a)


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# gnormal: coarse 2D box, hull and image solves (the 2D kernels), with one
# call in four a default-config 1D solve (per-step dispatch)


_LAWS_1D = ("interval", "interval-lower", "rank-one", "image", "image-lower")
_PSIS_1D = ("(x-K)+", "x^2", "(x-K)+", "|x|", "(x-K)+", "x^4", "x")
_LAWS_2D = ("box-1", "box-2", "box-4", "hull", "image")
_PSIS_2D = ("x^2", "(x-K)+", "|x|")
# psi(<w,x>) for each convex psi, then a quadratic form and x*y^2 / y*x^2
_KINDS_2D = (*_PSIS_2D, "quad", "cubic")


def _gnormal_1d_case(rng, j: int) -> Case:
    law, psi = _LAWS_1D[j % 5], _PSIS_1D[j % 7]
    lower = law.endswith("-lower")
    if law.startswith("interval"):
        iv = _interval(rng, 0.5, 2.0)
        spec, w = GNormal(Interval1D(iv)), (1.0,)
        var = iv.sigma_low_sq if lower else iv.sigma_high_sq
        params = (iv.sigma_low_sq, iv.sigma_high_sq)
    elif law == "rank-one":
        iv = _interval(rng, 0.5, 2.0)
        theta = rng.uniform(0.0, math.pi)
        u = rng.uniform(0.7, 1.3) * np.array([math.cos(theta), math.sin(theta)])
        w = rng.uniform(-1.0, 1.0, size=2)
        while abs(w @ u) < 0.3:
            w = rng.uniform(-1.0, 1.0, size=2)
        spec = GNormal(RankOneFamily(u, iv))
        var = float(w @ u) ** 2 * iv.sigma_high_sq
        params = (iv.sigma_low_sq, iv.sigma_high_sq, *u, *w)
    else:
        ivs = (_interval(rng, 0.5, 2.0), _interval(rng, 0.5, 2.0))
        row = rng.uniform(0.3, 1.2, size=2) * rng.choice([-1.0, 1.0], size=2)
        spec, w = LinearImage(row.reshape(1, 2), GNormal(DiagonalBox(ivs))), (1.0,)
        bounds = [iv.sigma_low_sq if lower else iv.sigma_high_sq for iv in ivs]
        var = refs.box_variance(row, bounds)
        params = (*(b for iv in ivs for b in (iv.sigma_low_sq, iv.sigma_high_sq)), *row)
    k = _strike(rng, psi, math.sqrt(var))
    return Case(f"{law} {psi}", spec, psi_function(psi, w, k), SolverConfig(), lower,
                refs.gaussian_psi(psi, math.sqrt(var), k), (law, psi, k, *params))


def _gnormal_2d_case(rng, j: int) -> Case:
    # The law changes fastest, then the kind of phi: cases 0-24 hold every
    # law x kind pair, and cases 25-49 the same pairs at the other h.
    law, kind = _LAWS_2D[j % 5], _KINDS_2D[(j // 5) % 5]
    h = (0.25, 0.2)[(j % 5 + (j // 5) % 5 + j // 25) % 2]
    if law == "hull":
        gens = []
        for _ in range(3):
            d = rng.uniform(1.6, 2.0, size=2)
            off = rng.choice([-1.0, 1.0]) * rng.uniform(0.35, 0.45) * min(d)
            gens.append(np.array([[d[0], off], [off, d[1]]]))
        spec, mat = GNormal(ConvexHull(tuple(gens))), None
        params = tuple(float(x) for g in gens for x in g.ravel())
    else:
        if law == "image":
            # a scaled permutation keeps the image's hull generators diagonal
            ivs = (_interval(rng, 1.9, 2.1), _interval(rng, 1.9, 2.1))
            mat = np.diag(rng.uniform(0.95, 1.05, size=2))[list(rng.permutation(2))]
            spec = LinearImage(mat, GNormal(DiagonalBox(ivs)))
            params = (*mat.ravel(),)
        else:
            iv = _interval(rng, 1.9, 2.1)
            ivs, mat = (iv, iv.scaled(float(law[-1]))), np.eye(2)
            spec = GNormal(DiagonalBox(ivs))
            params = ()
        lows = [iv.sigma_low_sq for iv in ivs]
        highs = [iv.sigma_high_sq for iv in ivs]
        params += (*lows, *highs)
    if kind in _PSIS_2D:
        w = _unit(rng, 2)
        var = (refs.hull_variance_max(w, gens) if law == "hull"
               else refs.box_variance(mat.T @ w, highs))
        k = _strike(rng, kind, math.sqrt(var))
        phi, ref = psi_function(kind, w, k), refs.gaussian_psi(kind, math.sqrt(var), k)
        params += (k, *w)
    elif kind == "quad":
        a = _sym(rng, 2)
        phi = quad_function(a)
        ref = (refs.quad_hull(a, gens) if law == "hull"
               else refs.quad_box(mat.T @ a @ mat, lows, highs))
        params += tuple(a.ravel())
    else:
        a, b = ((0, 1), (1, 0))[int(rng.integers(2))]
        phi, ref = cubic_function(2, a, b), None  # no closed form for x*y^2 here
        params += (a, b)
    return Case(f"{law} h={h} {kind}", spec, phi, SolverConfig(h=h), False, ref,
                (law, h, kind, *params))


def gnormal(seed: int, count: int = WORKLOAD_POOL["gnormal"]) -> list:
    """The first count cases of the pool for seed."""
    rng = np.random.default_rng([seed, 2])
    return [_gnormal_1d_case(rng, i // 4) if i % 4 == 3 else _gnormal_2d_case(rng, i - i // 4)
            for i in range(count)]


# ---------------------------------------------------------------------------
# sequential: nested 1D sweeps; every 4th case has 3 coordinates (> L2)


def sequential(seed: int, count: int = WORKLOAD_POOL["sequential"]) -> list:
    """The first count cases of the pool for seed."""
    rng = np.random.default_rng([seed, 3])
    cases, n_convex = [], 0
    for i in range(count):
        n, h, band = (3, 0.3, (1.45, 1.55)) if i % 4 == 3 else (2, 0.2, (1.9, 2.1))
        ivs = tuple(_interval(rng, *band) for _ in range(n))
        order = tuple(int(j) for j in rng.permutation(n))
        lows = [iv.sigma_low_sq for iv in ivs]
        highs = [iv.sigma_high_sq for iv in ivs]
        inner = Sequential(ivs, order)
        image = (i // 4) % 2 == 1
        mat = _orthogonal(rng, n) if image else np.eye(n)
        family = ("convex", "quad", "cubic")[i % 3] if not image else ("convex", "quad")[i % 2]
        if family == "convex":
            psi, n_convex = _PSIS_2D[n_convex % 3], n_convex + 1
            v = _unit(rng, n)
            w = v @ mat  # <v, A y> = <A^T v, y>
            sigma = math.sqrt(refs.box_variance(w, highs))
            k = _strike(rng, psi, sigma)
            phi, ref = psi_function(psi, v, k), refs.gaussian_psi(psi, sigma, k)
            fparams = (psi, k, *v)
        elif family == "quad":
            b = _sym(rng, n)
            phi, ref = quad_function(b), refs.quad_box(mat.T @ b @ mat, lows, highs)
            fparams = tuple(b.ravel())
        else:
            a, b = (int(j) for j in rng.choice(n, size=2, replace=False))
            pos = {arg: p for p, arg in enumerate(order)}
            phi = cubic_function(n, a, b)
            ref = (refs.asymmetric_moment(highs[a], highs[b] - lows[b])
                   if pos[a] < pos[b] else 0.0)
            fparams = (a, b)
        spec = LinearImage(mat, inner) if image else inner
        cases.append(Case(f"seq{n} {'image' if image else 'plain'} {family}", spec, phi,
                          SolverConfig(h=h), False, ref,
                          (n, h, family, order, *lows, *highs, *mat.ravel(), *fparams)))
    return cases


WORKLOAD_CASES = {"gnormal": gnormal, "sequential": sequential}
