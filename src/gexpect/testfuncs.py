"""Evaluable test functions with declared polynomial-growth metadata.

Solvers evaluate these on whole grids, so the wrapped callable must
accept numpy arrays (one per argument, broadcast together and read-only)
and return an array that broadcasts to their shape, or a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SPOT_CHECK_PAIRS = 32
_SPOT_CHECK_RADIUS = 3.0


@dataclass(frozen=True)
class TestFunction:
    """A scalar function on R^n with growth bound C (1 + |x|^m + |y|^m) |x - y|.

    The declared bound is spot-checked on random point pairs at
    construction; tags may include "convex", "concave", "bounded".
    """

    __test__ = False  # keep pytest from collecting the class

    fn: object
    arity: int
    growth_order: int = 2
    growth_const: float = 10.0
    tags: frozenset = frozenset()
    name: str = ""

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.growth_order < 0 or self.growth_const <= 0:
            raise ValueError("need growth_order >= 0 and growth_const > 0")
        object.__setattr__(self, "tags", frozenset(self.tags))
        self._spot_check()

    def _spot_check(self):
        rng = np.random.default_rng(97)
        pts = rng.uniform(-_SPOT_CHECK_RADIUS, _SPOT_CHECK_RADIUS,
                          size=(2, _SPOT_CHECK_PAIRS, self.arity))
        x, y = pts[0], pts[1]
        fx = np.asarray(self(*(x[:, i] for i in range(self.arity))), dtype=float)
        fy = np.asarray(self(*(y[:, i] for i in range(self.arity))), dtype=float)
        nx = np.linalg.norm(x, axis=1)
        ny = np.linalg.norm(y, axis=1)
        bound = self.growth_const * (1 + nx**self.growth_order + ny**self.growth_order)
        bound = bound * np.linalg.norm(x - y, axis=1)
        if np.any(np.abs(fx - fy) > bound * (1 + 1e-9) + 1e-12):
            raise ValueError(f"declared growth bound violated for {self.name or 'test function'}")

    def __call__(self, *coords):
        if len(coords) != self.arity:
            raise ValueError(f"{self.name or 'function'} takes {self.arity} arguments, got {len(coords)}")
        return self.fn(*coords)

    def negated(self) -> "TestFunction":
        flip = {"convex": "concave", "concave": "convex"}
        f = self.fn
        return TestFunction(
            fn=lambda *c: -np.asarray(f(*c), dtype=float),
            arity=self.arity,
            growth_order=self.growth_order,
            growth_const=self.growth_const,
            tags=frozenset(flip.get(t, t) for t in self.tags),
            name=f"-({self.name})" if self.name else "",
        )


def linear_pullback(phi: TestFunction, a) -> TestFunction:
    """phi(A x) as a function of x; growth metadata rescaled by ||A||."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if a.shape[0] != phi.arity:
        raise ValueError(f"matrix has {a.shape[0]} rows but phi takes {phi.arity} arguments")
    norm = max(float(np.linalg.norm(a, 2)), 1.0)

    def pulled(*coords):
        # each image coordinate sum_j a_ij x_j from the (often broadcast)
        # coordinate arrays themselves, without a stacked copy of them
        img = []
        for row in a:
            y = row[0] * coords[0]
            for a_ij, x in zip(row[1:], coords[1:]):
                y = y + a_ij * x
            img.append(y)
        return phi.fn(*img)

    return TestFunction(
        fn=pulled,
        arity=a.shape[1],
        growth_order=phi.growth_order,
        growth_const=phi.growth_const * norm ** (phi.growth_order + 1),
        tags=phi.tags - {"convex", "concave"} | (phi.tags & {"bounded"}),
        name=f"{phi.name}(A.)" if phi.name else "",
    )


def monomial(k: int) -> TestFunction:
    tags = {"convex"} if k in (2, 4) else set()
    return TestFunction(
        fn=lambda x, k=k: np.asarray(x, dtype=float) ** k,
        arity=1,
        growth_order=max(k - 1, 1),
        growth_const=float(2 * k + 2),
        tags=frozenset(tags),
        name=f"x^{k}",
    )


IDENTITY = monomial(1)
SQUARE = monomial(2)
QUARTIC = monomial(4)
NEG_SQUARE = SQUARE.negated()
ABS = TestFunction(np.abs, arity=1, growth_order=1, growth_const=2.0,
                   tags={"convex"}, name="|x|")
POS_PART = TestFunction(lambda x: np.maximum(x, 0.0), arity=1, growth_order=1,
                        growth_const=2.0, tags={"convex"}, name="x^+")
PIECEWISE_LINEAR = TestFunction(lambda x: np.maximum(x, 0.0) + 0.25 * np.minimum(x, 0.0),
                                arity=1, growth_order=1, growth_const=2.0,
                                tags={"convex"}, name="x^+ + x^-/4")

XY_SQUARED = TestFunction(lambda x, y: x * y**2, arity=2, growth_order=2,
                          growth_const=8.0, name="x*y^2")
YX_SQUARED = TestFunction(lambda x, y: y * x**2, arity=2, growth_order=2,
                          growth_const=8.0, name="y*x^2")
XY = TestFunction(lambda x, y: x * y, arity=2, growth_order=1, growth_const=4.0,
                  name="x*y")
SUM_SQUARE = TestFunction(lambda x, y: (x + y) ** 2, arity=2, growth_order=1,
                          growth_const=8.0, tags={"convex"}, name="(x+y)^2")
DIFF_SQUARE = TestFunction(lambda x, y: (x - y) ** 2, arity=2, growth_order=1,
                           growth_const=8.0, tags={"convex"}, name="(x-y)^2")
SUM_OF_SQUARES = TestFunction(lambda x, y: x**2 + y**2, arity=2, growth_order=1,
                              growth_const=8.0, tags={"convex"}, name="x^2+y^2")

# Catalogs the acceptance and sanity tests iterate over.
CATALOG_1D = (SQUARE, QUARTIC, ABS, POS_PART, NEG_SQUARE, PIECEWISE_LINEAR)
CATALOG_2D = (XY_SQUARED, YX_SQUARED, XY, SUM_SQUARE, DIFF_SQUARE, SUM_OF_SQUARES)
