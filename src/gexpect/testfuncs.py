"""Evaluable test functions with declared polynomial-growth metadata.

Solvers evaluate these on grids, so the wrapped callable must accept
numpy arrays and return an array that broadcasts to their broadcast shape,
or a scalar. On a grid it gets an open mesh, one read-only array per
argument of length 1 along every other axis, which broadcast together (the
first one cut to a slab of rows); it must not assume full-grid shapes.
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
    construction. tags are free labels that nothing in the library reads.
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
        fx, fy = (self._values_at(p) for p in (x, y))
        if np.any(self.breaks_growth(np.abs(fx - fy), np.linalg.norm(x, axis=1),
                                     np.linalg.norm(y, axis=1), np.linalg.norm(x - y, axis=1))):
            raise ValueError(f"declared growth bound violated for {self.name or 'test function'}")

    def breaks_growth(self, diff, nx, ny, dist) -> np.ndarray:
        """Where diff = |phi(x) - phi(y)| exceeds the declared bound, given
        |x|, |y| and |x - y|; a relative 1e-9 is left for rounding. A bound
        that overflows is inf (or nan at inf * 0), which nothing breaks."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self.growth_const * (1 + nx**self.growth_order + ny**self.growth_order) * dist
            return diff > bound * (1 + 1e-9) + 1e-12

    def _values_at(self, pts) -> np.ndarray:
        """The values at the rows of pts, one per point; a scalar broadcasts."""
        values = np.asarray(self(*(pts[:, i] for i in range(self.arity))), dtype=float)
        try:
            return np.broadcast_to(values, pts.shape[:1])
        except ValueError:
            raise ValueError(f"{self.name or 'test function'} returned shape {values.shape} for "
                             f"{len(pts)} points; expected shape {pts.shape[:1]} or a "
                             f"scalar") from None

    def __call__(self, *coords):
        if len(coords) != self.arity:
            raise ValueError(f"{self.name or 'function'} takes {self.arity} arguments, got {len(coords)}")
        return self.fn(*coords)

    def negated(self) -> "TestFunction":
        f = self.fn
        return TestFunction(
            fn=lambda *c: -np.asarray(f(*c), dtype=float),
            arity=self.arity,
            growth_order=self.growth_order,
            growth_const=self.growth_const,
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
        name=f"{phi.name}(A.)" if phi.name else "",
    )


def monomial(k: int) -> TestFunction:
    return TestFunction(
        fn=lambda x, k=k: np.asarray(x, dtype=float) ** k,
        arity=1,
        growth_order=max(k - 1, 1),
        growth_const=float(2 * k + 2),
        name=f"x^{k}",
    )


SQUARE = monomial(2)
ABS = TestFunction(np.abs, arity=1, growth_order=1, growth_const=2.0, name="|x|")

XY_SQUARED = TestFunction(lambda x, y: x * y**2, arity=2, growth_order=2,
                          growth_const=8.0, name="x*y^2")
YX_SQUARED = TestFunction(lambda x, y: y * x**2, arity=2, growth_order=2,
                          growth_const=8.0, name="y*x^2")
XY = TestFunction(lambda x, y: x * y, arity=2, growth_order=1, growth_const=4.0,
                  name="x*y")
SUM_OF_SQUARES = TestFunction(lambda x, y: x**2 + y**2, arity=2, growth_order=1,
                              growth_const=8.0, name="x^2+y^2")
