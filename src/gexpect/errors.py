"""Exception types shared across the package."""


class GExpectError(ValueError):
    """Base class for all argument / stability errors raised here."""


class DimensionMismatch(GExpectError):
    """Shapes of an uncertainty set and a matrix/vector do not agree."""


class EmptyHull(GExpectError):
    """A convex-hull uncertainty set was given no generators."""
