"""Exception types shared across the package."""


class GFDescentError(Exception):
    """Base class for every error raised by this package."""


class ZeroPoint(GFDescentError):
    """(0, 0) is not a point of the projective line."""


class WorkLimitExceeded(GFDescentError):
    """A named work cap ran out, or would run out before a build could end.

    cap names the budget ("rho iterations", "power bits", "unit classes" or
    "elimination bits"), limit is its value and detail says what hit it.
    The CLI exits with code 2 on this error and reports cap in its stderr
    JSON.
    """

    def __init__(self, cap: str, limit: int, detail: str):
        self.cap = cap
        self.limit = limit
        super().__init__(f"{cap} cap of {limit} exceeded: {detail}")


class NotAStackPoint(GFDescentError):
    """The point fails the root conditions over the given S-integer ring."""


class SingularCurve(GFDescentError):
    """d = 0 does not define a smooth twist."""


class PipelineMismatch(GFDescentError):
    """The sieve output disagrees with the exhaustive enumerator."""
