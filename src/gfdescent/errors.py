"""Exception types shared across the package."""


class GFDescentError(Exception):
    """Base class for every error raised by this package."""


class ZeroPoint(GFDescentError):
    """(0, 0) is not a point of the projective line."""


class WorkLimitExceeded(GFDescentError):
    """Factorization gave up before splitting the input completely."""

    def __init__(self, n, remaining):
        self.n = n
        self.remaining = remaining
        super().__init__(f"factorization work cap hit on {n} (unsplit part {remaining})")


class NotAStackPoint(GFDescentError):
    """The point fails the root conditions over the given S-integer ring."""


class SingularCurve(GFDescentError):
    """d = 0 does not define a smooth twist."""


class PipelineMismatch(GFDescentError):
    """The sieve output disagrees with the exhaustive enumerator."""
