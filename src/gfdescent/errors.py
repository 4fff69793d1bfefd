"""Exception types shared across the package, and the table of work caps."""

# Every work cap, keyed by the name WorkLimitExceeded reports, with its limit
# and, above it, what one unit is.  charge reads the row each time it is
# called, so a test may lower a cap with monkeypatch.setitem.
CAPS = {
    # A product or backtrack step of Brent's rho, per 64-bit word of the cofactor.
    "rho work": 5_000_000,
    # A bit of a build of powers, bounded below first; (4,4,2) at bound 2000 holds 164 k.
    "power bits": 2**25,
    # A class s_unit_reps lists; Z[1/{2,3,5,7,11}] modulo 13th powers has 13^5 = 371,293.
    "unit classes": 2**20,
    # rows * cols * min(rows, cols) * bits of the largest |entry|: 64x64 in +-15 is at it.
    "elimination bits": 2**20,
    # A bit Miller-Rabin tests, per number or prime list: 2^1279 - 1 passes, 2^2203 - 1 not.
    "prime bits": 2**11,
    # An entry of the join's shorter window; (2,2,2) with 1, 1, -1 passes it past bound 15,000.
    "join probes": 2**25,
}


class GFDescentError(Exception):
    """Base class for every error raised by this package."""


class ZeroPoint(GFDescentError):
    """(0, 0) is not a point of the projective line."""


class WorkLimitExceeded(GFDescentError):
    """A named work cap ran out, or would run out before a build could end.

    cap names a row of CAPS ("rho work", "power bits", "unit classes",
    "elimination bits", "prime bits" or "join probes"), limit is its value
    and detail says what hit it.  Raise it through charge.  The CLI exits 2
    on this error and reports cap in stderr JSON.
    """

    def __init__(self, cap: str, limit: int, detail: str):
        self.cap = cap
        self.limit = limit
        super().__init__(f"{cap} cap of {limit} exceeded: {detail}")


def charge(cap: str, work: int, what: str, *values) -> None:
    """Raise WorkLimitExceeded when work passes CAPS[cap], read now, with
    detail what.format(*values), which is rendered only then."""
    limit = CAPS[cap]
    if work > limit:
        raise WorkLimitExceeded(cap, limit, what.format(*values))


class NotAStackPoint(GFDescentError):
    """The point fails the root conditions over the given S-integer ring."""


class SingularCurve(GFDescentError):
    """d = 0 does not define a smooth twist."""


class PipelineMismatch(GFDescentError):
    """The sieve output disagrees with the exhaustive enumerator."""
