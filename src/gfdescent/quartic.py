"""The complete pipeline for x^4 + y^4 - z^2 = 0 via quartic twists.

The degree-4 cover of the projective line here is the curve
v^2 w = u^3 - d u w^2 with the map (u:v:w) -> (u^2 : u^2 - d w^2), one curve
per fourth-power class d of the units of Z[1/2].  Images of their rational
points cover every candidate point; intersecting with the rooted-line test
over Z and recovering solutions reproduces the classical eight triples.
The torsion of each twist is read off d by the classical closed form, so it
costs one perfect-power test whatever the size of d.  Only the sieve
imports belyi and sarith, so the torsion command loads neither.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from ._record import Record, set_field
from .errors import PipelineMismatch, SingularCurve
from .exact import (
    POINT_INFINITY,
    POINT_ONE,
    POINT_ZERO,
    ProjPointQ,
    is_perfect_nth_power,
    normalize_projective,
)
from .gfe import GFE, PrimitiveSolution, _recover, bad_prime_set, enumerate_primitive_solutions
from .groups import Signature

SIG_442 = Signature(4, 4, 2)
GFE_442 = GFE(SIG_442, 1, 1, -1)


class CurvePoint(Record):
    """Affine point (u, v) or the point at infinity (u = v = None)."""

    __slots__ = ("u", "v")

    @property
    def is_infinity(self) -> bool:
        return self.u is None

    def __str__(self):
        return "O" if self.is_infinity else f"({self.u}, {self.v})"


POINT_AT_INFINITY = CurvePoint(None, None)


class TwistedCurve(Record):
    """The quartic twist v^2 = u^3 - d u; d = 1 is the untwisted curve.

    Nonsingular for every int d != 0 (not a bool); d = 0 raises SingularCurve.
    """

    __slots__ = ("d",)

    def __init__(self, d: int):
        if type(d) is not int:
            raise ValueError(f"d must be an int, got {d!r}")
        if d == 0:
            raise SingularCurve("d = 0 degenerates the curve")
        set_field(self, "d", d)


# The library's name for building a twist, kept for its callers.
twist_curve = TwistedCurve


def belyi_eval(E: TwistedCurve, P: CurvePoint) -> ProjPointQ:
    """Value of (u:v:w) -> (u^2 : u^2 - d w^2) at P, in canonical form.

    At the point at infinity both naive coordinates vanish; the local
    expansion w ~ u^3 there gives (u^2 : u^2(1 - d u^4)) -> (1:1), so the
    value is defined to be 1 and the indeterminate pair never escapes.
    """
    if P.is_infinity:
        return POINT_ONE
    u = Fraction(P.u)
    p, q = u.numerator, u.denominator
    return normalize_projective(p * p, p * p - E.d * q * q)


def torsion_points(E: TwistedCurve) -> list[CurvePoint]:
    """The full rational torsion subgroup, including the identity.

    Closed form for v^2 = u^3 - d u (Silverman-Tate, Rational Points on
    Elliptic Curves, 4.4): with d reduced modulo fourth powers, the group is
    Z/4 iff d = -4, Z/2 x Z/2 iff d is a square, and Z/2 otherwise.  Scaling
    (u, v) by (k^2, k^3) undoes the reduction, so the points are (0, 0)
    always, (+-r, 0) when d = r^2, and (2k^2, +-4k^3) when d = -4k^4.  The
    list comes sorted: the identity first, then the points by (u, v).
    """
    d = E.d
    identity, two_torsion = POINT_AT_INFINITY, CurvePoint(0, 0)
    if d > 0:
        r = is_perfect_nth_power(d, 2)
        if r is not None:
            return [identity, CurvePoint(-r, 0), two_torsion, CurvePoint(r, 0)]
    elif d < 0 and d % 4 == 0:
        k = is_perfect_nth_power(-d // 4, 4)
        if k is not None:
            u, v = 2 * k**2, 4 * k**3
            return [identity, two_torsion, CurvePoint(u, -v), CurvePoint(u, v)]
    return [identity, two_torsion]


def admissible_twists(reps: UnitClassGroup) -> list[int]:
    """Unit-class representatives d that can meet integral-solution images.

    A shared value forces y^4 = -(lambda^2) d for some integer lambda >= 1,
    which is solvable iff -d is a positive rational square; for integer
    representatives that means -d is a perfect square.
    """
    out = [
        d
        for d in reps.representatives
        if -d > 0 and is_perfect_nth_power(-d, 2) is not None
    ]
    return sorted(out)


class CandidateVerdict(Record):
    __slots__ = ("point", "sources", "certificate", "recovered")


class Sieve442Report(Record):
    """Full trace of the covering/twisting/sieving pipeline.

    assumed_finite names the twists whose finiteness is an input: the
    admissible twists, smallest |d| first.
    """

    __slots__ = (
        "unit_classes",
        "admissible",
        "torsion_orders",
        "candidates",
        "solutions",
        "bound_check",
        "assumed_finite",
    )


def run_sieve_442(bound_check: int) -> Sieve442Report:
    """Execute the pipeline and cross-check against the enumerator.

    Finiteness of the rational points on the two admissible twists is an
    input here: that each has rank 0, so that its torsion is all its rational
    points, is a classical fact this code does not check.  The cross-check
    against exhaustive enumeration up to bound_check is the only guard.  Each
    candidate point is tested once, and an accepted one is recovered from
    its certificate.
    """
    from .belyi import is_stack_point
    from .sarith import SRing, s_unit_reps

    if bound_check < 1:
        raise ValueError("bound must be positive")
    reps = s_unit_reps(bad_prime_set(GFE_442), 4)
    admissible = admissible_twists(reps)

    sources = {point: ["marked"] for point in (POINT_ZERO, POINT_ONE, POINT_INFINITY)}
    torsion_orders = {}
    for d in admissible:
        E = TwistedCurve(d)
        tors = torsion_points(E)
        torsion_orders[d] = len(tors)
        for P in tors:
            sources.setdefault(belyi_eval(E, P), []).append(f"twist d={d}")

    verdicts = []
    for point in sorted(sources, key=attrgetter("t", "s")):
        cert = is_stack_point(point, SIG_442, SRing(()))
        recovered: tuple[PrimitiveSolution, ...] = ()
        if cert.accepted:
            found = (PrimitiveSolution(*r.as_tuple()) for r in _recover(cert, GFE_442))
            recovered = tuple(sorted(found))
        verdicts.append(CandidateVerdict(point, tuple(sources[point]), cert, recovered))

    final = sorted({s for v in verdicts for s in v.recovered})
    enumerated = enumerate_primitive_solutions(GFE_442, bound_check)
    if final != enumerated:
        raise PipelineMismatch(
            f"sieve found {len(final)} solutions, enumerator {len(enumerated)}"
        )
    return Sieve442Report(
        unit_classes=reps.representatives,
        admissible=tuple(admissible),
        torsion_orders=torsion_orders,
        candidates=tuple(verdicts),
        solutions=tuple(final),
        bound_check=bound_check,
        assumed_finite=tuple(sorted(admissible, key=abs)),
    )


def sieve_442(bound_check: int) -> list[PrimitiveSolution]:
    """The primitive solutions of x^4 + y^4 - z^2 = 0, via the sieve."""
    return list(run_sieve_442(bound_check).solutions)
