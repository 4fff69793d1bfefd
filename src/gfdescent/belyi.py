"""Point-level arithmetic of the projective line rooted at 0, 1, infinity.

Over a PID R = Z[S^-1], a point Q = (s:t) away from the three marked points
lifts to the rooted line iff the ideals (s), (s-t), (t) are an a-th, b-th,
c-th ideal power respectively.  At a marked point of multiplicity n the
automorphism group is the n-th roots of unity of R, which inside Q is {+-1}
for even n and trivial for odd n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import Record, set_field
from .errors import NotAStackPoint
from .exact import POINT_INFINITY, POINT_ONE, POINT_ZERO, ProjPointQ, intersection_ideal
from .groups import Signature
from .sarith import SRing, is_nth_power_ideal

# Each marked point with its label and the coordinate of Q = (s:t) that
# vanishes there: Q meets 0, 1, inf in the ideals (s), (s-t), (t).  Zipped
# with a signature (a, b, c) it pairs each point with its exponent.
MARKED_POINTS = (
    (POINT_ZERO, "0", "s"),
    (POINT_ONE, "1", "s-t"),
    (POINT_INFINITY, "inf", "t"),
)


def mu_order(n: int) -> int:
    """#{u in R^x : u^n = 1} for any subring R of Q: 2 for even n, else 1."""
    return 2 if n % 2 == 0 else 1


def root_point_test(P: ProjPointQ, Q: ProjPointQ, n: int, ring: SRing) -> Optional[int]:
    """Does Q lift to the n-th root of the line at P, over Z[S^-1]?

    Returns the positive generator g of the n-th root of the ideal where Q
    meets P, or None when that ideal is not an n-th ideal power.  At Q = P
    the ideal is (0) = (0)^n, so the root is 0, and 0 is returned exactly
    there: the lift exists with mu_n(R) automorphisms (see mu_order).
    """
    ideal = intersection_ideal(P, Q)
    if ideal == 0:
        return 0
    return is_nth_power_ideal(ideal, n, ring)


class StackPointCertificate(Record):
    """Verdict for one candidate point with enough data to recheck it.

    status is one of "marked", "smooth", "rejected".  For smooth points the
    roots (g0, g1, ginf) generate ideals whose a-th, b-th, c-th powers are
    (s), (s-t), (t) in Z[S^-1]; for rejections `failed` lists the offending
    coordinates among "s", "s-t", "t".
    """

    __slots__ = ("point", "status", "marked_at", "roots", "failed")

    def __init__(
        self,
        point: ProjPointQ,
        status: str,
        marked_at: Optional[str] = None,
        roots: Optional[tuple[int, int, int]] = None,
        failed: tuple[str, ...] = (),
    ):
        set_field(self, "point", point)
        set_field(self, "status", status)
        set_field(self, "marked_at", marked_at)
        set_field(self, "roots", roots)
        set_field(self, "failed", failed)

    @property
    def accepted(self) -> bool:
        return self.status != "rejected"



def is_stack_point(Q: ProjPointQ, sig: Signature, ring: SRing) -> StackPointCertificate:
    """Test whether Q lies on the rooted line of the signature over Z[S^-1].

    One root_point_test at each marked point, with its exponent from the
    signature: None fails that coordinate, the root 0 means Q is that marked
    point, and any other root is kept.  Acceptance is well defined on the
    canonical representative: any other scaling multiplies (s, s-t, t) by a
    common unit.  A marked Q meets the marked points before it in the unit
    ideal, so the loop reaches the marked verdict without a failure.
    """
    roots = []
    failed = []
    for (P, label, coordinate), n in zip(MARKED_POINTS, sig):
        g = root_point_test(P, Q, n, ring)
        if g is None:
            failed.append(coordinate)
        elif g == 0:
            return StackPointCertificate(Q, "marked", marked_at=label)
        else:
            roots.append(g)
    if failed:
        return StackPointCertificate(Q, "rejected", failed=tuple(failed))
    return StackPointCertificate(Q, "smooth", roots=tuple(roots))


def certificate_automorphism_order(cert: StackPointCertificate, sig: Signature) -> int:
    """Automorphism count of the point an accepted certificate describes,
    read off the certificate without testing the point again."""
    if not cert.accepted:
        raise NotAStackPoint(f"{cert.point} was rejected, so it has no automorphisms")
    if cert.status == "marked":
        return mu_order(
            next(n for (_, label, _), n in zip(MARKED_POINTS, sig) if label == cert.marked_at)
        )
    return 1


def euler_characteristic(sig: Signature) -> Fraction:
    """1/a + 1/b + 1/c - 1, exactly."""
    a, b, c = sig
    return Fraction(1, a) + Fraction(1, b) + Fraction(1, c) - 1


class SignatureClass(Record):
    """Trichotomy data for a signature.

    kind is "spherical", "euclidean" or "hyperbolic" as chi is positive,
    zero or negative.  genus is that of a Galois cover realizing the
    signature: 0 when chi > 0, 1 when chi = 0, and None (meaning >= 2, not
    computed) when chi < 0.  The cover degree 2/chi is only defined in the
    spherical case.
    """

    __slots__ = ("chi", "kind", "genus", "degree")

    def genus_label(self) -> str:
        return str(self.genus) if self.genus is not None else ">= 2 (not computed)"


def classify_signature(sig: Signature) -> SignatureClass:
    """Spherical/euclidean/hyperbolic trichotomy by the sign of chi.

    Spherical signatures all have 2/chi a positive integer (they are the
    (2,2,n), (2,3,3), (2,3,4), (2,3,5) families), and that integer is the
    degree of the Galois cover; chi = 0 forces genus one, chi < 0 genus > 1.
    """
    chi = euler_characteristic(sig)
    if chi > 0:
        degree = 2 / chi
        if degree.denominator != 1:
            raise AssertionError(f"2/chi is not integral for {sig}")
        return SignatureClass(chi, "spherical", genus=0, degree=int(degree))
    if chi == 0:
        return SignatureClass(chi, "euclidean", genus=1, degree=None)
    return SignatureClass(chi, "hyperbolic", genus=None, degree=None)
