"""Point-level arithmetic of the projective line rooted at 0, 1, infinity.

Over a PID R = Z[S^-1], a point Q = (s:t) away from the three marked points
lifts to the rooted line iff the ideals (s), (s-t), (t) are an a-th, b-th,
c-th ideal power respectively.  At a marked point of multiplicity n the
automorphism group is the n-th roots of unity of R, which inside Q is {+-1}
for even n and trivial for odd n.
"""

from __future__ import annotations

from ._record import Record
from .errors import NotAStackPoint
from .exact import ProjPointQ
from .groups import Signature
from .sarith import SRing, is_nth_power_ideal

# The marked points 0, 1, inf, and the coordinate of Q = (s:t) that vanishes
# at each: Q meets them in the ideals (s), (s-t), (t).  Both line up with the
# exponents of a signature (a, b, c).
MARKED_AT = ("0", "1", "inf")
COORDINATES = ("s", "s-t", "t")


def mu_order(n: int) -> int:
    """#{u in R^x : u^n = 1} for any subring R of Q: 2 for even n, else 1."""
    return 2 if n % 2 == 0 else 1


class StackPointCertificate(Record):
    """Verdict for one candidate point with enough data to recheck it.

    status is one of "marked", "smooth", "rejected".  A marked point names
    its marked_at among "0", "1", "inf"; for smooth points the roots
    (g0, g1, ginf) generate ideals whose a-th, b-th, c-th powers are (s),
    (s-t), (t) in Z[S^-1]; for rejections `failed` lists the offending
    coordinates among "s", "s-t", "t".  The fields a status does not use
    hold None, or () for failed.
    """

    __slots__ = ("point", "status", "marked_at", "roots", "failed")

    @property
    def accepted(self) -> bool:
        return self.status != "rejected"


def is_stack_point(Q: ProjPointQ, sig: Signature, ring: SRing) -> StackPointCertificate:
    """Test whether Q lies on the rooted line of the signature over Z[S^-1].

    Reads (s, s-t, t) off the canonical Q = (s:t).  When one of them is 0, Q
    is the marked point where that coordinate vanishes; only one can, since
    s and t are coprime.  Otherwise each must generate an a-th, b-th, c-th
    ideal power respectively: the coordinates that do not are listed as
    failed, and when none fails the roots are kept.  Acceptance is well
    defined on the canonical representative: any other scaling multiplies
    (s, s-t, t) by a common unit.
    """
    values = (Q.s, Q.s - Q.t, Q.t)
    if 0 in values:
        return StackPointCertificate(Q, "marked", MARKED_AT[values.index(0)], None, ())
    roots = []
    failed = []
    for value, n, coordinate in zip(values, sig, COORDINATES):
        g = is_nth_power_ideal(value, n, ring)
        if g is None:
            failed.append(coordinate)
        else:
            roots.append(g)
    if failed:
        return StackPointCertificate(Q, "rejected", None, None, tuple(failed))
    return StackPointCertificate(Q, "smooth", None, tuple(roots), ())


def certificate_automorphism_order(cert: StackPointCertificate, sig: Signature) -> int:
    """Automorphism count of the point an accepted certificate describes,
    read off the certificate without testing the point again."""
    if not cert.accepted:
        raise NotAStackPoint(f"{cert.point} was rejected, so it has no automorphisms")
    if cert.status == "marked":
        return mu_order(tuple(sig)[MARKED_AT.index(cert.marked_at)])
    return 1


def euler_characteristic(sig: Signature) -> Fraction:
    """1/a + 1/b + 1/c - 1, exactly."""
    from fractions import Fraction

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
