import math
import random
from fractions import Fraction
from itertools import product

import pytest

from gfdescent.belyi import (
    certificate_automorphism_order,
    classify_signature,
    euler_characteristic,
    is_stack_point,
    mu_order,
)
from gfdescent.errors import NotAStackPoint
from gfdescent.exact import (
    POINT_INFINITY,
    POINT_ONE,
    POINT_ZERO,
    normalize_projective,
)
from gfdescent.groups import Signature
from gfdescent.sarith import SRing, is_nth_power_ideal

from oracles import trial_division_point_test

Z = SRing(())


def test_is_stack_point_examples():
    cert = is_stack_point(normalize_projective(9, 1), Signature(2, 3, 7), Z)
    assert cert.status == "smooth" and cert.roots == (3, 2, 1)

    cert = is_stack_point(normalize_projective(1, 2), Signature(4, 4, 2), Z)
    assert cert.status == "rejected" and cert.failed == ("t",)

    cert = is_stack_point(normalize_projective(1, 2), Signature(4, 4, 2), SRing((2,)))
    assert cert.status == "smooth" and cert.roots == (1, 1, 1)

    for point, label in [(POINT_ZERO, "0"), (POINT_ONE, "1"), (POINT_INFINITY, "inf")]:
        cert = is_stack_point(point, Signature(2, 3, 7), Z)
        assert cert.status == "marked" and cert.marked_at == label


def test_is_stack_point_against_trial_division_oracle():
    # Status, roots and failed labels against factoring s, s - t and t by
    # trial division, on seeded points with |s|, |t| <= 200 and on the three
    # marked points, over signatures in {2,3,4}^3 and five rings, two of
    # them with a composite generator; the oracle is given the primes of
    # the generators' product.  Away from the marked points each
    # coordinate's is_nth_power_ideal is checked on its own too: the
    # oracle's root for that coordinate alone (exponent 1 at the other two),
    # or None exactly when the oracle fails it.
    rng = random.Random(2027)
    primes_of = {
        SRing(()): (), SRing((2,)): (2,), SRing((2, 3)): (2, 3),
        SRing((6,)): (2, 3), SRing((15,)): (3, 5),
    }
    rings = list(primes_of)
    sigs = [Signature(*e) for e in product((2, 3, 4), repeat=3)]
    cases = []
    while len(cases) < 3000:
        s, t = rng.randint(-200, 200), rng.randint(-200, 200)
        if (s, t) != (0, 0) and math.gcd(s, t) == 1:
            cases.append((normalize_projective(s, t), rng.choice(sigs), rng.choice(rings)))
    cases += [
        (P, sig, ring)
        for P in (POINT_ZERO, POINT_ONE, POINT_INFINITY)
        for sig in sigs
        for ring in rings
    ]
    statuses = set()
    for Q, sig, ring in cases:
        cert = is_stack_point(Q, sig, ring)
        expected = trial_division_point_test(Q.s, Q.t, tuple(sig), primes_of[ring])
        assert (cert.status, cert.roots, cert.failed) == expected, (Q, sig, ring)
        statuses.add(cert.status)
        if cert.status == "marked":
            continue
        for i, (value, n) in enumerate(zip((Q.s, Q.s - Q.t, Q.t), sig)):
            g = is_nth_power_ideal(value, n, ring)
            alone = tuple(n if j == i else 1 for j in range(3))
            status, roots, _ = trial_division_point_test(Q.s, Q.t, alone, primes_of[ring])
            assert g == (roots[i] if status == "smooth" else None), (Q, i, n, ring)
    assert statuses == {"marked", "smooth", "rejected"}


def test_root_generators_reproduce_valuations():
    # g0^a, g1^b, ginf^c recover (s, s-t, t) up to S-units and sign.
    rng = random.Random(53)
    sig = Signature(2, 3, 2)
    ring = SRing((2, 3))
    hits = 0
    for _ in range(4000):
        s, t = rng.randrange(-200, 201), rng.randrange(-200, 201)
        if (s, t) == (0, 0):
            continue
        Q = normalize_projective(s, t)
        cert = is_stack_point(Q, sig, ring)
        if cert.status != "smooth":
            continue
        hits += 1
        g0, g1, ginf = cert.roots
        assert ring.prime_to_s_part(Q.s) == g0**sig.a
        assert ring.prime_to_s_part(Q.s - Q.t) == g1**sig.b
        assert ring.prime_to_s_part(Q.t) == ginf**sig.c
    assert hits > 5


def test_acceptance_monotone_in_s():
    rng = random.Random(59)
    sig = Signature(4, 4, 2)
    rings = [SRing(()), SRing((2,)), SRing((2, 3)), SRing((2, 3, 5))]
    for _ in range(300):
        s, t = rng.randrange(-60, 61), rng.randrange(-60, 61)
        if (s, t) == (0, 0):
            continue
        Q = normalize_projective(s, t)
        accepted = [is_stack_point(Q, sig, R).accepted for R in rings]
        for small, big in zip(accepted, accepted[1:]):
            assert big or not small


def test_field_limit_accepts_everything():
    # Once S contains every prime of s*t*(s-t), the test degenerates to the
    # projective line over a field.
    from gfdescent.exact import factorize

    rng = random.Random(61)
    for _ in range(100):
        s, t = rng.randrange(-50, 51), rng.randrange(-50, 51)
        if (s, t) == (0, 0):
            continue
        Q = normalize_projective(s, t)
        prod = (Q.s or 1) * (Q.t or 1) * ((Q.s - Q.t) or 1)
        ring = SRing(p for p, _ in factorize(prod).factors)
        assert is_stack_point(Q, Signature(5, 4, 3), ring).accepted


def automorphism_order(Q, sig, ring):
    return certificate_automorphism_order(is_stack_point(Q, sig, ring), sig)


def test_certificate_automorphism_order_reads_the_certificate():
    # A marked point carries mu_n of its multiplicity n, a smooth one none,
    # and a rejected certificate has no automorphism order.
    assert automorphism_order(POINT_ZERO, Signature(4, 4, 2), SRing((2,))) == 2
    assert automorphism_order(POINT_ONE, Signature(3, 4, 7), Z) == 2
    assert automorphism_order(POINT_INFINITY, Signature(2, 3, 7), Z) == 1
    assert automorphism_order(normalize_projective(9, 1), Signature(2, 3, 7), Z) == 1
    rejected = is_stack_point(normalize_projective(1, 2), Signature(4, 4, 2), Z)
    with pytest.raises(NotAStackPoint):
        certificate_automorphism_order(rejected, Signature(4, 4, 2))


def test_automorphism_orders():
    assert automorphism_order(POINT_ZERO, Signature(4, 4, 2), SRing((2,))) == 2
    assert automorphism_order(POINT_INFINITY, Signature(2, 3, 7), Z) == 1
    assert automorphism_order(POINT_INFINITY, Signature(2, 3, 7), SRing((2, 3, 7))) == 1
    assert automorphism_order(normalize_projective(9, 1), Signature(2, 3, 7), Z) == 1
    assert mu_order(2) == 2 and mu_order(9) == 1
    with pytest.raises(NotAStackPoint):
        automorphism_order(normalize_projective(1, 2), Signature(4, 4, 2), Z)


@pytest.mark.parametrize(
    "sig,chi",
    [
        ((2, 3, 7), Fraction(-1, 42)),
        ((4, 4, 2), Fraction(0)),
        ((2, 3, 5), Fraction(1, 30)),
    ],
)
def test_euler_characteristic(sig, chi):
    assert euler_characteristic(Signature(*sig)) == chi


def test_chi_integer_identity():
    for a in range(2, 31):
        for b in range(2, 31):
            for c in range(2, 31):
                chi = euler_characteristic(Signature(a, b, c))
                assert chi * a * b * c == b * c + a * c + a * b - a * b * c


def test_classify_examples():
    cls = classify_signature(Signature(2, 3, 5))
    assert (cls.kind, cls.genus, cls.degree) == ("spherical", 0, 60)
    cls = classify_signature(Signature(4, 4, 2))
    assert (cls.kind, cls.genus, cls.degree) == ("euclidean", 1, None)
    cls = classify_signature(Signature(2, 3, 7))
    assert (cls.kind, cls.genus, cls.degree) == ("hyperbolic", None, None)
    assert cls.genus_label() == ">= 2 (not computed)"


def test_spherical_degrees_are_integers():
    sigs = [(2, 2, n) for n in range(2, 40)] + [(2, 3, 3), (2, 3, 4), (2, 3, 5)]
    for sig in sigs:
        cls = classify_signature(Signature(*sig))
        assert cls.kind == "spherical"
        assert cls.degree == 2 / cls.chi > 0
