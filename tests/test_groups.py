import math
import random
from fractions import Fraction

import pytest

from gfdescent.errors import ZeroCoordinate
from gfdescent.exact import lcm_triple
from gfdescent.groups import (
    HStructure,
    Signature,
    WeightData,
    h_membership,
    h_structure,
    relation_matrix,
    stabilizer_order,
    triangle_abelianization,
    triangle_relation_matrix,
    weight_kernel_generator,
    weight_vector,
)
from gfdescent.smith import invariant_factors


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 3, 7)
    with pytest.raises(ValueError):
        Signature(2, 0, 2)
    assert tuple(Signature(2, 3, 7)) == (2, 3, 7)


@pytest.mark.parametrize(
    "sig,w,m,d",
    [
        ((2, 3, 7), (21, 14, 6), 1, 1),
        ((4, 4, 2), (1, 1, 2), 8, 2),
        ((5, 5, 5), (1, 1, 1), 25, 5),
    ],
)
def test_weight_vector_examples(sig, w, m, d):
    wd = weight_vector(Signature(*sig))
    assert wd == WeightData(d, m, w)


def test_weight_identities():
    # a*w0 = b*w1 = c*w2 = lcm and gcd(w) = 1, across the whole range.
    for a in range(2, 31):
        for b in range(2, 31):
            for c in range(2, 31):
                wd = weight_vector(Signature(a, b, c))
                L = lcm_triple(a, b, c)
                assert a * wd.w[0] == b * wd.w[1] == c * wd.w[2] == L
                assert math.gcd(*wd.w) == 1
                assert wd.m % wd.d == 0


def test_weight_vector_is_relation_kernel():
    for sig in [(2, 3, 7), (4, 4, 2), (5, 5, 5), (6, 10, 15), (2, 4, 8)]:
        s = Signature(*sig)
        assert weight_kernel_generator(s) == list(weight_vector(s).w)


@pytest.mark.parametrize(
    "sig,expected",
    [((4, 4, 2), [2, 4]), ((2, 3, 7), []), ((7, 7, 7), [7, 7])],
)
def test_triangle_abelianization_examples(sig, expected):
    assert triangle_abelianization(Signature(*sig)) == expected


@pytest.mark.parametrize(
    "sig,torsion",
    [((2, 3, 7), ()), ((7, 7, 7), (7, 7)), ((4, 4, 2), (2, 4))],
)
def test_h_structure_examples(sig, torsion):
    assert h_structure(Signature(*sig)) == HStructure(1, torsion)


def test_two_routes_agree():
    # Torsion from the 3x3 relation matrix and from the 4x3 triangle
    # presentation must coincide, multiply to m, and match the closed form
    # that h_structure uses.
    for a in range(2, 21):
        for b in range(2, 21):
            for c in range(2, 21):
                sig = Signature(a, b, c)
                via_m, free_m = invariant_factors(relation_matrix(sig))
                via_j, free_j = invariant_factors(triangle_relation_matrix(sig))
                assert via_m == via_j
                assert (free_m, free_j) == (1, 0)
                hs = h_structure(sig)
                assert hs.torus_rank == 1
                assert list(hs.torsion) == via_m
                prod = 1
                for f in hs.torsion:
                    prod *= f
                assert prod == weight_vector(sig).m


def test_h_membership_examples():
    sig = Signature(2, 3, 7)
    q = Fraction(3, 2)
    w = weight_vector(sig).w
    assert h_membership((q ** w[0], q ** w[1], q ** w[2]), sig)
    assert h_membership((Fraction(-1), Fraction(1), Fraction(1)), Signature(4, 4, 2))
    assert not h_membership((Fraction(2), Fraction(2), Fraction(2)), sig)


def test_h_membership_zero_coordinate():
    with pytest.raises(ZeroCoordinate):
        h_membership((Fraction(0), Fraction(1), Fraction(1)), Signature(2, 3, 7))


def test_h_membership_subgroup_closure():
    rng = random.Random(41)
    for sig in [Signature(2, 3, 7), Signature(4, 4, 2), Signature(3, 3, 3)]:
        w = weight_vector(sig).w
        members = []
        for _ in range(6):
            q = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            if rng.random() < 0.5:
                q = -q
            cand = (q ** w[0], q ** w[1], q ** w[2])
            if h_membership(cand, sig):
                members.append(cand)
        # Sign twists that satisfy the defining equations are members too.
        if sig.a % 2 == 0 and sig.b % 2 == 0:
            members.append((Fraction(-1), Fraction(1), Fraction(1)))
        for m1 in members:
            inv = tuple(1 / x for x in m1)
            assert h_membership(inv, sig)
            for m2 in members:
                prod = tuple(x * y for x, y in zip(m1, m2))
                assert h_membership(prod, sig)


@pytest.mark.parametrize(
    "locus,sig,expected",
    [
        ("x=0", (4, 4, 2), 4),
        ("generic", (2, 3, 7), 1),
        ("z=0", (2, 3, 7), 7),
        ("y=0", (5, 6, 7), 6),
    ],
)
def test_stabilizer_order(locus, sig, expected):
    assert stabilizer_order(locus, Signature(*sig)) == expected


def test_stabilizer_order_unknown_locus():
    with pytest.raises(ValueError):
        stabilizer_order("w=0", Signature(2, 3, 7))
