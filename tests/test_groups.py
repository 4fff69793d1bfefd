import math

import pytest

from gfdescent.groups import (
    HStructure,
    Signature,
    WeightData,
    h_structure,
    weight_vector,
)
from gfdescent.smith import smith_normal_form

from oracles import j_matrix, m_matrix


def torsion_and_free_rank(A):
    """Invariant factors > 1 of Z^cols modulo the rows of A, and its free
    rank, read off the Smith form's diagonal."""
    diag = smith_normal_form(A).D.diagonal()
    return [d for d in diag if d not in (0, 1)], A.cols - sum(1 for d in diag if d)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, 3, 7)
    with pytest.raises(ValueError):
        Signature(2, 0, 2)
    assert tuple(Signature(2, 3, 7)) == (2, 3, 7)
    # Only ints: a float or a bool would print as (2.0,3,7) or (True,...).
    for entries in ((2.0, 3, 7), (2, True, 7), (2, 3, "7")):
        with pytest.raises(ValueError, match="must be ints"):
            Signature(*entries)


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
                L = math.lcm(a, b, c)
                assert a * wd.w[0] == b * wd.w[1] == c * wd.w[2] == L
                assert math.gcd(*wd.w) == 1
                assert wd.m % wd.d == 0


def test_weight_vector_is_relation_kernel():
    # The relation matrix has rank 2, so the last column of V is a primitive
    # generator of its kernel; made positive it is the weight vector.
    for sig in [(2, 3, 7), (4, 4, 2), (5, 5, 5), (6, 10, 15), (2, 4, 8)]:
        res = smith_normal_form(m_matrix(*sig))
        assert [d != 0 for d in res.D.diagonal()] == [True, True, False]
        v = [row[2] for row in res.V.data]
        if next(x for x in v if x) < 0:
            v = [-x for x in v]
        assert v == list(weight_vector(Signature(*sig)).w)


@pytest.mark.parametrize(
    "sig,expected",
    [((4, 4, 2), [2, 4]), ((2, 3, 7), []), ((7, 7, 7), [7, 7])],
)
def test_triangle_abelianization_examples(sig, expected):
    # h_structure's torsion is the triangle group's abelianization.
    assert list(h_structure(Signature(*sig)).torsion) == expected


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
                via_m, free_m = torsion_and_free_rank(m_matrix(a, b, c))
                via_j, free_j = torsion_and_free_rank(j_matrix(a, b, c))
                assert via_m == via_j
                assert (free_m, free_j) == (1, 0)
                hs = h_structure(sig)
                assert hs.torus_rank == 1
                assert list(hs.torsion) == via_m
                prod = 1
                for f in hs.torsion:
                    prod *= f
                assert prod == weight_vector(sig).m
