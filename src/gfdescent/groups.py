"""Structure of the diagonalizable symmetry group attached to a signature.

For a signature (a, b, c) the group of scaling symmetries of the equation is
cut out of three copies of the multiplicative group by l0^a = l1^b = l2^c.
Its character lattice is Z^3 modulo the rows (a,-b,0), (0,b,-c), (-a,0,c),
and the abelianized triangle group is Z^3 modulo the rows (a,0,0), (0,b,0),
(0,0,c), (1,1,1).  The torsion and the weight vector have closed forms in
d = gcd(a,b,c) and m = gcd(bc,ac,ab), the gcds of the minors of those two
presentation matrices, so no matrix is built here; the tests check the
closed forms against the Smith normal forms of the matrices.
"""

from __future__ import annotations

import math

from ._record import Record, set_field


class Signature(Record):
    """Exponent triple (a, b, c), each an int (not a bool) and at least 2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if not type(a) is type(b) is type(c) is int:
            raise ValueError(f"signature entries must be ints, got {(a, b, c)!r}")
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        if min(a, b, c) < 2:
            raise ValueError(f"signature entries must be >= 2, got {self}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


class WeightData(Record):
    """d = gcd(a,b,c), m = gcd(bc,ac,ab), and the weight vector w = (bc,ac,ab)/m."""

    __slots__ = ("d", "m", "w")


class HStructure(Record):
    """Torus rank and torsion invariant factors of the symmetry group."""

    __slots__ = ("torus_rank", "torsion")


def weight_vector(sig: Signature) -> WeightData:
    """Weight data of the signature.

    The weights satisfy a*w0 = b*w1 = c*w2 = lcm(a,b,c) and gcd(w) = 1; they
    are the minimal positive exponents for a one-parameter scaling symmetry.
    """
    a, b, c = sig
    d = math.gcd(a, b, c)
    m = math.gcd(b * c, a * c, a * b)
    w = (b * c // m, a * c // m, a * b // m)
    return WeightData(d, m, w)


def h_structure(sig: Signature) -> HStructure:
    """The symmetry group: a rank-one torus times a finite group, whose
    invariant factors (> 1) are those of the abelianized triangle group.

    The 4x3 presentation matrix has 1 as the gcd of its entries, d as the
    gcd of its 2x2 minors and m as the gcd of its 3x3 minors, so its Smith
    form is (1, d, m/d) and the torsion is (d, m/d) with trivial entries
    dropped; d divides m/d because d^2 divides each of bc, ac, ab.
    """
    data = weight_vector(sig)
    return HStructure(1, tuple(f for f in (data.d, data.m // data.d) if f > 1))
