"""Structure of the diagonalizable symmetry group attached to a signature.

For a signature (a, b, c) the group of scaling symmetries of the equation is
cut out of three copies of the multiplicative group by l0^a = l1^b = l2^c.
Its character lattice is Z^3 modulo the row lattice of the relation matrix
below.  The torsion and the weight vector have closed forms in d = gcd(a,b,c)
and m = gcd(bc,ac,ab), the gcds of the minors of the presentation matrices;
Smith normal form remains for the kernel generator and for testing those
closed forms against the matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record, set_field
from .errors import ZeroCoordinate

# Only the matrix functions below need smith; they import it themselves so
# that the closed forms, which every command uses, do not load it.
if TYPE_CHECKING:
    from .smith import IntMatrix


class Signature(Record):
    """Exponent triple (a, b, c), each at least 2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
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

    def __init__(self, d: int, m: int, w: tuple[int, int, int]):
        set_field(self, "d", d)
        set_field(self, "m", m)
        set_field(self, "w", w)


class HStructure(Record):
    """Torus rank and torsion invariant factors of the symmetry group."""

    __slots__ = ("torus_rank", "torsion")

    def __init__(self, torus_rank: int, torsion: tuple[int, ...]):
        set_field(self, "torus_rank", torus_rank)
        set_field(self, "torsion", torsion)


def relation_matrix(sig: Signature) -> IntMatrix:
    """Rows span the relation lattice of the character group."""
    from .smith import IntMatrix

    a, b, c = sig
    return IntMatrix([[a, -b, 0], [0, b, -c], [-a, 0, c]])


def triangle_relation_matrix(sig: Signature) -> IntMatrix:
    """Rows present the abelianized triangle group of the signature."""
    from .smith import IntMatrix

    a, b, c = sig
    return IntMatrix([[a, 0, 0], [0, b, 0], [0, 0, c], [1, 1, 1]])


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


def triangle_abelianization(sig: Signature) -> list[int]:
    """Invariant factors (> 1) of the abelianized triangle group.

    The 4x3 presentation matrix has 1 as the gcd of its entries, d as the
    gcd of its 2x2 minors and m as the gcd of its 3x3 minors, so its Smith
    form is (1, d, m/d) and the answer is [d, m/d] with trivial entries
    dropped; d divides m/d because d^2 divides each of bc, ac, ab.
    """
    data = weight_vector(sig)
    return [f for f in (data.d, data.m // data.d) if f > 1]


def h_structure(sig: Signature) -> HStructure:
    """The symmetry group is a rank-one torus times the finite group below."""
    return HStructure(1, tuple(triangle_abelianization(sig)))


def weight_kernel_generator(sig: Signature) -> list[int]:
    """Primitive kernel generator of the relation matrix; equals the weights."""
    from .smith import kernel_basis

    basis = kernel_basis(relation_matrix(sig))
    if len(basis) != 1:
        raise AssertionError(f"relation matrix of {sig} should have rank 2")
    return basis[0]


def h_membership(lam: tuple[Fraction, Fraction, Fraction], sig: Signature) -> bool:
    """Whether (l0, l1, l2) satisfies l0^a = l1^b = l2^c over Q.

    Only rational points are testable here; roots of unity beyond +-1 do not
    exist in Q, so the defining equations are the whole story.
    """
    l0, l1, l2 = (Fraction(x) for x in lam)
    if 0 in (l0, l1, l2):
        raise ZeroCoordinate("membership needs nonzero coordinates")
    a, b, c = sig
    return l0**a == l1**b == l2**c


def stabilizer_order(locus: str, sig: Signature) -> int:
    """Geometric stabilizer order of a coordinate vanishing locus.

    Over an algebraically closed field of characteristic prime to abc the
    stabilizers at x=0, y=0, z=0 are the roots of unity of order a, b, c;
    points with all coordinates nonzero are free.
    """
    orders = {"x=0": sig.a, "y=0": sig.b, "z=0": sig.c, "generic": 1}
    if locus not in orders:
        raise ValueError(f"unknown locus {locus!r}; expected one of {sorted(orders)}")
    return orders[locus]
