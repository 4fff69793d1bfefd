"""Generalized Fermat equations A x^a + B y^b + C z^c = 0.

Primitive-solution enumeration (an exact join of value tables of the
three terms, on plain ints), the map to the projective line, and the two
directions of the solution <-> rooted-line-point correspondence.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .belyi import StackPointCertificate, is_stack_point
from .errors import DegeneratePoint, NotAStackPoint
from .exact import (
    ProjPointQ,
    factorize,
    is_perfect_nth_power,
    normalize_projective,
)
from .groups import Signature
from .sarith import SRing, valuation


@dataclass(frozen=True)
class GFE:
    """The equation A x^a + B y^b + C z^c = 0 with nonzero coefficients."""

    sig: Signature
    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.A * self.B * self.C == 0:
            raise ValueError("coefficients must be nonzero")

    def evaluate(self, x: int, y: int, z: int) -> int:
        a, b, c = self.sig
        return self.A * x**a + self.B * y**b + self.C * z**c

    def __str__(self):
        def term(coef, var, exp):
            if coef == 1:
                return f"+ {var}^{exp}"
            if coef == -1:
                return f"- {var}^{exp}"
            sign = "+" if coef > 0 else "-"
            return f"{sign} {abs(coef)}*{var}^{exp}"

        a, b, c = self.sig
        parts = [term(self.A, "x", a), term(self.B, "y", b), term(self.C, "z", c)]
        return " ".join(parts).lstrip("+ ") + " = 0"


@dataclass(frozen=True, order=True)
class PrimitiveSolution:
    """Integer triple with gcd 1 solving its equation."""

    x: int
    y: int
    z: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def is_primitive_solution(F: GFE, x: int, y: int, z: int) -> bool:
    return math.gcd(x, math.gcd(y, z)) == 1 and F.evaluate(x, y, z) == 0


def bad_prime_set(F: GFE) -> SRing:
    """Primes dividing a*b*c*A*B*C; the equation is well behaved away from them."""
    a, b, c = F.sig
    return SRing(factorize(a * b * c * F.A * F.B * F.C).primes())


def _value_table(coef: int, n: int, bound: int) -> tuple[list[int], dict[int, list[int]]]:
    """Sorted distinct values of coef * v^n over |v| <= bound, and a dict
    from each value to the v that give it, in increasing order."""
    roots: dict[int, list[int]] = {}
    for v in range(-bound, bound + 1):
        roots.setdefault(coef * v**n, []).append(v)
    return sorted(roots), roots


def enumerate_primitive_solutions(
    F: GFE,
    bound: int,
    use_sieve: bool = True,
    max_sieve_primes: int = 4,
) -> list[PrimitiveSolution]:
    """Exactly the primitive solutions with max(|x|,|y|,|z|) <= bound, in
    lexicographic order.

    An exact join of value tables on plain ints.  For each distinct value
    t = -A x^a, the solutions are the pairs of a value of B y^b and a value
    of C z^c that sum to t.  Bisection cuts each sorted table down to the
    window that the other table can reach, and the shorter window, mapped
    through v -> t - v, is intersected with the other table's keys.  Cost:
    three tables of 2*bound + 1 entries, then per value of A x^a two
    bisections into each table and one set intersection over the shorter
    window.  No root extraction, no modular sieve, no fixed-width integers.

    use_sieve and max_sieve_primes are accepted and have no effect: the
    join is exact, so there is nothing for a modular pre-sieve to discard.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    a, b, c = F.sig
    _, xroots = _value_table(-F.A, a, bound)
    ys, yroots = _value_table(F.B, b, bound)
    zs, zroots = _value_table(F.C, c, bound)
    found = []
    for t, xs in xroots.items():
        ylo, yhi = bisect_left(ys, t - zs[-1]), bisect_right(ys, t - zs[0])
        zlo, zhi = bisect_left(zs, t - ys[-1]), bisect_right(zs, t - ys[0])
        if yhi - ylo <= zhi - zlo:
            yvals = [t - w for w in zroots.keys() & map(t.__sub__, ys[ylo:yhi])]
        else:
            yvals = yroots.keys() & map(t.__sub__, zs[zlo:zhi])
        for v in yvals:
            for x, y, z in iter_product(xs, yroots[v], zroots[t - v]):
                if math.gcd(x, math.gcd(y, z)) == 1:
                    found.append((x, y, z))
    return [PrimitiveSolution(*s) for s in sorted(found)]


def j_map(F: GFE, sol: PrimitiveSolution) -> ProjPointQ:
    """Image (-A x^a : C z^c) of a primitive solution, in canonical form.

    The image is 0, 1, infinity exactly when x, y, z vanishes respectively.
    """
    if not is_primitive_solution(F, sol.x, sol.y, sol.z):
        raise ValueError(f"{sol} does not solve {F} primitively")
    a, _, c = F.sig
    s = -F.A * sol.x**a
    t = F.C * sol.z**c
    if s == 0 and t == 0:
        raise DegeneratePoint("x = z = 0 cannot happen for a primitive solution")
    return normalize_projective(s, t)


@dataclass(frozen=True)
class RecoveredSolution:
    """A solution recovered from a point, with the coefficients it solves.

    exact_coefficients is True when (A', B', C') are the coefficients of the
    original equation; otherwise they differ from them by units of the ring
    (an S-integral recovery).
    """

    x: int
    y: int
    z: int
    coefficients: tuple[Fraction, Fraction, Fraction]
    exact_coefficients: bool

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def _signed_roots(value: int, n: int) -> list[int]:
    """All integers r with r^n == value."""
    if value == 0:
        return [0]
    r = is_perfect_nth_power(value, n)
    if r is None:
        return []
    if n % 2 == 0:
        return [r, -r]
    return [r]


def _scale_bound(F: GFE) -> list[tuple[int, int]]:
    """Factorization (p, e) of the bound that every scale |mu| divides.

    Solutions map to scalar multiples (scale mu) of the canonical point, and
    |mu| divides prod_p p^max(v_p(A), v_p(B), v_p(C)).  Primitivity forces
    the support of mu into the primes of A*B*C, and at each such prime the
    valuation is capped by the largest coefficient valuation.  The scales
    to try are the divisors of the bound, built from these pairs.
    """
    return [
        (p, max(valuation(coef, p) for coef in (F.A, F.B, F.C)))
        for p in factorize(F.A * F.B * F.C).primes()
    ]


def recover_solutions(
    Q: ProjPointQ,
    F: GFE,
    ring: SRing,
    search_units: bool = False,
) -> list[RecoveredSolution]:
    """Solutions whose image is Q, for Q an accepted point over the ring.

    With the original coefficients: writes (-A x^a, C z^c) = mu * (s, t) and
    scans the finitely many possible scales mu; over S = {} this finds every
    primitive integral solution mapping to Q.  The scales are the divisors
    of the bound from _scale_bound, pruned prime by prime: |mu| * value / coef
    must be an integral n-th power for each nonzero value in (s, s - t, t)
    with its coefficient and exponent, so the exponent i of p in |mu| is kept
    only if i + v_p(value) - v_p(coef) is a nonnegative multiple of n for
    each of them; zero values impose nothing.  With search_units, also
    returns the canonical S-integral recovery built from the certificate
    roots, whose coefficients are unit multiples of the original ones.
    """
    cert = is_stack_point(Q, F.sig, ring)
    if not cert.accepted:
        raise NotAStackPoint(f"{Q} fails the root conditions over {ring}")
    a, b, c = F.sig
    s, t = Q.s, Q.t
    values = (s, s - t, t)

    results: list[RecoveredSolution] = []
    seen = set()
    base = (Fraction(F.A), Fraction(F.B), Fraction(F.C))

    scales = [1]
    for p, e in _scale_bound(F):
        shifts = [
            (valuation(value, p) - valuation(coef, p), n)
            for value, coef, n in zip(values, (F.A, F.B, F.C), (a, b, c))
            if value
        ]
        powers = [
            p**i
            for i in range(e + 1)
            if all(i + k >= 0 and (i + k) % n == 0 for k, n in shifts)
        ]
        scales = [m * q for m in scales for q in powers]
    for d in sorted(scales):
        for eps in (1, -1):
            mu = eps * d
            targets = (-mu * s, mu * (s - t), mu * t)
            if any(tv % coef != 0 for tv, coef in zip(targets, (F.A, F.B, F.C))):
                continue
            root_lists = [
                _signed_roots(tv // coef, n)
                for tv, coef, n in zip(targets, (F.A, F.B, F.C), (a, b, c))
            ]
            for x, y, z in iter_product(*root_lists):
                if math.gcd(x, math.gcd(y, z)) != 1:
                    continue
                if F.evaluate(x, y, z) != 0:
                    raise AssertionError(
                        f"({x}, {y}, {z}) recovered from {Q} does not solve {F}"
                    )
                key = (x, y, z, base)
                if key not in seen:
                    seen.add(key)
                    results.append(RecoveredSolution(x, y, z, base, True))

    if search_units:
        # Canonical S-integral recovery: each nonzero coordinate is the
        # positive root guaranteed by the certificate, the leftover unit
        # moves into the coefficient.
        coords = []
        for value, n in zip(values, (a, b, c)):
            if value == 0:
                coords.append(0)
            else:
                coords.append(is_perfect_nth_power(ring.prime_to_s_part(value), n))
        x, y, z = coords
        A1 = -Fraction(s, x**a) if x else Fraction(F.A)
        B1 = Fraction(s - t, y**b) if y else Fraction(F.B)
        C1 = Fraction(t, z**c) if z else Fraction(F.C)
        triple = (A1, B1, C1)
        key = (x, y, z, triple)
        if key not in seen:
            seen.add(key)
            results.append(RecoveredSolution(x, y, z, triple, triple == base))

    return results


@dataclass(frozen=True)
class DescentEntry:
    solution: PrimitiveSolution
    image: ProjPointQ
    certificate: StackPointCertificate


@dataclass(frozen=True)
class DescentReport:
    """Outcome of pushing every enumerated solution through the point test."""

    gfe: GFE
    bound: int
    ring: SRing
    entries: tuple[DescentEntry, ...]

    @property
    def violations(self) -> tuple[DescentEntry, ...]:
        return tuple(e for e in self.entries if not e.certificate.accepted)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "equation": str(self.gfe),
            "bound": str(self.bound),
            "ring": str(self.ring),
            "solutions": [
                {
                    "solution": [str(v) for v in e.solution.as_tuple()],
                    "image": str(e.image),
                    "certificate": e.certificate.to_dict(),
                }
                for e in self.entries
            ],
            "violations": [
                [str(v) for v in e.solution.as_tuple()] for e in self.violations
            ],
            "passed": self.passed,
        }


def verify_descent_inclusion(F: GFE, bound: int) -> DescentReport:
    """Check that every primitive solution lands on the rooted line over the
    bad-prime ring.  Violations are collected in the report, never raised."""
    ring = bad_prime_set(F)
    entries = []
    for sol in enumerate_primitive_solutions(F, bound):
        image = j_map(F, sol)
        cert = is_stack_point(image, F.sig, ring)
        entries.append(DescentEntry(sol, image, cert))
    return DescentReport(F, bound, ring, tuple(entries))
