"""Arithmetic of S-integer rings Z[S^-1].

These rings are PIDs whose units are +-(products of powers of primes in S),
so unit groups modulo n-th powers (the Kummer description of the relevant
cohomology classes) and ideal n-th-power tests reduce to valuation
bookkeeping on ordinary integers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._record import Record, set_field
from .errors import charge
from .exact import _SMALL_PRIMES, _divide_out, is_perfect_nth_power, is_probable_prime


class SRing(Record):
    """Z[S^-1] for S the primes of the generators: sorted, distinct ints (not
    bools), each at least 2, and none tested here.  The verdicts read only
    their product, so a composite one stands for its primes: prime_to_s_part,
    is_unit, is_nth_power_ideal.  The unit classes, s_unit_reps and
    unit_class_key, read S one prime at a time and refuse a composite one."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[int]):
        generators = tuple(generators)
        if any(type(g) is not int for g in generators):
            raise ValueError(f"generators must be ints, got {generators!r}")
        if list(generators) != sorted(set(generators)) or generators and generators[0] < 2:
            raise ValueError("generators must be strictly increasing and at least 2")
        set_field(self, "generators", generators)

    def __str__(self):
        inner = ",".join(str(g) for g in self.generators)
        return "Z" if not self.generators else f"Z[1/{{{inner}}}]"

    def prime_to_s_part(self, n: int) -> int:
        """|n| with every prime of S divided out, by gcds with the generators'
        product; the ideal nZ[S^-1] is generated by this positive integer."""
        if n == 0:
            raise ValueError("0 has no prime-to-S part")
        return _strip(abs(n), math.prod(self.generators))

    def is_unit(self, q) -> bool:
        """Whether the rational q, an int or a Fraction, lies in Z[S^-1]^x."""
        return q != 0 and self.prime_to_s_part(q.numerator * q.denominator) == 1


def _strip(v: int, N: int) -> int:
    """v > 0 with every prime of N divided out, by gcds alone (Bernstein, J.
    Algorithms 54, 2005); each pass leaves a proper divisor of g = gcd(v, N)."""
    g = math.gcd(v, N)
    while g > 1:
        v = _divide_out(v, g)[0]
        g = math.gcd(v, g)
    return v


def _class_primes(ring: SRing) -> tuple[int, ...]:
    """The ring's generators, each tested prime, else ValueError names it.
    Miller-Rabin tests each p > 41 that none of the primes up to 41 divides;
    those past 64 bits are charged to the prime-bits cap in all before any
    test, and one of at most 64 bits costs at most 13 one-word witnesses."""
    primes = ring.generators
    charged = [p for p in primes if p >= 2**64 and all(p % q for q in _SMALL_PRIMES)]
    bits = sum(p.bit_length() for p in charged)
    what = "a {1}-bit number" if len(charged) == 1 else "{} numbers of {} bits in all"
    charge("prime bits", bits, "testing " + what, len(charged), bits)
    for p in primes:
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    return primes


def valuation(s: int, p: int) -> int:
    """Largest e with p^e dividing s; s must be nonzero and |p| >= 2."""
    return _divide_out(s, p)[1]


class UnitClassGroup(Record):
    """Representatives of R^x modulo n-th powers of units.

    The canonical set is eps * prod(p^e) with 0 <= e < n over the primes of
    S, with eps ranging over {1, -1} for even n and {1} for odd n (for odd n
    the sign is itself an n-th power).  Count: 2 * n^|S| or n^|S|.
    """

    __slots__ = ("modulus", "ring", "representatives")


def s_unit_reps(ring: SRing, n: int) -> UnitClassGroup:
    """Complete irredundant representatives of R^x/(R^x)^n.

    The units sign * prod p^e with 0 <= e < n, listed with the sign slowest
    and each prime's exponent faster than the one before.  Built by running
    products, one multiplication per entry per prime.  Each generator must
    be prime, and is tested first (_class_primes).  Raises WorkLimitExceeded
    before building when the (2 or 1) * n^|S| classes pass the cap "unit
    classes", or when a lower bound on their bits, count * (n - 1)/2 *
    sum(bits of p - 1), passes the cap "power bits".
    """
    primes = _class_primes(ring)
    if n < 2:
        raise ValueError("modulus must be at least 2")
    # Counted up one prime at a time, so that a huge n ** |S| is never built.
    count = 2 if n % 2 == 0 else 1
    what = "{} classes of {} modulo {}th powers"
    for _ in primes:
        count *= n
        charge("unit classes", count, "at least " + what, count, ring, n)
    # The exponent of p averages (n - 1)/2 over the classes, and p^e has at
    # least e * (bits of p - 1) bits.
    bits = count * (n - 1) * sum(p.bit_length() - 1 for p in primes) // 2
    charge("power bits", bits, what, count, ring, n)
    reps = [1, -1] if n % 2 == 0 else [1]
    for p in primes:
        powers = [p**e for e in range(n)]
        reps = [v * q for v in reps for q in powers]
    return UnitClassGroup(n, ring, tuple(reps))


def unit_class_key(u, ring: SRing, n: int):
    """Complete invariant of the class of the unit u in R^x/(R^x)^n, n >= 2.

    Two units are congruent modulo n-th powers iff their keys agree: the
    sign survives exactly when n is even, and each S-valuation matters mod n.
    u is an int or a Fraction; each generator must be prime (_class_primes).
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if not ring.is_unit(u):
        raise ValueError(f"{u} is not a unit of {ring}")
    sign = 1 if n % 2 else (1 if u > 0 else -1)
    vals = tuple(
        (valuation(u.numerator, p) - valuation(u.denominator, p)) % n
        for p in _class_primes(ring)
    )
    return (sign, vals)


def is_nth_power_ideal(s: int, n: int, ring: SRing) -> int | None:
    """Positive generator g with (g)^n = (s) as ideals of Z[S^-1], or None.

    Exists iff every valuation of s at a prime outside S is divisible by n,
    i.e. iff the prime-to-S part of |s| is a perfect n-th power; no
    factorization is needed, one integer root suffices.
    """
    if s == 0:
        raise ValueError("the zero ideal is not tested here")
    if n < 1:
        raise ValueError("power index must be positive")
    core = ring.prime_to_s_part(s)
    return is_perfect_nth_power(core, n)
