"""Generalized Fermat equations A x^a + B y^b + C z^c = 0.

Primitive-solution enumeration (an exact join of value tables of the
three terms, on plain ints, looping over a term of largest exponent, that
visits each orbit of the sign symmetry (x, y, z) -> (-x, -y, -z) and of
the permutations of terms that match up to the sign of odd-exponent
variables once, but both halves of each orbit of a swap of two
even-exponent terms with opposite coefficients, as (x, y, z) -> (y, x, -z)
on x^2 - y^2 + z^3 = 0), the map to the projective line, and the two
directions of the solution <-> rooted-line-point correspondence.

The functions that build the ring, recover or test inclusion import belyi
and sarith themselves, so the enumerator and the j-map load neither.  Only
the coefficients of an S-integral recovery are Fractions, built in _recover.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import total_ordering
from itertools import permutations, product as iter_product, repeat
from operator import sub

from ._record import Record, set_field
from .errors import NotAStackPoint, charge
from .exact import (
    ProjPointQ,
    _trial_primes,
    integer_nth_root,
    is_perfect_nth_power,
    normalize_projective,
)
from .groups import Signature


class GFE(Record):
    """The equation A x^a + B y^b + C z^c = 0; A, B, C nonzero ints (not bools)."""

    __slots__ = ("sig", "A", "B", "C")

    def __init__(self, sig: Signature, A: int, B: int, C: int):
        if not type(A) is type(B) is type(C) is int:
            raise ValueError(f"coefficients must be ints, got {(A, B, C)!r}")
        if A * B * C == 0:
            raise ValueError("coefficients must be nonzero")
        set_field(self, "sig", sig)
        set_field(self, "A", A)
        set_field(self, "B", B)
        set_field(self, "C", C)

    def evaluate(self, x: int, y: int, z: int) -> int:
        """A x^a + B y^b + C z^c.  Raises WorkLimitExceeded when a term
        would pass the power-bits cap."""
        return sum(self._terms(x, y, z))

    def _terms(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        """(A x^a, B y^b, C z^c), each checked against the power-bits cap first."""
        terms = tuple(zip((self.A, self.B, self.C), (x, y, z), self.sig))
        for coef, v, n in terms:
            _check_power_bits(1, coef, n, v)
        return tuple(coef * v**n for coef, v, n in terms)

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


@total_ordering
class PrimitiveSolution(Record):
    """Integer triple with gcd 1 solving its equation; ordered as triples."""

    __slots__ = ("x", "y", "z")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.as_tuple() < other.as_tuple()
        return NotImplemented


def bad_prime_set(F: GFE) -> SRing:
    """The ring of the primes up to 10^4 that divide N = |abcABC|, each proved
    by the sieve, found by one gcd of N with their product.  The rest of N is
    not factored (verify-inclusion prints it as "unsplit"), so this is S, the
    ring of the descent, only when that rest is 1; the descent's points are
    tested over Z[1/N], whose primes are these and those of the rest."""
    from .sarith import SRing

    return SRing(_trial_primes(math.prod(F.sig) * F.A * F.B * F.C))


def _check_power_bits(entries: int, coef: int, n: int, radius: int):
    """Raise WorkLimitExceeded unless entries values coef * v^n with
    |v| <= |radius| fit in the power-bits cap, by entries times a lower bound
    on the bits of the largest, |coef| * |radius|^n."""
    bits = entries * (abs(coef).bit_length() + n * (radius.bit_length() - 1))
    what = "{1}*({2})^{3}" if entries == 1 else "{0} values of {1}*v^{3}, |v| <= {2}"
    charge("power bits", bits, what, entries, coef, radius, n)


def _value_table(coef: int, n: int, bound: int) -> tuple[list[int], dict[int, list[int]]]:
    """Sorted distinct values of coef * v^n over |v| <= bound, and a dict
    from each value to the v that give it, in increasing order.  Checked
    against the power-bits cap before it is built."""
    _check_power_bits(2 * bound + 1, coef, n, bound)
    roots: dict[int, list[int]] = {}
    for v in range(-bound, bound + 1):
        roots.setdefault(coef * v**n, []).append(v)
    return sorted(roots), roots


def enumerate_primitive_solutions(
    F: GFE,
    bound: int,
    use_sieve: bool = True,
) -> list[PrimitiveSolution]:
    """Exactly the primitive solutions with max(|x|,|y|,|z|) <= bound, in
    lexicographic order.

    An exact join of value tables on plain ints.  First v -> -v makes the
    coefficient of every odd-exponent term positive; two terms match when
    their exponents and these normalized coefficients agree.  The outer term
    is one of largest exponent: one outside any matching pair if there is
    one, then one of largest |coefficient|, then the first.  For each
    distinct value t of minus the outer term, cut beforehand to the sums the
    inner tables can reach, the solutions are the pairs of an inner value w
    (of the term matching the outer one, if any) and a value r of the other
    inner term with w + r = t.  Bisection cuts the w table to the range of w
    that the r table can reach, the r window is the image of that range,
    and the shorter window, mapped through v -> t - v, is intersected with
    the other table's keys.

    The join visits each orbit of two kinds of term symmetry once: every
    permutation of matching terms, and (x, y, z) -> (-x, -y, -z) when a, b,
    c are all odd.  It does not use the swap of two even-exponent terms with
    opposite coefficients and an odd third exponent, as (x, y, z) ->
    (y, x, -z) on x^2 - y^2 + z^3 = 0: both halves of its orbits are joined.
    Each region below meets every orbit, and the found triples are closed
    under the group afterwards.  Negation alone: t <= 0.  A matching inner
    pair: also w <= t // 2.  The outer term matching the w term: w >= -t, or
    w >= |t| with no cut on t under negation.  All three matching:
    2t <= w <= t // 2, and w <= t under negation.  A sign change of one
    variable with an even exponent needs nothing, because the value tables
    already merge +-v.

    Cost: two inner tables of 2*bound + 1 entries, and an outer one cut to
    the v whose |coef * v^n| the inner sums can reach, which drops nothing
    the join could match; then per joined value t two bisections into each
    inner table and one set intersection over the shorter window.  Each
    table is sized before it is built: when its entries times a lower bound
    on the bits of its largest entry pass the cap "power bits",
    WorkLimitExceeded is raised instead.  So an exponent like 10^9 + 7
    fails at once on an inner table past |v| <= 1, and costs nothing on the
    outer one, which the cut keeps to |v| <= 1 while the inner sums stay
    below 2^(10^9 + 7).  A largest exponent outside leaves few outer values
    within reach of the inner sums, and the symmetries cut the joined region
    by about the size of their group or more: the shorter windows sum to
    17 k on (7,7,7) at bound 600 (12 maps) and to 330 k on (2,2,2) at bound
    1500 (x <-> y), against 1.42 M and 1.13 M with x outer and no symmetry.
    These window lengths are the join's probes: it sums them as it runs and
    raises WorkLimitExceeded (cap "join probes") once they pass that cap,
    which (2,2,2) with coefficients 1, 1, -1 does past bound 15,000.  No
    root extraction, no modular sieve, no fixed-width integers.

    use_sieve is accepted and has no effect: the join is exact, so there is
    nothing for a modular pre-sieve to discard.  It stays because callers
    that pass it keep working.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    exps = tuple(F.sig)
    coefs = (F.A, F.B, F.C)
    signs = [-1 if n % 2 and k < 0 else 1 for n, k in zip(exps, coefs)]
    terms = [(n, k * e) for n, k, e in zip(exps, coefs, signs)]
    negation = all(n % 2 for n in exps)
    o = min(
        range(3), key=lambda i: (-exps[i], terms.count(terms[i]) > 1, -abs(coefs[i]), i)
    )
    p, q = sorted((i for i in range(3) if i != o), key=lambda i: terms[i] != terms[o])
    outer_match, inner_match = terms[o] == terms[p], terms[p] == terms[q]
    ws, wroots = _value_table(terms[p][1], exps[p], bound)
    rs, rroots = _value_table(terms[q][1], exps[q], bound)
    # A joined t = w + r has |t| <= reach, so the outer variable has
    # |coef| * |v|^n <= reach: the rest of its table could never be joined.
    reach = max(-ws[0], ws[-1]) + max(-rs[0], rs[-1])
    radius = min(bound, integer_nth_root(reach // abs(coefs[o]), exps[o]))
    ts, oroots = _value_table(-terms[o][1], exps[o], radius)
    top = ws[-1] + rs[-1]
    if negation and (inner_match or not outer_match):
        top = min(top, 0)
    found = set()
    probes = 0
    for t in ts[bisect_left(ts, ws[0] + rs[0]) : bisect_right(ts, top)]:
        lo = max(t - rs[-1], ws[0])
        hi = min(t - rs[0], ws[-1])
        if outer_match and inner_match:
            lo, hi = max(lo, 2 * t), min(hi, t if negation else t // 2)
        elif outer_match:
            lo = max(lo, abs(t) if negation else -t)
        elif inner_match:
            hi = min(hi, t // 2)
        if lo > hi:
            continue
        wlo, whi = bisect_left(ws, lo), bisect_right(ws, hi)
        rlo, rhi = bisect_left(rs, t - hi), bisect_right(rs, t - lo)
        probes += min(whi - wlo, rhi - rlo)
        charge("join probes", probes, "joining {} at bound {}", F, bound)
        if whi - wlo <= rhi - rlo:
            wvals = [t - r for r in rroots.keys() & map(sub, repeat(t), ws[wlo:whi])]
        else:
            wvals = wroots.keys() & map(sub, repeat(t), rs[rlo:rhi])
        for v in wvals:
            for s in iter_product(oroots[t], wroots[v], rroots[t - v]):
                if math.gcd(*s) == 1:
                    found.add(s)
    # Back to (x, y, z) order through every permutation of matching terms,
    # then to the original signs.
    order = (o, p, q)
    perms = [
        [order.index(j) for j in g]
        for g in permutations(range(3))
        if [terms[j] for j in g] == terms
    ]
    sx, sy, sz = signs
    found = {(sx * s[i], sy * s[j], sz * s[k]) for s in found for i, j, k in perms}
    if negation:
        found |= {(-x, -y, -z) for x, y, z in found}
    return [PrimitiveSolution(*s) for s in sorted(found)]


def j_map(F: GFE, sol: PrimitiveSolution) -> ProjPointQ:
    """Image (-A x^a : C z^c) of a primitive solution, in canonical form.

    The image is 0, 1, infinity exactly when x, y, z vanishes respectively.
    """
    if math.gcd(*sol.as_tuple()) == 1:
        ax, by, cz = F._terms(*sol.as_tuple())
        if ax + by + cz == 0:
            return normalize_projective(-ax, cz)
    raise ValueError(f"{sol} does not solve {F} primitively")


class RecoveredSolution(Record):
    """A solution recovered from a point, with the coefficients it solves.

    exact_coefficients is True when the coefficients are the original
    equation's ints (A, B, C); otherwise they are Fractions that differ from
    them by units of the ring (an S-integral recovery).
    """

    __slots__ = ("x", "y", "z", "coefficients", "exact_coefficients")

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


def recover_solutions(
    Q: ProjPointQ,
    F: GFE,
    ring: SRing,
    search_units: bool = False,
) -> list[RecoveredSolution]:
    """Solutions whose image is Q, for Q an accepted point over the ring.

    With the original coefficients: a triple maps to Q exactly when
    (A x^a, B y^b, C z^c) = mu * (-s, s - t, t) for an integer mu, and over
    S = {} this finds every primitive integral solution mapping to Q.  It
    tries mu = d and mu = -d only, where d is the lcm of |k| / gcd(k, v)
    over the nonzero values v of (s, s - t, t), k the coefficient of v's
    term.  No other |mu| gives a primitive triple.  Fix a prime p: k divides
    mu * v, so v_p(mu) >= v_p(k) - v_p(v) for each nonzero v; a primitive
    triple has a coordinate prime to p, which is nonzero, and at its term
    v_p(mu) = v_p(k) - v_p(v).  So v_p(mu) is the largest v_p(k) - v_p(v),
    and that is v_p(d): it is at least 0, since s and t are coprime and so
    one of them is nonzero and prime to p.  When some mu * v / k is not an
    n-th power there is no root and no solution.  With search_units, also
    returns the canonical S-integral recovery built from the certificate
    roots, whose coefficients are unit multiples of the original ones, when
    they differ from them: when they do not, that triple solves F at mu = 1
    and is already listed.
    """
    from .belyi import is_stack_point

    cert = is_stack_point(Q, F.sig, ring)
    if not cert.accepted:
        raise NotAStackPoint(f"{Q} fails the root conditions over {ring}")
    return _recover(cert, F, search_units)


def _recover(
    cert: StackPointCertificate, F: GFE, search_units: bool = False
) -> list[RecoveredSolution]:
    """recover_solutions at the point of an accepted certificate, without
    testing the point again."""
    Q = cert.point
    a, b, c = F.sig
    s, t = Q.s, Q.t
    values = (s, s - t, t)

    coefs = (F.A, F.B, F.C)
    results: list[RecoveredSolution] = []
    # The one scale |mu| that a primitive solution can have at Q, with both
    # signs; recover_solutions proves it.  Distinct signs give distinct
    # triples, since a nonzero s or t fixes mu.
    d = math.lcm(*(abs(k) // math.gcd(k, v) for v, k in zip(values, coefs) if v))
    for mu in (d, -d):
        targets = (-mu * s, mu * (s - t), mu * t)
        root_lists = [
            _signed_roots(tv // coef, n) for tv, coef, n in zip(targets, coefs, (a, b, c))
        ]
        for x, y, z in iter_product(*root_lists):
            if math.gcd(x, math.gcd(y, z)) != 1:
                continue
            if F.evaluate(x, y, z) != 0:
                raise AssertionError(f"({x}, {y}, {z}) recovered from {Q} does not solve {F}")
            results.append(RecoveredSolution(x, y, z, coefs, True))

    if search_units:
        from fractions import Fraction

        # Canonical S-integral recovery: each nonzero coordinate is the
        # positive root from the certificate, the leftover unit moves into
        # the coefficient.  A marked point's nonzero coordinates are +-1, so
        # their roots are their absolute values.
        x, y, z = cert.roots or tuple(map(abs, values))
        A1 = -Fraction(s, x**a) if x else Fraction(F.A)
        B1 = Fraction(s - t, y**b) if y else Fraction(F.B)
        C1 = Fraction(t, z**c) if z else Fraction(F.C)
        triple = (A1, B1, C1)
        if triple != coefs:
            results.append(RecoveredSolution(x, y, z, triple, False))

    return results


class DescentEntry(Record):
    __slots__ = ("solution", "image", "certificate")


class DescentReport(Record):
    """Outcome of testing every enumerated solution over Z[1/N], N = |abcABC|.
    ring is bad_prime_set(gfe); unsplit is (the rest of N,), unfactored, or
    () if it is 1, so the primes of N are those of ring and unsplit together."""

    __slots__ = ("gfe", "bound", "ring", "unsplit", "entries")

    @property
    def violations(self) -> tuple[DescentEntry, ...]:
        return tuple(e for e in self.entries if not e.certificate.accepted)

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_descent_inclusion(F: GFE, bound: int) -> DescentReport:
    """Check that every primitive solution lands on the rooted line over
    Z[1/N], N = |abcABC|, tested by gcds with N unfactored, so no verdict
    factors, tests primality or runs rho; violations are collected in the
    report, never raised.  The report's ring is bad_prime_set(F)."""
    from .belyi import is_stack_point
    from .sarith import SRing

    N = abs(math.prod(F.sig) * F.A * F.B * F.C)
    ring = bad_prime_set(F)
    rest = ring.prime_to_s_part(N)
    unsplit = (rest,) if rest != 1 else ()
    support = SRing((N,))
    entries = []
    for sol in enumerate_primitive_solutions(F, bound):
        image = j_map(F, sol)
        cert = is_stack_point(image, F.sig, support)
        entries.append(DescentEntry(sol, image, cert))
    return DescentReport(F, bound, ring, unsplit, tuple(entries))
