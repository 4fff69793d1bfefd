"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the Smith-form oracle
uses gcds of k x k minors, the enumeration oracles never extract roots, the
torsion oracle has its own group law, the box-point oracle evaluates the
curve on Fractions without the square-denominator lemma, and the
point-test oracle factors each coordinate by trial division instead of
taking integer roots, and the prime-to-S oracle divides out one power at a
time where the strip takes gcds.  The strong-probable-prime check reads the
2-adic split of n - 1 off its bits and tests one base; the unit-class oracle
multiplies each exponent vector out from scratch, and the root oracle runs
full-width Newton from a power of two.  Curve membership is the
curve equation on Fractions, and a factorization's value the product of
its factors.  The recovery oracle tries every divisor of lcm(|A|, |B|, |C|)
that passes a per-prime exponent congruence, where recovery itself tries
the one scale that a point fixes.  The power-split oracle takes a full root
for every prime exponent below its stop, with no residue filter.

Two helpers are inputs rather than oracles: the fully factored ring of an
equation, built by the package's own factorize for tests whose subject is
recovery and not the ring, and the seeded coefficient table of the ring
tests, whose products have prime factors past the trial bound.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, lcm, prod


def random_gfes(seed, count, max_coeff=3, max_exp=5):
    """Deterministic sample of small equations: exponents in [2, max_exp],
    nonzero coefficients in [-max_coeff, max_coeff]."""
    from gfdescent.gfe import GFE
    from gfdescent.groups import Signature

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sig = Signature(*(rng.randrange(2, max_exp + 1) for _ in range(3)))
        coeffs = [
            rng.choice([i for i in range(-max_coeff, max_coeff + 1) if i])
            for _ in range(3)
        ]
        out.append(GFE(sig, *coeffs))
    return out


def m_matrix(a, b, c):
    """Relation matrix of the signature's character lattice: Z^3 modulo its
    rows is the character group of the symmetry group."""
    from gfdescent.smith import IntMatrix

    return IntMatrix([[a, -b, 0], [0, b, -c], [-a, 0, c]])


def j_matrix(a, b, c):
    """Presentation matrix of the abelianized (a, b, c) triangle group."""
    from gfdescent.smith import IntMatrix

    return IntMatrix([[a, 0, 0], [0, b, 0], [0, 0, c], [1, 1, 1]])


def minor_gcd_diagonal(rows):
    """Diagonal of the Smith normal form via gcds of k x k minors.

    Determinantal divisors: d_k = gcd of all k x k minors, and the k-th
    diagonal entry is d_k / d_{k-1} (zero once any level of minors vanishes).
    """
    r, c = len(rows), len(rows[0])
    n = min(r, c)
    dets = []
    prev = 1
    diag = []
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        dets.append(g)
        if g == 0:
            diag.append(0)
            # All larger minors vanish too.
            diag.extend([0] * (n - k))
            return diag
        diag.append(g // prev)
        prev = g
    return diag


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(sub)
    return total


def brute_force_solutions(F, bound):
    """All primitive solutions by a plain triple loop; no roots, no sieve."""
    a, b, c = F.sig
    rng = range(-bound, bound + 1)
    ax = {x: F.A * x**a for x in rng}
    by = {y: F.B * y**b for y in rng}
    cz = {z: F.C * z**c for z in rng}
    out = []
    for x in rng:
        for y in rng:
            w = ax[x] + by[y]
            for z in rng:
                if w + cz[z] == 0 and gcd(x, gcd(y, z)) == 1:
                    out.append((x, y, z))
    return sorted(out)


def brute_force_solutions_zdict(F, bound):
    """Primitive solutions via a value table for the z-term (still no roots)."""
    a, b, c = F.sig
    rng = range(-bound, bound + 1)
    ztable = {}
    for z in rng:
        ztable.setdefault(-F.C * z**c, []).append(z)
    out = []
    for x in rng:
        axa = F.A * x**a
        for y in rng:
            for z in ztable.get(axa + F.B * y**b, ()):
                if gcd(x, gcd(y, z)) == 1:
                    out.append((x, y, z))
    return sorted(out)


def integral_points_on_twist(d, box):
    """Integral (u, v) with v^2 = u^3 - d*u and |u| <= box, by direct search."""
    pts = []
    for u in range(-box, box + 1):
        w = u**3 - d * u
        if w < 0:
            continue
        v = round(w**0.5)
        for vv in (v - 1, v, v + 1):
            if vv >= 0 and vv * vv == w:
                pts.append((u, vv))
                if vv:
                    pts.append((u, -vv))
    return sorted(set(pts))


def on_curve(E, P):
    """Whether the curve point P lies on E: v^2 = u^3 - d*u, evaluated on
    Fractions; the point at infinity always does."""
    if P.is_infinity:
        return True
    u, v = Fraction(P.u), Fraction(P.v)
    return v * v == u**3 - E.d * u


def fraction_box_points(d, height):
    """Points (u, v) of v^2 = u^3 - d*u with u = p/q in lowest terms,
    |p| <= height and 1 <= q <= height, as a set of Fraction pairs.

    Evaluates u^3 - d*u on Fractions for every u in the box and keeps it when
    numerator and denominator are both perfect squares.
    """
    out = set()
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if gcd(p, q) != 1:
                continue
            u = Fraction(p, q)
            w = u**3 - d * u
            if w < 0:
                continue
            rn, rd = isqrt(w.numerator), isqrt(w.denominator)
            if rn * rn == w.numerator and rd * rd == w.denominator:
                out.add((u, Fraction(rn, rd)))
                out.add((u, Fraction(-rn, rd)))
    return out


def nagell_lutz_torsion(d):
    """Affine torsion points (u, v) of v^2 = u^3 - d*u, by the Nagell-Lutz
    screen and an independent chord-tangent law on Fractions.

    Torsion points are integral with v = 0 or v^2 dividing 4|d|^3.  That
    bounds |u| by 2|d|: beyond it |u^3 - d u| >= |u|^3 / 2 > 4|d|^3.  A
    candidate is kept iff some multiple up to 12 (Mazur) is the identity.
    """
    box = 2 * abs(d)
    disc = 4 * abs(d) ** 3
    out = set()
    for u in range(-box, box + 1):
        w = u**3 - d * u
        if w < 0:
            continue
        v = isqrt(w)
        if v * v != w or (v and disc % w):
            continue
        for P in {(u, v), (u, -v)}:
            if _has_order_at_most(P, d, 12):
                out.add(P)
    return out


def _has_order_at_most(P, d, n):
    acc = P
    for _ in range(n):
        if acc is None:
            return True
        acc = chord_tangent(acc, P, d)
    return False


def chord_tangent(P, Q, d):
    """P + Q on v^2 = u^3 - d*u; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (u1, v1), (u2, v2) = P, Q
    if u1 == u2 and v1 == -v2:
        return None
    if u1 == u2:
        lam = Fraction(3 * u1 * u1 - d, 2 * v1)
    else:
        lam = Fraction(v2 - v1) / (u2 - u1)
    u3 = lam * lam - u1 - u2
    return (u3, lam * (u1 - u3) - v1)


def _trial_factor(n):
    """{p: v_p(n)} for n != 0, by trial division."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_division_point_test(s, t, sig, primes):
    """(status, roots, failed) for the point (s:t), with gcd(s, t) = 1, on
    the rooted line of sig = (a, b, c) over Z[1/primes].

    The marked points are where s, s - t or t vanishes.  Elsewhere each of
    s, s - t, t is factored by trial division, and with its exponent n it
    is accepted when every valuation at a prime outside primes is divisible
    by n; its root is the product of p^(v/n) over those primes.
    """
    if s == 0 or s == t or t == 0:
        return ("marked", None, ())
    roots, failed = [], []
    for label, value, n in zip(("s", "s-t", "t"), (s, s - t, t), sig):
        outside = {p: v for p, v in _trial_factor(value).items() if p not in primes}
        if all(v % n == 0 for v in outside.values()):
            root = 1
            for p, v in outside.items():
                root *= p ** (v // n)
            roots.append(root)
        else:
            failed.append(label)
    if failed:
        return ("rejected", None, tuple(failed))
    return ("smooth", tuple(roots), ())


def prime_to_s_part_by_division(v, primes):
    """|v| with each of the given primes divided out one power at a time."""
    v = abs(v)
    for p in primes:
        while v % p == 0:
            v //= p
    return v


def factorization_product(f):
    """sign * product of p^e over the factors of a Factorization."""
    v = f.sign
    for p, e in f.factors:
        v *= p**e
    return v


def newton_nth_root(v, n):
    """Floor of the n-th root of v >= 1, n >= 1, by full-width integer
    Newton steps from the power of two just above the root."""
    x = 1 << (-(-v.bit_length() // n))
    while True:
        y = ((n - 1) * x + v // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def split_power_by_roots(v):
    """(r, k) with r^k == v for the least prime k < log(v) / log(10^4), or
    (v, 1): one full root per prime k, for v free of primes up to 10^4."""
    from gfdescent.exact import is_perfect_nth_power

    for k in range(2, 10_000):
        if 10_000**k >= v:
            break
        if all(k % d for d in range(2, isqrt(k) + 1)):
            r = is_perfect_nth_power(v, k)
            if r is not None:
                return r, k
    return v, 1


def is_strong_probable_prime(n, a):
    """Whether odd n > 2 is a strong probable prime to base a: with
    n - 1 = 2^s * d and d odd, a^d = 1 or a^(2^r * d) = -1 mod n for some
    r < s.  Every prime passes for every base prime to it."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    if pow(a, d, n) == 1:
        return True
    return any(pow(a, d << r, n) == n - 1 for r in range(s))


def s_unit_reps_by_product(primes, n):
    """Representatives of Z[1/primes]^x modulo n-th powers, in the order
    s_unit_reps lists them: sign slowest, then the exponent vectors of
    product(range(n), ...) in lexicographic order, each multiplied out."""
    signs = (1, -1) if n % 2 == 0 else (1,)
    reps = []
    for eps in signs:
        for exps in product(range(n), repeat=len(primes)):
            v = eps
            for p, e in zip(primes, exps):
                v *= p**e
            reps.append(v)
    return tuple(reps)


def recovery_by_divisor_scales(cert, F, search_units=False):
    """recover_solutions at an accepted certificate, by trying every scale.

    A solution over the point (s:t) has (A x^a, B y^b, C z^c) =
    mu * (-s, s - t, t), and a primitive one has |mu| dividing
    lcm(|A|, |B|, |C|).  The scales are those divisors, kept at each prime p
    with an exponent i only if i + v_p(v) - v_p(k) is a nonnegative
    multiple of n for each nonzero value v with coefficient k and exponent
    n; each is tried with both signs, in increasing order of |mu|, and
    every primitive triple of roots is kept once.  With search_units the
    certificate-root recovery is appended as recover_solutions builds it.
    """
    from gfdescent.exact import factorize, is_perfect_nth_power
    from gfdescent.gfe import RecoveredSolution

    def valuation(m, p):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        return e

    def signed_roots(m, n):
        if m == 0:
            return [0]
        r = is_perfect_nth_power(m, n)
        if r is None:
            return []
        return [r, -r] if n % 2 == 0 else [r]

    s, t = cert.point.s, cert.point.t
    values = (s, s - t, t)
    coefs = (F.A, F.B, F.C)
    base = tuple(map(Fraction, coefs))
    scales = [1]
    for p, e in factorize(lcm(F.A, F.B, F.C)).factors:
        shifts = [
            (valuation(v, p) - valuation(k, p), n)
            for v, k, n in zip(values, coefs, F.sig)
            if v
        ]
        powers = [
            p**i
            for i in range(e + 1)
            if all(i + k >= 0 and (i + k) % n == 0 for k, n in shifts)
        ]
        scales = [m * q for m in scales for q in powers]
    out, seen = [], set()
    for d in sorted(scales):
        for mu in (d, -d):
            targets = (-mu * s, mu * (s - t), mu * t)
            if any(tv % k for tv, k in zip(targets, coefs)):
                continue
            roots = [signed_roots(tv // k, n) for tv, k, n in zip(targets, coefs, F.sig)]
            for triple in product(*roots):
                if gcd(*triple) == 1 and triple not in seen:
                    seen.add(triple)
                    out.append(RecoveredSolution(*triple, base, True))
    if search_units:
        a, b, c = F.sig
        x, y, z = cert.roots or tuple(map(abs, values))
        A1 = -Fraction(s, x**a) if x else Fraction(F.A)
        B1 = Fraction(s - t, y**b) if y else Fraction(F.B)
        C1 = Fraction(t, z**c) if z else Fraction(F.C)
        triple = (A1, B1, C1)
        if triple != base or (x, y, z) not in seen:
            out.append(RecoveredSolution(x, y, z, triple, triple == base))
    return out


def factored_ring(F):
    """Z[1/S] for S every prime of abcABC, by the package's full factorize:
    the primes past 10^4 that bad_prime_set leaves unsplit are in it too."""
    from gfdescent.exact import factorize
    from gfdescent.sarith import SRing

    return SRing(p for p, _ in factorize(prod(F.sig) * F.A * F.B * F.C).factors)


def smooth_rough_coefficients():
    """18 seeded coefficient triples (smooth, rough, +-1): smooth a product
    of powers of 0, 1 or 4 primes up to 10^4, rough 1 or a power 1, 2, 3 or
    40 of a prime or a semiprime past 10^4, from 10007 to 2^1279 - 1."""
    from gfdescent.exact import _TRIAL_PRIMES

    rng = random.Random(43)
    roughs = (10007, 2**61 - 1, 2**89 - 1, 2**1279 - 1, (2**64 - 59) * (2**63 - 25))
    return [
        (prod(p ** rng.randint(1, 4) for p in rng.sample(_TRIAL_PRIMES, k)),
         rough ** rng.choice((1, 2, 3, 40)), rng.choice((1, -1)))
        for rough in (1, *roughs) for k in (0, 1, 4)
    ]
