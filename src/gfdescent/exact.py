"""Exact integer arithmetic: factorization, perfect powers, projective points.

Everything here works on plain Python ints (arbitrary precision), and every
function is pure.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right

from ._record import Record, set_field
from .errors import CAPS, ZeroPoint, charge

# Trial division finds every prime factor up to this bound, through one gcd
# with the product of those primes.  A cofactor left after it goes to the
# power split, then the primality test, then Brent's rho.
TRIAL_DIVISION_BOUND = 10_000


def _primes_up_to(n: int) -> tuple[int, ...]:
    """The primes <= n, for n >= 2, by a sieve of Eratosthenes on a
    bytearray of the odd numbers: entry i stands for 2i + 3."""
    sieve = bytearray([1]) * ((n - 1) // 2)
    for i in range((math.isqrt(n) - 1) // 2):
        if sieve[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return (2, *itertools.compress(range(3, n + 1, 2), sieve))


# The 1,229 primes up to the trial bound and their product (about 14,000
# bits): one gcd with it finds every trial prime that divides the input.
# Built once at import; multiplying blocks of 64 primes first makes the
# product about twice as fast as one prime at a time.
_TRIAL_PRIMES = _primes_up_to(TRIAL_DIVISION_BOUND)
_PRIMORIAL = math.prod(
    [math.prod(_TRIAL_PRIMES[i : i + 64]) for i in range(0, len(_TRIAL_PRIMES), 64)]
)

# The first 13 primes, 2..41: is_probable_prime divides by all of them, then
# uses all of them as Miller-Rabin witnesses, each one modular exponentiation.
# Together they decide primality for every n below
# psi_13 = 3317044064679887385961981 (Sorenson-Webster 2017).
_SMALL_PRIMES = _TRIAL_PRIMES[:13]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the 13 primes 2..41 as witnesses, after trial
    division by them.

    Deterministic for n < psi_13 = 3317044064679887385961981 ~ 3.3 * 10^24
    (Sorenson-Webster, Math. Comp. 86, 2017), the least composite that all
    13 witnesses pass, so True there proves n prime; a strong probabilistic
    test from psi_13 on, where that composite itself answers True.

    Raises WorkLimitExceeded, with cap "prime bits", when an n that none of
    the 13 primes divides has more bits than the prime-bits cap.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    charge("prime bits", n.bit_length(), "testing a {}-bit number", n.bit_length())
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(Record):
    """sign * product(p^e) == original input; primes strictly increasing."""

    __slots__ = ("sign", "factors")


def _trial_primes(n: int) -> list[int]:
    """The primes up to TRIAL_DIVISION_BOUND that divide n, increasing: one
    gcd of n with their product, then trial division of that squarefree gcd,
    not of n, until p^2 exceeds what is left of it, which is 1 or one prime.
    So an n with no such prime costs one gcd, and one whose such primes are
    all below 100 costs at most 25 trial divisions of the gcd."""
    g = math.gcd(n, _PRIMORIAL)
    primes = []
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            primes.append(p)
    if g > 1:
        primes.append(g)
    return primes


def _brent_rho(n: int, rng: random.Random, spent: int, whole: int) -> tuple[int | None, int]:
    """One Brent-rho attempt on composite n, a part of whole.  Returns (factor
    or None, spent), spent being the rho work of all of whole's attempts: each
    product or backtrack step costs the 64-bit words of n, charged to the
    "rho work" cap after each batch of products and each backtrack step."""
    words = -(-n.bit_length() // 64)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            spent += min(m, r - k) * words
            charge("rho work", spent, "factoring {} (unsplit part {})", whole, n)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # Backtrack one step at a time to recover the factor.
        while True:
            ys = (ys * ys + c) % n
            spent += words
            charge("rho work", spent, "factoring {} (unsplit part {})", whole, n)
            g = math.gcd(x - ys, n)
            if g > 1:
                break
    return (g if g != n else None), spent


def _residue_primes(k: int):
    """The primes q = 2jk + 1 below 10^8, increasing: looked up in _TRIAL_PRIMES
    below 10^4, and prime above it when no trial prime divides them."""
    for q in range(2 * k + 1, TRIAL_DIVISION_BOUND**2, 2 * k):
        if q < TRIAL_DIVISION_BOUND:
            if _TRIAL_PRIMES[bisect_right(_TRIAL_PRIMES, q) - 1] == q:
                yield q
        elif math.gcd(q, _PRIMORIAL) == 1:
            yield q


def _split_power(v: int) -> tuple[int, int]:
    """(r, k) with r^k == v and k prime, or (v, 1); r is re-split.  For v
    free of primes up to TRIAL_DIVISION_BOUND: r > 2^b, b = 13 the bound's
    bits less one, so k stops once bk reaches the bits of v (k < 158 within
    the prime-bits cap, up to 9,973 past it).  Before each root, v must be a
    k-th power residue mod the first four primes q = 2jk + 1 that do not
    divide it, as a k-th power is (Bernstein, Math. Comp. 67, 1998).  Past
    the prime-bits cap, where a v built to pass that filter could cost a root
    per k, it gives up after four failed roots, and is_probable_prime refuses v.
    """
    bits = v.bit_length()
    spare = 4 if bits > CAPS["prime bits"] else len(_TRIAL_PRIMES)
    for k in _TRIAL_PRIMES:
        if (TRIAL_DIVISION_BOUND.bit_length() - 1) * k >= bits or not spare:
            break
        residues = ((v % q, q) for q in _residue_primes(k))
        held = (pow(u, (q - 1) // k, q) == 1 for u, q in residues if u)
        if all(itertools.islice(held, 4)):
            r = is_perfect_nth_power(v, k)
            if r is not None:
                return r, k
            spare -= 1
    return v, 1


def _divide_out(m: int, p: int) -> tuple[int, int]:
    """(m / p^e, e) for the largest e with p^e dividing m.  Each pass divides
    by the largest p^(2^i) dividing m, so it takes O(log^2 e) divisions, not
    e.  Raises ValueError for m = 0 or |p| < 2, where that loop would never
    end or divide by 0."""
    if m == 0 or -2 < p < 2:
        raise ValueError(f"cannot divide {p} out of {m}")
    e = 0
    while m % p == 0:
        q, k = p, 1
        while m % (q * q) == 0:
            q, k = q * q, 2 * k
        m //= q
        e += k
    return m, e


def factorize(n: int, rho_iteration_cap: int | None = None) -> Factorization:
    """Prime factorization of a nonzero integer, each factor proved prime
    below psi_13 (see is_probable_prime).

    The primes up to TRIAL_DIVISION_BOUND come from _trial_primes, and each
    is divided out of n.  Every cofactor then goes through one order: a
    perfect power r^k is replaced by r (k times over), so a power past
    the prime-bits cap answers when its base is within it; one that
    is_probable_prime passes is recorded as prime, so from psi_13 on a
    recorded factor may be composite (psi_13 itself, the product of two
    13-digit primes, is recorded whole); any other is split by Brent's rho,
    seeded deterministically from the input (the generator is built only
    when rho runs), so failures are reproducible.

    Raises WorkLimitExceeded, with cap "rho work", when the rho work of all
    its attempts passes CAPS["rho work"] before the remaining cofactor is
    split, and with cap "prime bits" when is_probable_prime refuses a
    cofactor.  rho_iteration_cap is accepted and has no effect: the cap is
    read from CAPS alone, as every other cap is.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _trial_primes(m):
        m, counts[p] = _divide_out(m, p)

    rng = None
    spent = 0
    # (cofactor, multiplicity) pairs still to split.
    stack = [(m, 1)] if m > 1 else []
    while stack:
        v, mult = stack.pop()
        r, k = _split_power(v)
        if k > 1:
            stack.append((r, mult * k))
            continue
        if is_probable_prime(v):
            counts[v] = counts.get(v, 0) + mult
            continue
        if rng is None:
            rng = random.Random(abs(n) ^ 0x5EED)
        f = None
        while f is None:
            f, spent = _brent_rho(v, rng, spent, n)
        stack.append((f, mult))
        stack.append((v // f, mult))

    items = tuple(sorted(counts.items()))
    return Factorization(sign, items)


def integer_nth_root(v: int, n: int) -> int:
    """Floor of the n-th root of v >= 0."""
    if v < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root index must be positive")
    # floor(isqrt(v)^(1/m)) = floor(v^(1/2m)): an even index halves exactly.
    while n % 2 == 0 and v > 1:
        v, n = math.isqrt(v), n // 2
    if v in (0, 1) or n == 1:
        return v
    if v.bit_length() <= n:
        # 2 <= v < 2^n: the root is 1, and Newton would build 2^(n-1).
        return 1
    k = v.bit_length() // (2 * n)
    if k >= 64:
        # The root of the top bits, plus one and shifted back, lies above the
        # root and within a factor 1 + 2^-k of it, so few full-width Newton
        # steps remain.
        x = (integer_nth_root(v >> n * k, n) + 1) << k
    else:
        # log2's float error is far below 2^-20, so x lies just above the root.
        x = int(2 ** (math.log2(v) / n + 2**-20)) + 1
    while True:
        y = ((n - 1) * x + v // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x


def is_perfect_nth_power(v: int, n: int) -> int | None:
    """The integer r with r^n == v, if one exists, else None.

    For even n the radicand must be nonnegative and the nonnegative root is
    returned; callers enumerate both signs themselves.
    """
    if n < 1:
        raise ValueError("root index must be positive")
    if v < 0 and n % 2 == 0:
        return None
    r = integer_nth_root(abs(v), n)
    if v < 0:
        r = -r
    return r if r**n == v else None


class ProjPointQ(Record):
    """A point of P^1(Q) in canonical coprime form.

    Invariants: s, t ints (not bools), gcd(s, t) = 1, t > 0 or t = 0 < s.
    Canonical representatives make point-set equality a structural comparison.
    """

    __slots__ = ("s", "t")

    def __init__(self, s: int, t: int):
        if not type(s) is type(t) is int:
            raise ValueError(f"coordinates must be ints, got {(s, t)!r}")
        if s == 0 and t == 0:
            raise ZeroPoint("(0, 0) is not projective")
        if math.gcd(s, t) != 1:
            raise ValueError(f"({s}:{t}) is not in lowest terms")
        if t < 0 or (t == 0 and s < 0):
            raise ValueError(f"({s}:{t}) violates the sign convention")
        set_field(self, "s", s)
        set_field(self, "t", t)

    def __str__(self):
        return f"({self.s}:{self.t})"


def normalize_projective(s: int, t: int) -> ProjPointQ:
    """Canonical representative of (s : t); raises ZeroPoint on (0, 0)."""
    if s == 0 and t == 0:
        raise ZeroPoint("(0, 0) is not projective")
    g = math.gcd(s, t)
    s, t = s // g, t // g
    if t < 0 or (t == 0 and s < 0):
        s, t = -s, -t
    return ProjPointQ(s, t)


# The three marked points of the rooted projective line: the vanishing loci
# of s, s - t, and t.
POINT_ZERO = ProjPointQ(0, 1)
POINT_ONE = ProjPointQ(1, 1)
POINT_INFINITY = ProjPointQ(1, 0)
