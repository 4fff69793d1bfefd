import itertools
import math
import random
import time

import pytest

from gfdescent import errors, exact
from gfdescent.errors import CAPS, WorkLimitExceeded, ZeroPoint
from gfdescent.exact import (
    Factorization,
    ProjPointQ,
    _brent_rho,
    _divide_out,
    factorize,
    integer_nth_root,
    is_perfect_nth_power,
    is_probable_prime,
    normalize_projective,
)
from gfdescent.sarith import SRing, s_unit_reps

from oracles import (
    factorization_product,
    is_strong_probable_prime,
    newton_nth_root,
    split_power_by_roots,
)

# psi_1 .. psi_12 (OEIS A014233; Sorenson-Webster 2017): psi_k is the least
# odd composite that is a strong probable prime to each of the first k
# primes, so the composites that come closest to passing Miller-Rabin.
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)
PSI_12 = PSI[-1]
# The least strong pseudoprime to all 13 primes 2..41 (Sorenson-Webster
# 2017): below it is_probable_prime is deterministic.
PSI_13 = 3317044064679887385961981
M61 = 2**61 - 1


def sieve_primes(n):
    """The primes <= n, by a list-of-bools sieve."""
    is_prime = [True] * (n + 1)
    is_prime[0] = is_prime[1] = False
    for i in range(2, n + 1):
        if is_prime[i]:
            for j in range(i * i, n + 1, i):
                is_prime[j] = False
    return [i for i in range(n + 1) if is_prime[i]]


def divide_out_one_power_at_a_time(m, p):
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return m, e


def test_divide_out_matches_one_power_at_a_time():
    rng = random.Random(171)
    for _ in range(2000):
        p = rng.choice((2, 3, 7, 6, 12, 101, 2**61 - 1)) * rng.choice((1, -1))
        cofactor = rng.randint(1, 10**6) * rng.choice((1, -1))
        m = cofactor * p ** rng.randint(0, 300)
        assert _divide_out(m, p) == divide_out_one_power_at_a_time(m, p), (m, p)
    for m, p in ((0, 2), (5, 1), (5, 0), (5, -1)):
        with pytest.raises(ValueError):
            _divide_out(m, p)


def test_factorize_examples():
    assert factorize(42) == Factorization(1, ((2, 1), (3, 1), (7, 1)))
    assert factorize(-8) == Factorization(-1, ((2, 3),))
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_trial_division_boundaries():
    # 9973 and 10007 are the primes either side of the trial bound 10^4;
    # 100000007 is the first prime above its square, so trial division
    # leaves it to the primality test.
    assert factorize(9973 * 10007) == Factorization(1, ((9973, 1), (10007, 1)))
    assert factorize(-(2**20) * 3**5 * 9973**2) == Factorization(
        -1, ((2, 20), (3, 5), (9973, 2))
    )
    assert factorize(100000007) == Factorization(1, ((100000007, 1),))
    assert factorize(100000007 * 9973) == Factorization(1, ((9973, 1), (100000007, 1)))


def test_trial_prime_table_matches_sieve():
    assert exact._TRIAL_PRIMES == tuple(sieve_primes(exact.TRIAL_DIVISION_BOUND))
    assert len(exact._TRIAL_PRIMES) == 1229
    assert exact._PRIMORIAL == math.prod(exact._TRIAL_PRIMES)


def test_factorize_trial_stage_edges():
    primes = sieve_primes(10_000)
    primorial = math.prod(primes)
    # Every trial prime at once, and each twice.
    assert factorize(primorial).factors == tuple((p, 1) for p in primes)
    assert factorize(-(primorial**2)).factors == tuple((p, 2) for p in primes)
    # 10000! by Legendre's formula: v_p(N!) = sum of N // p^i.
    legendre = []
    for p in primes:
        e, q = 0, p
        while q <= 10_000:
            e += 10_000 // q
            q *= p
        legendre.append((p, e))
    assert factorize(math.factorial(10_000)) == Factorization(1, tuple(legendre))
    # The gcd loop stops at p = 101 > sqrt(9973), with 9973 left in the gcd.
    assert factorize(2 * 9973 * M61).factors == ((2, 1), (9973, 1), (M61, 1))
    # Squares on both sides of the bound: 10007^2 is left to the power split.
    assert factorize(9973**2 * 10007**2).factors == ((9973, 2), (10007, 2))
    # No prime up to 10^4 divides this, and it exceeds 10^8: rho splits it.
    assert factorize(10007 * 100000007).factors == ((10007, 1), (100000007, 1))
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_without_rho_builds_no_generator(monkeypatch):
    # Trial division, the primality test and the power split finish these,
    # so factorize must not seed a generator for rho.  A cofactor in
    # (10^4, 10^8] is prime, and the test settles it with its 13 witnesses.
    def refuse(seed):
        raise AssertionError(f"random.Random({seed}) built")

    monkeypatch.setattr(exact.random, "Random", refuse)
    q = 2**31 - 1
    assert factorize(q**2).factors == ((q, 2),)
    assert factorize(M61**2).factors == ((M61, 2),)
    assert factorize(2**100 * 3**7).factors == ((2, 100), (3, 7))
    assert factorize(9973 * 10007).factors == ((9973, 1), (10007, 1))
    assert factorize(100000007 * 9973).factors == ((9973, 1), (100000007, 1))
    assert factorize(2 * 99999989).factors == ((2, 1), (99999989, 1))


def test_factorize_trial_divides_the_gcd_up_to_its_square_root(monkeypatch):
    # The docstring's cost: small primes all below 100 cost at most 25 trial
    # divisions of the gcd.  Here g = 2 * 3 * 97, and the loop stops at 11.
    seen = []

    class Counted(tuple):
        def __iter__(self):
            for p in super().__iter__():
                seen.append(p)
                yield p

    monkeypatch.setattr(exact, "_TRIAL_PRIMES", Counted(exact._TRIAL_PRIMES))
    # No cofactor is left, so the power split does not walk the primes too.
    n = 2**5 * 3 * 97
    assert factorize(n).factors == ((2, 5), (3, 1), (97, 1))
    assert seen == [2, 3, 5, 7, 11]


def test_factorize_round_trip_dense():
    for n in range(1, 20001):
        assert factorization_product(factorize(n)) == n
        assert factorization_product(factorize(-n)) == -n


def test_factorize_round_trip_random_large():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(10**6, 10**12) * rng.choice((1, -1))
        f = factorize(n)
        assert factorization_product(f) == n
        primes = [p for p, _ in f.factors]
        assert all(is_probable_prime(p) for p in primes)
        assert primes == sorted(set(primes))


def test_factorize_work_limit(monkeypatch):
    # Two large Mersenne primes; trial division cannot see them and a
    # one-unit rho cap cannot split the product.
    n = (2**89 - 1) * (2**107 - 1)
    monkeypatch.setitem(CAPS, "rho work", 1)
    with pytest.raises(WorkLimitExceeded) as e:
        factorize(n)
    assert (e.value.cap, e.value.limit) == ("rho work", 1)
    assert str(e.value) == f"rho work cap of 1 exceeded: factoring {n} (unsplit part {n})"
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize(
    "n,full,capped",
    [
        (68734389138596057, (266148347, 17407), (None, 1023)),
        (48279464130652331, (202098101, 11903), (None, 1023)),
        (57149245472426669, (245155577, 5887), (None, 1023)),
        (52380665978922823, (236443303, 5503), (None, 1023)),
        # The block gcd hits n here, so the factor comes from backtracking.
        (56093278537482643, (246954509, 13470), (None, 1023)),
    ],
)
def test_brent_rho_pinned(n, full, capped, monkeypatch):
    # 56-bit semiprimes, seeded as factorize seeds them; the (factor, spent)
    # pairs pin the iteration, so a rewrite of the loop must not move them.
    assert _brent_rho(n, random.Random(n ^ 0x5EED), 0, n) == full
    assert refused_rho(n, 1000, monkeypatch) == capped


def refused_rho(n, cap, monkeypatch):
    """(None, spent) for the rho run that factorize seeds on n, under a
    rho-work cap that refuses it: spent is the work it was charged with
    when the cap refused it."""
    charged = []

    def recording(name, work, *detail):
        charged.append(work)
        errors.charge(name, work, *detail)

    with monkeypatch.context() as m:
        m.setattr(exact, "charge", recording)
        m.setitem(CAPS, "rho work", cap)
        with pytest.raises(WorkLimitExceeded, match="^rho work cap"):
            _brent_rho(n, random.Random(n ^ 0x5EED), 0, n)
    return None, charged[-1]


@pytest.mark.parametrize(
    "n,p,spent",
    [
        (68734389138596057, 266148347, 17407),
        (48279464130652331, 202098101, 11903),
        (57149245472426669, 245155577, 5887),
        (52380665978922823, 236443303, 5503),
        (56093278537482643, 246954509, 13470),
    ],
)
def test_factorize_splits_pinned_semiprimes(n, p, spent, monkeypatch):
    # The pinned rho runs above, through factorize and its seeding: the
    # pinned factor and cofactor come out with exactly the pinned cap,
    # and one unit less runs out.  rho_iteration_cap changes nothing.
    q, r = divmod(n, p)
    assert r == 0
    want = tuple(sorted(((p, 1), (q, 1))))
    assert factorize(n).factors == want
    assert factorize(n, rho_iteration_cap=1) == factorize(n)
    monkeypatch.setitem(CAPS, "rho work", spent)
    assert factorize(n).factors == want
    monkeypatch.setitem(CAPS, "rho work", spent - 1)
    with pytest.raises(WorkLimitExceeded):
        factorize(n)


def test_factorize_runs_rho_again_while_budget_is_left(monkeypatch):
    # An attempt that fails within the budget (the block gcd hit n and so did
    # backtracking) leaves the rest to the next attempt: with 1 unit of work
    # left, rho runs again.
    p, q = 100003, 100019
    attempts = iter([(None, 9), (p, 10)])
    spent_before = []

    def rho(n, rng, spent, whole):
        spent_before.append(spent)
        factor, spent = next(attempts)
        errors.charge("rho work", spent, "factoring {}", whole)
        return factor, spent

    monkeypatch.setattr(exact, "_brent_rho", rho)
    monkeypatch.setitem(CAPS, "rho work", 10)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert spent_before == [0, 9]


def test_brent_rho_charges_steps_by_words(monkeypatch):
    # This 400-digit semiprime of two ~200-digit primes is 1,324 bits, 21
    # words of 64 bits, so each step costs 21: a cap of 1,000 steps' work runs out after the same
    # 1,023 steps as the 56-bit cap of 1,000 above.
    n = (10**199 + 12819) * (3 * 10**199 + 1607)
    assert refused_rho(n, 21 * 1000, monkeypatch) == (None, 21 * 1023)


def test_split_power_tries_prime_exponents(monkeypatch):
    # A root is split again, so only prime k need one: on a 2,046-bit v with
    # no prime factor up to 10^4, the 37 primes k with 13k < 2,046, and the
    # residue filter rejects each of them without a root; the factorizations
    # of r^k stay the same.
    rng = random.Random(2046)
    v = 0
    while math.gcd(v, exact._PRIMORIAL) > 1 or is_probable_prime(v):
        v = rng.randrange(2**2045, 2**2046)
    tried, roots = [], []
    residue_primes = exact._residue_primes

    def filtered(k):
        tried.append(k)
        return residue_primes(k)

    def counted(value, k):
        roots.append(k)
        return is_perfect_nth_power(value, k)

    monkeypatch.setattr(exact, "_residue_primes", filtered)
    monkeypatch.setattr(exact, "is_perfect_nth_power", counted)
    assert exact._split_power(v) == (v, 1)
    assert len(tried) == 37 and tried[-1] == 157 and roots == []
    for r in (10007, M61):
        for k in (4, 6, 9):
            assert factorize(r**k).factors == ((r, k),)


def test_split_power_skips_a_residue_prime_that_divides_v():
    # q = 2 * 5003 + 1 = 10007 divides v, so v % q is 0 there: that q is
    # skipped, not counted as a failed residue test.
    assert exact._split_power(10007**5003) == (10007, 5003)


def test_split_power_gives_up_past_the_cap_after_four_failed_roots(monkeypatch):
    # v = 1 mod every trial prime and every residue prime the filter reads,
    # so each k passes it.  Past the prime-bits cap the split stops after the
    # roots for k = 2, 3, 5, 7 rather than take one for each of 1,229 k
    # (6.9 s, 2-core VM), and factorize refuses v on prime bits.
    qs = {q for k in exact._TRIAL_PRIMES for q in itertools.islice(exact._residue_primes(k), 4)}
    modulus = math.prod(qs) * exact._PRIMORIAL
    v = 1 + modulus * random.Random(130000).getrandbits(130000 - modulus.bit_length())
    roots = []

    def counted(value, k):
        roots.append(k)
        return is_perfect_nth_power(value, k)

    monkeypatch.setattr(exact, "is_perfect_nth_power", counted)
    assert exact._split_power(v) == (v, 1) and roots == [2, 3, 5, 7]
    with pytest.raises(WorkLimitExceeded) as info:
        factorize(v)
    assert info.value.cap == "prime bits"


def test_split_power_recovers_seeded_prime_powers():
    rng = random.Random(100)
    p100 = rng.randrange(2**99, 2**100) | 1
    while not is_probable_prime(p100):
        p100 += 2
    for r in (10007, M61, p100):
        for k in (2, 3, 5, 7, 151):
            assert exact._split_power(r**k) == (r, k)
    assert factorize(p100**151).factors == ((p100, 151),)
    assert factorize(12 * M61**40).factors == ((2, 2), (3, 1), (M61, 40))


def test_split_power_matches_the_unfiltered_loop():
    # Non-powers of 60 to 4,000 bits free of primes up to 10^4, and a few
    # powers of them: the filter changes which roots are taken, not the
    # answer.
    rng = random.Random(4000)
    for _ in range(40):
        bits = rng.randint(60, 4000)
        v = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        while math.gcd(v, exact._PRIMORIAL) > 1:
            v += 2
        assert exact._split_power(v) == split_power_by_roots(v), v
        w = v ** rng.choice((2, 3, 5)) if bits < 800 else v
        assert exact._split_power(w) == split_power_by_roots(w), w


def test_residue_primes_are_the_primes_one_mod_2k():
    # Looked up below 10^4, proved by the primorial gcd above it.
    for k in (2, 3, 5003, 9973):
        qs = list(itertools.islice(exact._residue_primes(k), 30))
        want = [q for q in range(2 * k + 1, qs[-1] + 1, 2 * k) if is_probable_prime(q)]
        assert qs == want, k


def test_factorize_splits_perfect_powers(monkeypatch):
    # Rho alone hit this cap on the square of a 61-bit prime.
    p = 2**61 - 1
    with monkeypatch.context() as m:
        m.setitem(CAPS, "rho work", 200_000)
        assert factorize(p**2) == Factorization(1, ((p, 2),))
    q = 2**31 - 1
    assert factorize(-(q**6) * p**3 * 12) == Factorization(
        -1, ((2, 2), (3, 1), (q, 6), (p, 3))
    )


def test_a_square_costs_one_root(monkeypatch):
    # README: (2^61-1)^2 costs one root extraction, k = 2, and no rho run.
    roots = []

    def counted(value, k):
        roots.append(k)
        return is_perfect_nth_power(value, k)

    monkeypatch.setattr(exact, "is_perfect_nth_power", counted)
    monkeypatch.setitem(CAPS, "rho work", 1)
    assert factorize(M61**2).factors == ((M61, 2),)
    assert roots == [2]


@pytest.mark.parametrize(
    "s,t,expected",
    [
        (-9, -1, (9, 1)),
        (4, 6, (2, 3)),
        (-3, 0, (1, 0)),
        (0, -5, (0, 1)),
        (7, -14, (-1, 2)),
    ],
)
def test_normalize_projective_examples(s, t, expected):
    p = normalize_projective(s, t)
    assert (p.s, p.t) == expected


def test_normalize_projective_zero_point():
    with pytest.raises(ZeroPoint):
        normalize_projective(0, 0)
    with pytest.raises(ZeroPoint):
        ProjPointQ(0, 0)


def test_normalize_projective_orbit_invariance():
    rng = random.Random(11)
    for _ in range(300):
        s = rng.randrange(-40, 41)
        t = rng.randrange(-40, 41)
        if (s, t) == (0, 0):
            continue
        base = normalize_projective(s, t)
        # Idempotence and invariance under nonzero rational scaling: scaling
        # by p/q is scaling the integers by p and comparing against q.
        assert normalize_projective(base.s, base.t) == base
        for k in (1, -1, 2, -3, 7, 30):
            assert normalize_projective(k * s, k * t) == base


def test_projpoint_rejects_non_canonical():
    with pytest.raises(ValueError):
        ProjPointQ(2, 4)
    with pytest.raises(ValueError):
        ProjPointQ(1, -2)
    # Only ints: ProjPointQ(True, 1) once printed as (True:1).
    for s, t in ((True, 1), (1, 1.0), (0.5, 1), ("1", 0)):
        with pytest.raises(ValueError, match="must be ints"):
            ProjPointQ(s, t)


@pytest.mark.parametrize(
    "v,n,expected",
    [(16, 4, 2), (4, 4, None), (-8, 3, -2), (0, 5, 0), (1, 8, 1), (-16, 4, None)],
)
def test_is_perfect_nth_power_examples(v, n, expected):
    assert is_perfect_nth_power(v, n) == expected


def test_is_perfect_nth_power_against_enumeration():
    # Enumerate every n-th power in range; everything else must map to None.
    for n in range(1, 9):
        table = {}
        r = 0
        while r**n <= 10**4:
            table[r**n] = r
            if n % 2 == 1 and r:
                table[-(r**n)] = -r
            r += 1
        for v in range(-(10**4), 10**4 + 1):
            got = is_perfect_nth_power(v, n)
            if n == 1:
                assert got == v
            elif v in table:
                assert got == table[v]
            else:
                assert got is None


def test_integer_nth_root_matches_isqrt():
    # Floor roots for n = 2..40 on seeded v up to 2^4096, and at r^n - 1,
    # r^n and r^n + 1, where an off-by-one root would show.
    rng = random.Random(3)
    for _ in range(500):
        v = rng.randrange(0, 10**24)
        assert integer_nth_root(v, 2) == math.isqrt(v)
        r3 = integer_nth_root(v, 3)
        assert r3**3 <= v < (r3 + 1) ** 3
    for n in range(2, 41):
        for bits in (8, 64, 256, 1024, 4096):
            v = rng.getrandbits(bits)
            r = integer_nth_root(v, n)
            assert r**n <= v < (r + 1) ** n, (v, n)
        for r in (2, 3, rng.randrange(4, 2**20), rng.randrange(2 ** (4096 // n - 1), 2 ** (4096 // n))):
            for v in (r**n - 1, r**n, r**n + 1):
                root = integer_nth_root(v, n)
                assert root**n <= v < (root + 1) ** n, (v, n)


def test_integer_nth_root_matches_newton_from_a_power_of_two():
    # The root taken on the top bits first equals full-width Newton, on
    # seeded radicands of up to 20,000 bits and at r^n - 1, r^n and r^n + 1.
    rng = random.Random(29)
    for _ in range(3000):
        n = rng.choice((1, 2, 3, 4, 5, 7, 11, 13, rng.randrange(1, 201)))
        bits = int(2 ** rng.uniform(1, math.log2(20000)))
        v = rng.getrandbits(bits) | 1
        if rng.random() < 0.5:
            v = max(1, (v >> (bits - bits // n)) ** n + rng.choice((-1, 0, 1)))
        assert integer_nth_root(v, n) == newton_nth_root(v, n), (v, n)


def test_even_roots_halve_through_isqrt_exactly():
    # An even index is halved through math.isqrt before any Newton step.
    # Full-width Newton from a power of two is the reference on seeded
    # radicands and at r^n - 1, r^n and r^n + 1 up to 40,000 bits, and at
    # 2^399998 + 12345, the radicand torsion_points takes the 4th root of at
    # d = -2^400000.  Newton takes up to a second a root at 400,000 bits, so
    # there the other indices are checked against r^n <= v < (r + 1)^n, and
    # a seeded r^n must give r back.
    rng = random.Random(41)
    huge = 2**399998 + 12345
    assert integer_nth_root(huge, 4) == newton_nth_root(huge, 4)
    for n in (2, 4, 6, 8, 12, 64):
        values = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (n, 64, 2000, 40000)]
        for bits in (n, 2000, 40000):
            r = rng.getrandbits(bits // n) | 1 << (bits // n)
            values += [r**n - 1, r**n, r**n + 1]
        for v in values:
            root = integer_nth_root(v, n)
            assert root == newton_nth_root(v, n), (v.bit_length(), n)
            assert is_perfect_nth_power(v, n) == (root if root**n == v else None)
        root = integer_nth_root(huge, n)
        assert root**n <= huge < (root + 1) ** n
        assert is_perfect_nth_power(huge, n) is None
        r = rng.getrandbits(400000 // n)
        assert integer_nth_root(r**n, n) == is_perfect_nth_power(r**n, n) == r


def test_integer_nth_root_of_a_huge_radicand_is_fast():
    # Full-width Newton from a power of two took 1.2-1.3 s here (2-core VM).
    v = 2**400000 - 1
    times = []
    for _ in range(3):
        start = time.perf_counter()
        integer_nth_root(v, 3)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.6


def test_integer_nth_root_of_a_small_root_is_fast():
    # A root of under about 128 bits starts from a float estimate just above
    # it.  From the power of two above it, Newton took 2,014 full-width steps
    # (0.8 s) on 10007^5003, and 6.6 s at n = 9,973 on 130,000 bits (2-core
    # VM).
    rng = random.Random(9973)
    start = time.perf_counter()
    for n in (3, 1019, 5003, 9973):
        for bits in (13, 40, 127):
            if bits * n > 130000:
                continue
            r = rng.getrandbits(bits) | 1 << (bits - 1)
            for v in (r**n - 1, r**n, r**n + 1, rng.getrandbits(bits * n)):
                root = integer_nth_root(v, n)
                assert root**n <= v < (root + 1) ** n, (bits, n)
    assert time.perf_counter() - start < 1


def test_is_probable_prime_small():
    primes = set(sieve_primes(1999))
    for n in range(2000):
        assert is_probable_prime(n) == (n in primes)


def test_psi_table_entries_are_the_strong_pseudoprimes():
    # psi_k is composite (some base below 100 is a witness), yet a strong
    # probable prime to each of the first k primes; is_probable_prime, which
    # tries all 13, must still reject it.
    for k, psi in enumerate(PSI, 1):
        assert not all(is_strong_probable_prime(psi, a) for a in range(2, 100)), k
        assert all(is_strong_probable_prime(psi, a) for a in exact._SMALL_PRIMES[:k])
        assert not is_probable_prime(psi), k


def test_psi13_passes_every_witness():
    # From psi_13 on the test is probabilistic: psi_13 is the product of two
    # primes, passes all 13 witnesses, and factorize records it as a prime.
    p, q = 1287836182261, 2575672364521
    assert PSI_13 == p * q and is_probable_prime(p) and is_probable_prime(q)
    assert all(is_strong_probable_prime(PSI_13, a) for a in exact._SMALL_PRIMES)
    assert is_probable_prime(PSI_13)
    assert factorize(PSI_13).factors == ((PSI_13, 1),)


def test_prime_bit_cap():
    # Miller-Rabin runs on at most the prime-bits cap; a larger number that
    # none of the 13 small primes divides is refused, with the cap named.
    cap = CAPS["prime bits"]
    assert is_probable_prime(2**1279 - 1)

    def free_of_small_primes(bits):
        n = 2 ** (bits - 1) + 1
        while any(n % p == 0 for p in exact._SMALL_PRIMES):
            n += 2
        return n

    assert free_of_small_primes(cap).bit_length() == cap
    assert is_probable_prime(free_of_small_primes(cap)) in (True, False)
    for n in (free_of_small_primes(cap + 1), 2**4423 - 1):
        with pytest.raises(WorkLimitExceeded) as info:
            is_probable_prime(n)
        assert (info.value.cap, info.value.limit) == ("prime bits", cap)
        assert f"{n.bit_length()}-bit" in str(info.value)
    # A small prime factor still answers at any size.
    assert not is_probable_prime(2**100000)
    assert not is_probable_prime(3 * (2**4423 - 1))
    # Factorization meets the cap on a cofactor, and the unit classes on a
    # prime.
    with pytest.raises(WorkLimitExceeded, match="prime bits"):
        factorize(12 * (2**4423 - 1))
    with pytest.raises(WorkLimitExceeded, match="prime bits"):
        s_unit_reps(SRing((2, 2**4423 - 1)), 2)


def test_is_probable_prime_rejects_psi12():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_probable_prime(PSI_12)
    assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))
    with pytest.raises(ValueError, match=f"{PSI_12} is not prime"):
        s_unit_reps(SRing((PSI_12,)), 2)
