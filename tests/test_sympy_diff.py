"""Differential tests of factorization, primality and Smith form against sympy."""

import random

import pytest

from gfdescent.exact import factorize, integer_nth_root, is_probable_prime
from gfdescent.smith import IntMatrix, smith_normal_form

from test_smith import corpus_matrices

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

# psi_1 .. psi_12 (OEIS A014233; Sorenson-Webster 2017): psi_k is the
# smallest strong pseudoprime to the first k primes.
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
# Smallest strong pseudoprime to the bases 2..41 (Sorenson-Webster 2017),
# the bound below which the 13 witnesses decide primality.
PSI_13 = 3317044064679887385961981


def test_factorize_matches_factorint():
    rng = random.Random(2017)
    semiprimes = [
        sympy.nextprime(rng.randrange(2**20, 2**28))
        * sympy.nextprime(rng.randrange(2**20, 2**28))
        for _ in range(20)
    ]
    powers = [rng.randrange(2, 10**6) ** rng.randrange(2, 7) for _ in range(20)]
    powers += [(2**61 - 1) ** 2, (2**31 - 1) ** 5 * 10007**2, (1000003 * 1000033) ** 3]
    for n in semiprimes + powers:
        sign = rng.choice((1, -1))
        f = factorize(sign * n)
        assert f.sign == sign
        assert dict(f.factors) == sympy.factorint(n), n


def test_is_probable_prime_matches_isprime():
    start = random.Random(2024).randrange(10**12)
    for n in [*range(start, start + 5000), PSI_12]:
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_is_probable_prime_matches_isprime_around_psi():
    # Every odd n within 2000 of each psi_k, the composites that come
    # closest to passing.
    for psi in sorted(set(PSI)):
        for n in range(psi - 2000, psi + 2001, 2):
            assert is_probable_prime(n) == sympy.isprime(n), n


def test_is_probable_prime_matches_isprime_below_psi13():
    # Log-uniform sizes, so that every bit length below psi_13 is drawn.
    rng = random.Random(1993)
    for _ in range(20_000):
        bits = rng.randrange(2, PSI_13.bit_length() + 1)
        n = rng.randrange(2, min(PSI_13, 2**bits))
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_is_probable_prime_passes_psi13():
    # At psi_13 the 13 witnesses no longer decide: the test says prime.
    assert is_probable_prime(PSI_13)
    assert not sympy.isprime(PSI_13)


def test_integer_nth_root_matches_integer_nthroot_at_powers_of_two():
    # A v below 2^n has root 1 without a Newton step; 2^n is the first v
    # with root 2.
    for n in (2, 3, 4, 5, 7, 31, 64, 65, 1000, 4096, 100_003):
        for v in (2**n - 1, 2**n, 2**n + 1):
            assert integer_nth_root(v, n) == sympy.integer_nthroot(v, n)[0], n


def test_smith_diagonal_matches_sympy():
    # Invariant factors are defined up to sign; sympy's are compared by
    # absolute value, ours are nonnegative by contract.
    for rows in corpus_matrices():
        theirs = normalforms.smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = [abs(int(theirs[i, i])) for i in range(min(theirs.shape))]
        assert smith_normal_form(IntMatrix(rows)).D.diagonal() == expected, rows
