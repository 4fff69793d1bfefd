"""Differential tests of factorization, primality and Smith form against sympy."""

import random

import pytest

from gfdescent.exact import factorize, is_probable_prime
from gfdescent.smith import IntMatrix, smith_normal_form

from test_smith import corpus_matrices

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

# Smallest strong pseudoprime to the bases 2..37 (Sorenson-Webster 2017).
PSI_12 = 318665857834031151167461


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


def test_smith_diagonal_matches_sympy():
    # Invariant factors are defined up to sign; sympy's are compared by
    # absolute value, ours are nonnegative by contract.
    for rows in corpus_matrices():
        theirs = normalforms.smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = [abs(int(theirs[i, i])) for i in range(min(theirs.shape))]
        assert smith_normal_form(IntMatrix(rows)).D.diagonal() == expected, rows
