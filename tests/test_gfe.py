import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from gfdescent.errors import NotAStackPoint
from gfdescent.exact import POINT_INFINITY, POINT_ONE, POINT_ZERO, normalize_projective
from gfdescent.gfe import (
    GFE,
    PrimitiveSolution,
    bad_prime_set,
    enumerate_primitive_solutions,
    j_map,
    recover_solutions,
    verify_descent_inclusion,
)
from gfdescent.groups import Signature
from gfdescent.sarith import SRing

from oracles import brute_force_solutions, brute_force_solutions_zdict, random_gfes

F442 = GFE(Signature(4, 4, 2), 1, 1, -1)
F237 = GFE(Signature(2, 3, 7), 1, 1, 1)
FERMAT_442_TRIPLES = [
    (-1, 0, -1), (-1, 0, 1), (0, -1, -1), (0, -1, 1),
    (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1),
]


def test_gfe_validation():
    with pytest.raises(ValueError):
        GFE(Signature(2, 3, 7), 1, 0, 1)
    assert str(F442) == "x^4 + y^4 - z^2 = 0"
    assert str(GFE(Signature(2, 3, 7), 3, 5, 1)) == "3*x^2 + 5*y^3 + z^7 = 0"


def test_bad_prime_set_examples():
    assert bad_prime_set(F237).primes == (2, 3, 7)
    assert bad_prime_set(F442).primes == (2,)
    assert bad_prime_set(GFE(Signature(2, 3, 7), 3, 5, 1)).primes == (2, 3, 5, 7)


def test_sieve_flags_have_no_effect():
    # The join is exact; use_sieve and max_sieve_primes are accepted and
    # change nothing, whatever their values.
    for F in [F442, F237] + random_gfes(71, 4):
        ref = enumerate_primitive_solutions(F, 12)
        for kwargs in ({"use_sieve": False}, {"max_sieve_primes": 0}, {"max_sieve_primes": 9}):
            assert enumerate_primitive_solutions(F, 12, **kwargs) == ref, (str(F), kwargs)


def test_join_matches_brute_force_three_seeds():
    # The triple-loop oracle shares no code with the join: no tables, no
    # bisection, no set intersection.
    for seed in (71, 97, 101):
        for F in random_gfes(seed, 8):
            got = [s.as_tuple() for s in enumerate_primitive_solutions(F, 15)]
            assert got == brute_force_solutions(F, 15), (seed, str(F))


def test_enumerate_442():
    sols = enumerate_primitive_solutions(F442, 100)
    assert [s.as_tuple() for s in sols] == FERMAT_442_TRIPLES


def test_enumerate_237_contains_known():
    sols = {s.as_tuple() for s in enumerate_primitive_solutions(F237, 10)}
    assert (3, -2, -1) in sols and (-3, -2, -1) in sols
    assert sols == set(brute_force_solutions(F237, 10))


def test_enumerate_sum_of_squares_empty():
    assert enumerate_primitive_solutions(GFE(Signature(2, 2, 2), 1, 1, 1), 5) == []


def test_enumerate_sorted_lexicographically():
    sols = enumerate_primitive_solutions(F237, 25)
    tuples = [s.as_tuple() for s in sols]
    assert tuples == sorted(tuples)
    assert len(tuples) == len(set(tuples))


def test_enumerate_matches_brute_force():
    for F in random_gfes(73, 25):
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, 20)]
        assert got == brute_force_solutions(F, 20), str(F)


def test_enumerate_matches_brute_force_bound_50():
    for F in [F237, GFE(Signature(3, 3, 3), 1, 1, 1), GFE(Signature(2, 3, 4), 2, -3, 1)]:
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, 50)]
        assert got == brute_force_solutions_zdict(F, 50), str(F)


def test_enumerate_sieve_off_and_python_path_agree():
    for F in random_gfes(79, 6):
        with_sieve = enumerate_primitive_solutions(F, 15)
        without = enumerate_primitive_solutions(F, 15, use_sieve=False)
        assert with_sieve == without
        assert [s.as_tuple() for s in without] == brute_force_solutions_zdict(F, 15)


def test_enumerate_python_path_at_scale():
    got = [s.as_tuple() for s in enumerate_primitive_solutions(F237, 40)]
    assert got == brute_force_solutions_zdict(F237, 40)


def test_enumerate_window_edges():
    # (3,4,5) sits exactly on the bound: a window that is off by one at
    # either end drops it at bound 5 or keeps it at bound 4.  The hypotenuse
    # goes in each slot in turn, which moves the solution between the
    # y-window and the z-window and between their ends.
    legs = {(sx * 3, sy * 4, sz * 5) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)}
    legs |= {(y, x, z) for x, y, z in legs}
    for slot in range(3):
        coeffs = [1, 1, 1]
        coeffs[slot] = -1
        F = GFE(Signature(2, 2, 2), *coeffs)
        triples = {t[:slot] + (t[2],) + t[slot:2] for t in legs}
        at5 = [s.as_tuple() for s in enumerate_primitive_solutions(F, 5)]
        at4 = [s.as_tuple() for s in enumerate_primitive_solutions(F, 4)]
        assert triples <= set(at5) and not triples & set(at4), str(F)
        assert sorted(set(at5) - triples) == at4, str(F)
        assert at5 == brute_force_solutions(F, 5) and at4 == brute_force_solutions(F, 4)


def test_enumerate_coefficients_beyond_int64():
    # No fixed-width arithmetic anywhere: coefficients past 2^63 are exact.
    A = 10**30
    for F, known in (
        (GFE(Signature(2, 3, 7), A, -A, 1), (1, 1, 0)),
        (GFE(Signature(3, 3, 2), A, A + 7, -(2 * A + 7)), (1, 1, -1)),
        (GFE(Signature(5, 2, 3), 3, A, -(A + 3)), (1, -1, 1)),
    ):
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, 12)]
        assert got == brute_force_solutions_zdict(F, 12), str(F)
        assert known in got, str(F)


def test_import_leaves_numpy_out():
    import gfdescent

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gfdescent.__file__).parents[1]))
    probe = "import sys, gfdescent; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_jmap_examples():
    assert j_map(F442, PrimitiveSolution(0, 1, 1)) == POINT_ZERO
    assert j_map(F442, PrimitiveSolution(1, 0, 1)) == POINT_ONE
    assert j_map(F237, PrimitiveSolution(3, -2, -1)) == normalize_projective(9, 1)


def test_jmap_rejects_non_solutions():
    with pytest.raises(ValueError):
        j_map(F442, PrimitiveSolution(1, 1, 1))
    with pytest.raises(ValueError):
        j_map(F442, PrimitiveSolution(2, 0, 4))  # gcd 2


def test_jmap_marking():
    # Image is 0 iff x = 0, infinity iff z = 0, 1 iff y = 0.
    for F in [F442, F237] + random_gfes(83, 10):
        for sol in enumerate_primitive_solutions(F, 12):
            image = j_map(F, sol)
            assert (image == POINT_ZERO) == (sol.x == 0)
            assert (image == POINT_INFINITY) == (sol.z == 0)
            assert (image == POINT_ONE) == (sol.y == 0)


def test_recover_examples():
    Z = SRing(())
    got = {r.as_tuple() for r in recover_solutions(normalize_projective(9, 1), F237, Z)}
    assert got == {(3, -2, -1), (-3, -2, -1)}

    got = {r.as_tuple() for r in recover_solutions(POINT_ONE, F442, Z)}
    assert got == {(1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1)}

    with pytest.raises(NotAStackPoint):
        recover_solutions(normalize_projective(1, 2), F442, Z)


def test_recover_marked_points():
    Z = SRing(())
    got = {r.as_tuple() for r in recover_solutions(POINT_ZERO, F442, Z)}
    assert got == {(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)}
    assert recover_solutions(POINT_INFINITY, F442, Z) == []


def test_recover_search_units():
    R2 = SRing((2,))
    found = recover_solutions(normalize_projective(1, 2), F442, R2, search_units=True)
    unitwise = [r for r in found if not r.exact_coefficients]
    assert len(unitwise) == 1
    r = unitwise[0]
    A1, B1, C1 = r.coefficients
    x, y, z = r.as_tuple()
    assert (x, y, z) == (1, 1, 1)
    assert A1 * x**4 + B1 * y**4 + C1 * z**2 == 0
    assert all(R2.is_unit(cf) for cf in (A1, B1, C1))
    assert (A1, B1, C1) == (Fraction(-1), Fraction(-1), Fraction(2))


def test_recover_round_trip():
    # Unit-coefficient equations round-trip over Z itself; general ones over
    # their bad-prime ring (where the image is guaranteed to be accepted).
    for F in [F442, F237] + random_gfes(89, 15):
        ring = SRing(()) if {abs(F.A), abs(F.B), abs(F.C)} == {1} else bad_prime_set(F)
        for sol in enumerate_primitive_solutions(F, 10):
            image = j_map(F, sol)
            back = recover_solutions(image, F, ring)
            assert sol.as_tuple() in {r.as_tuple() for r in back}, (str(F), sol)
            for r in back:
                assert r.exact_coefficients
                assert math.gcd(r.x, math.gcd(r.y, r.z)) == 1
                assert F.evaluate(*r.as_tuple()) == 0
                assert j_map(F, PrimitiveSolution(*r.as_tuple())) == image


def test_recover_large_coefficients():
    # (2,3,5) with A = 2^16 3^8, B = 5^8, C = -(A + B): the scale bound has
    # 23 digits, far past what trial division up to its square root reaches.
    A, B = 2**16 * 3**8, 5**8
    F = GFE(Signature(2, 3, 5), A, B, -(A + B))
    image = j_map(F, PrimitiveSolution(1, 1, 1))
    got = {r.as_tuple() for r in recover_solutions(image, F, bad_prime_set(F))}
    assert got == {(1, 1, 1), (-1, 1, 1)}


# (signature, coefficients, solution) with gcd(A x^a, C z^c) > 1, so the
# scale |mu| that maps the canonical image back to the solution has a prime
# exponent above 0.  The last three solutions map to the marked points 0, 1
# and infinity, where one coordinate of the image is zero.
PRUNING_CASES = [
    ((2, 3, 5), (24, -132, 108), (1, 1, 1)),
    ((3, 2, 4), (12, 6, -18), (1, 1, 1)),
    ((2, 2, 3), (20, -70, 50), (1, -1, 1)),
    ((3, 3, 2), (6, 2, -16), (0, 2, 1)),
    ((3, 4, 3), (2, 5, -54), (3, 0, 1)),
    ((2, 2, 5), (9, -4, 7), (2, 3, 0)),
]


@pytest.mark.parametrize("sig,coeffs,sol", PRUNING_CASES)
def test_recover_pruned_scales_match_brute_force(sig, coeffs, sol):
    # Recovery prunes the scales by a congruence on prime exponents; every
    # solution in the window must still come back from its image, and
    # nothing else in the window may.
    F = GFE(Signature(*sig), *coeffs)
    x, _, z = sol
    assert F.evaluate(*sol) == 0
    assert math.gcd(F.A * x**F.sig.a, F.C * z**F.sig.c) > 1
    window = 8
    fibres = {}
    for triple in brute_force_solutions_zdict(F, window):
        fibres.setdefault(j_map(F, PrimitiveSolution(*triple)), set()).add(triple)
    assert sol in fibres[j_map(F, PrimitiveSolution(*sol))]
    for image, expected in fibres.items():
        got = {r.as_tuple() for r in recover_solutions(image, F, bad_prime_set(F))}
        assert {t for t in got if max(map(abs, t)) <= window} == expected, (str(F), image)


def test_verify_descent_inclusion_237():
    report = verify_descent_inclusion(F237, 20)
    assert report.passed and len(report.entries) > 0
    assert str(report.ring) == "Z[1/{2,3,7}]"


def test_verify_descent_inclusion_442():
    report = verify_descent_inclusion(F442, 100)
    assert report.passed
    assert {str(e.image) for e in report.entries} == {"(0:1)", "(1:1)"}


def test_verify_descent_inclusion_cubic():
    report = verify_descent_inclusion(GFE(Signature(3, 3, 3), 1, 1, 1), 10)
    assert report.passed
    sols = {e.solution.as_tuple() for e in report.entries}
    assert {(1, -1, 0), (1, 0, -1), (0, 1, -1)} <= sols


def test_descent_report_serializes():
    report = verify_descent_inclusion(F442, 10)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["violations"] == []
    assert all(isinstance(v, str) for entry in d["solutions"] for v in entry["solution"])
