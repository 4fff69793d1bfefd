import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import pytest

import gfdescent.cli as cli
from gfdescent import exact, sarith
from gfdescent.belyi import is_stack_point
from gfdescent.errors import CAPS, NotAStackPoint, WorkLimitExceeded
from gfdescent.exact import (
    POINT_INFINITY,
    POINT_ONE,
    POINT_ZERO,
    normalize_projective,
)
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

from oracles import (
    brute_force_solutions,
    brute_force_solutions_zdict,
    factored_ring,
    random_gfes,
    recovery_by_divisor_scales,
    smooth_rough_coefficients,
)

F442 = GFE(Signature(4, 4, 2), 1, 1, -1)
F237 = GFE(Signature(2, 3, 7), 1, 1, 1)
FERMAT_442_TRIPLES = [
    (-1, 0, -1), (-1, 0, 1), (0, -1, -1), (0, -1, 1),
    (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1),
]


def test_gfe_validation():
    with pytest.raises(ValueError):
        GFE(Signature(2, 3, 7), 1, 0, 1)
    # Only ints: True enumerated as if A were 1, and 2.0 raised
    # AttributeError inside the enumerator.
    for coeffs in ((True, 1, -1), (2.0, 1, 1), (1, 1, "1")):
        with pytest.raises(ValueError, match="must be ints"):
            GFE(Signature(2, 3, 7), *coeffs)
    assert str(F442) == "x^4 + y^4 - z^2 = 0"
    assert str(GFE(Signature(2, 3, 7), 3, 5, 1)) == "3*x^2 + 5*y^3 + z^7 = 0"


def test_bad_prime_set_examples():
    assert bad_prime_set(F237).generators == (2, 3, 7)
    assert bad_prime_set(F442).generators == (2,)
    assert bad_prime_set(GFE(Signature(2, 3, 7), 3, 5, 1)).generators == (2, 3, 5, 7)
    # Only the primes up to 10^4: 10007 is left to verify-inclusion's unsplit.
    assert bad_prime_set(GFE(Signature(2, 3, 7), 3 * 10007, 1, 1)).generators == (2, 3, 7)


def test_sieve_flags_have_no_effect():
    # The join is exact; use_sieve is accepted and changes nothing.
    for F in [F442, F237] + random_gfes(71, 4):
        ref = enumerate_primitive_solutions(F, 12)
        assert enumerate_primitive_solutions(F, 12, use_sieve=False) == ref, str(F)


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
    for eqs, bound in ((random_gfes(73, 25), 20), (random_gfes(79, 6), 15), ([F237], 40)):
        for F in eqs:
            got = [s.as_tuple() for s in enumerate_primitive_solutions(F, bound)]
            assert got == brute_force_solutions(F, bound), (str(F), bound)


def test_enumerate_matches_brute_force_bound_50():
    # The last two cut the outer z table to its reach, |z| <= 5 and 3, and
    # have solutions on that edge, (-41, -38, -5) and (-26, -43, 3): one with
    # |C| > 1, one with C < 0 on an odd exponent.
    for F in [
        F237,
        GFE(Signature(3, 3, 3), 1, 1, 1),
        GFE(Signature(2, 3, 4), 2, -3, 1),
        GFE(Signature(2, 2, 5), 2, 2, 2),
        GFE(Signature(2, 2, 7), 1, 2, -2),
    ]:
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, 50)]
        assert got == brute_force_solutions_zdict(F, 50), str(F)


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


# The join visits one region per orbit of the equation's term symmetries:
# (x, y, z) -> (-x, -y, -z) when all exponents are odd, and every permutation
# of terms that match once each odd-exponent coefficient is made positive by
# v -> -v.  It then closes the result under those maps.  Each kind below
# fixes the constrained exponents and coefficients and, except for the last,
# solves for one free coefficient so that a small seeded triple with the free
# variable at +-1 is a solution.  KIND_MATCHES names the pairs of terms that
# match in each kind.  "x-z-match" matches through the z slot,
# "a-equal-b-odd-with-A-minus-B" and the two sign-match kinds only up to the
# sign of an odd-exponent variable, and "A-equal-B-with-a-not-b" is a
# near-miss with no symmetry of terms.  Three matching terms (odd exponents:
# even ones of one sign have no solution) have only the solutions with a
# zero coordinate.
ORBIT_KINDS = (
    "negation",
    "swap-even",
    "swap-odd",
    "negation-and-swap",
    "x-z-match",
    "a-equal-b-odd-with-A-minus-B",
    "A-equal-B-with-a-not-b",
    "x-z-sign-match",
    "y-z-sign-match",
    "three-match",
)
KIND_MATCHES = {
    "negation": set(),
    "swap-even": {(0, 1)},
    "swap-odd": {(0, 1)},
    "negation-and-swap": {(0, 1)},
    "x-z-match": {(0, 2)},
    "a-equal-b-odd-with-A-minus-B": {(0, 1)},
    "A-equal-B-with-a-not-b": set(),
    "x-z-sign-match": {(0, 2)},
    "y-z-sign-match": {(1, 2)},
    "three-match": {(0, 1), (0, 2), (1, 2)},
}


def term_symmetries(F):
    """Each permutation g of the terms, with the signs e that make
    (x, y, z) -> (e[i] * v[g[i]])_i map solutions to solutions: the exponents
    agree, and so do the coefficients, up to sign where the exponent is odd."""
    exps, coefs = tuple(F.sig), (F.A, F.B, F.C)
    out = []
    for g in permutations(range(3)):
        if all(
            exps[g[i]] == exps[i]
            and abs(coefs[g[i]]) == abs(coefs[i])
            and (exps[i] % 2 or coefs[g[i]] == coefs[i])
            for i in range(3)
        ):
            out.append((g, [coefs[g[i]] // coefs[i] for i in range(3)]))
    return out


def matching_pairs(F):
    return {
        tuple(sorted(i for i in range(3) if g[i] != i))
        for g, _ in term_symmetries(F)
        if sum(g[i] != i for i in range(3)) == 2
    }


def orbit_gfes(kind, seed, count):
    rng = random.Random(f"{kind}-{seed}")
    odd, even = (3, 5, 7), (2, 4, 6)
    out = []
    while len(out) < count:
        a, b, c = (rng.randrange(2, 8) for _ in range(3))
        A, B = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2))
        free, C = 2, A
        if kind == "negation":
            a, b, c = (rng.choice(odd) for _ in range(3))
        elif kind == "swap-even":
            a = b = rng.choice(even)
            B = A
        elif kind == "swap-odd":
            a = b = rng.choice(odd)
            B, c = A, rng.choice(even)
        elif kind == "negation-and-swap":
            a = b = rng.choice(odd)
            B, c = A, rng.choice(odd)
        elif kind == "x-z-match":
            c, free = a, 1
        elif kind == "a-equal-b-odd-with-A-minus-B":
            a = b = rng.choice(odd)
            B = -A
        elif kind == "A-equal-B-with-a-not-b":
            B = A
            if a == b:
                continue
        elif kind == "x-z-sign-match":
            a = c = rng.choice(odd)
            C, free = -A, 1
        elif kind == "y-z-sign-match":
            b = c = rng.choice(odd)
            C, free = -B, 0
        elif kind == "three-match":
            a = b = c = rng.choice(odd)
            B, C, free = rng.choice([-1, 1]) * A, rng.choice([-1, 1]) * A, None
        exps, coeffs = [a, b, c], [A, B, C]
        if free is not None:
            planted = [rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)]
            planted[free] = rng.choice([-1, 1])
            rest = sum(k * v**n for k, v, n in zip(coeffs, planted, exps))
            rest -= coeffs[free] * planted[free] ** exps[free]
            coeffs[free] = -rest * planted[free] or rng.choice([-1, 1])
        F = GFE(Signature(*exps), *coeffs)
        if matching_pairs(F) != KIND_MATCHES[kind]:
            continue
        out.append((F, rng.randint(3, 12)))
    return out


def test_orbit_kinds_are_what_they_say():
    for kind in ORBIT_KINDS:
        for F, _ in orbit_gfes(kind, 0, 20) + orbit_gfes(kind, 1, 12) + orbit_gfes(kind, 2, 12):
            a, b, c = F.sig
            negation = a % 2 == b % 2 == c % 2 == 1
            if kind in ORBIT_KINDS[:4] or kind == "three-match":
                assert negation == (kind not in ("swap-even", "swap-odd")), (kind, str(F))
            # x <-> y without a sign change: only the swap kinds have it, and
            # three matching terms may.
            swap = (a, F.A) == (b, F.B)
            if kind != "three-match":
                assert swap == (kind in ORBIT_KINDS[1:4]), (kind, str(F))
            assert matching_pairs(F) == KIND_MATCHES[kind], (kind, str(F))


@pytest.mark.parametrize("kind", ORBIT_KINDS)
def test_orbit_join_matches_brute_force(kind):
    found = 0
    for F, bound in orbit_gfes(kind, 1, 12):
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, bound)]
        assert got == brute_force_solutions_zdict(F, bound), (kind, str(F), bound)
        found += len(got)
    assert found >= 12, kind


@pytest.mark.parametrize("kind", ORBIT_KINDS)
def test_output_closed_under_the_symmetries_that_apply(kind):
    for F, bound in orbit_gfes(kind, 2, 12):
        a, b, c = F.sig
        sols = {s.as_tuple() for s in enumerate_primitive_solutions(F, bound)}
        if a % 2 == b % 2 == c % 2 == 1:
            assert {(-x, -y, -z) for x, y, z in sols} == sols, str(F)
        # Every swap of two matching terms with its sign change, and all six
        # permutations when the three terms match.
        symmetries = term_symmetries(F)
        assert len(symmetries) == (6 if kind == "three-match" else 1 + len(KIND_MATCHES[kind]))
        for g, e in symmetries:
            assert {tuple(e[i] * s[g[i]] for i in range(3)) for s in sols} == sols, (str(F), g)


def test_permuting_terms_permutes_solutions():
    # Metamorphic: moving the terms to other slots moves the solutions'
    # coordinates with them.  Over the six permutations the outer term takes
    # every slot, and each kind reaches its region rule from every side.
    cases = [(F, 8) for F in random_gfes(103, 12)]
    for kind in ORBIT_KINDS:
        cases += orbit_gfes(kind, 3, 4)
    for F, bound in cases:
        exps, coefs = tuple(F.sig), (F.A, F.B, F.C)
        sols = [s.as_tuple() for s in enumerate_primitive_solutions(F, bound)]
        for g in permutations(range(3)):
            Fg = GFE(Signature(*(exps[i] for i in g)), *(coefs[i] for i in g))
            got = [s.as_tuple() for s in enumerate_primitive_solutions(Fg, bound)]
            assert got == sorted(tuple(s[i] for i in g) for s in sols), (str(F), g)


def test_orbit_fixed_points():
    # Triples that a symmetry fixes or maps onto the region's boundary:
    # x = 0 (u = 0), x = y (fixed by the swap), x = -y (fixed by swap and
    # negation together), and (+-1, +-1, +-1) with every sign merged by the
    # even-exponent tables.  Each must come out once.
    cases = {
        (3, 3, 3, 1, 1, -1): [
            (-1, 0, -1), (-1, 1, 0), (0, -1, -1), (0, 1, 1), (1, -1, 0), (1, 0, 1),
        ],
        (3, 3, 3, 1, 1, -2): [(-1, -1, -1), (-1, 1, 0), (1, -1, 0), (1, 1, 1)],
        (5, 3, 3, 1, 1, 1): [
            (-1, 0, 1), (-1, 1, 0), (0, -1, 1), (0, 1, -1), (1, -1, 0), (1, 0, -1),
        ],
        (3, 3, 5, 2, 2, -1): [(-1, 1, 0), (1, -1, 0)],
        (2, 2, 2, 1, 1, -2): [
            (sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
        ],
    }
    for (a, b, c, A, B, C), want in cases.items():
        F = GFE(Signature(a, b, c), A, B, C)
        bound = 1 if (a, b, c) == (2, 2, 2) else 10
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, bound)]
        assert got == want == brute_force_solutions_zdict(F, bound), str(F)


def test_outer_range_cut_keeps_both_ends():
    # The outer table is cut to [min w + min r, max w + max r] before the
    # join.  At bound 1, +-(1, 1, 1) sits on the low end of x^3 + y^3 = 2 z^3
    # (z outer: t = -2 z^3 = -2) and on the high end of x^2 + y^2 = 2 z^2
    # (t = 2 z^2 = 2).
    for sig, coeffs in (((3, 3, 3), (1, 1, -2)), ((2, 2, 2), (1, 1, -2))):
        F = GFE(Signature(*sig), *coeffs)
        got = [s.as_tuple() for s in enumerate_primitive_solutions(F, 1)]
        assert (1, 1, 1) in got and (-1, -1, -1) in got, str(F)
        assert got == brute_force_solutions_zdict(F, 1), str(F)


@pytest.mark.parametrize(
    "sig, coeffs, sol",
    [
        # Swap only: found as (1, 2, 3), rebuilt by the swap.
        ((3, 3, 2), (1, 1, -1), (2, 1, 3)),
        # Swap on even exponents: found as (1, 7, 5).
        ((2, 2, 2), (1, 1, -2), (7, 1, 5)),
        # Both: found as (-4, 5, 1), the only one of its orbit with w >= |u|.
        ((3, 3, 3), (1, 1, -61), (5, -4, 1)),
        # Negation only: found as (2, -3, -1), where u = x^5 >= 0.
        ((5, 3, 3), (1, 1, 5), (-2, 3, 1)),
    ],
)
def test_orbit_solutions_on_the_bound(sig, coeffs, sol):
    # A solution whose largest coordinate is the bound is rebuilt from its
    # orbit's representative at that bound and is absent one below.
    F = GFE(Signature(*sig), *coeffs)
    a, b, c = sig
    orbit = {sol}
    if (a, coeffs[0]) == (b, coeffs[1]):
        orbit |= {(y, x, z) for x, y, z in orbit}
    if a % 2 == b % 2 == c % 2 == 1:
        orbit |= {(-x, -y, -z) for x, y, z in orbit}
    m = max(map(abs, sol))
    at_m = [s.as_tuple() for s in enumerate_primitive_solutions(F, m)]
    below = [s.as_tuple() for s in enumerate_primitive_solutions(F, m - 1)]
    assert orbit <= set(at_m) and not orbit & set(below)
    assert at_m == brute_force_solutions_zdict(F, m)
    assert below == brute_force_solutions_zdict(F, m - 1)


@pytest.mark.parametrize(
    "sig, coeffs, bound, nonneg",
    [
        (
            (2, 2, 3), (1, -1, 1), 40,
            [
                (0, 1, 1), (1, 0, -1), (1, 1, 0), (1, 3, 2), (3, 1, -2), (13, 14, 3),
                (14, 13, -3), (15, 17, 4), (17, 15, -4), (25, 29, 6), (29, 25, -6),
            ],
        ),
        ((2, 2, 5), (3, -3, 1), 30, [(1, 1, 0)]),
        ((4, 4, 3), (2, -2, 1), 20, [(1, 1, 0)]),
    ],
)
def test_swap_of_opposite_even_terms_is_joined_in_full(sig, coeffs, bound, nonneg):
    # A x^a - A y^a + C z^c with a even and c odd is fixed by
    # (x, y, z) -> (y, x, -z).  The join does not use that symmetry: it is
    # no permutation of matching terms (even exponents match only with equal
    # coefficients), and negation needs every exponent odd.  So both halves
    # of each such orbit are joined.  The output is pinned by its solutions
    # with x, y >= 0 (the even exponents make the signs of x and y free).
    F = GFE(Signature(*sig), *coeffs)
    got = [s.as_tuple() for s in enumerate_primitive_solutions(F, bound)]
    want = sorted({(sx * x, sy * y, z) for x, y, z in nonneg for sx in (-1, 1) for sy in (-1, 1)})
    assert got == want == brute_force_solutions(F, bound), str(F)
    assert {(y, x, -z) for x, y, z in got} == set(got), str(F)


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


def test_join_stops_past_its_probe_cap(monkeypatch):
    # (2,2,2) at bound 300 probes 13,375 entries of its shorter windows, so
    # it answers at that cap and raises one below it.
    F = GFE(Signature(2, 2, 2), 1, 1, -1)
    monkeypatch.setitem(CAPS, "join probes", 13375)
    assert len(enumerate_primitive_solutions(F, 300)) == 760
    monkeypatch.setitem(CAPS, "join probes", 13374)
    with pytest.raises(WorkLimitExceeded) as e:
        enumerate_primitive_solutions(F, 300)
    assert (e.value.cap, e.value.limit) == ("join probes", 13374)


def test_power_bits_estimates_sit_at_their_caps(monkeypatch):
    # A value table of 1*v^4 over |v| <= 2000 is charged 4001 * (1 + 4 * 10)
    # = 164,041 bits, and the term 1*(2^10)^2 is charged 1 + 2 * 10 = 21.
    F = GFE(Signature(4, 4, 2), 1, 1, -1)
    monkeypatch.setitem(CAPS, "power bits", 164_041)
    assert len(enumerate_primitive_solutions(F, 2000)) == 8
    monkeypatch.setitem(CAPS, "power bits", 164_040)
    with pytest.raises(WorkLimitExceeded, match=r"4001 values of 1\*v\^4, \|v\| <= 2000$"):
        enumerate_primitive_solutions(F, 2000)

    G = GFE(Signature(2, 3, 7), 1, 1, 1)
    monkeypatch.setitem(CAPS, "power bits", 21)
    assert G.evaluate(2**10, 1, 1) == 2**20 + 2
    monkeypatch.setitem(CAPS, "power bits", 20)
    with pytest.raises(WorkLimitExceeded, match=r"1\*\(1024\)\^2$"):
        G.evaluate(2**10, 1, 1)


def test_import_leaves_numpy_out():
    # Neither numpy nor dataclasses (which imports inspect) is needed, and
    # each would add tens of milliseconds to every CLI start-up.
    import gfdescent

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gfdescent.__file__).parents[1]))
    for module in ("gfdescent", "gfdescent.cli"):
        probe = (
            f"import sys, {module}; "
            "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", module


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
    # (2,3,5) with A = 2^16 3^8, B = 5^8, C = -(A + B): lcm(|A|, |B|, |C|) has
    # 23 digits and 5,508 divisors, and the image fixes the scale 1 by gcds.
    A, B = 2**16 * 3**8, 5**8
    F = GFE(Signature(2, 3, 5), A, B, -(A + B))
    image = j_map(F, PrimitiveSolution(1, 1, 1))
    got = {r.as_tuple() for r in recover_solutions(image, F, factored_ring(F))}
    assert got == {(1, 1, 1), (-1, 1, 1)}


# (signature, coefficients, solution) with gcd(A x^a, C z^c) > 1, so the
# scale |mu| that maps the canonical image back to the solution has a prime
# exponent above 0.  The last three solutions map to the marked points 0, 1
# and infinity, where one coordinate of the image is zero.
SCALE_CASES = [
    ((2, 3, 5), (24, -132, 108), (1, 1, 1)),
    ((3, 2, 4), (12, 6, -18), (1, 1, 1)),
    ((2, 2, 3), (20, -70, 50), (1, -1, 1)),
    ((3, 3, 2), (6, 2, -16), (0, 2, 1)),
    ((3, 4, 3), (2, 5, -54), (3, 0, 1)),
    ((2, 2, 5), (9, -4, 7), (2, 3, 0)),
]


@pytest.mark.parametrize("sig,coeffs,sol", SCALE_CASES)
def test_recover_scales_above_one_match_brute_force(sig, coeffs, sol):
    # The image fixes a scale above 1; every solution in the window must
    # still come back from its image, and nothing else in the window may.
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


def _recoveries_agree(Q, F, rings):
    """Compares recover_solutions with the divisor-scale oracle at Q over
    each ring where Q is accepted, with and without search_units; returns
    the lists recover_solutions gave."""
    found = []
    for ring in rings:
        cert = is_stack_point(Q, F.sig, ring)
        if not cert.accepted:
            continue
        for search_units in (False, True):
            got = recover_solutions(Q, F, ring, search_units)
            assert got == recovery_by_divisor_scales(cert, F, search_units), (str(F), Q, ring)
            found.append(got)
    return found


def _smooth(rng):
    """A random signed 7-smooth integer."""
    return rng.choice((1, -1)) * math.prod(p ** rng.randrange(4) for p in (2, 3, 5, 7))


def test_recovery_scale_matches_every_divisor_scale():
    # One scale per point gives the list, in order, that trying every
    # divisor of lcm(|A|, |B|, |C|) gave: at enumerated images and random
    # points of random equations, and at the images of built solutions.
    rng = random.Random(20261019)
    for F in random_gfes(11, 300, max_coeff=60) + random_gfes(7, 200):
        rings = (SRing(()), factored_ring(F))
        points = {j_map(F, sol) for sol in enumerate_primitive_solutions(F, 12)}
        for _ in range(6):
            points.add(normalize_projective(rng.randint(-50, 50), rng.randint(1, 50)))
        for Q in points:
            _recoveries_agree(Q, F, rings)
    built = 0
    while built < 4000:
        sig = Signature(*(rng.randrange(2, 6) for _ in range(3)))
        A, B = _smooth(rng), _smooth(rng)
        x, y, z = (rng.randint(-4, 4) for _ in range(3))
        if math.gcd(x, y, z) != 1 or z == 0:
            continue
        w = A * x**sig.a + B * y**sig.b
        if w == 0 or w % z**sig.c:
            continue
        F = GFE(sig, A, B, -w // z**sig.c)
        found = _recoveries_agree(j_map(F, PrimitiveSolution(x, y, z)), F, [factored_ring(F)])
        assert len(found) == 2, str(F)
        assert all((x, y, z) in {r.as_tuple() for r in got} for got in found), str(F)
        built += 1


def test_verify_descent_inclusion_237():
    report = verify_descent_inclusion(F237, 20)
    assert report.passed and len(report.entries) > 0
    assert str(report.ring) == "Z[1/{2,3,7}]"


def test_verdicts_over_the_support_equal_those_over_the_bad_primes():
    # verify_descent_inclusion tests each point over Z[1/N], N = |abcABC|
    # unfactored.  Its certificates, and those of random points, some of
    # them rejected, are the ones over the primes of N.
    rng = random.Random(41)
    statuses = set()
    for F in random_gfes(41, 30, max_coeff=60, max_exp=7):
        report = verify_descent_inclusion(F, 8)
        ring = bad_prime_set(F)
        assert (report.ring, report.unsplit) == (ring, ())
        support = SRing((math.prod(F.sig) * abs(F.A * F.B * F.C),))
        points = [e.image for e in report.entries]
        points += [normalize_projective(rng.randrange(-999, 999), rng.randrange(1, 999))
                   for _ in range(20)]
        for i, Q in enumerate(points):
            cert = is_stack_point(Q, F.sig, ring)
            assert is_stack_point(Q, F.sig, support) == cert, (str(F), Q)
            if i < len(report.entries):
                assert report.entries[i].certificate == cert, (str(F), Q)
            statuses.add(cert.status)
    assert statuses == {"marked", "smooth", "rejected"}


def test_an_unsplit_prime_is_in_the_ring_of_the_verdicts():
    # With unsplit not (), the points are tested over Z[1/N], whose primes
    # are those of ring and unsplit together, not over ring alone: each
    # point of x^2 + y^2 = 10009 z^2, such as (10000:10009), passes only
    # with 10009 inverted.
    F = GFE(Signature(2, 2, 2), 1, 1, -10009)
    report = verify_descent_inclusion(F, 200)
    assert report.passed and len(report.entries) == 16
    assert (str(report.ring), report.unsplit) == ("Z[1/{2}]", (10009,))
    support = SRing((8 * 10009,))
    for e in report.entries:
        assert is_stack_point(e.image, F.sig, support) == e.certificate
        assert e.certificate.accepted
        assert not is_stack_point(e.image, F.sig, report.ring).accepted, str(e.image)


def test_no_verdict_factors(monkeypatch):
    # verify-inclusion prints the primes up to 10^4 that divide N = |abcABC|
    # and leaves the rest of N unsplit, so neither its verdicts nor its ring
    # run rho, split a power or test primality: each is made to fail here.
    M = 2**89 - 1  # a prime
    F = GFE(Signature(2, 2, 2), M, 1, -(M + 1))
    before = verify_descent_inclusion(F, 3)
    assert before.ring.generators == (2,) and before.unsplit == (M,)
    assert {e.certificate.status for e in before.entries} == {"smooth"}

    def refused(*args):
        raise AssertionError("no command runs rho, splits a power or tests primality")

    for module, name in ((exact, "_brent_rho"), (exact, "_split_power"),
                         (exact, "is_probable_prime"), (sarith, "is_probable_prime")):
        monkeypatch.setattr(module, name, refused)
    assert verify_descent_inclusion(F, 3) == before
    for A, rough, C in smooth_rough_coefficients():
        F = GFE(Signature(2, 3, 7), A, rough, C)
        N = abs(42 * A * rough)
        report = verify_descent_inclusion(F, 1)
        primes = report.ring.generators
        assert all(p <= exact.TRIAL_DIVISION_BOUND and N % p == 0 for p in primes)
        assert (report.unsplit == ()) == (rough == 1), (A, rough)
        rest = math.prod(report.unsplit)
        assert math.gcd(rest, exact._PRIMORIAL) == 1
        assert N == math.prod(p ** sarith.valuation(N, p) for p in primes) * rest
        assert report.ring == bad_prime_set(F), (A, rough)


def test_verify_descent_inclusion_442():
    report = verify_descent_inclusion(F442, 100)
    assert report.passed
    assert {str(e.image) for e in report.entries} == {"(0:1)", "(1:1)"}


def test_verify_descent_inclusion_cubic():
    report = verify_descent_inclusion(GFE(Signature(3, 3, 3), 1, 1, 1), 10)
    assert report.passed
    sols = {e.solution.as_tuple() for e in report.entries}
    assert {(1, -1, 0), (1, 0, -1), (0, 1, -1)} <= sols


def test_descent_report_serializes(capsys):
    argv = ["verify-inclusion", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--bound", "10"]
    assert cli.main(argv) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["passed"] is True
    assert d["violations"] == []
    assert all(isinstance(v, str) for entry in d["solutions"] for v in entry["solution"])
