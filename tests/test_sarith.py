import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from gfdescent import exact, sarith
from gfdescent.errors import CAPS, WorkLimitExceeded
from gfdescent.exact import factorize
from gfdescent.sarith import (
    SRing,
    is_nth_power_ideal,
    s_unit_reps,
    unit_class_key,
    valuation,
)

from oracles import prime_to_s_part_by_division, s_unit_reps_by_product


def test_sring_validation():
    with pytest.raises(ValueError):
        SRing((3, 2))
    # A generator of 0 would make prime_to_s_part return 1 for every input.
    for g in (0, 1, -1):
        with pytest.raises(ValueError, match="at least 2"):
            SRing((g,))
    assert str(SRing(())) == "Z"
    assert str(SRing((2, 3))) == "Z[1/{2,3}]"
    assert str(SRing((15,))) == "Z[1/{15}]"


def test_the_unit_classes_refuse_a_composite_generator():
    # Z[1/15] has 8 classes modulo squares; read as one prime, 15 gave 4,
    # and put 3 in the class of 1.  The verdicts read the product and hold.
    for g, u in ((4, 2), (15, 3)):
        with pytest.raises(ValueError, match=f"{g} is not prime"):
            s_unit_reps(SRing((2, g)), 2)
        with pytest.raises(ValueError, match=f"{g} is not prime"):
            unit_class_key(u, SRing((g,)), 2)
    assert len(s_unit_reps(SRing((3, 5)), 2).representatives) == 8
    assert SRing((15,)).is_unit(Fraction(3, 5)) and not SRing((15,)).is_unit(7)
    assert SRing((15,)).prime_to_s_part(-2 * 3**40 * 5) == 2


def test_a_prime_list_is_capped_in_all_before_any_test(monkeypatch):
    # Miller-Rabin bits are summed over one list: three Mersenne primes of
    # 2,407 bits in all are refused before the first is tested, though each
    # alone is within the cap.  Neither a number of at most 64 bits nor one
    # that a prime up to 41 divides is counted.
    m521, m607, m1279 = 2**521 - 1, 2**607 - 1, 2**1279 - 1
    tested = []
    monkeypatch.setattr(sarith, "is_probable_prime", tested.append)
    with pytest.raises(WorkLimitExceeded) as e:
        sarith._class_primes(SRing((m521, m607, m1279)))
    assert (e.value.cap, e.value.limit) == ("prime bits", CAPS["prime bits"])
    assert "testing 3 numbers of 2407 bits in all" in str(e.value) and tested == []
    monkeypatch.undo()
    small = (*exact._TRIAL_PRIMES, 2**61 - 1)
    assert sarith._class_primes(SRing((*small, m1279))) == (*small, m1279)
    assert unit_class_key(1, SRing((*small, m1279)), 2) == (1, (0,) * len(small) + (0,))
    with pytest.raises(ValueError, match="is not prime"):
        unit_class_key(1, SRing((m1279, 43 * 2**2100)), 2)
    with pytest.raises(WorkLimitExceeded, match="testing a 2203-bit number"):
        unit_class_key(1, SRing((2, 2**2203 - 1)), 2)


def test_the_class_caps_at_their_thresholds(monkeypatch):
    # Z[1/{2,3,5}] modulo 4th powers has 2 * 4^3 = 128 classes, and their
    # power bits are bounded below by 128 * 3 * (1 + 1 + 2) // 2 = 768;
    # modulo cubes, 27 classes and 27 * 2 * 4 // 2 = 108.  The two Mersenne
    # primes are 521 + 607 = 1,128 bits to test, and 2^64 + 13, the least
    # prime past 2^64, and 2^127 - 1 are 65 + 127 = 192.
    ring = SRing((2, 3, 5))
    with monkeypatch.context() as patch:
        patch.setitem(CAPS, "unit classes", 128)
        assert len(s_unit_reps(ring, 4).representatives) == 128
        patch.setitem(CAPS, "unit classes", 127)
        with pytest.raises(WorkLimitExceeded) as info:
            s_unit_reps(ring, 4)
    assert (info.value.cap, info.value.limit) == ("unit classes", 127)
    assert "at least 128 classes of Z[1/{2,3,5}] modulo 4th powers" in str(info.value)
    for n, count, bits in ((4, 128, 768), (3, 27, 108)):
        monkeypatch.setitem(CAPS, "power bits", bits)
        assert len(s_unit_reps(ring, n).representatives) == count
        monkeypatch.setitem(CAPS, "power bits", bits - 1)
        with pytest.raises(WorkLimitExceeded, match="power bits"):
            s_unit_reps(ring, n)
    for primes, bits in (((2**521 - 1, 2**607 - 1), 1128), ((2**64 + 13, 2**127 - 1), 192)):
        monkeypatch.setitem(CAPS, "prime bits", bits)
        assert sarith._class_primes(SRing(primes)) == primes
        monkeypatch.setitem(CAPS, "prime bits", bits - 1)
        with pytest.raises(WorkLimitExceeded, match="prime bits"):
            sarith._class_primes(SRing(primes))


def test_sring_takes_any_iterable_once():
    # A list, a tuple and a generator give the same hashable ring; the
    # generator is read once, by the tuple conversion, before the checks.
    rings = [SRing([2, 3]), SRing((2, 3)), SRing(p for p in (2, 3))]
    assert all(R == rings[1] and R.generators == (2, 3) for R in rings)
    assert len({hash(R) for R in rings}) == 1
    assert repr(SRing((2, 3))) == "SRing(generators=(2, 3))"
    assert repr(SRing([2, 3])) == "SRing(generators=(2, 3))"
    with pytest.raises(ValueError):
        SRing(p for p in (3, 2))
    # Only ints: SRing([2.0]) once printed as Z[1/{2.0}].
    for generators in ([2.0], [True], [2, 3.0], ["2"]):
        with pytest.raises(ValueError, match="must be ints"):
            SRing(generators)


def test_valuation_examples():
    assert valuation(48, 2) == 4
    assert valuation(7, 2) == 0
    assert valuation(-54, 3) == 3
    with pytest.raises(ValueError):
        valuation(0, 2)


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_valuation_rejects_units_and_zero(p):
    # Dividing out +-1 would never end, and dividing by 0 is undefined.
    with pytest.raises(ValueError):
        valuation(12, p)


def test_valuation_of_signs_and_prime_powers():
    assert valuation(-12, 2) == 2
    assert valuation(12, 4) == 1
    assert valuation(12, -2) == 2


def test_prime_to_s_part():
    R = SRing((2, 3))
    assert R.prime_to_s_part(48) == 1
    assert R.prime_to_s_part(-60) == 5
    assert R.is_unit(Fraction(-9, 16))
    assert not R.is_unit(Fraction(5, 2))


def test_prime_to_s_part_strips_by_gcds_as_division_would():
    # S of up to six primes, some past a machine word, or none; N any
    # product of them, squarefree or not; v holding powers up to p^200,
    # most past 2^64.  The strip reads only the support of N.
    rng = random.Random(20261019)
    pool = exact._TRIAL_PRIMES[:40] + (2**61 - 1, 2**89 - 1, 2**127 - 1)
    for _ in range(5_000):
        S = tuple(sorted(rng.sample(pool, rng.randrange(7))))
        N = math.prod(p ** rng.randrange(1, 4) for p in S)
        v = rng.randrange(1, 2**40) * math.prod(
            p ** rng.randrange(200) for p in rng.sample(pool, 3)
        )
        expected = prime_to_s_part_by_division(v, S)
        assert sarith._strip(v, N) == expected, (v, S)
        assert SRing(S).prime_to_s_part(-v) == expected, (v, S)
        assert SRing((N,) if S else ()).prime_to_s_part(-v) == expected, (v, N)
    assert SRing(()).prime_to_s_part(-2**200) == 2**200
    for S in ((), (2, 3)):
        with pytest.raises(ValueError, match="no prime-to-S part"):
            SRing(S).prime_to_s_part(0)


def test_s_unit_reps_examples():
    assert set(s_unit_reps(SRing((2,)), 4).representatives) == {
        1, 2, 4, 8, -1, -2, -4, -8,
    }
    assert s_unit_reps(SRing(()), 3).representatives == (1,)
    assert set(s_unit_reps(SRing(()), 2).representatives) == {1, -1}


def test_s_unit_reps_counts_and_distinctness():
    # 2 * n^|S| classes for even n, n^|S| for odd n; all classes distinct.
    primes = (2, 3, 5, 7)
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            ring = SRing(subset)
            for n in range(2, 7):
                group = s_unit_reps(ring, n)
                expected = (2 if n % 2 == 0 else 1) * n ** len(subset)
                assert len(group.representatives) == expected
                keys = {unit_class_key(u, ring, n) for u in group.representatives}
                assert len(keys) == expected


def test_s_unit_reps_order_matches_product_oracle():
    primes = (2, 3, 5, 7, 11)
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            for n in range(2, 8):
                got = s_unit_reps(SRing(subset), n).representatives
                assert got == s_unit_reps_by_product(subset, n), (subset, n)


def test_unit_class_equivalence():
    # Two units are in one class modulo n-th powers iff their keys agree.
    ring = SRing((2,))
    assert unit_class_key(2, ring, 4) == unit_class_key(32, ring, 4)  # 32 = 2 * 2^4
    assert unit_class_key(-1, ring, 4) == unit_class_key(Fraction(-16), ring, 4)
    assert unit_class_key(2, ring, 4) != unit_class_key(-2, ring, 4)
    assert unit_class_key(2, ring, 4) != unit_class_key(4, ring, 4)
    # A denominator counts against the valuation: 8 = (1/2) * 2^4.
    assert unit_class_key(Fraction(1, 2), ring, 4) == unit_class_key(8, ring, 4)
    assert unit_class_key(Fraction(1, 2), ring, 4) != unit_class_key(2, ring, 4)
    assert unit_class_key(Fraction(-1, 2), ring, 4) == (-1, (3,))
    # Odd modulus kills the sign: the key's sign is 1.
    assert unit_class_key(2, ring, 3) == unit_class_key(-2, ring, 3) == (1, (1,))
    with pytest.raises(ValueError):
        unit_class_key(3, ring, 4)


@pytest.mark.parametrize("n", [0, 1, -1])
def test_unit_class_key_refuses_a_modulus_below_two(n):
    # The same refusal as s_unit_reps: there is no class group modulo n.
    with pytest.raises(ValueError, match="^modulus must be at least 2$"):
        unit_class_key(1, SRing((2,)), n)
    with pytest.raises(ValueError, match="^modulus must be at least 2$"):
        s_unit_reps(SRing((2,)), n)


def test_is_nth_power_ideal_examples():
    assert is_nth_power_ideal(9, 2, SRing(())) == 3
    assert is_nth_power_ideal(2, 2, SRing(())) is None
    assert is_nth_power_ideal(-8, 4, SRing((2,))) == 1
    assert is_nth_power_ideal(-27, 3, SRing(())) == 3
    with pytest.raises(ValueError):
        is_nth_power_ideal(0, 2, SRing(()))


def test_is_nth_power_ideal_unit_invariance():
    rng = random.Random(43)
    for ring, n in [(SRing((2,)), 4), (SRing((2, 3)), 2), (SRing((5,)), 3)]:
        reps = s_unit_reps(ring, n).representatives
        for _ in range(200):
            s = rng.randrange(1, 10**4) * rng.choice((1, -1))
            base = is_nth_power_ideal(s, n, ring)
            for u in reps:
                assert is_nth_power_ideal(s * u**n, n, ring) == base


def test_is_nth_power_ideal_valuations():
    # Dual route: when a generator is returned, its valuations are exactly
    # one n-th of the input's at every prime outside S (via factorization).
    rng = random.Random(47)
    ring = SRing((2, 3))
    for _ in range(300):
        s = rng.randrange(1, 10**6) * rng.choice((1, -1))
        for n in (2, 3, 4):
            g = is_nth_power_ideal(s, n, ring)
            fac = dict(factorize(s).factors)
            outside = {p: e for p, e in fac.items() if p not in ring.generators}
            if g is None:
                assert any(e % n for e in outside.values())
            else:
                for p, e in outside.items():
                    assert valuation(g, p) * n == e
                assert dict(factorize(g).factors if g > 1 else ()) == {
                    p: e // n for p, e in outside.items() if e
                }
