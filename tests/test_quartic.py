import json
import random
from fractions import Fraction

import pytest

import gfdescent.cli as cli
from gfdescent.belyi import is_stack_point
from gfdescent.errors import SingularCurve
from gfdescent.exact import (
    POINT_INFINITY,
    POINT_ONE,
    POINT_ZERO,
    ProjPointQ,
    normalize_projective,
)
from gfdescent.quartic import (
    CurvePoint,
    POINT_AT_INFINITY,
    SIG_442,
    TwistedCurve,
    admissible_twists,
    belyi_eval,
    run_sieve_442,
    sieve_442,
    torsion_points,
    twist_curve,
)
from gfdescent.sarith import SRing, UnitClassGroup, s_unit_reps

from oracles import (
    chord_tangent,
    fraction_box_points,
    integral_points_on_twist,
    nagell_lutz_torsion,
    on_curve,
)

FERMAT_442_TRIPLES = [
    (-1, 0, -1), (-1, 0, 1), (0, -1, -1), (0, -1, 1),
    (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1),
]


def test_twist_curve():
    assert twist_curve(1).d == 1
    assert on_curve(twist_curve(-4), CurvePoint(2, 4))
    assert not on_curve(twist_curve(-4), CurvePoint(2, 5))
    with pytest.raises(SingularCurve):
        twist_curve(0)
    # Only ints: twist_curve(4.0) once raised TypeError in torsion_points.
    for d in (4.0, True, "4"):
        with pytest.raises(ValueError, match="must be an int"):
            twist_curve(d)
    # The class checks d itself (tests/test_records.py), so no way of
    # building a twist skips the check.
    assert twist_curve is TwistedCurve


def _as_pair(P):
    """A curve point in the oracle's form: (u, v), or None at infinity."""
    return None if P.is_infinity else (P.u, P.v)


def test_group_law_basics():
    # (2, 4) on d = -4 has order 4 under the oracle's chord-tangent law.
    E = twist_curve(-4)
    P, minus_P = (2, 4), (2, -4)
    assert on_curve(E, CurvePoint(*P)) and on_curve(E, CurvePoint(*minus_P))
    assert chord_tangent(P, None, -4) == P
    assert chord_tangent(P, minus_P, -4) is None
    assert chord_tangent(P, P, -4) == (0, 0)
    assert chord_tangent((0, 0), P, -4) == minus_P
    assert chord_tangent(minus_P, P, -4) is None


@pytest.mark.parametrize(
    "d,point,expected",
    [
        (-4, (2, 4), (1, 2)),
        (-1, (0, 0), (0, 1)),
        (1, (1, 0), (1, 0)),
    ],
)
def test_belyi_eval_examples(d, point, expected):
    E = twist_curve(d)
    assert belyi_eval(E, CurvePoint(*point)) == ProjPointQ(*expected)


def test_belyi_eval_infinity_and_fractions():
    assert belyi_eval(twist_curve(-4), POINT_AT_INFINITY) == POINT_ONE
    # u = 3/2 on a curve or not, the map only needs u; check clearing of
    # denominators: (9/4 : 9/4 - d) with d = -4 gives (9 : 25).
    E = twist_curve(-4)
    P = CurvePoint(Fraction(3, 2), Fraction(0))
    assert belyi_eval(E, P) == normalize_projective(9, 25)


@pytest.mark.parametrize(
    "d,expected",
    [
        (-4, {"O", "(0, 0)", "(2, 4)", "(2, -4)"}),
        (-1, {"O", "(0, 0)"}),
        (1, {"O", "(0, 0)", "(1, 0)", "(-1, 0)"}),
        (2, {"O", "(0, 0)"}),
        (-8, {"O", "(0, 0)"}),
    ],
)
def test_torsion_points(d, expected):
    assert {str(P) for P in torsion_points(twist_curve(d))} == expected


def test_torsion_is_a_group():
    for d in (1, -1, 2, -2, 4, -4, 8, -8):
        E = twist_curve(d)
        tors = torsion_points(E)
        assert POINT_AT_INFINITY in tors
        pairs = {_as_pair(P) for P in tors}
        for P in tors:
            assert on_curve(E, P)
        for P in pairs:
            assert (None if P is None else (P[0], -P[1])) in pairs
            for Q in pairs:
                assert chord_tangent(P, Q, d) in pairs


def test_torsion_coordinates_are_ints():
    # The closed form builds each affine torsion point from ints, so its
    # coordinates print and compare as plain integers at any size of d.
    rng = random.Random(41)
    ks = [rng.randrange(1, 10**30) for _ in range(100)]
    ds = [rng.randrange(-(10**6), 10**6) or 1 for _ in range(300)]
    ds += [k * k for k in ks] + [-4 * k**4 for k in ks]
    for d in ds:
        for P in torsion_points(twist_curve(d)):
            if not P.is_infinity:
                assert type(P.u) is int and type(P.v) is int, (d, P)


def test_torsion_points_come_sorted():
    # The identity first, then the affine points by (u, v): the closed form
    # builds them in that order, so nothing sorts them.
    def key(P):
        return (0, 0, 0) if P.is_infinity else (1, P.u, P.v)

    rng = random.Random(43)
    ks = [rng.randrange(1, 10**12) for _ in range(100)] + list(range(1, 20))
    ds = [d for d in range(-400, 401) if d]
    ds += [rng.randrange(-(10**9), 10**9) or 1 for _ in range(300)]
    ds += [k * k for k in ks] + [-4 * k**4 for k in ks]
    for d in ds:
        tors = torsion_points(twist_curve(d))
        assert tors == sorted(tors, key=key), d


def test_torsion_against_integral_point_oracle():
    # Torsion points have integral coordinates, so the brute-force box
    # search must see all of them; counts are 4, 2, 4 for d = -4, -1, 1.
    for d, order in [(-4, 4), (-1, 2), (1, 4)]:
        tors = torsion_points(twist_curve(d))
        assert len(tors) == order
        box = set(integral_points_on_twist(d, 60))
        for P in tors:
            if not P.is_infinity:
                assert (P.u, P.v) in box


def test_torsion_against_nagell_lutz_oracle():
    # Every d with |d| <= 400, plus fourth-power multiples of each case of
    # the closed form: 16 = 2^4, -64 = -4 * 2^4, -324 = -4 * 3^4, 1296 = 6^4.
    for d in [*range(-400, 0), *range(1, 401), 16, -16, -64, -324, 1296]:
        tors = torsion_points(twist_curve(d))
        got = {(P.u, P.v) for P in tors if not P.is_infinity}
        assert got == nagell_lutz_torsion(d), d


def test_nagell_lutz_candidates_can_be_nontorsion():
    # (-1, 1) on v^2 = u^3 - 2u passes the integral screen but has infinite
    # order; it must not be reported.
    E = twist_curve(2)
    assert on_curve(E, CurvePoint(-1, 1))
    assert CurvePoint(-1, 1) not in torsion_points(E)


def test_height_100_point_on_d_minus_8_is_rejected_over_z():
    # u = 49/36 maps to (49^2 : 49^2 + 8 * 36^2) = (2401:12769), where s = 7^4
    # and t = 113^2 pass but s - t = -2^7 * 3^4 is no 4th power.
    E = twist_curve(-8)
    P = CurvePoint(Fraction(49, 36), Fraction(791, 216))
    assert (P.u, P.v) in fraction_box_points(-8, 100)
    image = belyi_eval(E, P)
    assert image == ProjPointQ(2401, 12769)
    cert = is_stack_point(image, SIG_442, SRing(()))
    assert (cert.status, cert.failed) == ("rejected", ("s-t",))


def box_points(d, height):
    """The curve points of the oracle's box of that height on twist d, and
    the point at infinity."""
    return [POINT_AT_INFINITY] + [CurvePoint(u, v) for u, v in fraction_box_points(d, height)]


def test_belyi_images_never_indeterminate():
    for d in (1, -1, 2, -2, 4, -4, 8, -8):
        E = twist_curve(d)
        for P in box_points(d, 10):
            image = belyi_eval(E, P)  # constructor enforces well-formedness
            assert (image.s, image.t) != (0, 0)


def test_admissible_twists():
    reps = s_unit_reps(SRing((2,)), 4)
    assert admissible_twists(reps) == [-4, -1]
    assert admissible_twists(s_unit_reps(SRing(()), 3)) == []
    custom = UnitClassGroup(2, SRing((3,)), (-9, 3))
    assert admissible_twists(custom) == [-9]


def test_sieve_442_output():
    assert [s.as_tuple() for s in sieve_442(100)] == FERMAT_442_TRIPLES


def test_sieve_report_details(capsys):
    report = run_sieve_442(100)
    assert report.admissible == (-4, -1)
    assert report.torsion_orders == {-4: 4, -1: 2}
    by_point = {str(c.point): c for c in report.candidates}
    # The one nontrivial candidate is rejected over Z by the square test on t.
    assert by_point["(1:2)"].certificate.status == "rejected"
    assert by_point["(1:2)"].certificate.failed == ("t",)
    assert by_point["(1:2)"].recovered == ()
    for marked in ("(0:1)", "(1:1)", "(1:0)"):
        assert by_point[marked].certificate.status == "marked"
    images_m4 = {str(belyi_eval(twist_curve(-4), P))
                 for P in torsion_points(twist_curve(-4))}
    assert "(1:2)" in images_m4
    assert cli.main(["sieve442", "--bound", "100"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["solutions"] == [[str(v) for v in s] for s in FERMAT_442_TRIPLES]
    # The finiteness input is the admissible twists, smallest |d| first.
    assert report.assumed_finite == (-1, -4)
    assert d["rank_zero_input"] == ["-1", "-4"]


def test_admissible_torsion_images_survive_only_at_marked_points():
    # The mechanism behind the eight-triple theorem: over Z, the torsion
    # images of the two admissible twists pass the point test only at
    # 0, 1, infinity.
    Z = SRing(())
    marked = {"(0:1)", "(1:1)", "(1:0)"}
    for d in (-1, -4):
        E = twist_curve(d)
        for P in torsion_points(E):
            image = belyi_eval(E, P)
            cert = is_stack_point(image, SIG_442, Z)
            assert cert.accepted == (str(image) in marked)


def test_sieve_invariance():
    base = [s.as_tuple() for s in sieve_442(50)]
    assert base == FERMAT_442_TRIPLES
    assert base == [s.as_tuple() for s in sieve_442(120)]
    # The points the six non-admissible twists have in a box of any height
    # map to points that pass the test over Z only at 0, 1 and infinity,
    # which the sieve tests anyway, so widening the search adds no solution.
    reps = s_unit_reps(SRing((2,)), 4)
    others = sorted(set(reps.representatives) - set(admissible_twists(reps)))
    assert others == [-8, -2, 1, 2, 4, 8]
    marked = {POINT_ZERO, POINT_ONE, POINT_INFINITY}
    for height in (1, 4, 9, 49, 100):
        images = set()
        for d in others:
            E = twist_curve(d)
            images |= {belyi_eval(E, P) for P in box_points(d, height)}
        accepted = {Q for Q in images if is_stack_point(Q, SIG_442, SRing(())).accepted}
        assert accepted == marked & images, height
        assert len(images) > len(accepted), height


def test_sieve_tests_each_candidate_once(monkeypatch):
    # The recovery reuses the candidate's certificate instead of testing
    # the point again.
    import gfdescent.belyi as belyi
    import gfdescent.gfe as gfe
    import gfdescent.quartic as quartic

    calls = []

    def counted(*args):
        calls.append(args)
        return is_stack_point(*args)

    is_stack_point = belyi.is_stack_point
    for module in (belyi, gfe, quartic):
        monkeypatch.setattr(module, "is_stack_point", counted)
    report = run_sieve_442(50)
    assert [args[0] for args in calls] == [c.point for c in report.candidates]
