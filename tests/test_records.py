"""The value contract of the public records.

Every record is immutable, compares and hashes by the tuple of its fields,
prints as Name(field=value, ...), and survives copy and pickle.  The repr
strings below are pinned, so a change in how the records are built cannot
change what they print.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from gfdescent import (
    GFE,
    POINT_ONE,
    POINT_ZERO,
    CurvePoint,
    DescentReport,
    Factorization,
    IntMatrix,
    PrimitiveSolution,
    ProjPointQ,
    RecoveredSolution,
    Sieve442Report,
    Signature,
    SingularCurve,
    SNFResult,
    SRing,
    StackPointCertificate,
    TwistedCurve,
    ZeroPoint,
    classify_signature,
    h_structure,
    s_unit_reps,
    weight_vector,
)
from gfdescent._record import Record
from gfdescent.gfe import DescentEntry
from gfdescent.quartic import CandidateVerdict

SOL = PrimitiveSolution(1, 0, 1)
CERT = StackPointCertificate(POINT_ONE, "marked", "1", None, ())
CERT_REPR = (
    "StackPointCertificate(point=ProjPointQ(s=1, t=1), status='marked', "
    "marked_at='1', roots=None, failed=())"
)
F442 = GFE(Signature(4, 4, 2), 1, 1, -1)
F442_REPR = "GFE(sig=Signature(a=4, b=4, c=2), A=1, B=1, C=-1)"
ENTRY_REPR = (
    f"DescentEntry(solution=PrimitiveSolution(x=1, y=0, z=1), "
    f"image=ProjPointQ(s=1, t=1), certificate={CERT_REPR})"
)

SAMPLES = [
    (
        Factorization(-1, ((2, 3), (5, 1))),
        "Factorization(sign=-1, factors=((2, 3), (5, 1)))",
    ),
    (ProjPointQ(3, 2), "ProjPointQ(s=3, t=2)"),
    (
        SNFResult(IntMatrix([[1, 0]]), IntMatrix([[2, 0]]), IntMatrix([[1, 0], [0, 1]])),
        "SNFResult(U=IntMatrix([[1, 0]]), D=IntMatrix([[2, 0]]), "
        "V=IntMatrix([[1, 0], [0, 1]]))",
    ),
    (Signature(2, 3, 7), "Signature(a=2, b=3, c=7)"),
    (weight_vector(Signature(2, 3, 7)), "WeightData(d=1, m=1, w=(21, 14, 6))"),
    (h_structure(Signature(4, 4, 2)), "HStructure(torus_rank=1, torsion=(2, 4))"),
    (SRing((2, 3)), "SRing(generators=(2, 3))"),
    (
        s_unit_reps(SRing((2,)), 2),
        "UnitClassGroup(modulus=2, ring=SRing(generators=(2,)), representatives=(1, 2, -1, -2))",
    ),
    (
        StackPointCertificate(POINT_ZERO, "marked", None, None, ()),
        "StackPointCertificate(point=ProjPointQ(s=0, t=1), status='marked', "
        "marked_at=None, roots=None, failed=())",
    ),
    (
        classify_signature(Signature(2, 3, 5)),
        "SignatureClass(chi=Fraction(1, 30), kind='spherical', genus=0, degree=60)",
    ),
    (F442, F442_REPR),
    (SOL, "PrimitiveSolution(x=1, y=0, z=1)"),
    (
        RecoveredSolution(1, 0, 1, (Fraction(1), Fraction(1), Fraction(-1)), True),
        "RecoveredSolution(x=1, y=0, z=1, coefficients=(Fraction(1, 1), "
        "Fraction(1, 1), Fraction(-1, 1)), exact_coefficients=True)",
    ),
    (DescentEntry(SOL, POINT_ONE, CERT), ENTRY_REPR),
    (
        DescentReport(F442, 1, SRing(()), (), (DescentEntry(SOL, POINT_ONE, CERT),)),
        f"DescentReport(gfe={F442_REPR}, bound=1, ring=SRing(generators=()), unsplit=(), "
        f"entries=({ENTRY_REPR},))",
    ),
    (
        CurvePoint(Fraction(2), Fraction(-4)),
        "CurvePoint(u=Fraction(2, 1), v=Fraction(-4, 1))",
    ),
    (TwistedCurve(-4), "TwistedCurve(d=-4)"),
    (
        CandidateVerdict(POINT_ONE, ("marked",), CERT, (SOL,)),
        f"CandidateVerdict(point=ProjPointQ(s=1, t=1), sources=('marked',), "
        f"certificate={CERT_REPR}, recovered=(PrimitiveSolution(x=1, y=0, z=1),))",
    ),
    (
        Sieve442Report((1, -1), (-4, -1), {-4: 4, -1: 2}, (), (SOL,), 10, (-1, -4)),
        "Sieve442Report(unit_classes=(1, -1), admissible=(-4, -1), "
        "torsion_orders={-4: 4, -1: 2}, candidates=(), "
        "solutions=(PrimitiveSolution(x=1, y=0, z=1),), bound_check=10, "
        "assumed_finite=(-1, -4))",
    ),
]

RECORDS = [pytest.param(r, text, id=type(r).__name__) for r, text in SAMPLES]


def _fields(r):
    return tuple(getattr(r, name) for name in type(r).__match_args__)


def test_every_record_is_covered():
    # Every Record subclass the package defines, the CLI's imports included,
    # is sampled exactly once.
    import gfdescent.cli  # noqa: F401

    names = [type(r).__name__ for r, _ in SAMPLES]
    assert sorted(names) == sorted({c.__name__ for c in Record.__subclasses__()})


@pytest.mark.parametrize("r, text", RECORDS)
def test_record_is_frozen(r, text):
    for name in type(r).__match_args__:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.not_a_field = 1
    assert repr(r) == text


@pytest.mark.parametrize("r, text", RECORDS)
def test_record_equality_and_hash(r, text):
    twin = type(r)(*_fields(r))
    assert twin == r and not (twin != r)
    assert r != _fields(r)
    try:
        expected = hash(_fields(r))
    except TypeError:
        # A field that cannot be hashed makes the record unhashable too.
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(twin) == expected


@pytest.mark.parametrize("r, text", RECORDS)
def test_record_copy_and_pickle(r, text):
    for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(other) is type(r)
        assert other == r
        assert repr(other) == text


def test_keyword_construction_and_defaults():
    # No field has a default: a record takes all of its fields.
    with pytest.raises(TypeError):
        StackPointCertificate(POINT_ZERO, "marked")
    with pytest.raises(TypeError):
        Sieve442Report((1, -1), (-4, -1), {}, (), (), 10)
    assert StackPointCertificate(
        point=POINT_ZERO, status="marked", marked_at="0", roots=None, failed=()
    ) == StackPointCertificate(POINT_ZERO, "marked", "0", None, ())
    assert ProjPointQ(t=2, s=3) == ProjPointQ(3, 2)
    assert GFE(sig=Signature(2, 3, 7), A=1, B=1, C=1).C == 1
    match ProjPointQ(3, 2):
        case ProjPointQ(s, t):
            assert (s, t) == (3, 2)
    # Records without an __init__ of their own take the fields in __slots__
    # order, positionally or by keyword, each exactly once.
    assert CurvePoint(v=Fraction(-4), u=Fraction(2)) == CurvePoint(Fraction(2), Fraction(-4))
    assert DescentEntry(SOL, certificate=CERT, image=POINT_ONE) == DescentEntry(
        SOL, POINT_ONE, CERT
    )
    with pytest.raises(TypeError):
        ProjPointQ(1)
    with pytest.raises(TypeError):
        Signature(2, 3, 7, 11)
    with pytest.raises(TypeError):
        PrimitiveSolution(1, 2)
    with pytest.raises(TypeError):
        PrimitiveSolution(1, 2, 3, 4)
    with pytest.raises(TypeError):
        CurvePoint(u=1)
    with pytest.raises(TypeError):
        TwistedCurve(e=1)
    with pytest.raises(TypeError):
        DescentEntry(SOL, POINT_ONE, CERT, solution=SOL)


def test_validations_still_raise():
    with pytest.raises(ZeroPoint):
        ProjPointQ(0, 0)
    with pytest.raises(ValueError, match="lowest terms"):
        ProjPointQ(2, 4)
    with pytest.raises(ValueError, match="sign convention"):
        ProjPointQ(1, -1)
    with pytest.raises(ValueError, match=r"got \(1,2,3\)"):
        Signature(1, 2, 3)
    with pytest.raises(ValueError, match="nonzero"):
        GFE(Signature(2, 3, 7), 1, 0, 1)
    with pytest.raises(ValueError, match="at least 2"):
        SRing((0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        SRing((3, 2))
    with pytest.raises(SingularCurve, match="d = 0"):
        TwistedCurve(0)


def test_primitive_solutions_are_ordered():
    sols = [PrimitiveSolution(0, 1, 1), PrimitiveSolution(-1, 0, 1), PrimitiveSolution(0, 1, -1)]
    assert [s.as_tuple() for s in sorted(sols)] == [(-1, 0, 1), (0, 1, -1), (0, 1, 1)]
    a, b = PrimitiveSolution(0, 1, -1), PrimitiveSolution(0, 1, 1)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a < a or a > a)
    with pytest.raises(TypeError):
        a < (0, 1, 1)
    with pytest.raises(TypeError):
        ProjPointQ(0, 1) < ProjPointQ(1, 1)


def test_sieve_report_is_unhashable():
    report = SAMPLES[-1][0]
    assert type(report) is Sieve442Report
    with pytest.raises(TypeError):
        hash(report)
