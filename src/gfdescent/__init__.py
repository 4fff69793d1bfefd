"""Exact-arithmetic descent toolkit for generalized Fermat equations."""

from .errors import (
    DegeneratePoint,
    GFDescentError,
    NotAStackPoint,
    PipelineMismatch,
    SingularCurve,
    WorkLimitExceeded,
    ZeroCoordinate,
    ZeroPoint,
)
from .exact import (
    Factorization,
    POINT_INFINITY,
    POINT_ONE,
    POINT_ZERO,
    ProjPointQ,
    factorize,
    intersection_ideal,
    is_perfect_nth_power,
    is_probable_prime,
    lcm_triple,
    normalize_projective,
)
from .smith import IntMatrix, SNFResult, invariant_factors, kernel_basis, smith_normal_form
from .groups import (
    HStructure,
    Signature,
    WeightData,
    h_membership,
    h_structure,
    stabilizer_order,
    triangle_abelianization,
    weight_vector,
)
from .sarith import SRing, UnitClassGroup, is_nth_power_ideal, s_unit_reps, valuation
from .belyi import (
    SignatureClass,
    StackPointCertificate,
    certificate_automorphism_order,
    classify_signature,
    euler_characteristic,
    is_stack_point,
    root_point_test,
    stack_point_automorphism_order,
)
from .gfe import (
    GFE,
    DescentReport,
    PrimitiveSolution,
    RecoveredSolution,
    bad_prime_set,
    enumerate_primitive_solutions,
    j_map,
    recover_solutions,
    verify_descent_inclusion,
)
from .quartic import (
    CurvePoint,
    POINT_AT_INFINITY,
    Sieve442Report,
    TwistedCurve,
    admissible_twists,
    belyi_eval,
    rational_points_bounded,
    run_sieve_442,
    sieve_442,
    torsion_points,
    twist_curve,
)

__version__ = "0.1.0"
