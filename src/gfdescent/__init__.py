"""Exact-arithmetic descent toolkit for generalized Fermat equations.

The layers load on first use (PEP 562): a bare ``import gfdescent`` imports
none of them, and ``gfdescent.<name>`` imports the layer that defines
``<name>`` and returns its current attribute there on every access.  Only
the layer modules get bound here (the import system binds each submodule on
its package), so a function patched on its layer is what the package returns.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LAYERS = {
    "errors": (
        "GFDescentError",
        "NotAStackPoint",
        "PipelineMismatch",
        "SingularCurve",
        "WorkLimitExceeded",
        "ZeroPoint",
    ),
    "exact": (
        "Factorization",
        "POINT_INFINITY",
        "POINT_ONE",
        "POINT_ZERO",
        "ProjPointQ",
        "factorize",
        "is_perfect_nth_power",
        "is_probable_prime",
        "normalize_projective",
    ),
    "smith": ("IntMatrix", "SNFResult", "smith_normal_form"),
    "groups": (
        "HStructure",
        "Signature",
        "WeightData",
        "h_structure",
        "weight_vector",
    ),
    "sarith": ("SRing", "UnitClassGroup", "is_nth_power_ideal", "s_unit_reps", "valuation"),
    "belyi": (
        "SignatureClass",
        "StackPointCertificate",
        "certificate_automorphism_order",
        "classify_signature",
        "euler_characteristic",
        "is_stack_point",
    ),
    "gfe": (
        "GFE",
        "DescentReport",
        "PrimitiveSolution",
        "RecoveredSolution",
        "bad_prime_set",
        "enumerate_primitive_solutions",
        "j_map",
        "recover_solutions",
        "verify_descent_inclusion",
    ),
    "quartic": (
        "CurvePoint",
        "POINT_AT_INFINITY",
        "Sieve442Report",
        "TwistedCurve",
        "admissible_twists",
        "belyi_eval",
        "rational_points_bounded",
        "run_sieve_442",
        "sieve_442",
        "torsion_points",
        "twist_curve",
    ),
}

# Exported name -> the layer that defines it; a layer's own name maps to
# itself and resolves to the module.
_LAYER_OF = {layer: layer for layer in _LAYERS}
_LAYER_OF.update((name, layer) for layer, names in _LAYERS.items() for name in names)

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A loaded layer is already bound here by the import system, which is
    # about three times cheaper to read than another import_module call.
    module = globals().get(layer) or _import_module(f"{__name__}.{layer}")
    return module if name == layer else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAYER_OF))
