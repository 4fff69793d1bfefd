"""Command-line front end: one subcommand per library capability.

All JSON numbers are decimal strings so arbitrary-precision values survive
any consumer.  Exit codes: 0 success, 1 invalid input, 2 factorization work
cap exceeded, 3 sieve/enumerator mismatch.  Errors go to stderr as one JSON
object with a machine-readable code.

The environment variable GFDESCENT_FACTOR_WORK overrides the factorization
iteration cap for one call of main, which restores the previous cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import exact
from .belyi import (
    certificate_automorphism_order,
    classify_signature,
    euler_characteristic,
    is_stack_point,
)
from .errors import GFDescentError, PipelineMismatch, WorkLimitExceeded
from .exact import ProjPointQ, normalize_projective
from .gfe import (
    GFE,
    enumerate_primitive_solutions,
    j_map,
    PrimitiveSolution,
    recover_solutions,
    verify_descent_inclusion,
)
from .groups import Signature, h_structure, weight_vector
from .sarith import SRing, s_unit_reps

# quartic and smith serve only a few commands, which import them when they
# run, so that the other commands never load them.
if TYPE_CHECKING:
    from .smith import IntMatrix

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_WORK_LIMIT = 2
EXIT_MISMATCH = 3


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 means something else
    # here, so re-route through the invalid-input path.
    def error(self, message):
        raise CliError(message)


def _parse_ints(text: str, n: int, what: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise CliError(f"bad {what}: {e}") from None


def _parse_signature(text: str) -> Signature:
    a, b, c = _parse_ints(text, 3, "signature")
    return Signature(a, b, c)


def _parse_primes(text: str) -> SRing:
    if text.strip() == "":
        return SRing(())
    try:
        return SRing.from_iterable(int(p) for p in text.split(","))
    except ValueError as e:
        raise CliError(str(e)) from None


def _parse_point(text: str) -> ProjPointQ:
    sep = "/" if "/" in text else ":"
    parts = text.split(sep)
    if len(parts) != 2:
        raise CliError(f"point must look like s{sep}t, got {text!r}")
    try:
        s, t = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise CliError(f"bad point: {e}") from None
    return normalize_projective(s, t)


def _parse_matrix(text: str) -> IntMatrix:
    from .smith import IntMatrix

    try:
        rows = [[int(v) for v in row.split(",")] for row in text.split(";")]
        return IntMatrix(rows)
    except ValueError as e:
        raise CliError(f"bad matrix: {e}") from None


def _parse_gfe(args) -> GFE:
    A, B, C = _parse_ints(args.coeffs, 3, "coefficients")
    return GFE(_parse_signature(args.signature), A, B, C)


def _mat(m: IntMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in m.data]


def _cmd_snf(args) -> dict:
    from .smith import smith_normal_form

    res = smith_normal_form(_parse_matrix(args.matrix))
    return {
        "D": _mat(res.D),
        "U": _mat(res.U),
        "V": _mat(res.V),
        "diag": [str(v) for v in res.D.diagonal()],
    }


def _cmd_weights(args) -> dict:
    sig = _parse_signature(args.signature)
    wd = weight_vector(sig)
    return {
        "signature": str(sig),
        "d": str(wd.d),
        "m": str(wd.m),
        "w": [str(v) for v in wd.w],
        "lcm": str(exact.lcm_triple(*sig)),
    }


def _cmd_group_structure(args) -> dict:
    sig = _parse_signature(args.signature)
    hs = h_structure(sig)
    return {
        "signature": str(sig),
        "torus_rank": str(hs.torus_rank),
        "torsion": [str(v) for v in hs.torsion],
        # h_structure's torsion is the triangle abelianization.
        "triangle_abelianization": [str(v) for v in hs.torsion],
    }


def _cmd_h1(args) -> dict:
    ring = _parse_primes(args.primes)
    group = s_unit_reps(ring, args.n)
    return {
        "ring": str(ring),
        "modulus": str(group.modulus),
        "count": str(len(group.representatives)),
        "representatives": [str(v) for v in group.representatives],
    }


def _cmd_stack_point(args) -> dict:
    sig = _parse_signature(args.signature)
    ring = _parse_primes(args.primes)
    point = _parse_point(args.q)
    cert = is_stack_point(point, sig, ring)
    out = cert.to_dict()
    out["ring"] = str(ring)
    out["accepted"] = cert.accepted
    if cert.accepted:
        out["automorphism_order"] = str(certificate_automorphism_order(cert, sig))
    return out


def _cmd_chi(args) -> dict:
    sig = _parse_signature(args.signature)
    return {"signature": str(sig), "chi": str(euler_characteristic(sig))}


def _cmd_classify(args) -> dict:
    sig = _parse_signature(args.signature)
    cls = classify_signature(sig)
    out = {
        "signature": str(sig),
        "chi": str(cls.chi),
        "kind": cls.kind,
        "genus": cls.genus_label(),
    }
    if cls.degree is not None:
        out["degree"] = str(cls.degree)
    return out


def _cmd_enumerate(args) -> dict:
    F = _parse_gfe(args)
    sols = enumerate_primitive_solutions(F, args.bound, use_sieve=not args.no_sieve)
    return {
        "equation": str(F),
        "bound": str(args.bound),
        "count": str(len(sols)),
        "solutions": [[str(v) for v in s.as_tuple()] for s in sols],
    }


def _cmd_jmap(args) -> dict:
    F = _parse_gfe(args)
    x, y, z = _parse_ints(args.solution, 3, "solution")
    image = j_map(F, PrimitiveSolution(x, y, z))
    return {"equation": str(F), "solution": [str(x), str(y), str(z)], "image": str(image)}


def _cmd_recover(args) -> dict:
    F = _parse_gfe(args)
    ring = _parse_primes(args.primes)
    point = _parse_point(args.q)
    found = recover_solutions(point, F, ring, search_units=args.search_units)
    return {
        "equation": str(F),
        "point": str(point),
        "ring": str(ring),
        "solutions": [
            {
                "xyz": [str(v) for v in r.as_tuple()],
                "coefficients": [str(cf) for cf in r.coefficients],
                "exact_coefficients": r.exact_coefficients,
            }
            for r in found
        ],
    }


def _cmd_verify_inclusion(args) -> dict:
    return verify_descent_inclusion(_parse_gfe(args), args.bound).to_dict()


def _cmd_twist(args) -> dict:
    from .quartic import twist_curve

    E = twist_curve(args.d)
    sign = "-" if E.d > 0 else "+"
    return {"d": str(E.d), "equation": f"v^2*w = u^3 {sign} {abs(E.d)}*u*w^2"}


def _cmd_torsion(args) -> dict:
    from .quartic import torsion_points, twist_curve

    E = twist_curve(args.d)
    pts = torsion_points(E)
    return {
        "d": str(E.d),
        "order": str(len(pts)),
        "points": [str(P) for P in pts],
    }


def _cmd_sieve442(args) -> dict:
    from .quartic import run_sieve_442

    report = run_sieve_442(
        args.bound,
        include_nonadmissible=args.include_nonadmissible,
        extra_height=args.height,
    )
    return report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gfdescent", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for flag, kwargs in arguments.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("snf", _cmd_snf, matrix={"required": True})
    add("weights", _cmd_weights, signature={"required": True})
    add("group-structure", _cmd_group_structure, signature={"required": True})
    add("h1", _cmd_h1, primes={"required": True}, n={"type": int, "default": 4})
    add(
        "stack-point",
        _cmd_stack_point,
        q={"required": True},
        signature={"required": True},
        primes={"default": ""},
    )
    add("chi", _cmd_chi, signature={"required": True})
    add("classify", _cmd_classify, signature={"required": True})
    add(
        "enumerate",
        _cmd_enumerate,
        signature={"required": True},
        coeffs={"required": True},
        bound={"type": int, "required": True},
        no_sieve={"action": "store_true"},
    )
    add(
        "jmap",
        _cmd_jmap,
        signature={"required": True},
        coeffs={"required": True},
        solution={"required": True},
    )
    add(
        "recover",
        _cmd_recover,
        q={"required": True},
        signature={"required": True},
        coeffs={"required": True},
        primes={"default": ""},
        search_units={"action": "store_true"},
    )
    add(
        "verify-inclusion",
        _cmd_verify_inclusion,
        signature={"required": True},
        coeffs={"required": True},
        bound={"type": int, "required": True},
    )
    add("twist", _cmd_twist, d={"type": int, "required": True})
    add("torsion", _cmd_torsion, d={"type": int, "required": True})
    add(
        "sieve442",
        _cmd_sieve442,
        bound={"type": int, "default": 100},
        include_nonadmissible={"action": "store_true"},
        height={"type": int, "default": 12},
    )
    return parser


def _render_text(payload, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)) and not _is_scalar_list(item):
                lines.append(f"{pad}-")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(payload)}")
    return "\n".join(lines)


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _scalar(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_error(code: str, message: str):
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    saved_cap = exact.DEFAULT_RHO_ITERATION_CAP
    cap = os.environ.get("GFDESCENT_FACTOR_WORK")
    if cap is not None:
        try:
            exact.DEFAULT_RHO_ITERATION_CAP = int(cap)
        except ValueError:
            _emit_error("invalid-input", f"bad GFDESCENT_FACTOR_WORK value {cap!r}")
            return EXIT_INVALID

    try:
        args = parser.parse_args(argv)
        payload = args.fn(args)
    except CliError as e:
        _emit_error("invalid-input", str(e))
        return EXIT_INVALID
    except WorkLimitExceeded as e:
        _emit_error("work-limit-exceeded", str(e))
        return EXIT_WORK_LIMIT
    except PipelineMismatch as e:
        _emit_error("pipeline-mismatch", str(e))
        return EXIT_MISMATCH
    except (ValueError, GFDescentError) as e:
        _emit_error("invalid-input", str(e))
        return EXIT_INVALID
    finally:
        # The override lasts for this call only: later factorize calls in
        # the same process see the previous cap again.
        exact.DEFAULT_RHO_ITERATION_CAP = saved_cap

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
