"""Command-line front end: one subcommand per object.  `classify` prints
everything about a signature (chi, kind, weights, the symmetry group's
torsion) and `torsion` everything about a twist curve (its equation and
torsion points).

Handlers return plain values (ints, tuples, fractions, points, rings); main
converts each payload once, to str keys and lists with str and bool leaves,
and prints it as indented JSON, so that every number is a decimal string and
arbitrary-precision values survive any consumer.  Integers are read and
printed exactly at any size: main lifts the interpreter's 4,300-digit limit
on int/str conversion while it runs and restores it before it returns.  An
option's value may start with a minus sign, as in --coeffs -1,1,1.  Exit
codes: 0 success, 1 invalid input, 2 a named work cap exceeded, 3
sieve/enumerator mismatch.  Errors go to stderr as one JSON object with a
machine-readable code; on exit 2 its "cap" names the cap: "rho iterations"
(5,000,000, factorization), "power bits" (2^25, a value table of enumerate,
a term of an equation, the unit classes), "unit classes" (2^20, h1) or
"elimination bits" (2^20 for rows * cols * min(rows, cols) * bits of the
largest |entry|, snf).  Each size cap is checked before the build it bounds
starts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from .belyi import (
    StackPointCertificate,
    certificate_automorphism_order,
    classify_signature,
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument for a flag unless it is a plain negative
        # number, so `--coeffs -1,1,1` would read as a missing value.  No
        # flag here starts with a digit: read any "-<digit>..." as a value.
        self._negative_number_matcher = re.compile(r"-\d")

    # argparse exits with status 2 on usage errors; 2 means something else
    # here, so re-route through the invalid-input path.
    def error(self, message):
        raise ValueError(message)


def _parse_ints(text: str, n: int, what: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise ValueError(f"bad {what}: {e}") from None


def _parse_signature(text: str) -> Signature:
    a, b, c = _parse_ints(text, 3, "signature")
    return Signature(a, b, c)


def _parse_primes(text: str) -> SRing:
    if text.strip() == "":
        return SRing(())
    return SRing(sorted({int(p) for p in text.split(",")}))


def _parse_point(text: str) -> ProjPointQ:
    sep = "/" if "/" in text else ":"
    parts = text.split(sep)
    if len(parts) != 2:
        raise ValueError(f"point must look like s{sep}t, got {text!r}")
    try:
        s, t = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise ValueError(f"bad point: {e}") from None
    return normalize_projective(s, t)


def _parse_matrix(text: str) -> IntMatrix:
    from .smith import IntMatrix

    try:
        rows = [[int(v) for v in row.split(",")] for row in text.split(";")]
        return IntMatrix(rows)
    except ValueError as e:
        raise ValueError(f"bad matrix: {e}") from None


def _parse_gfe(args) -> GFE:
    A, B, C = _parse_ints(args.coeffs, 3, "coefficients")
    return GFE(_parse_signature(args.signature), A, B, C)


def _certificate(cert: StackPointCertificate) -> dict:
    out = {"point": cert.point, "status": cert.status}
    if cert.marked_at is not None:
        out["marked_at"] = cert.marked_at
    if cert.roots is not None:
        out["roots"] = cert.roots
    if cert.failed:
        out["failed"] = cert.failed
    return out


def _cmd_snf(args) -> dict:
    from .smith import smith_normal_form

    res = smith_normal_form(_parse_matrix(args.matrix))
    return {"D": res.D.data, "U": res.U.data, "V": res.V.data, "diag": res.D.diagonal()}


def _cmd_h1(args) -> dict:
    ring = _parse_primes(args.primes)
    group = s_unit_reps(ring, args.n)
    return {
        "ring": ring,
        "modulus": group.modulus,
        "count": len(group.representatives),
        "representatives": group.representatives,
    }


def _cmd_stack_point(args) -> dict:
    sig = _parse_signature(args.signature)
    ring = _parse_primes(args.primes)
    cert = is_stack_point(_parse_point(args.q), sig, ring)
    out = _certificate(cert)
    out["ring"] = ring
    out["accepted"] = cert.accepted
    if cert.accepted:
        out["automorphism_order"] = certificate_automorphism_order(cert, sig)
    return out


def _cmd_classify(args) -> dict:
    sig = _parse_signature(args.signature)
    cls = classify_signature(sig)
    out = {"signature": sig, "chi": cls.chi, "kind": cls.kind, "genus": cls.genus_label()}
    if cls.degree is not None:
        out["degree"] = cls.degree
    wd = weight_vector(sig)
    hs = h_structure(sig)
    out.update(d=wd.d, m=wd.m, w=wd.w, lcm=math.lcm(*sig))
    out.update(torus_rank=hs.torus_rank, torsion=hs.torsion)
    return out


def _cmd_enumerate(args) -> dict:
    F = _parse_gfe(args)
    sols = enumerate_primitive_solutions(F, args.bound)
    return {
        "equation": F,
        "bound": args.bound,
        "count": len(sols),
        "solutions": [s.as_tuple() for s in sols],
    }


def _cmd_jmap(args) -> dict:
    F = _parse_gfe(args)
    x, y, z = _parse_ints(args.solution, 3, "solution")
    image = j_map(F, PrimitiveSolution(x, y, z))
    return {"equation": F, "solution": (x, y, z), "image": image}


def _cmd_recover(args) -> dict:
    F = _parse_gfe(args)
    ring = _parse_primes(args.primes)
    point = _parse_point(args.q)
    found = recover_solutions(point, F, ring, search_units=args.search_units)
    return {
        "equation": F,
        "point": point,
        "ring": ring,
        "solutions": [
            {
                "xyz": r.as_tuple(),
                "coefficients": r.coefficients,
                "exact_coefficients": r.exact_coefficients,
            }
            for r in found
        ],
    }


def _cmd_verify_inclusion(args) -> dict:
    report = verify_descent_inclusion(_parse_gfe(args), args.bound)
    return {
        "equation": report.gfe,
        "bound": report.bound,
        "ring": report.ring,
        "solutions": [
            {
                "solution": e.solution.as_tuple(),
                "image": e.image,
                "certificate": _certificate(e.certificate),
            }
            for e in report.entries
        ],
        "violations": [e.solution.as_tuple() for e in report.violations],
        "passed": report.passed,
    }


def _cmd_torsion(args) -> dict:
    from .quartic import torsion_points, twist_curve

    E = twist_curve(args.d)
    pts = torsion_points(E)
    sign = "-" if E.d > 0 else "+"
    equation = f"v^2*w = u^3 {sign} {abs(E.d)}*u*w^2"
    return {"d": E.d, "equation": equation, "order": len(pts), "points": pts}


def _cmd_sieve442(args) -> dict:
    from .quartic import GFE_442, run_sieve_442

    report = run_sieve_442(args.bound)
    return {
        "equation": GFE_442,
        "unit_classes": report.unit_classes,
        "admissible_twists": report.admissible,
        "torsion_orders": report.torsion_orders,
        "rank_zero_input": report.assumed_finite,
        "candidates": [
            {
                "point": c.point,
                "sources": c.sources,
                "certificate": _certificate(c.certificate),
                "recovered": [s.as_tuple() for s in c.recovered],
            }
            for c in report.candidates
        ],
        "solutions": [s.as_tuple() for s in report.solutions],
        "enumerator_bound": report.bound_check,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gfdescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for flag, kwargs in arguments.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(fn=fn)
        return p

    # Accepted and ignored, as neither changes any output: the benchmark
    # (bench/run.py) still passes --no-sieve and --include-nonadmissible.
    ignored = {"action": "store_true"}
    add("snf", _cmd_snf, matrix={"required": True})
    add("h1", _cmd_h1, primes={"required": True}, n={"type": int, "default": 4})
    add(
        "stack-point",
        _cmd_stack_point,
        q={"required": True},
        signature={"required": True},
        primes={"default": ""},
    )
    add("classify", _cmd_classify, signature={"required": True})
    add(
        "enumerate",
        _cmd_enumerate,
        signature={"required": True},
        coeffs={"required": True},
        bound={"type": int, "required": True},
        no_sieve=ignored,
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
    add("torsion", _cmd_torsion, d={"type": int, "required": True})
    add(
        "sieve442",
        _cmd_sieve442,
        bound={"type": int, "default": 100},
        include_nonadmissible=ignored,
    )
    return parser


def _plain(v):
    """The wire form of a handler's value: str keys, lists, str and bool
    leaves, and every other value as its str, which for numbers is decimal."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        # Solution lists hold many ints: skip the call for them.
        return [str(x) if x.__class__ is int else _plain(x) for x in v]
    if isinstance(v, (str, bool)):
        return v
    return str(v)


def _emit_error(code: str, message: str, **extra):
    print(json.dumps({"error": code, "message": message, **extra}), file=sys.stderr)


def main(argv=None) -> int:
    # Exact decimals at any size, in and out; the interpreter's limit is
    # back in place when main returns, so an in-process caller keeps its own.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
            payload = args.fn(args)
        except WorkLimitExceeded as e:
            _emit_error("work-limit-exceeded", str(e), cap=e.cap)
            return EXIT_WORK_LIMIT
        except PipelineMismatch as e:
            _emit_error("pipeline-mismatch", str(e))
            return EXIT_MISMATCH
        except (ValueError, GFDescentError) as e:
            _emit_error("invalid-input", str(e))
            return EXIT_INVALID

        payload = _plain(payload)
        try:
            print(json.dumps(payload, indent=2))
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early (`| head`).  Point stdout at devnull so
            # the flush at interpreter exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
