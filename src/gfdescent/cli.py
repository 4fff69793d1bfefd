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
machine-readable code; on exit 2 its "cap" names a row of the table
gfdescent.errors.CAPS: "rho work" (5,000,000, one product or backtrack step
of Brent's rho per 64-bit word of the cofactor, advance steps free; only the
library's factorize reaches it, as verify-inclusion prints what trial division
leaves as "unsplit"), "power bits" (2^25, a value table of enumerate, a term
of an equation, the unit classes), "unit classes" (2^20, h1),
"elimination bits" (2^20 for rows * cols * min(rows, cols) * bits of the
largest |entry|, snf), "prime bits" (2^11, a primality test of the primes
given to h1, in all; stack-point and recover take --primes as generators and
test none) or "join probes" (2^25, the join of enumerate, counted as it
runs).  errors.charge meets every cap, reading its row when called; each
size cap is checked before the build it bounds starts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

# Every layer is read through the package's loader, so a command loads only
# the layers its handler touches.
import gfdescent
from .errors import GFDescentError, PipelineMismatch, WorkLimitExceeded

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


def _parse_ints(text: str, what: str, n: int | None = None, sep: str = ",") -> list[int]:
    """The integers of a flag's text split at sep, n of them if n is given;
    every error names what was being read."""
    parts = text.split(sep)
    if n is not None and len(parts) != n:
        raise ValueError(f"bad {what}: needs {n} integers separated by {sep!r}, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise ValueError(f"bad {what}: {e}") from None


def _parse_signature(text: str):
    return gfdescent.Signature(*_parse_ints(text, "signature", 3))


def _parse_primes(text: str):
    if text.strip() == "":
        return gfdescent.SRing(())
    return gfdescent.SRing(sorted(set(_parse_ints(text, "primes"))))


def _parse_point(text: str):
    sep = "/" if "/" in text else ":"
    return gfdescent.normalize_projective(*_parse_ints(text, "point", 2, sep))


def _parse_matrix(text: str):
    # Every row has as many entries as the first.
    rows = text.split(";")
    width = rows[0].count(",") + 1
    return gfdescent.IntMatrix([_parse_ints(row, "matrix", width) for row in rows])


def _parse_gfe(args):
    A, B, C = _parse_ints(args.coeffs, "coefficients", 3)
    return gfdescent.GFE(_parse_signature(args.signature), A, B, C)


def _certificate(cert) -> dict:
    out = {"point": cert.point, "status": cert.status}
    if cert.marked_at is not None:
        out["marked_at"] = cert.marked_at
    if cert.roots is not None:
        out["roots"] = cert.roots
    if cert.failed:
        out["failed"] = cert.failed
    return out


def _cmd_snf(args) -> dict:
    res = gfdescent.smith_normal_form(_parse_matrix(args.matrix))
    return {"D": res.D.data, "U": res.U.data, "V": res.V.data, "diag": res.D.diagonal()}


def _cmd_h1(args) -> dict:
    ring = _parse_primes(args.primes)
    group = gfdescent.s_unit_reps(ring, args.n)
    return {
        "ring": ring,
        "modulus": group.modulus,
        "count": len(group.representatives),
        "representatives": group.representatives,
    }


def _cmd_stack_point(args) -> dict:
    sig = _parse_signature(args.signature)
    ring = _parse_primes(args.primes)
    cert = gfdescent.is_stack_point(_parse_point(args.q), sig, ring)
    out = _certificate(cert)
    out["ring"] = ring
    out["accepted"] = cert.accepted
    if cert.accepted:
        out["automorphism_order"] = gfdescent.certificate_automorphism_order(cert, sig)
    return out


def _cmd_classify(args) -> dict:
    sig = _parse_signature(args.signature)
    cls = gfdescent.classify_signature(sig)
    out = {"signature": sig, "chi": cls.chi, "kind": cls.kind, "genus": cls.genus_label()}
    if cls.degree is not None:
        out["degree"] = cls.degree
    wd = gfdescent.weight_vector(sig)
    hs = gfdescent.h_structure(sig)
    out.update(d=wd.d, m=wd.m, w=wd.w, lcm=math.lcm(*sig))
    out.update(torus_rank=hs.torus_rank, torsion=hs.torsion)
    return out


def _cmd_enumerate(args) -> dict:
    F = _parse_gfe(args)
    sols = gfdescent.enumerate_primitive_solutions(F, args.bound)
    return {
        "equation": F,
        "bound": args.bound,
        "count": len(sols),
        "solutions": [s.as_tuple() for s in sols],
    }


def _cmd_jmap(args) -> dict:
    F = _parse_gfe(args)
    x, y, z = _parse_ints(args.solution, "solution", 3)
    image = gfdescent.j_map(F, gfdescent.PrimitiveSolution(x, y, z))
    return {"equation": F, "solution": (x, y, z), "image": image}


def _cmd_recover(args) -> dict:
    F = _parse_gfe(args)
    ring = _parse_primes(args.primes)
    point = _parse_point(args.q)
    found = gfdescent.recover_solutions(point, F, ring, search_units=args.search_units)
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
    report = gfdescent.verify_descent_inclusion(_parse_gfe(args), args.bound)
    out = {"equation": report.gfe, "bound": report.bound, "ring": report.ring}
    if report.unsplit:
        out["unsplit"] = report.unsplit
    return out | {
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
    E = gfdescent.twist_curve(args.d)
    pts = gfdescent.torsion_points(E)
    d = str(E.d)  # rendered once for both keys: int-to-str is quadratic
    term = f"+ {d[1:]}" if E.d < 0 else f"- {d}"
    return {"d": d, "equation": f"v^2*w = u^3 {term}*u*w^2", "order": len(pts), "points": pts}


def _cmd_sieve442(args) -> dict:
    report = gfdescent.run_sieve_442(args.bound)
    return {
        "equation": gfdescent.quartic.GFE_442,
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


# The flag specs that several commands share.
_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_SWITCH = {"action": "store_true"}
_PRIMES = ("--primes", {"default": ""})
_SIGNATURE = ("--signature", _REQUIRED)
_EQUATION = (_SIGNATURE, ("--coeffs", _REQUIRED))

# One row per command: its name, its handler and its flags in --help order.
# --no-sieve and --include-nonadmissible are accepted and ignored, as
# neither changes any output: the benchmark (bench/run.py) still passes them.
_COMMANDS = (
    ("snf", _cmd_snf, [("--matrix", _REQUIRED)]),
    ("h1", _cmd_h1, [("--primes", _REQUIRED), ("--n", {"type": int, "default": 4})]),
    ("stack-point", _cmd_stack_point, [("--q", _REQUIRED), _SIGNATURE, _PRIMES]),
    ("classify", _cmd_classify, [_SIGNATURE]),
    ("enumerate", _cmd_enumerate, [*_EQUATION, ("--bound", _INT), ("--no-sieve", _SWITCH)]),
    ("jmap", _cmd_jmap, [*_EQUATION, ("--solution", _REQUIRED)]),
    ("recover", _cmd_recover,
     [("--q", _REQUIRED), *_EQUATION, _PRIMES, ("--search-units", _SWITCH)]),
    ("verify-inclusion", _cmd_verify_inclusion, [*_EQUATION, ("--bound", _INT)]),
    ("torsion", _cmd_torsion, [("--d", _INT)]),
    ("sieve442", _cmd_sieve442,
     [("--bound", {"type": int, "default": 100}), ("--include-nonadmissible", _SWITCH)]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gfdescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        p = sub.add_parser(name)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.set_defaults(fn=fn)
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
