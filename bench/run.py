#!/usr/bin/env python3
"""Benchmark for gfdescent.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src, so
nothing needs installing.  A closed loop with one client drives every
workload: each op starts only after the previous one has finished, and no
two processes run ops at once.

Workloads (bench/NOTES.md says why each exists):

- sieve442: fresh-process CLI `sieve442 --bound 1000`, alternating with the
  `--include-nonadmissible` variant;
- enumerate_shapes: fresh-process CLI `enumerate` over the shape table;
- descent_arith: in-process library calls (inclusion and round trip,
  recovery ladder, torsion, factorization, Smith forms, unit classes), each
  pass in a fresh worker process.

The seed draws the seeded inputs and the op order.  Every op's output is
checked against an answer that does not come from the code under test.

--trace 0 measures the end-to-end metrics from each op's median time over
its repetitions.  --trace 1 runs the same ops in process (CLI ops through
gfdescent.cli.main), alternating untraced and traced passes, and reports
per-layer metrics from the spans of the traced passes.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Spans and a
full result record go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("sieve442", "enumerate_shapes", "descent_arith")

# Wall time of one pass over each workload's op list at the commit that
# introduced the benchmark (2-core x86-64, Python 3.11).  A run makes
# round(seconds / pass) passes, so the number of repetitions of each op
# depends on --seconds only and not on how fast the code is.
NOMINAL_PASS_S = {"sieve442": 0.9, "enumerate_shapes": 14.0, "descent_arith": 6.0}

OP_TIMEOUT_S = 60.0
# No op starts later than this after launch, so a run with stalled ops still
# ends well inside 180 s.
DEADLINE_S = 140.0
# A worker may take this long beyond its pass budget to start, build its ops
# and warm up.
WORKER_GRACE_S = 20.0
SETUP_REPS = 7

# (signature, coefficients, bound, sieve).  Covers a shape where the sieve
# helps (2,3,7) and one where it hurts (4,4,2), the disc (2,2,2), the int64
# path and the pure-int fallback (7,7,7), and the (2,3,7) --no-sieve case
# whose window no longer fits int64 and is dropped.
SHAPES = (
    ("4,4,2", "1,1,-1", 2000, True),
    ("4,4,2", "1,1,-1", 2000, False),
    ("2,3,7", "1,1,1", 1500, True),
    ("2,3,7", "1,1,1", 500, False),
    ("5,2,3", "2,-1,3", 1500, True),
    ("5,2,3", "2,-1,3", 1500, False),
    ("2,2,2", "1,1,-1", 1500, True),
    ("7,7,7", "1,1,-1", 600, True),
)

SIEVE_BOUND = 1000
SETUP_CODE = "import gfdescent"
# descent_arith pays its first library call as well as the import.
WARMUP_CODE = (
    "import gfdescent as g; "
    "g.verify_descent_inclusion(g.GFE(g.Signature(2, 3, 7), 1, 1, 1), 50)"
)


def shape_key(sig: str, coeffs: str, bound: int) -> str:
    return f"{sig}|{coeffs}|{bound}"


# ---------------------------------------------------------------------------
# Independent arithmetic used by the checks (never the package's own code).


def evaluate(sig, coeffs, xyz) -> int:
    return sum(k * v**e for k, v, e in zip(coeffs, xyz, sig))


def j_point(sig, coeffs, xyz) -> tuple[int, int]:
    """Canonical (s, t) of (-A x^a : C z^c)."""
    s = -coeffs[0] * xyz[0] ** sig[0]
    t = coeffs[2] * xyz[2] ** sig[2]
    g = math.gcd(s, t)
    s, t = s // g, t // g
    if t < 0 or (t == 0 and s < 0):
        s, t = -s, -t
    return s, t


def brute_force(sig, coeffs, bound) -> list[tuple[int, int, int]]:
    """Primitive solutions from a value table of the z-term; no roots."""
    a, b, c = sig
    A, B, C = coeffs
    rng = range(-bound, bound + 1)
    ztable: dict[int, list[int]] = {}
    for z in rng:
        ztable.setdefault(-C * z**c, []).append(z)
    out = []
    for x in rng:
        ax = A * x**a
        for y in rng:
            for z in ztable.get(ax + B * y**b, ()):
                if math.gcd(x, y, z) == 1:
                    out.append((x, y, z))
    return sorted(out)


def trial_factor(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_slow(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def torsion_order(d: int) -> int:
    """Closed form for v^2 = u^3 - d u: reduce d modulo fourth powers; the
    torsion is Z/4 iff d = -4, Z/2 x Z/2 iff d is a square, else Z/2."""
    core = 1
    for p, e in trial_factor(d).items():
        core *= p ** (e % 4)
    core = core if d > 0 else -core
    if core == -4 or (core > 0 and math.isqrt(core) ** 2 == core):
        return 4
    return 2


def draw_gfes(seed: int, count: int, max_coeff: int = 3, max_exp: int = 5):
    """(signature, coefficients) pairs drawn exactly as tests/oracles.random_gfes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sig = tuple(rng.randrange(2, max_exp + 1) for _ in range(3))
        coeffs = tuple(
            rng.choice([i for i in range(-max_coeff, max_coeff + 1) if i]) for _ in range(3)
        )
        out.append((sig, coeffs))
    return out


# ---------------------------------------------------------------------------
# Ops


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # in-process call
    check: Callable[[object], Optional[str]]  # error message, or None if correct
    argv: Optional[list[str]] = None  # CLI ops: untraced runs use a fresh process


def lib(name: str, *args):
    """gfdescent.<name>(*args), looked up at call time so that a traced pass
    calls the tracer's wrapper."""
    import gfdescent

    return getattr(gfdescent, name)(*args)


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    from gfdescent import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli_op(label: str, argv: list[str], expect: Callable[[dict], Optional[str]]) -> Op:
    return Op(label, partial(run_cli_inprocess, argv), partial(check_cli, expect), argv)


def check_cli(expect, outcome) -> Optional[str]:
    rc, stdout = outcome
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    return expect(payload)


def expect_solutions(want: list[tuple[int, int, int]], payload: dict) -> Optional[str]:
    got = [tuple(int(v) for v in row) for row in payload["solutions"]]
    if got != want:
        return f"{len(got)} solutions, expected {len(want)}"
    if "count" in payload and int(payload["count"]) != len(want):
        return "count field disagrees"
    return None


def build_sieve442(seed: int, expected: dict) -> list[Op]:
    eight = sorted(tuple(t) for t in expected["eight_triples"])
    base = ["sieve442", "--bound", str(SIEVE_BOUND)]
    ops = [
        cli_op("sieve442", base, partial(expect_solutions, eight)),
        cli_op(
            "sieve442 --include-nonadmissible",
            base + ["--include-nonadmissible"],
            partial(expect_solutions, eight),
        ),
    ]
    random.Random(seed).shuffle(ops)
    return ops


def build_enumerate_shapes(seed: int, expected: dict) -> list[Op]:
    ops = []
    for sig, coeffs, bound, sieve in SHAPES:
        argv = ["enumerate", "--signature", sig, "--coeffs", coeffs, "--bound", str(bound)]
        if not sieve:
            argv.append("--no-sieve")
        want = [tuple(t) for t in expected["shapes"][shape_key(sig, coeffs, bound)]]
        ops.append(cli_op(" ".join(argv[1:]), argv, partial(expect_solutions, want)))
    random.Random(seed).shuffle(ops)
    return ops


def check_recovered(sig, coeffs, point, recovered) -> Optional[str]:
    for r in recovered:
        xyz = r.as_tuple()
        if evaluate(sig, coeffs, xyz) != 0:
            return f"{xyz} does not solve the equation"
        if math.gcd(*xyz) != 1:
            return f"{xyz} is not primitive"
        if j_point(sig, coeffs, xyz) != point:
            return f"{xyz} does not map to {point}"
    return None


def inclusion_round_trip(F, bound):
    from gfdescent import recover_solutions, verify_descent_inclusion

    rep = verify_descent_inclusion(F, bound)
    return rep, [recover_solutions(e.image, F, rep.ring) for e in rep.entries]


def check_inclusion(sig, coeffs, want, outcome) -> Optional[str]:
    rep, backs = outcome
    if rep.violations:
        return f"{len(rep.violations)} inclusion violations"
    got = [e.solution.as_tuple() for e in rep.entries]
    if got != want:
        return f"{len(got)} solutions, brute force finds {len(want)}"
    for entry, back in zip(rep.entries, backs):
        point = (entry.image.s, entry.image.t)
        if j_point(sig, coeffs, entry.solution.as_tuple()) != point:
            return f"wrong image for {entry.solution}"
        if entry.solution.as_tuple() not in {r.as_tuple() for r in back}:
            return f"{entry.solution} not recovered from its image"
        err = check_recovered(sig, coeffs, point, back)
        if err:
            return err
    return None


def check_ladder(sig, coeffs, point, recovered) -> Optional[str]:
    got = {r.as_tuple() for r in recovered}
    if not {(1, 1, 1), (-1, 1, 1)} <= got:
        return "(+-1, 1, 1) not recovered"
    return check_recovered(sig, coeffs, point, recovered)


def check_torsion(d, points) -> Optional[str]:
    if len(points) != torsion_order(d):
        return f"order {len(points)}, closed form {torsion_order(d)}"
    if len(set(points)) != len(points):
        return "repeated points"
    for P in points:
        if not P.is_infinity and Fraction(P.v) ** 2 != Fraction(P.u) ** 3 - d * Fraction(P.u):
            return f"{P} is not on the curve"
    return None


def factorize_all(ns, cap):
    """Factorizations of ns; None where the rho cap was hit."""
    from gfdescent import WorkLimitExceeded, factorize

    out = []
    for n in ns:
        try:
            out.append(factorize(n, rho_iteration_cap=cap))
        except WorkLimitExceeded:
            out.append(None)
    return out


def check_factorizations(cases, results) -> Optional[str]:
    for (n, want), result in zip(cases, results, strict=True):
        if result is None:  # a cap hit is an allowed answer, counted by the trace
            continue
        if result.sign * math.prod(p**e for p, e in result.factors) != n:
            return f"factors of {n} do not multiply back to it"
        if dict(result.factors) != want:
            return f"factors {result.factors}, expected {sorted(want.items())}"
    return None


def relation_rows(a, b, c):
    return [[a, -b, 0], [0, b, -c], [-a, 0, c]]


def matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


def det3(M) -> int:
    (a, b, c), (d, e, f), (g, h, i) = M
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


SWEEP = [(a, b, c) for a in range(2, 21) for b in range(2, 21) for c in range(2, 21)]


def smith_sweep():
    from gfdescent.smith import IntMatrix, smith_normal_form

    return [smith_normal_form(IntMatrix(relation_rows(*sig))) for sig in SWEEP]


def check_smith_sweep(results) -> Optional[str]:
    for (a, b, c), res in zip(SWEEP, results, strict=True):
        d, m = math.gcd(a, b, c), math.gcd(b * c, a * c, a * b)
        if res.D.diagonal() != [d, m // d, 0]:
            return f"diag {res.D.diagonal()} for {(a, b, c)}"
        if matmul(matmul(res.U.data, relation_rows(a, b, c)), res.V.data) != res.D.data:
            return f"U A V != D for {(a, b, c)}"
        if abs(det3(res.U.data)) != 1 or abs(det3(res.V.data)) != 1:
            return f"U or V not unimodular for {(a, b, c)}"
    return None


def h_sweep():
    from gfdescent import Signature, h_structure

    return [h_structure(Signature(*sig)) for sig in SWEEP]


def check_h_sweep(results) -> Optional[str]:
    for (a, b, c), hs in zip(SWEEP, results, strict=True):
        d, m = math.gcd(a, b, c), math.gcd(b * c, a * c, a * b)
        want = tuple(f for f in (d, m // d) if f > 1)
        if (hs.torus_rank, tuple(hs.torsion)) != (1, want):
            return f"h_structure{(a, b, c)} = {hs}, expected (1, {want})"
    return None


def check_unit_reps(primes, n, group) -> Optional[str]:
    want = set()
    for eps in ((1, -1) if n % 2 == 0 else (1,)):
        vals = {eps}
        for p in primes:
            vals = {v * p**e for v in vals for e in range(n)}
        want |= vals
    got = list(group.representatives)
    if len(got) != len(want) or set(got) != want:
        return f"{len(got)} representatives, expected {len(want)}"
    return None


def run_parts(parts):
    return [run() for _, run, _ in parts]


def check_parts(parts, outcomes) -> Optional[str]:
    for (label, _, check), outcome in zip(parts, outcomes, strict=True):
        err = check(outcome)
        if err:
            return f"{label}: {err}"
    return None


def group_op(label: str, parts: list[tuple[str, Callable, Callable]]) -> Op:
    """One op that makes several (label, call, check) calls in turn.  Summing
    many small seeded calls keeps the op's cost about the same from one seed
    to the next."""
    return Op(label, partial(run_parts, parts), partial(check_parts, parts))


def build_descent_arith(seed: int, expected: dict) -> list[Op]:
    from gfdescent import (
        GFE,
        ProjPointQ,
        Signature,
        SRing,
        twist_curve,
    )

    ops = []

    # The 26-equation inclusion set, each equation followed by its round trip.
    eqs = [((2, 3, 7), (1, 1, 1), 50)] + [(s, k, 30) for s, k in draw_gfes(seed, 25)]
    parts = []
    for sig, coeffs, bound in eqs:
        F = GFE(Signature(*sig), *coeffs)
        parts.append(
            (
                f"{sig} {coeffs} B={bound}",
                partial(inclusion_round_trip, F, bound),
                partial(check_inclusion, sig, coeffs, brute_force(sig, coeffs, bound)),
            )
        )
    ops.append(group_op("inclusion set (26 equations)", parts))

    # Recovery ladder: divisor search grows with the coefficients.
    for k in range(1, 6):
        sig = (2, 3, 5)
        A, B = 2 ** (2 * k) * 3**k, 5**k
        coeffs = (A, B, -(A + B))
        F = GFE(Signature(*sig), *coeffs)
        ring = SRing(tuple(sorted(trial_factor(30 * A * B * (A + B)))))
        point = j_point(sig, coeffs, (1, 1, 1))
        ops.append(
            Op(
                f"recover ladder k={k}",
                partial(lib, "recover_solutions", ProjPointQ(*point), F, ring),
                partial(check_ladder, sig, coeffs, point),
            )
        )

    # Torsion, three ops: the pinned twists, d = 10^4 (the slowest input), and
    # one seeded d from the top 5% of each smaller decade.  Cost depends on
    # the factorization of d, so the largest input stays fixed across seeds.
    def torsion_part(d):
        return (f"d={d}", partial(lib, "torsion_points", twist_curve(d)), partial(check_torsion, d))

    rng = random.Random(f"{seed}:torsion")
    seeded = []
    for j in range(1, 4):
        hi = 10**j
        seeded.append(rng.choice((1, -1)) * rng.randint(hi - hi // 20, hi))
    ops.append(group_op("torsion d=-4,-1,1", [torsion_part(d) for d in (-4, -1, 1)]))
    ops.append(group_op(f"torsion seeded d={seeded}", [torsion_part(d) for d in seeded]))
    ops.append(group_op("torsion d=10000", [torsion_part(10**4)]))

    # Factorization corpus.  One op factors eight seeded semiprimes of 28-bit
    # primes: rho's iteration count varies a lot from one n to the next, and
    # the sum over eight varies little from one seed to the next.
    rng = random.Random(f"{seed}:factor")
    semiprimes = []
    while len(semiprimes) < 8:
        p, q = sorted(rng.randrange(2**27 + 1, 2**28, 2) for _ in range(2))
        if p != q and is_prime_slow(p) and is_prime_slow(q):
            semiprimes.append((p * q, {p: 1, q: 1}))
    ops.append(
        Op(
            "factorize 8 semiprimes",
            partial(factorize_all, [n for n, _ in semiprimes], None),
            partial(check_factorizations, semiprimes),
        )
    )
    for n, want, cap in (
        ((2**31 - 1) ** 2, {2**31 - 1: 2}, None),
        ((2**61 - 1) ** 2, {2**61 - 1: 2}, 200_000),  # hits the lowered rho cap
    ):
        ops.append(
            Op(
                f"factorize {n}" + (f" cap={cap}" if cap else ""),
                partial(factorize_all, [n], cap),
                partial(check_factorizations, [(n, want)]),
            )
        )

    ops.append(Op("smith sweep [2,20]^3", smith_sweep, check_smith_sweep))
    ops.append(Op("h_structure sweep [2,20]^3", h_sweep, check_h_sweep))

    parts = [
        (
            f"{primes} n={n}",
            partial(lib, "s_unit_reps", SRing(primes), n),
            partial(check_unit_reps, primes, n),
        )
        for primes, n in (((2,), 4), ((2, 3), 4), ((2, 3, 5), 3), ((2, 3, 5, 7), 4))
    ]
    ops.append(group_op("s_unit_reps S={2},{2,3},{2,3,5},{2,3,5,7}", parts))

    random.Random(seed).shuffle(ops)
    return ops


BUILDERS = {
    "sieve442": build_sieve442,
    "enumerate_shapes": build_enumerate_shapes,
    "descent_arith": build_descent_arith,
}


# ---------------------------------------------------------------------------
# Execution


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def alarm(timeout: float):
    """Raise OpTimeout in the main thread once `timeout` seconds have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # cli.main writes this value into a module global; children run with the
    # package default.
    env.pop("GFDESCENT_FACTOR_WORK", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(cmd: list[str]) -> tuple[int, str]:
    """Run cmd to the end and return its exit code and stdout.  It blocks in
    waitpid rather than polling, so a timing around it ends when the child
    does.  Used under alarm(); a timeout kills and reaps the child."""
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            proc.kill()
            raise
    return proc.returncode, stdout


def execute(op: Op, fresh_process: bool, timeout: float) -> tuple[float, Optional[str]]:
    """Run one op; return its wall time and an error (None when correct)."""
    t0 = time.perf_counter()
    try:
        with alarm(timeout):
            if fresh_process and op.argv is not None:
                outcome = run_child([sys.executable, "-m", "gfdescent.cli", *op.argv])
            else:
                outcome = op.run()
    except OpTimeout:
        return time.perf_counter() - t0, "timeout"
    except Exception as e:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.check(outcome)
    except Exception as e:
        return elapsed, f"check raised {type(e).__name__}: {e}"


@dataclass
class Sample:
    label: str
    seconds: float
    error: Optional[str]


def run_pass(ops, fresh_process, deadline, samples, tracer=None) -> None:
    for op in ops:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        if tracer is not None:
            tracer.op_id = len(samples)
        elapsed, err = execute(op, fresh_process, min(OP_TIMEOUT_S, remaining))
        samples.append(Sample(op.label, elapsed, err))


def run_workers(workload, seed, passes, deadline) -> list[Sample]:
    """In-process passes, each in a fresh worker process, one worker at a time.
    A process's speed depends a little on its memory layout and hash seed, so
    spreading the passes over several processes steadies the op times."""
    samples: list[Sample] = []
    for _ in range(passes):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--worker", f"{remaining:.3f}"]
        t0 = time.perf_counter()
        try:
            with alarm(remaining + WORKER_GRACE_S):
                _, stdout = run_child(cmd)
            rows = json.loads(stdout.strip().splitlines()[-1])["samples"]
            samples.extend(Sample(*row) for row in rows)
        except (OpTimeout, ValueError, IndexError, KeyError, TypeError) as e:
            samples.append(Sample("worker", time.perf_counter() - t0, f"worker failed: {e!r}"))
    return samples


def worker_main(ops, budget) -> int:
    """One in-process pass for run_workers; prints its samples as JSON."""
    exec(WARMUP_CODE, {})
    samples: list[Sample] = []
    run_pass(ops, False, time.monotonic() + budget, samples)
    print(json.dumps({"samples": [[s.label, s.seconds, s.error] for s in samples]}))
    return 0


def measure_setup(code: str) -> float:
    """Median wall time of fresh interpreters running `code` (one discarded
    first run, which may write the byte-code cache)."""
    cmd = [sys.executable, "-c", code]
    times = []
    for i in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        with alarm(OP_TIMEOUT_S):
            rc, _ = run_child(cmd)
        if rc != 0:
            raise RuntimeError(f"set-up command exited with code {rc}")
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop.  Recorded next to the results
    as a reading of how fast the machine ran at the time; not a metric."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def op_times(samples: list[Sample]) -> dict[str, float]:
    """Each op's time in the run: the median of its repetitions, so that one
    repetition slowed by other load on the machine does not move it."""
    by_label: dict[str, list[float]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.seconds)
    return {label: statistics.median(times) for label, times in by_label.items()}


def quantile(sorted_xs: list[float], q: float) -> float:
    pos = q * (len(sorted_xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def run_untraced(workload, seed, ops, seconds, deadline) -> tuple[list[Sample], dict, dict]:
    in_process = workload == "descent_arith"
    setup = measure_setup(WARMUP_CODE if in_process else SETUP_CODE)

    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    samples: list[Sample] = []
    t0 = time.monotonic()
    if in_process:
        samples = run_workers(workload, seed, passes, deadline)
    else:
        for _ in range(passes):
            run_pass(ops, True, deadline, samples)
    wall = time.monotonic() - t0

    per_op = op_times(samples)
    times = sorted(per_op.values())
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (quantile(times, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "passes": passes,
        "samples": len(samples),
        "wall_s": wall,
        "op_times_s": dict(sorted(per_op.items(), key=lambda kv: kv[1])),
    }
    return samples, metrics, notes


PER_LAYER = (
    ("cli.main", ("calls", "self_s")),
    ("exact.factorize", ("calls", "busy_s", "cap_hits")),
    ("exact.is_perfect_nth_power", ("calls",)),
    ("exact.is_probable_prime", ("calls",)),
    ("smith.smith_normal_form", ("calls", "busy_s")),
    ("groups.h_structure", ("calls", "self_s")),
    ("sarith.s_unit_reps", ("calls", "busy_s")),
    ("sarith.is_nth_power_ideal", ("calls",)),
    ("belyi.is_stack_point", ("calls", "busy_s")),
    ("gfe.enumerate_primitive_solutions", ("calls", "busy_s", "self_s", "hit_ratio")),
    ("gfe.select_sieve_primes", ("busy_s",)),
    ("gfe.recover_solutions", ("calls", "busy_s", "self_s")),
    ("gfe.verify_descent_inclusion", ("busy_s",)),
    ("gfe.j_map", ("calls",)),
    ("quartic.torsion_points", ("calls", "busy_s", "self_s")),
    ("quartic.rational_points_bounded", ("busy_s",)),
    ("quartic.run_sieve_442", ("busy_s", "self_s")),
)
UNITS = {"calls": "count", "cap_hits": "count", "busy_s": "s", "self_s": "s", "hit_ratio": "ratio"}


def run_traced(workload, ops, seconds, deadline, spans_path) -> tuple[list[Sample], dict, dict]:
    """Pairs of (untraced, traced) in-process passes; per-layer values are per
    traced pass."""
    from spans import Tracer

    exec(WARMUP_CODE, {})
    tracer = Tracer()
    samples: list[Sample] = []
    plain_wall = traced_wall = 0.0
    pairs = max(1, round(seconds / (2 * NOMINAL_PASS_S[workload])))
    for _ in range(pairs):
        a = time.perf_counter()
        run_pass(ops, False, deadline, samples)
        b = time.perf_counter()
        tracer.install()
        try:
            run_pass(ops, False, deadline, samples, tracer)
        finally:
            tracer.uninstall()
        traced_wall += time.perf_counter() - b
        plain_wall += b - a
    tracer.write(spans_path)

    summary = tracer.summary()
    metrics = {}
    for name, fields in PER_LAYER:
        row = summary.get(name, {})
        for field in fields:
            value = row.get(field, 0)
            if field != "hit_ratio":
                value /= pairs
            metrics[f"{name}.{field}"] = (value, UNITS[field])
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    failed = sum(1 for s in samples if s.error)
    metrics["failed_frac"] = (failed / len(samples), "ratio")
    notes = {
        "traced_passes": pairs,
        "spans": len(tracer.names),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return samples, metrics, notes


# ---------------------------------------------------------------------------
# Reporting


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree; read directly so the
    benchmark never looks outside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def machine_facts(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_clients": 1,
    }


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one in-process pass within this many seconds (run_workers).
    parser.add_argument("--worker", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gfdescent" / "__init__.py").is_file():
        print(f"error: no gfdescent package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("GFDESCENT_FACTOR_WORK", None)
    import gfdescent

    if Path(gfdescent.__file__).resolve().parent != (SRC / "gfdescent").resolve():
        print(f"error: imported gfdescent from {gfdescent.__file__}", file=sys.stderr)
        return 2

    expected = json.loads(EXPECTED_PATH.read_text())
    ops = BUILDERS[args.workload](args.seed, expected)
    if args.worker is not None:
        return worker_main(ops, args.worker)
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibration_before = calibration_s()
    if args.trace:
        samples, metrics, notes = run_traced(
            args.workload, ops, args.seconds, deadline, OUT / f"spans-{stem}.jsonl"
        )
    else:
        samples, metrics, notes = run_untraced(
            args.workload, args.seed, ops, args.seconds, deadline
        )
    notes["calibration_s"] = [calibration_before, calibration_s()]

    failures = [s for s in samples if s.error]
    result = {
        "correct": not failures and bool(samples),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "facts": machine_facts(args),
        "notes": notes,
        **result,
        "samples": [vars(s) for s in samples],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    print("# facts " + json.dumps(record["facts"]))
    print("# notes " + json.dumps(notes))
    for s in failures[:10]:
        print(f"# FAILED {s.label}: {s.error}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
