import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import pathlib
import random
import resource
import subprocess
import sys
import threading
import time
from itertools import product
from unittest.mock import ANY

import pytest
from hypothesis import assume, given, settings, strategies as st

import gfdescent.belyi as belyi
import gfdescent.cli as cli
import gfdescent.exact as exact
import gfdescent.quartic as quartic
from gfdescent.errors import CAPS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_snf_command(capsys):
    payload = run_json(capsys, "snf", "--matrix", "2,-3,0;0,3,-7;-2,0,7")
    assert payload["diag"] == ["1", "1", "0"]


def test_weights_and_group_structure(capsys):
    payload = run_json(capsys, "classify", "--signature", "2,3,7")
    assert payload["w"] == ["21", "14", "6"] and payload["torsion"] == []
    payload = run_json(capsys, "classify", "--signature", "4,4,2")
    assert payload["torsion"] == ["2", "4"] and payload["torus_rank"] == "1"


def test_h1_command(capsys):
    payload = run_json(capsys, "h1", "--primes", "2", "--n", "4")
    assert payload["count"] == "8"
    assert set(payload["representatives"]) == {"1", "2", "4", "8", "-1", "-2", "-4", "-8"}


def test_stack_point_command(capsys):
    payload = run_json(capsys, "stack-point", "--q", "9/1", "--signature", "2,3,7", "--primes", "")
    assert payload["accepted"] is True
    assert payload["roots"] == ["3", "2", "1"]
    payload = run_json(capsys, "stack-point", "--q", "1:2", "--signature", "4,4,2", "--primes", "")
    assert payload["accepted"] is False and payload["failed"] == ["t"]


def test_stack_point_command_tests_the_point_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return is_stack_point(*args)

    is_stack_point = belyi.is_stack_point
    monkeypatch.setattr(belyi, "is_stack_point", counted)
    payload = run_json(capsys, "stack-point", "--q", "0:1", "--signature", "4,4,2", "--primes", "2")
    assert payload["status"] == "marked" and payload["automorphism_order"] == "2"
    payload = run_json(capsys, "stack-point", "--q", "9/1", "--signature", "2,3,7", "--primes", "")
    assert payload["automorphism_order"] == "1"
    assert len(calls) == 2


def test_chi_and_classify(capsys):
    assert run_json(capsys, "classify", "--signature", "2,3,7")["chi"] == "-1/42"
    payload = run_json(capsys, "classify", "--signature", "2,3,5")
    assert payload["degree"] == "60" and payload["kind"] == "spherical"
    assert list(payload) == [
        "signature", "chi", "kind", "genus", "degree", "d", "m", "w", "lcm", "torus_rank",
        "torsion",
    ]


def test_removed_commands_are_unknown(capsys):
    # classify prints what weights, group-structure and chi did, and torsion
    # what twist did.
    for argv in (
        ("weights", "--signature", "2,3,7"),
        ("group-structure", "--signature", "4,4,2"),
        ("chi", "--signature", "2,3,7"),
        ("twist", "--d", "-4"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "invalid-input"
        assert f"invalid choice: '{argv[0]}'" in error["message"], argv


def test_enumerate_and_jmap(capsys):
    payload = run_json(
        capsys, "enumerate", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--bound", "100"
    )
    assert payload["count"] == "8"
    payload = run_json(
        capsys, "jmap", "--signature", "2,3,7", "--coeffs", "1,1,1",
        "--solution", "3,-2,-1",
    )
    assert payload["image"] == "(9:1)"


def test_recover_command(capsys):
    payload = run_json(
        capsys, "recover", "--q", "9:1", "--signature", "2,3,7", "--coeffs", "1,1,1",
        "--primes", "",
    )
    xyz = {tuple(s["xyz"]) for s in payload["solutions"]}
    assert xyz == {("3", "-2", "-1"), ("-3", "-2", "-1")}


def test_recover_command_search_units(capsys):
    payload = run_json(
        capsys, "recover", "--q", "1:2", "--signature", "4,4,2", "--coeffs", "1,1,-1",
        "--primes", "2", "--search-units",
    )
    unitwise = [s for s in payload["solutions"] if not s["exact_coefficients"]]
    assert unitwise == [
        {"xyz": ["1", "1", "1"], "coefficients": ["-1", "-1", "2"],
         "exact_coefficients": False}
    ]


def test_enumerate_command_no_sieve(capsys):
    base = run_json(
        capsys, "enumerate", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "10"
    )
    wide = run_json(
        capsys, "enumerate", "--signature", "2,3,7", "--coeffs", "1,1,1",
        "--bound", "10", "--no-sieve",
    )
    assert base["solutions"] == wide["solutions"]


def test_h1_odd_modulus(capsys):
    payload = run_json(capsys, "h1", "--primes", "", "--n", "3")
    assert payload["representatives"] == ["1"]
    assert payload["ring"] == "Z"


def test_verify_inclusion_command(capsys):
    payload = run_json(
        capsys, "verify-inclusion", "--signature", "2,3,7", "--coeffs", "1,1,1",
        "--bound", "10",
    )
    assert payload["passed"] is True and payload["violations"] == []


def test_twist_torsion_sieve(capsys):
    payload = run_json(capsys, "torsion", "--d", "-4")
    assert payload["equation"] == "v^2*w = u^3 + 4*u*w^2"
    assert payload["order"] == "4"
    payload = run_json(capsys, "torsion", "--d", "1000003")  # a prime
    assert payload == {
        "d": "1000003",
        "equation": "v^2*w = u^3 - 1000003*u*w^2",
        "order": "2",
        "points": ["O", "(0, 0)"],
    }
    payload = run_json(capsys, "sieve442", "--bound", "60")
    assert len(payload["solutions"]) == 8
    assert payload["admissible_twists"] == ["-4", "-1"]


def test_json_round_trips(capsys):
    payload = run_json(capsys, "sieve442", "--bound", "50")
    assert json.loads(json.dumps(payload)) == payload


def test_invalid_inputs_exit_1(capsys):
    # Each row with a fragment of its message: an integer a flag cannot read
    # names what was being read.
    for argv, fragment in (
        (["classify", "--signature", "1,3,7"], "signature entries must be >= 2"),
        (["enumerate", "--signature", "2,3,7", "--coeffs", "0,1,1", "--bound", "5"],
         "coefficients must be nonzero"),
        (["enumerate", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "10",
          "--sieve-primes", "3"], "unrecognized arguments: --sieve-primes"),
        (["enumerate", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "0"],
         "bound must be positive"),
        (["enumerate", "--signature", "2,3,7", "--coeffs", "1,1", "--bound", "5"],
         "bad coefficients: needs 3 integers"),
        (["jmap", "--signature", "2,3,7", "--coeffs", "1,1,1", "--solution", "1,2,z"],
         "bad solution: invalid literal"),
        (["stack-point", "--q", "0/0", "--signature", "2,3,7"], "is not projective"),
        (["stack-point", "--q", "1/2/3", "--signature", "2,3,7"],
         "bad point: needs 2 integers"),
        (["stack-point", "--q", "a/b", "--signature", "2,3,7"], "bad point: invalid literal"),
        (["classify", "--signature", "2,x,7"], "bad signature: invalid literal"),
        (["h1", "--primes", "2,x"], "bad primes: invalid literal"),
        (["h1", "--primes", "2,4"], "4 is not prime"),
        (["h1", "--primes", "15"], "15 is not prime"),
        (["h1", "--primes", "2", "--n", "1"], "modulus must be at least 2"),
        (["snf", "--matrix", "1,2;3"], "bad matrix: needs 2 integers"),
        (["snf", "--matrix", "1,a;2,3"], "bad matrix: invalid literal"),
        (["classify", "--signature", "2,3"], "bad signature: needs 3 integers"),
        (["nonsense"], "invalid choice: 'nonsense'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""  # no partial output
        error = json.loads(err)
        assert error["error"] == "invalid-input"
        assert fragment in error["message"], (argv, error["message"])


def test_work_limit_exit_2(capsys, monkeypatch):
    # A prime given to h1 is tested, and its 89 bits pass a prime-bits cap
    # of 1 before the test starts.
    monkeypatch.setitem(CAPS, "prime bits", 1)
    code, out, err = run_cli(capsys, "h1", "--primes", str(2**89 - 1), "--n", "2")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "work-limit-exceeded"
    assert error["cap"] == "prime bits"
    assert "prime bits cap of 1 exceeded" in error["message"]


def test_join_probe_limit_exit_2(capsys, monkeypatch):
    # The real cap is first passed past bound 15,000, after seconds of work;
    # bound 300 makes 13,375 probes, over a cap of 1,000 at once.
    monkeypatch.setitem(CAPS, "join probes", 1000)
    code, out, err = run_cli(
        capsys, "enumerate", "--signature", "2,2,2", "--coeffs", "1,1,-1", "--bound", "300"
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "work-limit-exceeded"
    assert error["cap"] == "join probes"
    assert "join probes cap of 1000 exceeded" in error["message"]


def test_pipeline_mismatch_exit_3(capsys, monkeypatch):
    from gfdescent.errors import PipelineMismatch

    def boom(*args, **kwargs):
        raise PipelineMismatch("forced")

    monkeypatch.setattr(quartic, "run_sieve_442", boom)
    code, _, err = run_cli(capsys, "sieve442", "--bound", "10")
    assert code == 3
    assert json.loads(err)["error"] == "pipeline-mismatch"


def test_sieve442_has_no_height_flag(capsys):
    # --include-nonadmissible is accepted and ignored; there is no height to set.
    base = ("sieve442", "--bound", "10")
    for argv in (
        base + ("--include-nonadmissible", "--height", "5"),
        base + ("--include-nonadmissible", "--height", "0"),
        base + ("--height", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "invalid-input"
        assert "unrecognized arguments: --height" in error["message"]


def test_there_is_no_format_flag(capsys):
    # Every command prints JSON, and only JSON.  Before the command, argparse
    # reads the flag's value as the command; after it, the flag is unknown.
    classify = ("classify", "--signature", "2,3,7")
    for value in ("text", "json"):
        for argv, message in (
            (("--format", value, *classify), f"invalid choice: '{value}'"),
            ((*classify, "--format", value), f"unrecognized arguments: --format {value}"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            error = json.loads(err)
            assert error["error"] == "invalid-input"
            assert message in error["message"], argv


def test_sieve442_nonpositive_bound_is_invalid_input(capsys):
    for bound in ("0", "-5"):
        code, out, err = run_cli(capsys, "sieve442", "--bound", bound)
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "invalid-input"
        assert error["message"] == "bound must be positive"


def test_closed_pipe_exits_0_without_traceback():
    # `gfdescent ... | head -1`: the reader closes the pipe after one line,
    # while more output than a pipe buffer holds is still to be written.
    argv = ["enumerate", "--signature", "2,2,2", "--coeffs", "1,1,-1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gfdescent.cli", *argv, "--bound", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=CHILD_ENV,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""


# Children of the tests below run under this address-space limit, so that a
# build nobody sized shows up as a MemoryError rather than as swapping.
ADDRESS_SPACE = 1536 << 20
CHILD_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
P = 10**9 + 7  # a prime, and an ordinary exponent for the equations
# A Mersenne prime of 4,423 bits: past the prime-bits cap, whose full test
# took 3.0 s (2-core x86-64 VM, Python 3.11).
M4423 = 2**4423 - 1
M61 = 2**61 - 1
# Rho would need about 2^32 steps to split these two 64-bit primes.
SEMIPRIME = (2**64 - 59) * (2**63 - 25)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_child(*argv, timeout=30):
    """(exit code, stdout, stderr, seconds) of `python -m gfdescent.cli argv`
    in a fresh process under ADDRESS_SPACE."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gfdescent.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=CHILD_ENV,
        preexec_fn=_limit_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def test_huge_exponent_outer_term_is_cut_to_its_reach():
    code, out, err, seconds = run_child(
        "enumerate", "--signature", f"2,3,{P}", "--coeffs", "1,1,1", "--bound", 3
    )
    assert code == 0, err
    assert seconds < 2
    solutions = [tuple(map(int, s)) for s in json.loads(out)["solutions"]]
    # For |z| >= 2, |z^P| exceeds x^2 + |y^3| <= 36, so z in {-1, 0, 1}.
    brute = sorted(
        (x, y, z)
        for x, y, z in product(range(-3, 4), range(-3, 4), (-1, 0, 1))
        if x * x + y**3 + z**P == 0 and math.gcd(x, y, z) == 1
    )
    assert solutions == brute == [
        (-3, -2, -1), (-1, -1, 0), (-1, 0, -1), (0, -1, 1),
        (0, 1, -1), (1, -1, 0), (1, 0, -1), (3, -2, -1),
    ]


# The first 2,000 primes.
FIRST_PRIMES = [p for p in range(2, 17390) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def primorial(k):
    """The product of the first k primes."""
    return math.prod(FIRST_PRIMES[:k])


@contextlib.contextmanager
def any_int_size():
    """Lift the interpreter's limit on int/str conversion, as main does."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def test_recover_answers_at_huge_coefficients():
    # Trying every divisor of lcm(|A|, |B|, |C|) took 0.15-1.0 s at k = 10, 14
    # and 16 primes and raised MemoryError at 28; factoring the semiprime ran
    # into the rho cap and exited 2 after 11 s (2-core x86-64 VM, Python 3.11).
    semiprime = 100000000000000000000000012349 * 300000000000000000000000000823
    cases = [
        ("2,2,2", primorial(k) ** 2, [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)])
        for k in (10, 14, 16, 28)
    ]
    cases.append(("2,3,7", semiprime, [(0, -1, -1), (0, 1, 1)]))
    for signature, A, solutions in cases:
        code, out, err, seconds = run_child(
            "recover", "--q", "0:1", "--signature", signature, "--coeffs", f"{A},1,-1"
        )
        assert code == 0, err
        assert seconds < 1, (signature, A)
        a, b, c = signature.split(",")
        assert json.loads(out) == {
            "equation": f"{A}*x^{a} + y^{b} - z^{c} = 0",
            "point": "(0:1)",
            "ring": "Z",
            "solutions": [
                {"xyz": list(map(str, xyz)), "coefficients": [str(A), "1", "-1"],
                 "exact_coefficients": True}
                for xyz in solutions
            ],
        }


# The hostile-input table.  A grid row is an argv with one hole, "{}", in the
# value of one flag, filled in turn with each value of COLUMNS.  A cell's
# outcome is one character of its row's string: 0 for exit 0, 1 for invalid
# input, r for invalid input with the flag's reader error (READS, or argparse's
# for an int flag), or a letter of CAPS_BY_CODE for exit 2 at that cap.  NAMED
# holds argv that are not grid cells.  A row runs in one child under
# ADDRESS_SPACE.
with any_int_size():
    # Structured values of up to 120,412 digits, written out once because
    # str() of the largest takes about 0.3 s: powers of 2, 3 and 10, a
    # product of many small primes and the square of one.
    HUGE = tuple(
        str(n) for n in (2**400000, 3**20000, 10**3000, primorial(200), primorial(28) ** 2)
    )
    COLUMNS = {
        "0": "0", "-1": "-1", "2": "2", "2^400000": HUGE[0], "-2^400000": "-" + HUGE[0],
        **dict(zip(("3^20000", "10^3000", "primorial(200)", "primorial_square(28)"), HUGE[1:])),
        "2^4423-1": str(M4423), "(2^61-1)^40": str(M61**40), "semiprime": str(SEMIPRIME),
        # Unreadable: a part that is not an integer, an empty part, and one
        # entry more than a list of fixed length holds.
        "x": "x", "empty": "", "1,2": "1,2",
    }
CAPS_BY_CODE = {"P": "prime bits", "W": "power bits", "U": "unit classes", "E": "elimination bits"}
READS = {"--matrix": "matrix", "--primes": "primes", "--q": "point", "--signature": "signature",
         "--coeffs": "coefficients", "--solution": "solution"}

# One row per value-taking flag of each command, in the parser's order, over
# 0 -1 2 | +-2^400000 | 3^20000 10^3000 primorial(200) primorial_square(28) |
# 2^4423-1 (2^61-1)^40 semiprime | x empty 1,2.
GRID = (
    ("snf --matrix {},2;3,4", "000 EE 0000 000 rrr"),
    ("h1 --primes {} --n 2", "110 11 1111 PP1 r01"),
    ("h1 --primes 2 --n {}", "110 U1 UUUU UUU rrr"),
    ("stack-point --q 1:{} --signature 2,3,7", "000 00 0000 000 rrr"),
    ("stack-point --q 1:1 --signature {},3,7", "110 01 0000 000 rrr"),
    ("stack-point --q 1:1 --signature 2,3,7 --primes {}", "110 01 0000 000 r01"),
    ("classify --signature {},3,7", "110 01 0000 000 rrr"),
    ("enumerate --signature {},3,7 --coeffs 1,1,1 --bound 3", "110 01 0000 000 rrr"),
    ("enumerate --signature 2,3,7 --coeffs {},1,1 --bound 3", "100 00 0000 000 rrr"),
    ("enumerate --signature 2,3,7 --coeffs 1,1,1 --bound {}", "110 W1 WWWW WWW rrr"),
    ("jmap --signature {},3,7 --coeffs 1,1,1 --solution 3,-2,-1", "110 W1 WWWW WWW rrr"),
    ("jmap --signature 2,3,7 --coeffs 1,{},1 --solution 1,1,1", "111 11 1111 111 rrr"),
    ("jmap --signature 2,3,7 --coeffs 1,1,1 --solution {},-2,-1", "111 11 1111 111 rrr"),
    ("recover --q {}:1 --signature 2,3,7 --coeffs 1,1,1", "011 11 1111 111 rrr"),
    ("recover --q 1:1 --signature {},3,7 --coeffs 1,1,1", "110 01 0000 000 rrr"),
    ("recover --q 1:1 --signature 2,3,7 --coeffs 1,1,{}", "100 00 0000 000 rrr"),
    ("recover --q 1:1 --signature 2,3,7 --coeffs 1,1,1 --primes {}", "110 01 0000 000 r01"),
    ("verify-inclusion --signature {},3,7 --coeffs 1,1,1 --bound 2", "110 01 0000 000 rrr"),
    ("verify-inclusion --signature 2,3,7 --coeffs {},1,1 --bound 2", "100 00 0000 000 rrr"),
    ("verify-inclusion --signature 2,3,7 --coeffs 1,1,1 --bound {}", "110 W1 WWWW WWW rrr"),
    ("torsion --d {}", "100 00 0000 000 rrr"),
    ("sieve442 --bound {}", "110 W1 WWWW WWW rrr"),
)


def unsplit(n):
    """verify-inclusion over 2,3,7 leaving n unsplit, right after its ring."""
    return {"ring": "Z[1/{2,3,7}]", "unsplit": [str(n)], "solutions": ANY, "passed": True}


# What some cells print beyond their outcome: payload keys in payload order,
# None for a key that must be absent and ANY for one not checked; or a part of
# the error message.  verify-inclusion prints the primes up to 10^4 as its
# ring and the rest of |abcABC| unsplit, never factored: a semiprime, a prime
# and a prime power alike.  h1 tests a prime given; stack-point and recover
# take --primes as generators, test none and print them as the ring.
WANT = {
    ("verify-inclusion--coeffs", "semiprime"): unsplit(SEMIPRIME),
    ("verify-inclusion--coeffs", "2^4423-1"): unsplit(M4423),
    ("verify-inclusion--coeffs", "(2^61-1)^40"): unsplit(M61**40),
    ("h1--primes", "(2^61-1)^40"): "testing a 2440-bit number",
    **{
        (row, column): {"ring": f"Z[1/{{{n}}}]"}
        for row in ("stack-point--primes", "recover--primes")
        for column, n in (("semiprime", SEMIPRIME), ("2^4423-1", M4423))
    },
}
# Seconds a cell may take, by cell, else by column, else 2.  Reading and
# printing 120,412 digits takes up to 1.5 s (2-core VM, Python 3.11).
SECONDS = {"2^400000": 5, "-2^400000": 5}


def fill(template, value):
    return [word.replace("{}", value) for word in template.split()]


def snf_past_the_cap():
    # Unsized, the first ran 13.6 s in smith_normal_form and the second ran
    # 10 s and printed 29 MB.
    rng = random.Random(64)
    for n, bound in ((64, 10**28 - 1), (100, 99)):
        rows = (",".join(str(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n))
        yield ["snf", "--matrix=" + ";".join(rows)], "E", f"{n}x{n} matrix", 1


def past_the_trial_bound():
    # What the primes up to 10^4 leave is printed unsplit, whether it is a
    # power, its base within the prime-bits cap or past it, or a non-power.
    verify = "verify-inclusion --signature 2,3,7 --coeffs {},1,1 --bound 1"
    # An odd non-power of 400,001 bits free of the primes up to 10^4: about
    # 120,400 digits, under the 128 KB an argv word may hold.
    big = random.Random(400001).getrandbits(400000) | 1 << 400000 | 1
    while math.gcd(big, exact._PRIMORIAL) > 1:
        big += 2
    for n in ((2**1279 - 1) ** 2, M4423**3, big):
        yield fill(verify, str(n)), "0", unsplit(n), 5


# name -> [(argv, outcome, want, seconds)], each as for a grid cell.
with any_int_size():
    NAMED = {
        "snf-past-the-elimination-cap": list(snf_past_the_cap()),
        "verify-inclusion-past-the-trial-bound": list(past_the_trial_bound()),
        # Dividing 2 out of 2^400000 one power at a time took 42 s (2-core
        # x86-64 VM, Python 3.11).
        "stack-point-dividing-2-out-of-a-power-of-2": [
            (fill("stack-point --q {}:1 --signature 2,3,7 --primes 2", HUGE[0]), "0", None, 5),
        ],
        # torsion takes a fourth root of -d/4.
        "torsion-at-the-huge-values-negated": [
            (["torsion", "--d", f"-{value}"], "0", None, 2) for value in (*HUGE[1:], str(M4423))
        ],
    }


def grid_row(template, outcomes):
    """(name, cells) of a grid row: its command and flag run together, as
    h1--primes, and for each column a cell (column, argv, outcome, want,
    seconds)."""
    words = template.split()
    flag = next(words[i - 1] for i, word in enumerate(words) if "{}" in word)
    row = words[0] + flag
    cells = []
    for (column, value), outcome in zip(COLUMNS.items(), outcomes.replace(" ", ""), strict=True):
        want = WANT.get((row, column))
        if outcome == "r":
            outcome = "1"
            want = f"bad {READS[flag]}: " if flag in READS else f"argument {flag}: invalid int"
        seconds = SECONDS.get((row, column), SECONDS.get(column, 2))
        cells.append((column, fill(template, value), outcome, want, seconds))
    return row, cells


def numbered(cells):
    return [(str(i), *cell) for i, cell in enumerate(cells)]


ROWS = dict(grid_row(*row) for row in GRID) | {
    name: numbered(cells) for name, cells in NAMED.items()
}

# Two more named rows, each run by a test of its own below: the cheap cells
# with an exponent or a count past any table, and the builds refused at a cap.
CHEAP = numbered([
    (f"enumerate --signature 2,{P},{P} --coeffs 1,1,1 --bound 1".split(), "0",
     {"solutions": [["-1", "-1", "0"], ["-1", "0", "-1"], ["0", "-1", "1"],
                    ["0", "1", "-1"], ["1", "-1", "0"], ["1", "0", "-1"]]}, 2),
    (f"stack-point --q 5:1 --signature {P},3,2".split(), "0",
     {"failed": ["s", "s-t"], "accepted": False}, 2),
    ("h1 --primes 2,3,5,7,11 --n 13".split(), "0", {"count": "371293"}, 2),
])
OVERSIZED = numbered([
    (f"enumerate --signature {P},{P},2 --coeffs 1,1,-1 --bound 3".split(), "W", None, 5),
    (f"jmap --signature {P},3,2 --coeffs 1,1,1 --solution 10,1,1".split(), "W", None, 5),
    (f"jmap --signature {P},3,2 --coeffs 1,1,1 --solution 2,1,1".split(), "W", None, 5),
    ("h1 --primes 2,3,5,7,11 --n 40".split(), "U", None, 5),
    # n ** |S| has 60 million digits: the count must stop at the cap.
    (["h1", "--primes", ",".join(map(str, FIRST_PRIMES)), "--n", "1" + "0" * 30000],
     "U", None, 5),
    # Three primes of 2,407 bits in all: each is within the cap, the list
    # is not, and it is refused before any is tested.
    (fill("h1 --primes {} --n 2", f"{2**521 - 1},{2**607 - 1},{2**1279 - 1}"), "P", None, 5),
])


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_row(row, cells):
    # A forked child starts with every layer loaded, and forking is safe while
    # this process runs one thread.  An error prints one JSON object and no
    # output; a traceback fails the test, as does a cell 10 s past its seconds.
    assert threading.active_count() == 1
    with multiprocessing.get_context("fork").Pool(1, _limit_address_space) as pool:
        for column, argv, expected, want, seconds in cells:
            start = time.perf_counter()
            code, out, err = pool.apply_async(outcome, (argv,)).get(seconds + 10)
            cell, took = (row, column), time.perf_counter() - start
            assert took < seconds, (cell, took)
            if expected == "0":
                assert (code, err) == (0, ""), (cell, code, err[:2000])
                kept = [(k, v) for k, v in json.loads(out).items() if k in (want or ())]
                assert kept == [(k, v) for k, v in (want or {}).items() if v is not None], cell
                continue
            cap = CAPS_BY_CODE.get(expected)
            assert (code, out) == (2 if cap else 1, ""), (cell, code, err[:2000])
            error = json.loads(err)
            kind = "work-limit-exceeded" if cap else "invalid-input"
            assert (error["error"], error.get("cap")) == (kind, cap), (cell, error)
            assert cap is None or f"{cap} cap of " in error["message"], cell
            assert want is None or want in error["message"], (cell, error["message"][:2000])


@pytest.mark.parametrize("row", ROWS)
def test_hostile_inputs_end_as_the_table_says(row):
    run_row(row, ROWS[row])


def test_cheap_inputs_with_huge_exponents_still_answer():
    run_row("cheap", CHEAP)


def test_oversized_builds_exit_2_naming_their_cap():
    run_row("oversized", OVERSIZED)


def test_every_value_taking_flag_has_a_grid_row():
    # A flag that takes a value and has no row fails here; switches have none.
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [grid_row(*row)[0] for row in GRID] == [
        name + flag
        for name, parser in sub.choices.items()
        for action in parser._actions if action.nargs != 0
        for flag in action.option_strings
    ]


# Argument strategies for the fuzz below: lists of small values that are
# mostly valid for their role, with 0, -1 and P among them, and for entries,
# triples and points also huge ones; bounds are at most 60.  Hypothesis
# draws the ends of a tuple more often than its middle, so the values that
# make a command invalid sit inside.
# Signatures draw from 2 to 7 and P, which ends their tuple: 0 and -1 would
# make most of them invalid, and test_invalid_inputs_exit_1 pins those.
def joined(values, size, sep=","):
    return st.lists(st.sampled_from(values), min_size=size, max_size=size).map(
        lambda drawn: sep.join(map(str, drawn))
    )


SMALL = (1, -3, 0, 2, P, -1, 3, 5, 7, 12)
ENTRY = joined(SMALL + HUGE, 1)
BOUND = st.integers(0, 60)
FLAG = st.booleans()
SIGNATURE = joined((2, 3, 4, 5, 7, P), 3)
# The square of the product of the first 28 primes has 3^28 divisors.
# Recovery once tried each that passed an exponent congruence, 2^28 of them
# at (0:1) on (2,2,2), and ran out of memory.  M4423, a prime past the
# prime-bits cap, is drawn as a coefficient and as a prime.
COEFFS = joined((1, -3, 0, 2, P, -1, 3, 5, M4423, primorial(28) ** 2), 3)
TRIPLE = joined(SMALL + HUGE, 3)
PRIMES = st.integers(0, 3).flatmap(
    lambda k: joined((2, 3, 0, 5, P, M4423, -1, 7, 13), k)
)
POINT = st.sampled_from("/:").flatmap(lambda sep: joined(SMALL + HUGE, 2, sep))
MATRIX = st.integers(1, 3).flatmap(
    lambda width: st.lists(joined(SMALL, width), min_size=1, max_size=3).map(";".join)
)


def command(name, **options):
    """argv strategy for one subcommand: each option as --flag=value or as
    the two words --flag value, and a bare --flag for a store_true option
    that draws True."""

    def argv(values):
        out = [name]
        for option, (value, joined) in values.items():
            flag = "--" + option.replace("_", "-")
            if value is True:
                out.append(flag)
            elif value is not False:
                out += [f"{flag}={value}"] if joined else [flag, str(value)]
        return out

    forms = {option: st.tuples(values, st.booleans()) for option, values in options.items()}
    return st.fixed_dictionaries(forms).map(argv)


# The options each subcommand draws, in the parser's order.
OPTIONS = {
    "snf": {"matrix": MATRIX},
    "h1": {"primes": PRIMES, "n": ENTRY},
    "stack-point": {"q": POINT, "signature": SIGNATURE, "primes": PRIMES},
    "classify": {"signature": SIGNATURE},
    "enumerate": {"signature": SIGNATURE, "coeffs": COEFFS, "bound": BOUND, "no_sieve": FLAG},
    "jmap": {"signature": SIGNATURE, "coeffs": COEFFS, "solution": TRIPLE},
    "recover": {
        "q": POINT, "signature": SIGNATURE, "coeffs": COEFFS, "primes": PRIMES,
        "search_units": FLAG,
    },
    "verify-inclusion": {"signature": SIGNATURE, "coeffs": COEFFS, "bound": BOUND},
    "torsion": {"d": ENTRY},
    "sieve442": {"bound": BOUND, "include_nonadmissible": FLAG},
}
COMMANDS = {name: command(name, **options) for name, options in OPTIONS.items()}
# The commands that classify and torsion absorbed, drawn with their old
# options: whatever follows a removed name, it is an invalid-input error.
REMOVED = {
    "chi": command("chi", signature=SIGNATURE),
    "group-structure": command("group-structure", signature=SIGNATURE),
    "twist": command("twist", d=ENTRY),
    "weights": command("weights", signature=SIGNATURE),
}


def joined_form(argv):
    """argv with each `--flag value` pair written as the one word
    `--flag=value`; no drawn value starts with `--`."""
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(*COMMANDS.values()))
def test_both_option_forms_parse_alike(argv):
    # Values such as -3,0,2 or -1:5 start with a minus sign; argparse must
    # still read them as the value of the flag before them.
    parser = cli.build_parser()
    with any_int_size():
        assert parser.parse_args(argv) == parser.parse_args(joined_form(argv))


IGNORED = ("--no-sieve", "--include-nonadmissible")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(COMMANDS["enumerate"], COMMANDS["sieve442"]))
def test_ignored_flags_change_nothing(argv):
    # The benchmark still passes both flags; each is accepted and changes
    # neither the exit code nor a byte of output.
    assume(any(word in IGNORED for word in argv))
    assert outcome(argv) == outcome([word for word in argv if word not in IGNORED])


def test_values_may_start_with_a_minus_sign(capsys):
    for argv in (
        ["enumerate", "--signature", "2,2,2", "--bound", "3", "--coeffs", "-1,1,1"],
        ["jmap", "--signature", "2,3,7", "--coeffs", "1,1,-1", "--solution", "-3,-2,1"],
        ["stack-point", "--q", "-9:1", "--signature", "2,3,7"],
        ["snf", "--matrix", "-1,2;3,4"],
        ["torsion", "--d", "-4"],
    ):
        spaced = run_cli(capsys, *argv)
        assert spaced == run_cli(capsys, *joined_form(argv)), argv
        assert spaced[0] == 0 and spaced[2] == "", (argv, spaced[2])
    payload = run_json(capsys, "stack-point", "--q", "-9:1", "--signature", "2,3,7")
    assert payload["point"] == "(-9:1)"


def test_primes_are_sorted_and_deduplicated(capsys):
    assert run_json(capsys, "h1", "--primes", "7,2,2", "--n", "2")["ring"] == "Z[1/{2,7}]"


def test_integers_print_at_any_size():
    # The largest class of Z[1/{M89}] modulo 200th powers is M89^199, 5,327
    # digits: past the interpreter's default limit of 4,300 on int/str
    # conversion, which main lifts while it runs.
    m89 = 2**89 - 1
    code, out, err, _ = run_child("h1", "--primes", m89, "--n", 200)
    assert (code, err) == (0, ""), err
    representatives = json.loads(out)["representatives"]
    with any_int_size():
        assert representatives[199] == str(m89**199)
        assert [int(r) for r in representatives] == [
            sign * m89**e for sign in (1, -1) for e in range(200)
        ]


def test_main_restores_the_digit_limit(capsys):
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        # M89^199 has 5,327 digits.
        assert run_cli(capsys, "h1", "--primes", str(2**89 - 1), "--n", "200")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run_cli(capsys, "classify", "--signature", "1,3,7")[0] == 1
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(digits)


def test_fuzz_draws_every_subcommand():
    # A subcommand or a flag added without a fuzz strategy fails here.
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(COMMANDS)
    for name, parser in sub.choices.items():
        flags = [f for a in parser._actions if a.dest != "help" for f in a.option_strings]
        assert flags == ["--" + option.replace("_", "-") for option in OPTIONS[name]], name


# The commands whose work an argument sizes get 6 runs each, the other three
# and the four removed ones 2: 56 in all.  The draws are derandomized, so
# every run of the suite makes the same 56.
SIZED = {"enumerate", "h1", "jmap", "recover", "sieve442", "stack-point", "verify-inclusion"}
# Linux refuses an argv word of 32 pages or more (MAX_ARG_STRLEN), so no
# process can be given one, such as two of the 120,412-digit values joined.
MAX_ARG_STRLEN = 32 * 4096


@pytest.mark.parametrize("name", sorted(COMMANDS | REMOVED))
def test_no_input_hangs_or_prints_a_traceback(name):
    # Each run ends inside the timeout and the address-space limit with a
    # defined exit code; an error is one JSON object on stderr, after no
    # output at all.
    @settings(
        max_examples=6 if name in SIZED else 2, deadline=None, derandomize=True, database=None
    )
    @given((COMMANDS | REMOVED)[name])
    def run(argv):
        assume(all(len(word) < MAX_ARG_STRLEN for word in argv))
        code, out, err, _ = run_child(*argv)
        assert code in (0, 1, 2, 3), (argv, err)
        if code:
            assert out == "", argv
            assert isinstance(json.loads(err), dict), argv
        else:
            assert err == "", argv
        if name in REMOVED:
            assert code == 1, argv
            assert json.loads(err)["error"] == "invalid-input", argv

    run()
