import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import time
from itertools import islice, product

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
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    argv = ["enumerate", "--signature", "2,2,2", "--coeffs", "1,1,-1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gfdescent.cli", *argv, "--bound", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""


# Children of the tests below run under this address-space limit, so that a
# build nobody sized shows up as a MemoryError rather than as swapping.
ADDRESS_SPACE = 1536 << 20
P = 10**9 + 7  # a prime, and an ordinary exponent for the equations
# A Mersenne prime of 4,423 bits: past the prime-bits cap, whose full test
# took 3.0 s (2-core x86-64 VM, Python 3.11).
M4423 = 2**4423 - 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_child(*argv, timeout=30):
    """(exit code, stdout, stderr, seconds) of `python -m gfdescent.cli argv`
    in a fresh process under ADDRESS_SPACE."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gfdescent.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=_limit_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def assert_unsplit(argv, unsplit, within=5):
    """verify-inclusion on argv exits 0 within the seconds given and passes
    over Z[1/{2,3,7}], with the rest of the coefficients printed as unsplit."""
    code, out, err, seconds = run_child(*argv)
    assert (code, err) == (0, ""), err
    payload = json.loads(out)
    assert payload["ring"] == "Z[1/{2,3,7}]" and payload["passed"] is True
    assert payload["unsplit"] == [str(unsplit)]
    assert list(payload)[3] == "unsplit"
    assert seconds < within


def test_rho_cap_ends_in_seconds_on_a_128_bit_semiprime():
    # Rho would need about 2^32 steps to split two 64-bit primes.  Charged
    # twice per step, for the product's two 64-bit words, the cap ends it
    # after 2.5 M steps, about 3 s; counting steps alone took 6.3 s (2-core
    # VM, Python 3.11).  The verdicts need no split, so the command answers
    # with the semiprime unsplit, after the same rho run on its printed ring
    # (3.1-4.2 s end to end there, hence the margin).
    n = (2**64 - 59) * (2**63 - 25)
    argv = ["verify-inclusion", "--signature", "2,3,7", "--coeffs", f"{n},1,1", "--bound", 2]
    assert_unsplit(argv, n, within=6)


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


def test_cheap_inputs_with_huge_exponents_still_answer():
    code, out, err, _ = run_child(
        "enumerate", "--signature", f"2,{P},{P}", "--coeffs", "1,1,1", "--bound", 1
    )
    assert code == 0, err
    assert json.loads(out)["solutions"] == [
        ["-1", "-1", "0"], ["-1", "0", "-1"], ["0", "-1", "1"],
        ["0", "1", "-1"], ["1", "-1", "0"], ["1", "0", "-1"],
    ]
    code, out, err, seconds = run_child("stack-point", "--q", "5:1", "--signature", f"{P},3,2")
    assert code == 0, err
    assert seconds < 2
    payload = json.loads(out)
    assert payload["accepted"] is False and payload["failed"] == ["s", "s-t"]
    code, out, err, _ = run_child("h1", "--primes", "2,3,5,7,11", "--n", 13)
    assert code == 0, err
    assert json.loads(out)["count"] == "371293"


def test_oversized_builds_exit_2_naming_their_cap():
    # The first 2,000 primes.
    primes = [p for p in range(2, 17390) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for cap, argv in (
        ("power bits", ["enumerate", "--signature", f"{P},{P},2", "--coeffs", "1,1,-1",
                        "--bound", 3]),
        ("power bits", ["jmap", "--signature", f"{P},3,2", "--coeffs", "1,1,1",
                        "--solution", "10,1,1"]),
        ("power bits", ["jmap", "--signature", f"{P},3,2", "--coeffs", "1,1,1",
                        "--solution", "2,1,1"]),
        ("unit classes", ["h1", "--primes", "2,3,5,7,11", "--n", 40]),
        # n ** |S| has 60 million digits here: the count must stop at the cap.
        ("unit classes", ["h1", "--primes", ",".join(map(str, primes)),
                          "--n", "1" + "0" * 30000]),
        # Before the cap these took 3.4 s and 6.7 s (2-core x86-64 VM); the
        # second tested the prime twice, in factoring and in building the ring.
        ("prime bits", ["h1", "--primes", M4423, "--n", 2]),
        # Three primes of 2,407 bits in all: each is within the cap, the list
        # is not, and it is refused before any is tested.
        ("prime bits", ["stack-point", "--q", "1:1", "--signature", "2,3,7", "--primes",
                        f"{2**521 - 1},{2**607 - 1},{2**1279 - 1}"]),
    ):
        code, out, err, seconds = run_child(*argv)
        assert (code, out) == (2, ""), (argv, err)
        error = json.loads(err)
        assert error["error"] == "work-limit-exceeded" and error["cap"] == cap, argv
        assert f"{cap} cap of " in error["message"], argv
        assert seconds < 5, argv
    # A coefficient is not tested: its primes beyond the trial bound are unsplit.
    assert_unsplit(
        ["verify-inclusion", "--signature", "2,3,7", "--coeffs", f"{M4423},1,1", "--bound", 1],
        M4423,
    )


def test_perfect_powers_split_before_the_prime_bits_cap():
    # factorize splits a power before it tests primality, so only a base or
    # a non-power past the cap is refused, and verify-inclusion prints it
    # unsplit.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # A 400,001-bit odd non-power free of primes up to 10^4: about
        # 120,400 digits, under the 128 KB an argv word may hold.
        rng = random.Random(400001)
        big = rng.getrandbits(400000) | 1 << 400000 | 1
        while math.gcd(big, exact._PRIMORIAL) > 1:
            big += 2
        big = str(big)
        # 1 mod every trial prime and every residue prime the power split
        # reads, so each k passes its filter: four failed roots, then the
        # refusal (one root at k = 9,973 took 6.6 s from a power of two on a
        # 2-core VM).
        qs = {q for k in exact._TRIAL_PRIMES
              for q in islice(exact._residue_primes(k), 4)}
        modulus = math.prod(qs) * exact._PRIMORIAL
        passes = 1 + modulus * random.Random(130000).getrandbits(130000 - modulus.bit_length())
        passes = str(passes)
    finally:
        sys.set_int_max_str_digits(digits)
    m61 = 2**61 - 1
    def argv(coeff):
        return ["verify-inclusion", "--signature", "2,3,7", "--coeffs", f"{coeff},1,1",
                "--bound", 1]

    for coeff, detail in (
        (m61**40, f'"ring": "Z[1/{{2,3,7,{m61}}}]"'),
        ((2**1279 - 1) ** 2, '"ring": "Z[1/{2,3,7,'),
    ):
        code, out, err, seconds = run_child(*argv(coeff))
        assert seconds < 5, detail
        assert (code, err) == (0, ""), err
        assert detail in out and '"unsplit"' not in out
    with any_int_size():
        for coeff in (M4423**3, big, passes):
            assert_unsplit(argv(coeff), int(coeff))
    # A value given as a prime is tested, not factored.
    code, out, err, seconds = run_child("h1", "--primes", m61**40, "--n", 2)
    assert (code, json.loads(err)["cap"]) == (2, "prime bits")
    assert "testing a 2440-bit number" in err and seconds < 5


def test_a_huge_prime_goes_through_every_prime_and_coefficient_flag():
    # Each flag that takes a prime or a coefficient, given M4423: a defined
    # exit code and no traceback, quickly.  A flag that tests it for
    # primality exits 2 at the prime-bits cap; verify-inclusion prints it
    # unsplit.
    sig = ["--signature", "2,3,7"]
    for argv in (
        ["h1", "--primes", M4423, "--n", 2],
        ["stack-point", "--q", "1:1", *sig, "--primes", M4423],
        ["recover", "--q", "1:1", *sig, "--coeffs", "1,1,1", "--primes", M4423],
        ["enumerate", *sig, "--coeffs", f"{M4423},1,1", "--bound", 3],
        ["jmap", *sig, "--coeffs", f"1,{M4423},1", "--solution", "1,1,1"],
        ["recover", "--q", "1:1", *sig, "--coeffs", f"1,1,{M4423}"],
        ["verify-inclusion", *sig, "--coeffs", f"{M4423},1,1", "--bound", 1],
    ):
        code, out, err, seconds = run_child(*argv)
        assert code in (0, 1, 2), (argv[0], err)
        assert "Traceback" not in err, argv[0]
        if code:
            assert out == "" and isinstance(json.loads(err), dict), argv[0]
        if "--primes" in argv:
            assert (code, json.loads(err)["cap"]) == (2, "prime bits"), argv[0]
        if argv[0] == "verify-inclusion":
            assert code == 0 and json.loads(out)["unsplit"] == [str(M4423)], err
        assert seconds < 2, argv[0]


def test_huge_prime_powers_are_divided_out_quickly():
    # Dividing 2 out of 2^400000 one power at a time took 42 s in each (2-core
    # x86-64 VM, Python 3.11).
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        big = str(2**400000)
    finally:
        sys.set_int_max_str_digits(digits)
    for argv in (
        ["stack-point", "--q", f"{big}:1", "--signature", "2,3,7", "--primes", "2"],
        ["verify-inclusion", "--signature", "2,3,7", "--coeffs", f"{big},1,1", "--bound", 2],
    ):
        code, _, err, seconds = run_child(*argv)
        assert code == 0, err
        assert seconds < 15, argv[0]


def primorial(k):
    """The product of the first k primes."""
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return math.prod(primes)


def primorial_square(k):
    """The square of the product of the first k primes."""
    return primorial(k) ** 2


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
        ("2,2,2", primorial_square(k), [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)])
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


def test_snf_is_sized_before_its_elimination():
    # Unsized, the first ran 13.6 s in smith_normal_form and the second ran
    # 10 s and printed 29 MB.
    rng = random.Random(64)
    digits = 10**28 - 1
    for rows, cols, bound in ((64, 64, digits), (100, 100, 99)):
        matrix = ";".join(
            ",".join(str(rng.randint(-bound, bound)) for _ in range(cols)) for _ in range(rows)
        )
        code, out, err, seconds = run_child("snf", f"--matrix={matrix}")
        assert (code, out) == (2, ""), err
        error = json.loads(err)
        assert error["error"] == "work-limit-exceeded"
        assert error["cap"] == "elimination bits"
        assert f"{rows}x{cols} matrix" in error["message"]
        assert seconds < 1


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
# Structured values of up to 120,412 digits, written out once because str()
# of the largest takes about 0.3 s: powers of 2, 3 and 10, a product of many
# small primes and the square of one.
with any_int_size():
    HUGE = tuple(
        str(n) for n in (2**400000, 3**20000, 10**3000, primorial(200), primorial_square(28))
    )
ENTRY = joined(SMALL + HUGE, 1)
BOUND = st.integers(0, 60)
FLAG = st.booleans()
SIGNATURE = joined((2, 3, 4, 5, 7, P), 3)
# The square of the product of the first 28 primes has 3^28 divisors.
# Recovery once tried each that passed an exponent congruence, 2^28 of them
# at (0:1) on (2,2,2), and ran out of memory.  M4423, a prime past the
# prime-bits cap, is drawn as a coefficient and as a prime.
COEFFS = joined((1, -3, 0, 2, P, -1, 3, 5, M4423, primorial_square(28)), 3)
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


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_every_huge_value_goes_through_the_root_taking_flags():
    # Which huge values the fuzz gate below draws depends on the source of
    # its body, so each goes through the two flags that take roots of their
    # value here on purpose: a defined exit code and no traceback.
    for value in HUGE + (str(M4423),):
        for argv in (
            ["stack-point", "--q", f"1:{value}", "--signature", "2,3,7"],
            ["torsion", "--d", f"-{value}"],
        ):
            code, out, err = outcome(argv)
            assert code in (0, 1, 2), (argv[0], value[:20], err)
            if code:
                assert out == "" and isinstance(json.loads(err), dict), (argv[0], value[:20])


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
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert representatives[199] == str(m89**199)
        assert [int(r) for r in representatives] == [
            sign * m89**e for sign in (1, -1) for e in range(200)
        ]
    finally:
        sys.set_int_max_str_digits(digits)


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
