import json
import os
import pathlib
import subprocess
import sys

import gfdescent.belyi as belyi
import gfdescent.cli as cli
import gfdescent.exact as exact
import gfdescent.quartic as quartic


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
    payload = run_json(capsys, "weights", "--signature", "2,3,7")
    assert payload["w"] == ["21", "14", "6"]
    payload = run_json(capsys, "group-structure", "--signature", "4,4,2")
    assert payload["torsion"] == ["2", "4"]


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
    monkeypatch.setattr(cli, "is_stack_point", counted)
    monkeypatch.setattr(belyi, "is_stack_point", counted)
    payload = run_json(capsys, "stack-point", "--q", "0:1", "--signature", "4,4,2", "--primes", "2")
    assert payload["status"] == "marked" and payload["automorphism_order"] == "2"
    payload = run_json(capsys, "stack-point", "--q", "9/1", "--signature", "2,3,7", "--primes", "")
    assert payload["automorphism_order"] == "1"
    assert len(calls) == 2


def test_chi_and_classify(capsys):
    assert run_json(capsys, "chi", "--signature", "2,3,7")["chi"] == "-1/42"
    payload = run_json(capsys, "classify", "--signature", "2,3,5")
    assert payload["degree"] == "60" and payload["kind"] == "spherical"


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
    assert run_json(capsys, "twist", "--d", "-4")["equation"] == "v^2*w = u^3 + 4*u*w^2"
    payload = run_json(capsys, "torsion", "--d", "-4")
    assert payload["order"] == "4"
    payload = run_json(capsys, "torsion", "--d", "1000003")  # a prime
    assert payload == {"d": "1000003", "order": "2", "points": ["O", "(0, 0)"]}
    payload = run_json(capsys, "sieve442", "--bound", "60")
    assert len(payload["solutions"]) == 8
    assert payload["admissible_twists"] == ["-4", "-1"]


def test_text_format_same_data(capsys):
    payload = run_json(capsys, "chi", "--signature", "4,4,2")
    code, out, _ = run_cli(capsys, "--format", "text", "chi", "--signature", "4,4,2")
    assert code == 0
    assert "chi: 0" in out and "signature: (4,4,2)" in out
    assert payload["chi"] == "0"


def test_json_round_trips(capsys):
    payload = run_json(capsys, "sieve442", "--bound", "50")
    assert json.loads(json.dumps(payload)) == payload


def test_invalid_inputs_exit_1(capsys):
    for argv in (
        ["chi", "--signature", "1,3,7"],
        ["enumerate", "--signature", "2,3,7", "--coeffs", "0,1,1", "--bound", "5"],
        ["enumerate", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "10",
         "--sieve-primes", "3"],
        ["enumerate", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "0"],
        ["stack-point", "--q", "0/0", "--signature", "2,3,7"],
        ["stack-point", "--q", "1/2/3", "--signature", "2,3,7"],
        ["stack-point", "--q", "a/b", "--signature", "2,3,7"],
        ["chi", "--signature", "2,x,7"],
        ["h1", "--primes", "2,x"],
        ["h1", "--primes", "2,4"],
        ["h1", "--primes", "2", "--n", "1"],
        ["snf", "--matrix", "1,2;3"],
        ["snf", "--matrix", "1,a;2,3"],
        ["weights", "--signature", "2,3"],
        ["nonsense"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""  # no partial output
        assert json.loads(err)["error"] == "invalid-input"


def test_work_limit_exit_2(capsys, monkeypatch):
    # At the real cap this input takes seconds to exhaust; a cap of 1 reaches
    # the same exit at once.
    monkeypatch.setattr(exact, "DEFAULT_RHO_ITERATION_CAP", 1)
    big = str((2**89 - 1) * (2**107 - 1))
    code, out, err = run_cli(
        capsys, "verify-inclusion", "--signature", "2,3,7",
        "--coeffs", f"{big},1,1", "--bound", "2",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "work-limit-exceeded"


def test_pipeline_mismatch_exit_3(capsys, monkeypatch):
    from gfdescent.errors import PipelineMismatch

    def boom(*args, **kwargs):
        raise PipelineMismatch("forced")

    monkeypatch.setattr(quartic, "run_sieve_442", boom)
    code, _, err = run_cli(capsys, "sieve442", "--bound", "10")
    assert code == 3
    assert json.loads(err)["error"] == "pipeline-mismatch"


def test_sieve442_nonpositive_height_is_invalid_input(capsys):
    base = ("sieve442", "--bound", "10")
    for argv in (
        base + ("--include-nonadmissible", "--height", "0"),
        base + ("--include-nonadmissible", "--height", "-3"),
        base + ("--height", "-3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "invalid-input"


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
    argv = ["--format", "text", "enumerate", "--signature", "2,2,2", "--coeffs", "1,1,-1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gfdescent.cli", *argv, "--bound", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=env,
    )
    assert proc.stdout.readline() == b"equation: x^2 + y^2 - z^2 = 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""
