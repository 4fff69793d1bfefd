"""Tests of the benchmark itself.

    python3 -m pytest bench

They are not part of the package's test suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sieve442", "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = _last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC[section]}
    assert set(result["metrics"]) == names
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_expected_answer_counts_as_failure(tmp_path):
    expected = json.loads(run.EXPECTED_PATH.read_text())
    expected["eight_triples"] = expected["eight_triples"][1:]
    ops = run.build_sieve442(7, expected)
    samples, metrics, _ = run.run_traced("sieve442", ops, 0, float("inf"), tmp_path / "spans.jsonl")
    assert samples and all(s.error for s in samples)
    assert metrics["failed_frac"][0] > 0


def test_inclusion_equations_match_the_acceptance_oracle():
    sys.path.insert(0, str(run.ROOT / "tests"))
    oracles = pytest.importorskip("oracles")
    drawn = run.draw_gfes(20260810, 25)
    want = [(tuple(F.sig), (F.A, F.B, F.C)) for F in oracles.random_gfes(20260810, 25)]
    assert drawn == want


def test_op_time_is_the_median_repetition():
    samples = [run.Sample("a", 9.0, None), run.Sample("b", 0.5, None), run.Sample("a", 1.0, None),
               run.Sample("b", 0.7, None), run.Sample("a", 2.0, None)]
    assert run.op_times(samples) == {"a": 2.0, "b": 0.6}


def test_refuses_to_run_without_the_package(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=skip)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sieve442", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
