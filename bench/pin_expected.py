"""Regenerate bench/expected.json, the pinned answers of the CLI workloads.

    PYTHONPATH=tests python3 bench/pin_expected.py

Every solution set comes from tests/oracles.brute_force_solutions_zdict, the
no-root oracle, never from the package.  Takes about a minute.
"""

import json
from pathlib import Path
from types import SimpleNamespace

from oracles import brute_force_solutions_zdict

from run import EXPECTED_PATH, SHAPES, SIEVE_BOUND, shape_key


def solve(sig: str, coeffs: str, bound: int) -> list[list[int]]:
    a, b, c = (int(v) for v in sig.split(","))
    A, B, C = (int(v) for v in coeffs.split(","))
    F = SimpleNamespace(sig=(a, b, c), A=A, B=B, C=C)
    return [list(t) for t in brute_force_solutions_zdict(F, bound)]


def main():
    shapes = {}
    for sig, coeffs, bound, _ in SHAPES:
        key = shape_key(sig, coeffs, bound)
        if key not in shapes:
            shapes[key] = solve(sig, coeffs, bound)
            print(key, len(shapes[key]), flush=True)
    expected = {
        "oracle": "tests/oracles.brute_force_solutions_zdict",
        "eight_triples": solve("4,4,2", "1,1,-1", SIEVE_BOUND),
        "shapes": shapes,
    }
    text = json.dumps(expected, separators=(",", ":"))
    Path(EXPECTED_PATH).write_text(text + "\n")


if __name__ == "__main__":
    main()
