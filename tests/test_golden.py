"""Golden CLI corpus: the exact stdout of every README example and of
`enumerate` over the benchmark's shape table, compared byte for byte.

The files under tests/golden/ are the reference for refactors that promise
the same behaviour.  Regenerate them (only when a change of output is
intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

import gfdescent.cli as cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

# name -> argv.  The README's CLI section in order, its text-format example,
# then the benchmark's enumeration shapes at bound 200.
CASES = {
    "snf": ["snf", "--matrix", "2,-3,0;0,3,-7;-2,0,7"],
    "weights": ["weights", "--signature", "2,3,7"],
    "group-structure": ["group-structure", "--signature", "4,4,2"],
    "h1": ["h1", "--primes", "2", "--n", "4"],
    "stack-point": ["stack-point", "--q", "9/1", "--signature", "2,3,7", "--primes", ""],
    "chi": ["chi", "--signature", "2,3,7"],
    "classify": ["classify", "--signature", "2,3,5"],
    "enumerate": ["enumerate", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--bound", "100"],
    "jmap": ["jmap", "--signature", "2,3,7", "--coeffs", "1,1,1", "--solution", "3,-2,-1"],
    "recover": [
        "recover", "--q", "9:1", "--signature", "2,3,7", "--coeffs", "1,1,1", "--primes", "",
    ],
    "verify-inclusion": [
        "verify-inclusion", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "50",
    ],
    "twist": ["twist", "--d", "-4"],
    "torsion": ["torsion", "--d", "-4"],
    "sieve442": ["sieve442", "--bound", "1000"],
    "sieve442-text": ["--format", "text", "sieve442", "--bound", "1000"],
}
for _sig, _coeffs, _sieve in (
    ("4,4,2", "1,1,-1", True),
    ("4,4,2", "1,1,-1", False),
    ("2,3,7", "1,1,1", True),
    ("2,3,7", "1,1,1", False),
    ("5,2,3", "2,-1,3", True),
    ("5,2,3", "2,-1,3", False),
    ("2,2,2", "1,1,-1", True),
    ("7,7,7", "1,1,-1", True),
):
    _name = f"enumerate-{_sig.replace(',', '')}" + ("" if _sieve else "-no-sieve")
    CASES[_name] = (
        ["enumerate", "--signature", _sig, "--coeffs", _coeffs, "--bound", "200"]
        + ([] if _sieve else ["--no-sieve"])
    )


def golden_path(name: str) -> pathlib.Path:
    suffix = ".txt" if "text" in CASES[name] else ".json"
    return GOLDEN / f"{name}{suffix}"


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert run(CASES[name]) == golden_path(name).read_text()


def test_every_golden_file_has_a_case():
    on_disk = {p.name for p in GOLDEN.iterdir()}
    # snf-corpus.json is the Smith-form corpus that tests/test_smith.py owns.
    assert on_disk == {golden_path(name).name for name in CASES} | {"snf-corpus.json"}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        golden_path(name).write_text(run(argv))
