"""Golden CLI corpus: the exact stdout of every README example and of
`enumerate` over the benchmark's shape table, compared byte for byte.

The files under tests/golden/ are the reference for refactors that promise
the same behaviour.  Regenerate them (only when a change of output is
intended) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

Only the named cases are rewritten, or every case when none is named, so
adding a case cannot silently rewrite the others.
"""

import argparse
import contextlib
import io
import json
import pathlib
import shlex
import sys

import pytest

import gfdescent.cli as cli
import gfdescent.exact as exact
import gfdescent.gfe as gfe
import gfdescent.sarith as sarith
from gfdescent.groups import Signature

from oracles import smooth_rough_coefficients

GOLDEN = pathlib.Path(__file__).with_name("golden")

# name -> argv; each case's stdout is the JSON file of its name.  The README's
# CLI section in order (a test checks that each of its lines is a case here),
# three point-test and recovery cases, three more output branches, then the
# benchmark's enumeration shapes at bound 200, then six shapes with sign or
# swap symmetry.
CASES = {
    "snf": ["snf", "--matrix", "2,-3,0;0,3,-7;-2,0,7"],
    "h1": ["h1", "--primes", "2", "--n", "4"],
    "stack-point": ["stack-point", "--q", "9/1", "--signature", "2,3,7", "--primes", ""],
    "classify": ["classify", "--signature", "2,3,5"],
    "enumerate": ["enumerate", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--bound", "100"],
    "jmap": ["jmap", "--signature", "2,3,7", "--coeffs", "1,1,1", "--solution", "3,-2,-1"],
    "recover": [
        "recover", "--q", "9:1", "--signature", "2,3,7", "--coeffs", "1,1,1", "--primes", "",
    ],
    "verify-inclusion": [
        "verify-inclusion", "--signature", "2,3,7", "--coeffs", "1,1,1", "--bound", "50",
    ],
    "torsion": ["torsion", "--d", "-4"],
    "sieve442": ["sieve442", "--bound", "1000"],
    # The certificate-root recovery at a marked point and at a smooth point,
    # and a point rejected at two coordinates (pins the order of `failed`).
    "recover-marked-units": [
        "recover", "--q", "1:1", "--signature", "2,3,7", "--coeffs", "1,1,1", "--search-units",
    ],
    "recover-smooth-units": [
        "recover", "--q", "1:2", "--signature", "4,4,2", "--coeffs", "1,1,-1",
        "--primes", "2", "--search-units",
    ],
    "stack-point-rejected": ["stack-point", "--q", "2/3", "--signature", "2,2,2", "--primes", ""],
    # The other output branches: a hyperbolic and two euclidean signatures,
    # one of them (4,4,2) with the torsion [2, 4] and the weights (1, 1, 2),
    # and a point accepted at a marked point.
    "classify-237": ["classify", "--signature", "2,3,7"],
    "classify-333": ["classify", "--signature", "3,3,3"],
    "classify-442": ["classify", "--signature", "4,4,2"],
    "stack-point-marked": ["stack-point", "--q", "0:1", "--signature", "4,4,2", "--primes", "2"],
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
# --no-sieve is accepted and ignored: each flagged case prints its
# unflagged twin's file.
SAME_AS = {name: name.removesuffix("-no-sieve") for name in CASES if name.endswith("-no-sieve")}
# Shapes whose solutions the enumerator folds by symmetry: swap x <-> y only,
# both negation and swap, negation only, x <-> y with A = -B (a match up to
# the sign of y, and under negation), y <-> z matching up to the sign of z
# with y as the outer term, and x <-> z matching up to the sign of z.
for _name, _sig, _coeffs, _bound in (
    ("enumerate-332-swap", "3,3,2", "1,1,-1", "300"),
    ("enumerate-333-negation-swap", "3,3,3", "1,1,-2", "200"),
    ("enumerate-533-negation", "5,3,3", "1,1,1", "200"),
    ("enumerate-333-near-miss", "3,3,3", "1,-1,1", "200"),
    ("enumerate-233-y-z-match", "2,3,3", "1,1,-1", "200"),
    ("enumerate-323-x-z-match", "3,2,3", "2,7,-2", "200"),
):
    CASES[_name] = ["enumerate", "--signature", _sig, "--coeffs", _coeffs, "--bound", _bound]


# name -> argv for the commands that classify and torsion absorbed.  Each
# file is the removed command's last output, kept as it was: the new output,
# cut down to that file's keys in that file's order, must match it byte for
# byte.  They are records, so main() does not rewrite them.
ABSORBED = {
    "chi": ["classify", "--signature", "2,3,7"],
    "twist": ["torsion", "--d", "-4"],
    "weights": ["classify", "--signature", "2,3,7"],
}

# The last output of the removed search for points of height at most 12 on
# the six non-admissible twists, kept as a record like the files above.  The
# flag is now accepted and ignored; the search's sources end in "(height
# 12)", and without them the file must be the flagged output byte for byte.
NONADMISSIBLE = "sieve442-nonadmissible"
NONADMISSIBLE_ARGV = ["sieve442", "--bound", "1000", "--include-nonadmissible"]


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN / f"{SAME_AS.get(name, name)}.json"


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return out.getvalue()


def assert_prints_golden(name):
    golden = golden_path(name).read_text()
    if name in CASES:
        assert run(CASES[name]) == golden, name
    else:
        out = json.loads(run(ABSORBED[name]))
        kept = {key: out[key] for key in json.loads(golden)}
        assert json.dumps(kept, indent=2) + "\n" == golden, name


@pytest.mark.parametrize("name", sorted(CASES | ABSORBED))
def test_cli_output_matches_golden(name):
    assert_prints_golden(name)


def test_nonadmissible_record_less_its_search_is_the_output():
    record = json.loads(golden_path(NONADMISSIBLE).read_text())
    for candidate in record["candidates"]:
        candidate["sources"] = [
            source for source in candidate["sources"] if not source.endswith(" (height 12)")
        ]
    record["candidates"] = [c for c in record["candidates"] if c["sources"]]
    assert run(NONADMISSIBLE_ARGV) == json.dumps(record, indent=2) + "\n"


def test_only_factorize_reaches_rho(monkeypatch):
    # No command factors, runs rho or splits a power: with all three
    # refused, the whole golden corpus, recovery among it, prints as before.
    # bad_prime_set, the ring that verify-inclusion prints and sieve442 takes
    # its unit classes over, tests no primality either, as building no ring
    # does: its generators are the trial primes of abcABC, and only the unit
    # classes test them.
    def refuse(*args, **kwargs):
        raise AssertionError(f"called on {args}")

    monkeypatch.setattr(exact, "factorize", refuse)
    monkeypatch.setattr(exact, "_brent_rho", refuse)
    monkeypatch.setattr(exact, "_split_power", refuse)
    assert {"recover", "recover-marked-units", "recover-smooth-units"} <= set(CASES)
    for name in sorted(CASES | ABSORBED):
        assert_prints_golden(name)
    with monkeypatch.context() as m:
        m.setattr(exact, "is_probable_prime", refuse)
        m.setattr(sarith, "is_probable_prime", refuse)
        for A, rough, C in smooth_rough_coefficients():
            N = 42 * A * rough
            want = tuple(p for p in exact._TRIAL_PRIMES if N % p == 0)
            assert gfe.bad_prime_set(gfe.GFE(Signature(2, 3, 7), A, rough, C)).generators == want


def test_every_golden_file_has_a_case():
    on_disk = {p.name for p in GOLDEN.iterdir()}
    # snf-corpus.json is the Smith-form corpus that tests/test_smith.py owns.
    cases = {golden_path(name).name for name in [*CASES, *ABSORBED, NONADMISSIBLE]}
    assert on_disk == cases | {"snf-corpus.json"}
    # A --no-sieve case has no file of its own: it prints its twin's.
    assert len(SAME_AS) == 3 and set(SAME_AS.values()) <= set(CASES) - set(SAME_AS)


def test_every_subcommand_has_a_golden_case():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted({argv[0] for argv in CASES.values()})


def test_every_json_leaf_is_a_string_or_bool():
    def leaves(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, list):
            return [leaf for x in v for leaf in leaves(x)]
        return [v]

    for path in sorted(GOLDEN.glob("*.json")):
        if path.name == "snf-corpus.json":
            continue
        for leaf in leaves(json.loads(path.read_text())):
            assert isinstance(leaf, (str, bool)), (path.name, leaf)


def readme_block(heading: str) -> str:
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(f"\n## {heading}\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_are_golden_cases():
    block = readme_block("CLI")
    examples = [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gfdescent ")
    ]
    assert examples
    for argv in examples:
        assert argv in CASES.values(), argv


def test_readme_pipeline_example_is_a_golden_case():
    # The example's command, without its `| head`.
    (line,) = readme_block("Example: the exponent-4 pipeline end to end").splitlines()
    command, _, pager = line.removeprefix("$ ").partition(" | ")
    assert pager.startswith("head")
    assert shlex.split(command)[1:] in CASES.values(), command


def main(names) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown golden case(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name in names or CASES:
        if name not in SAME_AS:
            golden_path(name).write_text(run(CASES[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
