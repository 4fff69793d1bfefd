"""The loop ledger: every loop in a ledgered module, classified by what bounds it.

Each `for`, `while` and comprehension is keyed by its enclosing function (a
qualified name, `<module>` at top level) and its ordinal there in source
order, and the ledger gives its kind and one of four classes:

- `constant`: bounded by a constant of the module, named in the reason;
- `linear`: linear in the size of the input, for the reason given;
- `cap`: under the named cap, which raises WorkLimitExceeded when spent;
- `dominated`: runs no more often than the ledger entry it names.

A loop that is added, removed or moved to another function fails the test
until the ledger is updated to match.
"""

import ast
import itertools
import pathlib

import pytest

import gfdescent
from gfdescent import exact

SRC = pathlib.Path(gfdescent.__file__).parent

LOOP_KINDS = {
    ast.For: "for",
    ast.While: "while",
    ast.ListComp: "comprehension",
    ast.SetComp: "comprehension",
    ast.DictComp: "comprehension",
    ast.GeneratorExp: "comprehension",
}

LEDGER = {
    "exact": {
        ("<module>", 0): ("comprehension", "constant",
                          "20 blocks of 64 of the 1,229 trial primes, at import"),
        ("_primes_up_to", 0): ("for", "constant",
                               "called once, at import, with n = TRIAL_DIVISION_BOUND"),
        ("is_probable_prime", 0): ("for", "constant", "the 13 _SMALL_PRIMES"),
        ("is_probable_prime", 1): ("while", "cap", "prime bits"),
        ("is_probable_prime", 2): ("for", "constant", "at most the 13 _SMALL_PRIMES"),
        ("is_probable_prime", 3): ("for", "cap", "prime bits"),
        ("Factorization.primes", 0): ("comprehension", "linear",
                                      "one step per prime factor, at most the bits of n"),
        ("_brent_rho", 0): ("while", "cap", "rho work"),
        # Round r advances r steps and then charges up to r steps.
        ("_brent_rho", 1): ("for", "dominated", ("_brent_rho", 2)),
        ("_brent_rho", 2): ("while", "cap", "rho work"),
        ("_brent_rho", 3): ("for", "constant", "at most m = 128 steps, each charged"),
        ("_brent_rho", 4): ("while", "cap", "rho work"),
        ("_residue_primes", 0): ("for", "constant",
                                 "q < TRIAL_DIVISION_BOUND^2; see the test below"),
        # Each k reads four residues; a root is taken only where they pass,
        # and past the prime-bits cap the loop stops after four roots that fail.
        ("_split_power", 0): ("for", "constant",
                              "the 1,229 _TRIAL_PRIMES, at most four failed roots "
                              "past the prime-bits cap"),
        ("_split_power", 1): ("comprehension", "dominated", ("_residue_primes", 0)),
        ("_split_power", 2): ("comprehension", "dominated", ("_residue_primes", 0)),
        ("_divide_out", 0): ("while", "linear",
                             "each pass divides out p^(2^i), so O(log e) passes"),
        ("_divide_out", 1): ("while", "linear", "q squares each step, so O(log e) steps"),
        ("factorize", 0): ("for", "constant", "the 1,229 _TRIAL_PRIMES"),
        ("factorize", 1): ("while", "linear",
                           "each pop records a prime or pushes parts whose bits sum "
                           "to at most the cofactor's, so O(bits of n) pops"),
        ("factorize", 2): ("while", "cap", "rho work"),
        ("integer_nth_root", 0): ("while", "linear", "n halves each step"),
        ("integer_nth_root", 1): ("while", "linear",
                                  "from a start just above the root, each step cuts "
                                  "x, quadratically once n times the relative error "
                                  "is below 1: a few steps for the n < 10^4 of "
                                  "_split_power, O(n) at worst, and n < bits of v"),
    },
    "sarith": {
        ("SRing.__init__", 0): ("comprehension", "linear", "one step per prime given"),
        ("SRing.__init__", 1): ("comprehension", "linear", "one step per prime given"),
        ("SRing.__init__", 2): ("comprehension", "constant", "the 13 _SMALL_PRIMES"),
        ("SRing.__init__", 3): ("comprehension", "dominated", ("SRing.__init__", 1)),
        ("SRing.__init__", 4): ("for", "linear",
                                "one test per prime given; the primes over 64 bits are "
                                "capped in all, and each prime of at most 64 bits costs "
                                "at most 12 one-word witnesses"),
        ("SRing.__str__", 0): ("comprehension", "linear", "one step per prime of S"),
        # The count at least doubles each step and stops past the cap.
        ("s_unit_reps", 0): ("for", "cap", "unit classes"),
        ("s_unit_reps", 1): ("comprehension", "dominated", ("s_unit_reps", 0)),
        ("s_unit_reps", 2): ("for", "dominated", ("s_unit_reps", 0)),
        ("s_unit_reps", 3): ("comprehension", "cap", "unit classes"),
        ("s_unit_reps", 4): ("comprehension", "cap", "unit classes"),
        ("unit_class_key", 0): ("comprehension", "linear", "one step per prime of S"),
        # Each pass lowers some prime's exponent in g, which divides N.
        ("_strip", 0): ("while", "linear", "at most bits(N) passes"),
    },
    "gfe": {
        ("GFE._terms", 0): ("for", "constant", "the three terms"),
        ("GFE._terms", 1): ("comprehension", "constant", "the three terms"),
        # Sized against the cap before it is built: entries times at least a bit each.
        ("_value_table", 0): ("for", "cap", "power bits"),
        ("enumerate_primitive_solutions", 0): ("comprehension", "constant", "the three terms"),
        ("enumerate_primitive_solutions", 1): ("comprehension", "constant", "the three terms"),
        ("enumerate_primitive_solutions", 2): ("comprehension", "constant", "the three terms"),
        ("enumerate_primitive_solutions", 3): ("comprehension", "constant", "the three terms"),
        ("enumerate_primitive_solutions", 4): ("for", "cap", "power bits"),
        # The shorter window, whose length is added to the probes first.
        ("enumerate_primitive_solutions", 5): ("comprehension", "cap", "join probes"),
        ("enumerate_primitive_solutions", 6): ("for", "cap", "join probes"),
        ("enumerate_primitive_solutions", 7): ("for", "constant",
                                               "at most two roots per value in each of "
                                               "the three tables: eight triples"),
        ("enumerate_primitive_solutions", 8): ("comprehension", "constant",
                                               "the six permutations of the terms"),
        ("enumerate_primitive_solutions", 9): ("comprehension", "constant", "the three terms"),
        ("enumerate_primitive_solutions", 10): ("comprehension", "constant", "the three terms"),
        ("enumerate_primitive_solutions", 11): ("comprehension", "linear",
                                                "one step per joined triple and permutation "
                                                "of matching terms, at most six"),
        ("enumerate_primitive_solutions", 12): ("comprehension", "linear",
                                                "one step per triple found"),
        ("enumerate_primitive_solutions", 13): ("comprehension", "linear",
                                                "one step per solution"),
        ("_recover", 0): ("comprehension", "constant", "the three coordinates"),
        ("_recover", 1): ("for", "constant", "the two signs of mu"),
        ("_recover", 2): ("comprehension", "constant", "the three terms"),
        ("_recover", 3): ("for", "constant",
                          "at most two roots per term: eight triples per sign"),
        ("_recover", 4): ("comprehension", "dominated", ("_recover", 3)),
        ("DescentReport.violations", 0): ("comprehension", "dominated",
                                          ("verify_descent_inclusion", 0)),
        ("verify_descent_inclusion", 0): ("for", "dominated",
                                          ("enumerate_primitive_solutions", 13)),
    },
    "quartic": {
        ("admissible_twists", 0): ("comprehension", "linear",
                                   "one step per representative, of which s_unit_reps "
                                   "builds at most its unit-classes cap"),
        ("run_sieve_442", 0): ("comprehension", "constant", "the three marked points"),
        ("run_sieve_442", 1): ("for", "constant",
                               "the two admissible twists among the eight classes of "
                               "Z[1/2] modulo fourth powers"),
        ("run_sieve_442", 2): ("for", "constant", "at most four torsion points"),
        ("run_sieve_442", 3): ("for", "constant",
                               "the three marked points and at most eight torsion images"),
        ("run_sieve_442", 4): ("comprehension", "constant",
                               "at most the 17 recoveries of one point"),
        ("run_sieve_442", 5): ("comprehension", "constant",
                               "the verdicts of run_sieve_442 loop 3, at most 17 "
                               "recoveries each"),
    },
    "groups": {
        ("h_structure", 0): ("comprehension", "constant", "the two invariants d and m/d"),
    },
    "belyi": {
        ("is_stack_point", 0): ("for", "constant", "the three coordinates s, s-t and t"),
    },
    "_record": {
        ("Record.__init__", 0): ("comprehension", "constant", "the fields of the class"),
        ("Record.__init__", 1): ("for", "constant", "the fields of the class"),
        ("Record.__repr__", 0): ("comprehension", "constant", "the fields of the class"),
    },
    "smith": {
        ("IntMatrix.__init__", 0): ("comprehension", "linear", "one step per row given"),
        ("IntMatrix.__init__", 1): ("comprehension", "linear", "one step per row"),
        ("IntMatrix.__init__", 2): ("for", "linear", "one step per row"),
        ("IntMatrix.__init__", 3): ("for", "linear", "one step per entry"),
        ("IntMatrix.__matmul__", 0): ("comprehension", "linear", "one step per row of self"),
        ("IntMatrix.__matmul__", 1): ("for", "linear", "one step per row of self"),
        ("IntMatrix.__matmul__", 2): ("for", "linear", "one step per entry of self"),
        # No command multiplies matrices; only the library's own @ reaches this.
        ("IntMatrix.__matmul__", 3): ("for", "linear",
                                      "one step per nonzero entry of self and column of "
                                      "other: linear in each operand, the other fixed"),
        ("IntMatrix.diagonal", 0): ("comprehension", "linear",
                                    "one step per diagonal entry"),
        ("_identity_rows", 0): ("comprehension", "linear",
                                "one step per row, n a dimension of the matrix given"),
        ("_identity_rows", 1): ("for", "linear",
                                "one step per row, n a dimension of the matrix given"),
        ("_snf", 0): ("comprehension", "linear", "one step per row"),
        # Each pass either moves t on, at most min(rows, cols) times, or
        # re-promotes a nonzero remainder smaller than the pivot, so that the
        # pivot at least halves every two passes: at most rows * cols *
        # min(rows, cols) * bits of work in all, which the cap sizes before
        # the elimination starts.  The loops inside a pass each take at most
        # rows + cols steps per row or column they visit.
        ("_snf", 1): ("while", "cap", "elimination bits"),
        ("_snf", 2): ("for", "cap", "elimination bits"),
        ("_snf", 3): ("for", "cap", "elimination bits"),
        ("_snf", 4): ("for", "cap", "elimination bits"),
        ("_snf", 5): ("for", "cap", "elimination bits"),
        ("_snf", 6): ("comprehension", "cap", "elimination bits"),
        ("_snf", 7): ("for", "cap", "elimination bits"),
        ("_snf", 8): ("comprehension", "cap", "elimination bits"),
        ("_snf", 9): ("for", "cap", "elimination bits"),
        ("_snf", 10): ("for", "cap", "elimination bits"),
        ("_snf", 11): ("comprehension", "cap", "elimination bits"),
        ("_snf", 12): ("for", "linear", "one step per diagonal entry"),
        ("_snf", 13): ("comprehension", "linear",
                       "one step per entry of a row of [D | U], rows + cols of them, "
                       "for at most min(rows, cols) rows"),
        ("smith_normal_form", 0): ("comprehension", "linear", "one step per entry"),
        ("smith_normal_form", 1): ("comprehension", "linear", "one step per row"),
        ("smith_normal_form", 2): ("comprehension", "linear", "one step per row"),
        ("smith_normal_form", 3): ("comprehension", "linear", "one step per column"),
    },
    "cli": {
        ("_parse_ints", 0): ("comprehension", "linear",
                             "one step per part of the flag's text"),
        ("_parse_matrix", 0): ("comprehension", "linear",
                               "one step per row of the flag's text"),
        ("_cmd_enumerate", 0): ("comprehension", "linear", "one step per solution"),
        ("_cmd_recover", 0): ("comprehension", "linear", "one step per solution recovered"),
        ("_cmd_verify_inclusion", 0): ("comprehension", "linear",
                                       "one step per solution enumerated"),
        ("_cmd_verify_inclusion", 1): ("comprehension", "dominated",
                                       ("_cmd_verify_inclusion", 0)),
        ("_cmd_sieve442", 0): ("comprehension", "constant",
                               "the three marked points and at most eight torsion images"),
        ("_cmd_sieve442", 1): ("comprehension", "constant",
                               "at most the 17 recoveries of one point"),
        ("_cmd_sieve442", 2): ("comprehension", "constant",
                               "at most 17 recoveries of each of the candidates of "
                               "_cmd_sieve442 loop 0"),
        ("build_parser", 0): ("for", "constant", "the ten commands of _COMMANDS"),
        ("build_parser", 1): ("for", "constant", "at most five flags of one command"),
        # _plain recurses once per item of the payload the handler returned.
        ("_plain", 0): ("comprehension", "linear", "one step per key of the payload"),
        ("_plain", 1): ("comprehension", "linear", "one step per item of the payload"),
    },
    "errors": {},
    "__init__": {
        ("<module>", 0): ("comprehension", "constant", "the nine layers, at import"),
        ("<module>", 1): ("comprehension", "constant", "the exported names, at import"),
    },
}


def loops(source):
    """{(scope, ordinal): kind} for every loop in the module source."""
    tree = ast.parse(source)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if type(child) in LOOP_KINDS:
                found.append((scope, child.lineno, child.col_offset, LOOP_KINDS[type(child)]))
            visit(child, scope)

    visit(tree, "<module>")
    found.sort()
    return {
        (scope, i): kind
        for scope, group in itertools.groupby(found, key=lambda f: f[0])
        for i, (_, _, _, kind) in enumerate(group)
    }


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_every_loop_is_in_the_ledger(name):
    source = (SRC / f"{name}.py").read_text()
    ledger = LEDGER[name]
    assert loops(source) == {key: entry[0] for key, entry in ledger.items()}
    for key, (_, cls, reason) in ledger.items():
        assert cls in ("constant", "linear", "cap", "dominated"), key
        if cls == "cap":
            assert f'"{reason}"' in source, key
        elif cls == "dominated":
            assert reason in ledger and reason != key, key
        else:
            assert reason, key


def test_every_module_is_ledgered():
    assert sorted(LEDGER) == sorted(p.stem for p in SRC.glob("*.py"))


def test_residue_prime_search_is_bounded():
    # The q search stops below TRIAL_DIVISION_BOUND^2 = 10^8, which is also
    # what proves a q above 10^4 prime; every k that _split_power tries
    # finds its four q well before that.
    assert exact.TRIAL_DIVISION_BOUND**2 == 10**8
    for k in exact._TRIAL_PRIMES:
        qs = list(itertools.islice(exact._residue_primes(k), 4))
        assert len(qs) == 4 and qs[-1] < 10**8, k
