"""Mutation probe: which one-token changes to the named functions do the tests miss?

    python3 tools/mutation_probe.py gfe._recover quartic.run_sieve_442 ...

Each target is a layer of src/gfdescent and a function in it, by qualified
name (sarith.SRing.__init__ for a method).  Every site in a target gets one
mutant per run: a comparison `<`/`<=` or `>`/`>=` swapped, `==`/`!=` swapped,
`+`/`-` or `//`/`%` swapped, `*` made `//`, or an int constant 0, 1 or 2
raised by one.  Each mutant is written into the layer's file, the tests run
in a fresh process, and the file is written back before the next mutant.
A probe cut short can leave a mutant in place, so run it in a clone.

First the quick tests (tier-1 without the command-line, ledger, package
and benchmark-call files) and then the whole of tier-1 run on the files as
they are, and the probe exits 2 if either fails: a mutant killed by tests
that already fail shows nothing.  Each run of a mutant may take LIMIT_FACTOR
times as long as its suite took there.  A mutant is first run against the
quick tests, stopping at the first failure; one that survives them is run
against the whole of tier-1.  A run that fails kills the mutant; a run
that passes its time limit first is a timeout, which a loop that never
ends gives, but so does a mutant that only slows the tests, so a timeout
is not counted as a kill.  One row is printed per mutant, tab-separated:

    killed      <id>
    timeout     <id>
    survived    <id>
    equivalent  <id>  <why no input tells it apart>

A mutant in EQUIVALENT is not run.  The last line gives the counts.  The
exit code is 2 if the tests fail without a mutant, 1 if a mutant survived
or a mutated file did not come back byte for byte, else 0; a timeout
leaves it alone, so read its row by hand.  Only the
standard library is used, and the file name keeps pytest from collecting it.
"""

import argparse
import ast
import contextlib
import os
import pathlib
import resource
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gfdescent"
QUICK_SKIP = ("test_cli.py", "test_loop_ledger.py", "test_package.py", "test_bench_calls.py")
LIMIT_FACTOR = 3
MEMORY_BYTES = 2 << 30

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv,
    ast.Mult: ast.FloorDiv,
}

_PAST_N_MINUS_1 = (
    "adds squarings past a^(n-1), and a^(2^k (n-1)) = -1 mod an odd n > 1 has no"
    " solution: each prime p of n would have p = 1 mod 2^(v+k+1), v = v_2(n-1),"
    " so n = 1 mod 2^(v+1); the extra steps never break, and the answer stands"
)
_R_MINUS_K = (
    "r is a power of 2 and k is 0 or a multiple of m = 128 below r, so r - k and"
    " r + k are both r when r < 128, and both at least m when r >= 128"
)
# "<target>:<line>: <before> -> <after>", line counted from the def and
# " #k" added for the k-th alike mutant (k >= 2), mapped to why no input
# tells the mutant apart from the code.
EQUIVALENT = {
    "exact.is_probable_prime:18: 0 -> 1": _PAST_N_MINUS_1,
    "exact.is_probable_prime:21: 1 -> 2": _PAST_N_MINUS_1,
    "exact.is_probable_prime:26: s - 1 -> s + 1": _PAST_N_MINUS_1,
    "exact.factorize:22: n > 0 -> n >= 0": "factorize refuses n = 0 first, so n is never 0",
    "exact.factorize:31: 1 -> 2": (
        "trial division leaves m = 1 or m with a prime past 10^4, so m is never 2"
    ),
    "exact._trial_primes:9: p * p > g -> p * p >= g": (
        "g divides the product of distinct primes, so it is squarefree and never p^2"
    ),
    "exact._brent_rho:16: k < r -> k <= r": (
        "k reaches r only for r >= 128 and g = 1; that extra batch takes no step,"
        " charges nothing new and keeps g = 1, and the ys it sets is set again by"
        " the next round's first batch before any use"
    ),
    "exact._brent_rho:18: r - k -> r + k": _R_MINUS_K,
    "exact._brent_rho:21: r - k -> r + k": _R_MINUS_K,
    "exact._brent_rho:33: 1 -> 2": (
        "factorize gives _brent_rho only cofactors with no prime up to 10^4, so a"
        " divisor g > 1 of n is past 10^4 and never 2"
    ),
    "sarith.unit_class_key:11: u > 0 -> u >= 0": (
        "u is a unit by then, and 0 is not one (is_unit refuses it), so u is never 0"
    ),
}


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node = tree
    for name in qualname.split("."):
        node = next(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


def mutations(node: ast.AST):
    """Each (node, mutated copy) of one site of node; a site is an operator
    or an int constant 0, 1 or 2."""
    for site in ast.walk(node):
        if isinstance(site, (ast.BinOp, ast.AugAssign)) and type(site.op) in SWAPS:
            yield site, type(site)(**{**vars(site), "op": SWAPS[type(site.op)]()})
        elif isinstance(site, ast.Compare):
            for i, op in enumerate(site.ops):
                if type(op) in SWAPS:
                    ops = [*site.ops[:i], SWAPS[type(op)](), *site.ops[i + 1:]]
                    yield site, ast.Compare(site.left, ops, site.comparators)
        elif isinstance(site, ast.Constant) and type(site.value) is int and site.value in (0, 1, 2):
            yield site, ast.Constant(site.value + 1)


def splice(source: str, site: ast.AST, text: str) -> str:
    """source with the span of site replaced by text."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: site.lineno - 1])) + len(
        lines[site.lineno - 1].encode()[: site.col_offset].decode()
    )
    end = sum(map(len, lines[: site.end_lineno - 1])) + len(
        lines[site.end_lineno - 1].encode()[: site.end_col_offset].decode()
    )
    return source[:start] + text + source[end:]


def mutants(target: str):
    """Each (id, path, mutated source) of target."""
    layer, qualname = target.split(".", 1)
    path = SRC / f"{layer}.py"
    source = path.read_text()
    function = find_function(ast.parse(source), qualname)
    seen: dict[str, int] = {}
    for site, mutated in mutations(function):
        before, after = ast.unparse(site), ast.unparse(mutated)
        key = f"{target}:{site.lineno - function.lineno}: {before} -> {after}"
        seen[key] = seen.get(key, 0) + 1
        yield key + (f" #{seen[key]}" if seen[key] > 1 else ""), path, splice(source, site, after)


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tests(quick: bool, seconds: float | None = None) -> str:
    """"passed", "failed" or "timeout": the tests on the files as they are
    now, within seconds when that is given."""
    args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    if quick:
        args += [f"--ignore=tests/{name}" for name in QUICK_SKIP]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=limit_memory,
    )
    try:
        return "passed" if run.wait(seconds) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # Whatever the run left, or a run cut short, goes with its session.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="layer.function, e.g. gfe._recover")
    targets = parser.parse_args(argv).targets
    limits = {}
    for quick, name in ((True, "quick"), (False, "full")):
        start = time.monotonic()
        if run_tests(quick) != "passed":
            print(f"the {name} tests fail without a mutant", file=sys.stderr)
            return 2
        limits[quick] = LIMIT_FACTOR * (time.monotonic() - start)
        print(f"{name} tests: {limits[quick]:.0f} s per mutant", file=sys.stderr, flush=True)
    counts = {"killed": 0, "timeout": 0, "survived": 0, "equivalent": 0}
    restored = True
    for target in targets:
        for key, path, mutated in mutants(target):
            if key in EQUIVALENT:
                verdict, row = "equivalent", f"equivalent\t{key}\t{EQUIVALENT[key]}"
            else:
                original = path.read_bytes()
                try:
                    path.write_text(mutated)
                    for quick in (True, False):
                        result = run_tests(quick, limits[quick])
                        if result != "passed":
                            break
                finally:
                    path.write_bytes(original)
                restored &= path.read_bytes() == original
                verdict = {"passed": "survived", "failed": "killed"}.get(result, result)
                row = f"{verdict}\t{key}"
            counts[verdict] += 1
            print(row, flush=True)
    print(" ".join(f"{n} {verdict}" for verdict, n in counts.items()), flush=True)
    if not restored:
        print("a mutated file did not come back byte for byte", file=sys.stderr)
    return int(counts["survived"] > 0 or not restored)


if __name__ == "__main__":
    sys.exit(main())
