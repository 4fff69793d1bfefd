"""The package's public surface, and which layers each entry point loads.

Every probe runs in a fresh interpreter, so that no module imported by an
earlier test hides a load.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import gfdescent
import gfdescent.errors as errors
import gfdescent.exact as exact

# The public names of a bare `import gfdescent`, by the layer that defines
# them.
SURFACE = {
    "errors": "GFDescentError NotAStackPoint PipelineMismatch SingularCurve "
    "WorkLimitExceeded ZeroPoint",
    "exact": "Factorization POINT_INFINITY POINT_ONE POINT_ZERO ProjPointQ factorize "
    "is_perfect_nth_power is_probable_prime normalize_projective",
    "smith": "IntMatrix SNFResult smith_normal_form",
    "groups": "HStructure Signature WeightData h_structure weight_vector",
    "sarith": "SRing UnitClassGroup is_nth_power_ideal s_unit_reps valuation",
    "belyi": "SignatureClass StackPointCertificate certificate_automorphism_order "
    "classify_signature euler_characteristic is_stack_point",
    "gfe": "GFE DescentReport PrimitiveSolution RecoveredSolution bad_prime_set "
    "enumerate_primitive_solutions j_map recover_solutions verify_descent_inclusion",
    "quartic": "CurvePoint POINT_AT_INFINITY Sieve442Report TwistedCurve admissible_twists "
    "belyi_eval run_sieve_442 sieve_442 torsion_points twist_curve",
}
LAYER_OF = {name: layer for layer, names in SURFACE.items() for name in names.split()}
PUBLIC = sorted(set(LAYER_OF) | set(SURFACE))


def run_probe(code: str):
    """Run `code` in a fresh interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gfdescent.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('gfdescent.'))))"


def loaded_after_main(*argv: str) -> list[str]:
    return run_probe(
        "import contextlib, io, json, sys\n"
        "from gfdescent import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n" + LOADED
    )


def test_bare_import_loads_no_layer():
    assert run_probe("import json, sys, gfdescent\n" + LOADED) == []


def test_enumerate_loads_neither_smith_nor_quartic():
    loaded = loaded_after_main(
        "enumerate", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--bound", "20"
    )
    assert "gfdescent.gfe" in loaded
    assert "gfdescent.smith" not in loaded and "gfdescent.quartic" not in loaded


def test_sieve442_does_not_load_smith():
    loaded = loaded_after_main("sieve442", "--bound", "10")
    assert "gfdescent.quartic" in loaded
    assert "gfdescent.smith" not in loaded


def imports_smith(tree) -> bool:
    """Whether the module's AST imports smith anywhere, relatively or by its
    full name, at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            names = [base] + [base + sep + alias.name for alias in node.names]
        else:
            continue
        if any(name in (".smith", "gfdescent.smith") for name in names):
            return True
    return False


def test_only_cli_imports_smith():
    # smith serves only the snf command; groups and every other layer get by
    # without it.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    assert [p.stem for p in layers if imports_smith(ast.parse(p.read_text()))] == ["cli"]
    for code in ("from . import smith", "import gfdescent.smith", "from gfdescent import smith"):
        assert imports_smith(ast.parse(code)), code


def records_defining(tree, method) -> list[str]:
    """The classes in the module's AST that derive from Record and define
    the method themselves."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).rpartition(".")[2] == "Record" for base in node.bases)
        and any(isinstance(f, ast.FunctionDef) and f.name == method for f in node.body)
    ]


def test_records_have_one_constructor():
    # Record's own constructor is the one way to build a record: a record
    # writes __init__ only to check its arguments, and prints its fields.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in layers]
    assert sorted(name for t in trees for name in records_defining(t, "__init__")) == [
        "GFE", "ProjPointQ", "SRing", "Signature", "TwistedCurve",
    ]
    assert [name for t in trees for name in records_defining(t, "__repr__")] == []
    snippet = ast.parse(
        "class A(Record):\n    def __repr__(self): pass\n"
        "class B(_record.Record):\n    def __init__(self): pass\n"
        "class C:\n    def __init__(self): pass\n"
    )
    assert records_defining(snippet, "__repr__") == ["A"]
    assert records_defining(snippet, "__init__") == ["B"]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def reads_environment(tree) -> bool:
    """Whether the module's AST touches os.environ or os.getenv, as an
    attribute of os or imported from it by name."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT
        ):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT for alias in node.names):
                return True
    return False


def test_no_layer_reads_the_environment():
    # Every setting comes from arguments, so the same call gives the same
    # answer whatever the environment holds.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    assert [p.stem for p in layers if reads_environment(ast.parse(p.read_text()))] == []
    for code in ("os.environ.get('X')", "os.getenv('X')", "from os import environ"):
        assert reads_environment(ast.parse(code)), code
    assert not reads_environment(ast.parse("os.devnull"))


def unused_imports(tree) -> list[str]:
    """The names the module's imports bind that no expression in it reads;
    a name read only in an annotation counts as read."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_no_layer_imports_an_unused_name():
    # No linter runs on the package, so an import orphaned by an edit would
    # otherwise stay.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    assert {p.stem: unused_imports(ast.parse(p.read_text())) for p in layers} == {
        p.stem: [] for p in layers
    }
    assert unused_imports(ast.parse("import os.path\nfrom . import a as b")) == ["b", "os"]
    assert unused_imports(ast.parse("from __future__ import annotations")) == []
    assert unused_imports(ast.parse("import os.path\nos.path.join")) == []
    assert unused_imports(ast.parse("from t import O\ndef f(x: O) -> None: pass")) == []


def test_public_surface_unchanged():
    # After a bare import each name resolves to the object its layer holds,
    # dir() lists it and a star import binds it.
    result = run_probe(
        "import importlib, json, gfdescent\n"
        f"layer_of = {LAYER_OF!r}\n"
        f"public = {PUBLIC!r}\n"
        "listed = set(dir(gfdescent))\n"
        "differs = []\n"
        "for name in public:\n"
        "    value = getattr(gfdescent, name, None)\n"
        "    layer = importlib.import_module('gfdescent.' + layer_of.get(name, name))\n"
        "    if value is not (getattr(layer, name) if name in layer_of else layer):\n"
        "        differs.append(name)\n"
        "star = {}\n"
        "exec('from gfdescent import *', star)\n"
        "print(json.dumps({'differs': differs,\n"
        "    'unlisted': sorted(set(public + ['__version__']) - listed),\n"
        "    'unbound': sorted(set(public) - set(star)),\n"
        "    'version': gfdescent.__version__}))"
    )
    assert result == {"differs": [], "unlisted": [], "unbound": [], "version": "0.1.0"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gfdescent.no_such_name
    with pytest.raises(ImportError):
        from gfdescent import no_such_name  # noqa: F401


def test_package_reads_through_to_the_layer(monkeypatch):
    def patched(*args, **kwargs):
        return "patched"

    monkeypatch.setattr(exact, "factorize", patched)
    assert gfdescent.factorize is patched
    monkeypatch.undo()
    assert gfdescent.factorize is exact.factorize
    assert "factorize" not in vars(gfdescent)


def caps_raised(tree) -> list[str]:
    """The first argument of each WorkLimitExceeded(...) call in the
    module's AST; literal_eval raises unless it is a literal."""
    return [
        ast.literal_eval(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] == "WorkLimitExceeded"
    ]


def test_cap_lists_name_the_caps_raised():
    # The caps a command can report on exit 2 are the ones the code raises:
    # both lists of them name each once and no other.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    raised = {cap for p in layers for cap in caps_raised(ast.parse(p.read_text()))}
    documented = re.findall(r'"([^"]+)"', errors.WorkLimitExceeded.__doc__)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("The caps are module-level constants", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)`, ", section, re.MULTILINE)
    assert raised == {"rho iterations", "power bits", "unit classes", "elimination bits"}
    assert sorted(documented) == sorted(listed) == sorted(raised)
    assert caps_raised(ast.parse("raise errors.WorkLimitExceeded('a', 1, '')")) == ["a"]


SWALLOWING = {"Exception", "BaseException", "MemoryError", "RecursionError"}


def caught(handler) -> tuple:
    """The names of the classes an except clause catches; () when bare."""
    if handler.type is None:
        return ()
    elts = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return tuple(ast.unparse(e) for e in elts)


def swallowing_handlers(tree) -> list[int]:
    """Lines of the except clauses that are bare or catch an error any
    input can raise, such as MemoryError: a command that outgrows its
    budget must stop at a named cap (exit 2), not be caught whatever it
    raised."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and (not caught(node) or any(n.rpartition(".")[2] in SWALLOWING for n in caught(node)))
    ]


def test_no_handler_swallows_resource_errors():
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    assert {p.stem: swallowing_handlers(ast.parse(p.read_text())) for p in layers} == {
        p.stem: [] for p in layers
    }
    for clause in ("except:", "except (ValueError, MemoryError):", "except builtins.Exception:"):
        assert swallowing_handlers(ast.parse(f"try: f()\n{clause} g()")) == [2], clause
    assert swallowing_handlers(ast.parse("try: f()\nexcept ValueError: g()")) == []


def test_cli_main_catches_only_its_exit_paths():
    tree = ast.parse(pathlib.Path(gfdescent.__file__).with_name("cli.py").read_text())
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    assert [caught(n) for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)] == [
        ("WorkLimitExceeded",),
        ("PipelineMismatch",),
        ("ValueError", "GFDescentError"),
        # Only around the output, after the command has run.
        ("BrokenPipeError",),
    ]
