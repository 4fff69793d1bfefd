"""The package's public surface, and which layers each entry point loads.

Every probe runs in a fresh interpreter, so that no module imported by an
earlier test hides a load.
"""

import ast
import importlib
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


def modules_after_main(*argv: str) -> list[str]:
    """Every module loaded after cli.main(argv) in a fresh interpreter, sorted."""
    return run_probe(
        "import contextlib, io, json, sys\n"
        "from gfdescent import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )


def loaded_after_main(*argv: str) -> list[str]:
    return [m for m in modules_after_main(*argv) if m.startswith("gfdescent.")]


def test_bare_import_loads_no_layer():
    assert run_probe("import json, sys, gfdescent\n" + LOADED) == []


JOIN_LAYERS = [
    "gfdescent._record", "gfdescent.cli", "gfdescent.errors", "gfdescent.exact",
    "gfdescent.gfe", "gfdescent.groups",
]


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--bound", "20"),
        ("jmap", "--signature", "4,4,2", "--coeffs", "1,1,-1", "--solution", "1,0,1"),
    ],
    ids=["enumerate", "jmap"],
)
def test_join_commands_load_only_the_join(argv):
    # Only recovery and the inclusion test reach belyi, sarith and fractions
    # (which imports decimal and numbers).
    modules = modules_after_main(*argv)
    assert [m for m in modules if m.startswith("gfdescent.")] == JOIN_LAYERS
    assert "fractions" not in modules and "decimal" not in modules


# fractions imports decimal and numbers; only chi and the coefficients of an
# S-integral recovery are not integers, so only classify and recover with
# --search-units load it.
FRACTION_MODULES = ("fractions", "decimal", "numbers")


@pytest.mark.parametrize(
    "argv, loads_fractions",
    [
        (("sieve442", "--bound", "10"), False),
        (("recover", "--q", "9:1", "--signature", "2,3,7", "--coeffs", "1,1,1",
          "--primes", ""), False),
        (("verify-inclusion", "--signature", "2,3,7", "--coeffs", "1,1,1",
          "--bound", "10"), False),
        (("stack-point", "--q", "9/1", "--signature", "2,3,7", "--primes", "2"), False),
        (("h1", "--primes", "2,3"), False),
        (("torsion", "--d", "-4"), False),
        (("classify", "--signature", "2,3,5"), True),
        (("recover", "--q", "1:2", "--signature", "4,4,2", "--coeffs", "1,1,-1",
          "--primes", "2", "--search-units"), True),
    ],
    ids=[
        "sieve442", "recover", "verify-inclusion", "stack-point", "h1", "torsion",
        "classify", "recover-search-units",
    ],
)
def test_only_classify_and_search_units_load_fractions(argv, loads_fractions):
    modules = modules_after_main(*argv)
    if loads_fractions:
        assert "fractions" in modules
    else:
        assert not [m for m in FRACTION_MODULES if m in modules]


def test_torsion_loads_neither_belyi_nor_sarith():
    assert loaded_after_main("torsion", "--d", "2") == [*JOIN_LAYERS, "gfdescent.quartic"]


def test_snf_loads_only_smith():
    assert loaded_after_main("snf", "--matrix", "2,4;6,8") == [
        "gfdescent._record", "gfdescent.cli", "gfdescent.errors", "gfdescent.smith",
    ]


def test_h1_loads_neither_belyi_nor_gfe():
    assert loaded_after_main("h1", "--primes", "2,3") == [
        "gfdescent._record", "gfdescent.cli", "gfdescent.errors", "gfdescent.exact",
        "gfdescent.sarith",
    ]


def test_sieve442_does_not_load_smith():
    loaded = loaded_after_main("sieve442", "--bound", "10")
    assert "gfdescent.quartic" in loaded
    assert "gfdescent.smith" not in loaded


def layers_imported(tree) -> set[str]:
    """The layers the module's AST imports anywhere, at module level or
    inside a function: by relative or full name, or by a public name that
    the package reads from a layer.  A bare `import gfdescent` imports none."""
    layers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base in (".", "gfdescent"):
                layers |= {gfdescent._LAYER_OF.get(alias.name) for alias in node.names}
            modules = [base]
        else:
            continue
        for module in modules:
            package, _, layer = module.partition(".")
            if package in ("", "gfdescent") and layer:
                layers.add(layer.partition(".")[0])
    return layers - {None}


def test_cli_reads_every_layer_through_the_package():
    # smith serves only snf and quartic only torsion and sieve442: no module
    # imports either, and the command line imports no layer but errors, so
    # each command loads only the layers its handler reads from the package.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text()) for p in layers}
    assert [m for m, t in trees.items() if {"smith", "quartic"} & layers_imported(t)] == []
    assert layers_imported(trees["cli"]) == {"errors"}
    functions = [n for n in ast.walk(trees["cli"]) if isinstance(n, ast.FunctionDef)]
    assert [
        n.lineno
        for f in functions
        for n in ast.walk(f)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    ] == []
    for code, imported in (
        ("from . import smith", {"smith"}),
        ("import gfdescent.smith", {"smith"}),
        ("from gfdescent import quartic", {"quartic"}),
        ("from gfdescent.quartic import GFE_442", {"quartic"}),
        ("from .exact import factorize", {"exact"}),
        ("from gfdescent import torsion_points, errors", {"quartic", "errors"}),
        ("def f():\n    from ._record import Record", {"_record"}),
        ("import gfdescent\nimport os.path\nfrom . import __version__", set()),
    ):
        assert layers_imported(ast.parse(code)) == imported, code


def imports_typing(tree) -> bool:
    """Whether the module's AST imports typing, or a submodule of it, or a
    name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.partition(".")[0] == "typing" for module in modules):
            return True
    return False


def test_no_module_imports_typing():
    # Importing typing costs every command 4-5 ms in a bare interpreter, and
    # the package uses it for nothing that `X | None` and collections.abc do
    # not give.  Checked on the source: a site hook may load typing before
    # any package code runs, so sys.modules would not show an import here.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    assert [p.stem for p in layers if imports_typing(ast.parse(p.read_text()))] == []
    for code in ("import typing", "from typing import Optional", "import typing as t"):
        assert imports_typing(ast.parse(code)), code
    for code in ("from collections.abc import Iterable", "from .typing import x", "import typingx"):
        assert not imports_typing(ast.parse(code)), code


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


def field_setters(tree) -> set[tuple[bool, str]]:
    """(in a record, Class.function) for each function of the module's AST
    that calls set_field or __setattr__; a class is a record when it is
    Record or names Record as a base."""
    found = set()

    def visit(node, record, scope):
        if isinstance(node, ast.ClassDef):
            bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
            record, scope = node.name == "Record" or "Record" in bases, node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if call_name(node) in ("set_field", "__setattr__"):
            found.add((record, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, record, scope)

    visit(tree, False, "")
    return found


def test_only_a_record_constructor_sets_fields():
    # set_field stores a field past the __setattr__ that refuses it, so a
    # record built anywhere else would skip its checks: it is called only in
    # Record.__init__ and in the __init__ of a record.  smith._wrap builds an
    # IntMatrix, which is not a record, with __new__.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    sites = {site for p in layers for site in field_setters(ast.parse(p.read_text()))}
    assert sites and all(record and name.endswith(".__init__") for record, name in sites)
    assert (True, "Record.__init__") in sites
    snippet = ast.parse(
        "class A(_record.Record):\n    def __init__(self, x): set_field(self, 'x', x)\n"
        "def built(x):\n    R = A.__new__(A)\n    set_field(R, 'x', x)\n"
        "class B:\n    def __init__(self): object.__setattr__(self, 'y', 1)\n"
    )
    assert field_setters(snippet) == {
        (True, "A.__init__"), (False, "built"), (False, "B.__init__"),
    }


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


def call_name(node) -> str | None:
    """The last part of the called name, when node is a call."""
    return ast.unparse(node.func).rpartition(".")[2] if isinstance(node, ast.Call) else None


def caps_raised(tree) -> list[str]:
    """The first argument of each charge(...) call, and of each
    WorkLimitExceeded(...) call that gives it as a literal, in the module's
    AST; literal_eval raises unless a charge gives a literal."""
    return [
        ast.literal_eval(node.args[0])
        for node in ast.walk(tree)
        if call_name(node) == "charge"
        or call_name(node) == "WorkLimitExceeded" and isinstance(node.args[0], ast.Constant)
    ]


def cap_sites(tree) -> tuple[set[str], set[str]]:
    """The functions, by qualified name, of the module's AST that construct
    WorkLimitExceeded, and those that name CAPS."""
    constructs, reads = set(), set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if call_name(node) == "WorkLimitExceeded":
            constructs.add(scope)
        if isinstance(node, ast.Name) and node.id == "CAPS" \
                or isinstance(node, ast.Attribute) and node.attr == "CAPS":
            reads.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return constructs, reads


def cap_value(text: str) -> int:
    """A cap's value as the docs write it, 5,000,000 or 2^25."""
    base, _, exp = text.replace(",", "").partition("^")
    return int(base) ** int(exp or 1)


def test_cap_lists_name_the_caps_raised():
    # The caps a command can report on exit 2 are the rows of errors.CAPS,
    # and the code raises each of them: the error's docstring, the README
    # and the CLI help name each row once and no other, and the two that
    # give values give the table's.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    raised = {cap for p in layers for cap in caps_raised(ast.parse(p.read_text()))}
    documented = re.findall(r'"([^"]+)"', errors.WorkLimitExceeded.__doc__)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("The caps are the rows of `gfdescent.errors.CAPS`", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)`, `?([\d,^]+)`?:", section, re.MULTILINE)
    cli_doc = importlib.import_module("gfdescent.cli").__doc__
    in_help = re.findall(r'"([^"]+)"\s+\(([\d,^]+)', cli_doc)
    table = sorted(errors.CAPS.items())
    assert raised == set(errors.CAPS)
    assert sorted(documented) == sorted(errors.CAPS)
    assert sorted((name, cap_value(value)) for name, value in listed) == table
    assert sorted((name, cap_value(value)) for name, value in in_help) == table
    assert caps_raised(ast.parse("raise errors.WorkLimitExceeded('a', 1, '')")) == ["a"]
    assert caps_raised(ast.parse("errors.charge('b', 2, '')")) == ["b"]
    assert caps_raised(ast.parse("raise WorkLimitExceeded(cap, 1, '')")) == []


def test_every_cap_is_met_through_charge():
    # Outside errors, no function raises WorkLimitExceeded itself, and only
    # _split_power, which takes the prime-bits cap as a threshold, names CAPS.
    constructs, reads = set(), set()
    for p in sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py")):
        if p.stem != "errors":
            c, r = cap_sites(ast.parse(p.read_text()))
            constructs |= {f"{p.stem}.{name}" for name in c}
            reads |= {f"{p.stem}.{name}" for name in r}
    assert constructs == set()
    assert reads == {"exact._split_power"}
    code = "class A:\n    def f(self):\n        raise WorkLimitExceeded('a', CAPS['a'], '')"
    assert cap_sites(ast.parse(code)) == ({"A.f"}, {"A.f"})
    assert cap_sites(ast.parse("x = errors.CAPS.get('a')")) == (set(), {""})


# For each cap: the value a test lowers it to (None keeps the table's) and a
# call that passes it at once.
CAP_TRIGGERS = {
    "rho work": (1, lambda: exact.factorize((2**89 - 1) * (2**107 - 1))),
    "power bits": (None, lambda: gfdescent.enumerate_primitive_solutions(
        gfdescent.GFE(gfdescent.Signature(10**9 + 7, 10**9 + 7, 2), 1, 1, 1), 3)),
    "unit classes": (None, lambda: gfdescent.s_unit_reps(
        gfdescent.SRing(exact._TRIAL_PRIMES[:20]), 2)),
    "elimination bits": (None, lambda: gfdescent.smith_normal_form(
        gfdescent.IntMatrix([[2**20] * 64 for _ in range(64)]))),
    "prime bits": (None, lambda: exact.is_probable_prime(2**4423 - 1)),
    "join probes": (1000, lambda: gfdescent.enumerate_primitive_solutions(
        gfdescent.GFE(gfdescent.Signature(2, 2, 2), 1, 1, -1), 300)),
}


@pytest.mark.parametrize("name", sorted(errors.CAPS))
def test_each_cap_reports_the_table_value_read_when_called(name, monkeypatch):
    limit, trigger = CAP_TRIGGERS[name]
    if limit is not None:
        monkeypatch.setitem(errors.CAPS, name, limit)
    with pytest.raises(errors.WorkLimitExceeded) as e:
        trigger()
    assert (e.value.cap, e.value.limit) == (name, errors.CAPS[name])


def refuse_to_render(self):
    raise AssertionError("rendered")


def unit_classes(primes, n):
    return len(gfdescent.s_unit_reps(gfdescent.SRing(primes), n).representatives)


# A type whose text a refusal detail holds, a call that passes no cap with
# it, and the size of what the call returns.
UNDER_CAPS = [
    (gfdescent.SRing, lambda: unit_classes((2, 3), 4), 32),
    (gfdescent.SRing, lambda: unit_classes((), 2**400000), 2),
    (gfdescent.GFE, lambda: len(gfdescent.enumerate_primitive_solutions(
        gfdescent.GFE(gfdescent.Signature(2, 2, 2), 1, 1, -1), 50)), 120),
]


@pytest.mark.parametrize("cls, call, expected", UNDER_CAPS)
def test_a_refusal_detail_is_rendered_only_on_refusal(cls, call, expected, monkeypatch):
    monkeypatch.setattr(cls, "__str__", refuse_to_render)
    assert call() == expected


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


# Methods of the standard containers that change the value they are called on.
MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem", "remove",
    "reverse", "setdefault", "sort", "update", "__setitem__", "__delitem__",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def outermost_functions(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            yield child
        else:
            yield from outermost_functions(child)


def root_name(node):
    """The name an attribute or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_writes(tree) -> list[int]:
    """Lines where a function writes module state: a global or nonlocal
    statement, or a store, a delete or a mutating method call through a
    name that neither the function nor one nested in it binds."""
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Global, ast.Nonlocal))]
    for function in outermost_functions(tree):
        inner = list(ast.walk(function))
        bound = {a.arg for n in inner if isinstance(n, FUNCTIONS) for a in ast.walk(n.args)
                 if isinstance(a, ast.arg)}
        bound |= {n.id for n in inner if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        bound |= {n.name for n in inner if isinstance(n, ast.ExceptHandler) and n.name}
        bound |= {(a.asname or a.name).partition(".")[0] for n in inner
                  if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        for n in inner:
            if isinstance(n, (ast.Attribute, ast.Subscript)) and not isinstance(n.ctx, ast.Load):
                target = n
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr in MUTATORS:
                target = n.func
            else:
                continue
            name = root_name(target.value)
            if name is not None and name not in bound:
                lines.append(n.lineno)
    return sorted(lines)


def test_no_function_writes_module_state():
    # Module-level values, CAPS among them, are read when called and written
    # only by the statements that define them at import.
    layers = sorted(pathlib.Path(gfdescent.__file__).parent.glob("*.py"))
    assert {p.stem: module_state_writes(ast.parse(p.read_text())) for p in layers} == {
        p.stem: [] for p in layers
    }
    for code in (
        'def f(): CAPS["x"] = 1',
        'def f(): del CAPS["x"]',
        'def f(): CAPS.update(x=1)',
        'def f(): exact.CAPS.x = 1',
        'def f(): return lambda: CAPS.setdefault("x", []).append(1)',
        "def f():\n    global X\n    X = 1",
    ):
        assert module_state_writes(ast.parse(code)), code
    for code in (
        'CAPS["x"] = 1',
        'def f(CAPS): CAPS["x"] = 1',
        'def f():\n    d = {}\n    d["x"] = 1\n    d.update(y=2)',
        "def f(self): self.x = 1",
    ):
        assert module_state_writes(ast.parse(code)) == [], code


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
