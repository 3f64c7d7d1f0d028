"""Checks on the package source and on the names the benchmark binds."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "aodesolve")


def _asserts(node):
    """An ``assert`` statement, or a ``raise AssertionError`` that stands
    in for one."""
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return False


def test_no_assert_statements_in_package():
    """Invariants are explicit raises of a domain error, because
    ``python -O`` strips asserts and AssertionError names no fault."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if _asserts(node)]
    assert found == []


# the package's modules from the lowest layer to the highest
LAYERS = ("errors", "enclosure", "numbers", "series", "poly", "factor", "puiseux",
          "solver", "parsing", "cli")

# the function-level imports that reach up a layer, each on purpose
UPWARD_IMPORTS = {
    ("poly.Point.__eq__", "factor"),
    ("poly.solve_system", "factor"),
    ("poly._validate_cached", "factor"),
}


def _imported_modules(node):
    """The package modules an import statement names."""
    if not isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
        return [n.split(".")[1] for n in names if n.startswith("aodesolve.")]
    if node.level == 0:
        mod = node.module or ""
        return [mod.split(".")[1]] if mod.startswith("aodesolve.") else []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _upward_imports(module, tree):
    """(qualified name of the importing scope, imported module) for every
    import, at any depth, of a module above ``module``."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in _imported_modules(child):
                    if LAYERS.index(target) > LAYERS.index(module):
                        found.add((".".join(scope), target))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            walk(child, inner)

    walk(tree, [module])
    return found


def test_modules_import_only_lower_layers():
    """A module imports only the layers below it, apart from the listed
    function-level imports, so a new import cycle fails here."""
    found = set()
    for module in LAYERS:
        path = os.path.join(PACKAGE, module + ".py")
        with open(path) as fh:
            found |= _upward_imports(module, ast.parse(fh.read(), path))
    assert found == UPWARD_IMPORTS


# the total that `wc -l src/aodesolve/*.py` prints; a change that moves it
# updates this number and says why in CHANGES.md
SRC_LINES = 3614


def test_src_line_count_is_pinned():
    """The package's line count is a number in the tests, like the CLI's
    option slots, so growth or shrinkage is a visible, explained edit."""
    total = 0
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                total += fh.read().count("\n")
    assert total == SRC_LINES


# Runs in a child because tracer.install() patches the package in place.
_BINDINGS_PROBE = r"""
import importlib, json
import run, tracer
unbound = []
for short, cls_name, attrs, _row in tracer.METHODS:
    cls = getattr(importlib.import_module("aodesolve." + short), cls_name, None)
    unbound += ["%s.%s.%s" % (short, cls_name, a) for a in attrs
                if cls is None or a not in vars(cls)]
rows = set(tracer.install().stats)
unbound += [name for name in run.LAYER_ROWS if name not in rows]
unbound += [row for _s, _c, _a, row in tracer.METHODS if row not in rows]
from aodesolve.puiseux import _unify_coords
print(json.dumps(unbound))
"""


def test_benchmark_bindings_resolve():
    """Every per-layer row and traced method of perfbench/ names code
    that exists, so a rename fails here instead of emptying the rows."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"),
                                         os.path.join(ROOT, "perfbench")])
    proc = subprocess.run([sys.executable, "-c", _BINDINGS_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _assert_golden(select):
    """The golden.json cases that ``select`` picks print their pinned bytes."""
    from aodesolve import cli

    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        cases = [case for case in json.load(fh) if select(case)]
    assert cases
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(case["argv"], out=out, err=err) == 0, err.getvalue()
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == case["sha256"], case["argv"]


def test_paper_cases_match_golden():
    """The paper's examples print, byte for byte, the JSON pinned in
    perfbench/golden.json, so a change to their output fails in Tier-1."""
    _assert_golden(lambda case: case.get("paper"))


def test_solve_cases_match_golden():
    """Every pinned solve input (Ex1 at (c, +-c*sqrt(c + 1)), rational or
    over Q(sqrt(d))) prints its golden JSON, so a change in how solve_at
    picks its orders fails here before the benchmark runs."""
    _assert_golden(lambda case: case["argv"][0] == "solve")


def test_classify_cases_match_golden():
    """Every pinned classify input (the Ex2 family) prints its golden JSON,
    so the counts read at order 1 are checked against the pinned buckets."""
    _assert_golden(lambda case: case["argv"][0] == "classify")


def test_places_cases_match_golden():
    """Every pinned places input (the Ex2 family at order 6) prints its
    golden JSON, so every tail built through a place's recipe is checked
    byte for byte."""
    _assert_golden(lambda case: case["argv"][0] == "places")


def test_critical_cases_match_golden():
    """Every pinned critical input (the 12 random pool curves) prints its
    golden JSON, so the critical set, its towers and its order are
    checked byte for byte."""
    _assert_golden(lambda case: case["argv"][0] == "critical")


# the functions that may name sympy or mpmath: none, as both are test
# oracles only (root seeds come from enclosure.numeric_roots)
SYMPY_SCOPES = set()


def test_sympy_is_named_only_on_the_reject_path():
    """Every line of the package that names sympy or mpmath lies in one
    of the SYMPY_SCOPES, which is empty: the reject path factors in-house
    too, and root seeds are in-house, so any use of either fails here."""
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            text = fh.read()
        scopes = [(node.lineno, node.end_lineno, node.name)
                  for node in ast.walk(ast.parse(text, path))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "sympy" in line.lower() or "mpmath" in line.lower():
                inner = [s for s in scopes if s[0] <= lineno <= s[1]]
                found.add(name[:-3] + ("." + max(inner)[2] if inner else ""))
    assert found == SYMPY_SCOPES


def test_reducible_curve_still_rejects_with_a_witness():
    """The reject path keeps naming a factor of F: (y' - y)(y' + y^2)
    splits over Q, and the witness is a nonconstant proper divisor."""
    import sympy

    from aodesolve.errors import NotIrreducible
    from aodesolve.parsing import parse_polynomial
    from aodesolve.poly import validate_input

    F = parse_polynomial("(y' - y)*(y' + y^2)")
    with pytest.raises(NotIrreducible) as exc:
        validate_input(F)
    witness = exc.value.witness
    y, z = sympy.symbols("y z")

    def expr(B):
        return sum(sympy.Rational(c.numerator, c.denominator) * y**i * z**j
                   for (i, j), c in B.terms.items())

    assert 0 < witness.total_degree() < F.total_degree()
    assert sympy.div(expr(F), expr(witness), y, z)[1] == 0
