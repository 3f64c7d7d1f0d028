"""Checks on the package source and on the names the benchmark binds."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys

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


def test_paper_cases_match_golden():
    """The paper's examples print, byte for byte, the JSON pinned in
    perfbench/golden.json, so a change to their output fails in Tier-1."""
    from aodesolve import cli

    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        cases = [case for case in json.load(fh) if case.get("paper")]
    assert cases
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(case["argv"], out=out, err=err) == 0, err.getvalue()
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == case["sha256"], case["argv"]
