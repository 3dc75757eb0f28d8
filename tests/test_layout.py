"""The module layout of the package: every import sits at module level, the
modules import one another without a cycle, so no module needs a lazy import
to load, the cold import chain leaves out the dataclass machinery, and the
integer-form format and the scalar gate have their one home in ``exact``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import affinestrata

PACKAGE = Path(affinestrata.__file__).resolve().parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(tree, known):
    """Names of the package modules that ``tree`` imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "affinestrata":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "affinestrata" and len(parts) > 1:
                    out.add(parts[1])
    return out & known


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{name}.py:{node.lineno} in {fn.name}")
    assert found == []


def test_module_imports_are_acyclic():
    trees = _trees()
    known = set(trees) - {"__init__"}
    graph = {name: _imported_modules(tree, known) for name, tree in trees.items() if name in known}
    assert graph["strata"] and graph["group_action"]  # the walk sees relative imports
    state = {}  # name -> "open" while on the stack, "done" after

    def visit(name, path):
        if state.get(name) == "open":
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if state.get(name) == "done":
            return
        state[name] = "open"
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        state[name] = "done"

    for name in sorted(graph):
        visit(name, [])


def test_cold_import_loads_no_dataclass_machinery():
    """The command line's import chain loads neither ``dataclasses`` nor
    ``inspect``: every value type is a slotted ``exact.Frozen`` class.  A
    fresh interpreter is needed, since pytest itself imports both."""
    code = (
        "import affinestrata.cli, sys\n"
        "print(sorted(name for name in ('dataclasses', 'inspect') if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_integer_form_format_stays_in_exact():
    """Only ``exact`` brings integers to lowest terms: every other module
    builds its integer forms through ``IntegerForm`` (its constructor or
    ``of_integers``), so the format has one home."""
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == "lowest_terms")
                or (isinstance(node, ast.Attribute) and node.attr == "lowest_terms")
                or (isinstance(node, ast.alias) and node.name == "lowest_terms")
            )
            if named and name != "exact":
                found.append(f"{name}.py:{node.lineno}")
    assert found == []
    assert any(isinstance(node, ast.FunctionDef) and node.name == "lowest_terms" for node in _trees()["exact"].body)


def test_scalar_gate_stays_in_exact():
    """Only ``exact`` reads a scalar's integer ratio: every other module
    takes its scalars through the one gate (``clear_denominators``, the
    value constructors or ``rational``), or reads ``numerator`` and
    ``denominator`` of a Fraction the package built."""
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio" and name != "exact":
                found.append(f"{name}.py:{node.lineno}")
    assert found == []
    assert any(
        isinstance(node, ast.FunctionDef) and node.name == "_ratio" for node in _trees()["exact"].body
    )
