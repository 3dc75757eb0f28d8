"""Every function the benchmark traces still exists under its traced name.

``bench/spans.py`` names the per-layer metrics after the functions it wraps
(``TARGETS``, module -> function names).  A name that no longer resolves
would drop its metric silently, so this test reads the table (without
importing the benchmark) and looks each name up in the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _table(name: str):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


TARGETS = [(module, fn) for module, fns in _table("TARGETS").items() for fn in fns]


def test_targets_table_is_read():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("module, fn", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS])
def test_traced_name_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"affinestrata.{module}"), fn))


def test_error_counters_name_traced_functions_and_real_exceptions():
    traced = {f"{m}.{f}" for m, f in TARGETS}
    for name, (error, _counter) in _table("ERROR_COUNTERS").items():
        assert name in traced
        module = importlib.import_module(f"affinestrata.{name.split('.')[0]}")
        assert issubclass(getattr(module, error), Exception)
