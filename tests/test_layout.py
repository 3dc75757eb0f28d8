"""The module layout of the package: no module is longer than the line
bound, every import sits at module level and is used, the modules import
one another without a cycle, so no module needs a lazy import to load, the
group action's four layers import downward only and their callers take each
name from the layer that defines it, the
cold import chain leaves out the dataclass machinery, the records leave
their construction to ``exact.Frozen``, the integer-form format, the scalar
gate and the one quadratic ring have their one home in ``exact`` and the
random draws theirs in one function of ``sampling``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import affinestrata
from affinestrata.exact import Frozen, IntegerForm

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


#: the most lines a module may have.  The benchmark's ``peak_rss_mb`` follows
#: the compile peak of the largest module imported from source, so a module
#: that grows past this raises the memory of every workload.
MAX_MODULE_LINES = 900


def test_every_module_stays_within_the_line_bound():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in PACKAGE.glob("*.py")}
    assert lines["exact.py"] > 800  # the walk reads the package's modules
    assert {name: n for name, n in lines.items() if n > MAX_MODULE_LINES} == {}


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{name}.py:{node.lineno} in {fn.name}")
    assert found == []


#: the layers of the group action, lowest first: the coefficient law, the
#: rank-one frame, the orbit matchers, isotropy and equivalence
LAYERS = ("law", "frames", "matchers", "group_action")


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
    # the group action in dependency order: each layer imports every layer
    # below it and none above
    for i, name in enumerate(LAYERS):
        assert graph[name] & set(LAYERS) == set(LAYERS[:i]), name


def _defined(tree) -> set:
    """The names a module defines at its top level, not those it imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return out


def test_callers_take_each_name_from_the_layer_that_defines_it():
    """``strata``, ``sampling``, ``classify`` and ``cli`` import from
    ``group_action`` only what it defines itself, so none of them reaches a
    lower layer's name (or a value type of ``exact``) through its
    re-exports."""
    trees = _trees()
    own = _defined(trees["group_action"])
    found = [
        f"{name}.py:{node.lineno} {alias.name}"
        for name in ("strata", "sampling", "classify", "cli")
        for node in ast.walk(trees[name])
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "group_action"
        for alias in node.names
        if alias.name not in own
    ]
    assert found == []
    assert {"solve_equivalence_a", "isotropy_type_a", "UndecidedError"} <= own


def test_no_unused_imports():
    """Every name a module imports is used in it, save a re-export marked
    ``# noqa: F401``; the package's ``__init__`` is its public namespace,
    made of re-exports, and is left out."""
    found = []
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        lines = (PACKAGE / f"{name}.py").read_text(encoding="utf-8").splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{name}.py:{node.lineno} {bound}")
    assert found == []


def _copies_its_parameters(fn) -> bool:
    """Whether the body of ``fn`` is only ``object.__setattr__(self, "p", p)``
    statements, one per parameter p."""
    params = {arg.arg for arg in fn.args.args[1:]}
    for stmt in fn.body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if not (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) == "object.__setattr__"
            and len(call.args) == 3
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[2], ast.Name)
            and call.args[2].id in params
            and call.args[1].value == call.args[2].id
        ):
            return False
    return bool(fn.body)


def test_records_write_no_field_copying_constructor():
    """The base ``Frozen`` builds every record from its fields, so no record
    writes a constructor that only copies its parameters into its slots.
    The types that keep a constructor do more: a linear map checks
    invertibility, a shear its scale and its matrix, and an integer form
    clears its values (a circle point, one of them, also checks the
    circle)."""
    copying, own = [], set()
    for name, tree in _trees().items():
        module = importlib.import_module(f"affinestrata.{name}") if name != "__init__" else affinestrata
        for node in tree.body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if not (isinstance(cls, type) and issubclass(cls, Frozen)):
                continue
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    own.add(cls)
                    if _copies_its_parameters(fn):
                        copying.append(f"{name}.{cls.__name__}")
    assert copying == []
    own_records = {cls.__name__ for cls in own if not issubclass(cls, IntegerForm)}
    assert own_records == {"Frozen", "LinearMap2", "ShearMap"}


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


def test_one_quadratic_ring_in_the_package():
    """The package keeps one quadratic ring, ``exact.QuadInt`` on
    Z[sqrt(k)], and the integer dual numbers of the Jacobian: no other class
    in it defines a product, so no second field of scalars (a Q(sqrt(k))
    type, say) comes back beside them."""
    found = sorted(
        f"{name}.{node.name}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__mul__" for item in node.body)
    )
    assert found == ["exact.QuadInt", "exact._Dual"]


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


#: the methods of ``random.Random`` that consume its stream
_DRAW_METHODS = {
    "getrandbits", "randrange", "randint", "random", "choice", "choices", "sample", "shuffle", "uniform", "randbytes",
}


def test_draws_stay_in_sampling():
    """Only ``sampling`` imports ``random``, and in the whole package only its
    primitive ``_draw_ratio`` reads the generator: every random draw goes
    through that one function, so the harness's stream is defined by it."""
    trees = _trees()
    primitive = next(
        node for node in trees["sampling"].body if isinstance(node, ast.FunctionDef) and node.name == "_draw_ratio"
    )
    inside = set(ast.walk(primitive))
    readers = [
        f"{name}.py:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _DRAW_METHODS and node not in inside
    ]
    assert readers == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "getrandbits" for node in inside)
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "random" for module in modules) and name != "sampling":
                found.append(f"{name}.py:{node.lineno}")
    assert found == []
    assert any(
        isinstance(node, ast.Import) and [alias.name for alias in node.names] == ["random"]
        for node in trees["sampling"].body
    )
