"""Span tracing of the package's public functions, from outside the program.

``Tracer.installed`` replaces each listed function, in every ``affinestrata``
module namespace that binds it, by one wrapper that records a span (name,
start, end, parent).  Spans stay in memory until the run ends and are then
written out.  A span's self time is its duration minus the durations of its
direct children; calls nest on one thread, so the children of a span never
overlap.  The untraced runs never install the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

import oracle

# module -> functions; the names are the per-layer metric prefixes
TARGETS = {
    "exact": ("sqrt_rational", "solve_linear", "mat_rank", "jacobian"),
    "polys": ("interpolate", "pgcd", "rational_roots", "count_real_roots", "binary_cubic_pattern"),
    "models": ("parse_model", "serialize_model", "canonical_model"),
    "curvature": ("ricci_type_a", "ricci_type_b", "split_ricci", "rank_signature", "stratum_flags"),
    "group_action": (
        "transform_coeffs",
        "orbit_dimension_a",
        "rank1_frame",
        "isotropy_type_a",
        "solve_equivalence_a",
        "solve_equivalence_b",
    ),
    "strata": (
        "match_flat_a_orbit",
        "match_rank1_family",
        "flat_a_coords",
        "classify_flat_b",
        "classify_alt_b",
        "rank1_reduce",
        "tangent_sum_rank",
    ),
    "classify": ("classify_model",),
}

# spans of this function are named after the stratum of their first model
SPLIT_BY_STRATUM = {"group_action.solve_equivalence_a": ("flat", "rank1", "rank2")}

# exception class name -> extra counter, for spans that end by raising it
ERROR_COUNTERS = {
    "strata.match_flat_a_orbit": ("UnmatchedOrbitError", "unmatched"),
    "strata.match_rank1_family": ("UnmatchedOrbitError", "unmatched"),
    "strata.flat_a_coords": ("NonRationalCirclePointError", "nonrational"),
}


class Tracer:
    """Spans in parallel arrays (name id, parent index, start, end in ns),
    so a run with a million calls stays small in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[int, str] = {}
        self.sqrt_hits = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        stack, clock = self._stack, time.perf_counter_ns
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        split = {s: self._id(f"{name}.{s}") for s in SPLIT_BY_STRATUM.get(name, ())}
        fixed = None if split else self._id(name)
        is_sqrt = name == "exact.sqrt_rational"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(split[_stratum(args[0])] if split else fixed)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                self.errors[index] = type(exc).__name__
                raise
            else:
                ends[index] = clock()
                if is_sqrt and out is not None:
                    self.sqrt_hits += 1
                return out
            finally:
                stack.pop()

        return traced

    def bind(self, package) -> None:
        """Make one wrapper per target and find every ``package`` module
        namespace that binds the target; ``installed`` swaps them in."""
        prefix = package.__name__ + "."
        modules = [m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(prefix)]
        for module_name, functions in TARGETS.items():
            home = sys.modules[prefix + module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(original, f"{module_name}.{fn_name}")
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        child_ns = [0] * len(self)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, (nid, start, end) in enumerate(zip(self.name, self.start, self.end)):
            calls[nid] += 1
            self_ns[nid] += end - start - child_ns[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict:
        """``<name>.calls`` and ``<name>.self_ms`` for every target, the
        ``sqrt_rational`` hit ratio and the error counters."""
        out = {}
        for name, (calls, self_ns) in self.self_times().items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
        sqrt_calls = out["exact.sqrt_rational.calls"][0]
        out["exact.sqrt_rational.hit_ratio"] = (self.sqrt_hits / sqrt_calls if sqrt_calls else 0.0, "ratio")
        for name, (error, counter) in ERROR_COUNTERS.items():
            nid = self._ids[name]
            count = sum(1 for i, e in self.errors.items() if e == error and self.name[i] == nid)
            out[f"{name}.{counter}"] = (count, "count")
        return out

    def dump(self, path) -> None:
        """One tab-separated line per span: name, start_ns, end_ns, parent
        (line index, -1 at top level), error class or empty; gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\terror\n")
            for i, (nid, start, end, parent) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{self.names[nid]}\t{start}\t{end}\t{parent}\t{self.errors.get(i, '')}\n")


def _stratum(m) -> str:
    kind = oracle.a_stratum(m.coeffs)
    return "flat" if kind in ("cone_point", "flat_chart") else kind
