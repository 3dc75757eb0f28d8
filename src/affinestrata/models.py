"""Model types for the two coefficient families, the canonical catalogs,
and JSON serialization.

A Type A model has constant connection coefficients; a Type B model has
coefficients scaled by 1/x^1 on the half-plane x^1 > 0.  Both are recorded
by six exact rationals (a, b, c, d, e, f) in the fixed symbol order
G_11^1, G_11^2, G_12^1, G_12^2, G_22^1, G_22^2, symmetric in the lower
indices so torsion vanishes by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .exact import rational, rational_str


class ModelParseError(ValueError):
    """Raised when a model document does not match the JSON schema."""


class CatalogError(ValueError):
    """Unknown catalog id, wrong arity, or violated parameter constraint."""


def _exact_coeffs(m) -> None:
    """Store ints (and rational strings) as Fractions, so that the solvers
    never divide ints into floats; floats raise TypeError as in
    :func:`rational`.  A model of Fractions is left as it is."""
    if (
        type(m.a) is Fraction and type(m.b) is Fraction and type(m.c) is Fraction
        and type(m.d) is Fraction and type(m.e) is Fraction and type(m.f) is Fraction
    ):
        return
    for name in ("a", "b", "c", "d", "e", "f"):
        object.__setattr__(m, name, rational(getattr(m, name)))


@dataclass(frozen=True)
class TypeAModel:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    kind = "A"

    def __post_init__(self):
        _exact_coeffs(self)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def __repr__(self):
        return "M(%s)" % ", ".join(rational_str(x) for x in self.coeffs)


@dataclass(frozen=True)
class TypeBModel:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    kind = "B"

    def __post_init__(self):
        _exact_coeffs(self)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def __repr__(self):
        return "N(%s)" % ", ".join(rational_str(x) for x in self.coeffs)


Model = Union[TypeAModel, TypeBModel]


def type_a(*coeffs) -> TypeAModel:
    if len(coeffs) != 6:
        raise ValueError("a model needs exactly six coefficients")
    return TypeAModel(*[rational(x) for x in coeffs])


def type_b(*coeffs) -> TypeBModel:
    if len(coeffs) != 6:
        raise ValueError("a model needs exactly six coefficients")
    return TypeBModel(*[rational(x) for x in coeffs])


def negate_model(m: TypeAModel) -> TypeAModel:
    """All six coefficients negated; the pullback of ``m`` under x -> -x."""
    return TypeAModel(*[-x for x in m.coeffs])


# ---------------------------------------------------------------------------
# JSON serialization


def serialize_model(m: Model) -> dict:
    return {"type": m.kind, "coeffs": [rational_str(x) for x in m.coeffs]}


def model_to_json(m: Model) -> str:
    return json.dumps(serialize_model(m))


def parse_model(text) -> Model:
    """Parse a model document; exact round-trip with :func:`serialize_model`.

    Accepts a JSON string or an already-decoded mapping.  Coefficients must
    be rational strings (or integers); floats are rejected outright.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelParseError(f"malformed JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ModelParseError("model document must be a JSON object")
    kind = doc.get("type")
    if kind not in ("A", "B"):
        raise ModelParseError(f"model type must be 'A' or 'B', got {kind!r}")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != 6:
        raise ModelParseError("'coeffs' must be a list of six rational strings")
    values = []
    for item in coeffs:
        if isinstance(item, bool) or isinstance(item, float):
            raise ModelParseError(f"coefficient {item!r} is not an exact rational literal")
        if not isinstance(item, (str, int)):
            raise ModelParseError(f"coefficient {item!r} is not an exact rational literal")
        try:
            values.append(rational(item))
        except ValueError as exc:
            raise ModelParseError(str(exc)) from exc
    cls = TypeAModel if kind == "A" else TypeBModel
    return cls(*values)


# ---------------------------------------------------------------------------
# Canonical-model catalog


@dataclass(frozen=True)
class CatalogEntry:
    """One canonical family: stable id, arity, constructor and constraints."""

    entry_id: str
    model_type: str
    arity: int
    param_names: tuple[str, ...]
    constraints: str
    build: Callable[..., Model]
    check: Callable[..., str | None]  # returns a violation message or None

    def describe(self) -> dict:
        return {
            "id": self.entry_id,
            "type": self.model_type,
            "arity": self.arity,
            "params": list(self.param_names),
            "constraints": self.constraints,
        }


def _no_constraint(*_params):
    return None


def _c1_not_0_m1(c1):
    if c1 == 0 or c1 == -1:
        return "parameter must avoid 0 and -1"
    return None


def _nonzero(c):
    if c == 0:
        return "parameter must be nonzero"
    return None


def _positive(c):
    if c <= 0:
        return "parameter must be positive"
    return None


def _entry(entry_id, model_type, params, constraints, build, check=_no_constraint):
    return CatalogEntry(entry_id, model_type, len(params), tuple(params), constraints, build, check)


CATALOG: dict[str, CatalogEntry] = {
    e.entry_id: e
    for e in [
        # flat Type A orbit representatives
        _entry("M0_0", "A", (), "", lambda: type_a(0, 0, 0, 0, 0, 0)),
        _entry("M1_0", "A", (), "", lambda: type_a(1, 0, 0, 1, 0, 0)),
        _entry("M2_0", "A", (), "", lambda: type_a(-1, 0, 0, 0, 0, 1)),
        _entry("M3_0", "A", (), "", lambda: type_a(0, 0, 0, 0, 0, 1)),
        _entry("M4_0", "A", (), "", lambda: type_a(0, 0, 0, 0, 1, 0)),
        _entry("M5_0", "A", (), "", lambda: type_a(1, 0, 0, 1, -1, 0)),
        # Type A families with rank-one Ricci tensor
        _entry("M1_1", "A", (), "", lambda: type_a(-1, 0, 1, 0, 0, 2)),
        _entry(
            "M2_1", "A", ("c1",), "c1 not in {0, -1}",
            lambda c1: type_a(-1, 0, c1, 0, 0, 1 + 2 * c1), _c1_not_0_m1,
        ),
        _entry(
            "M3_1", "A", ("c1",), "c1 not in {0, -1}",
            lambda c1: type_a(0, 0, c1, 0, 0, 1 + 2 * c1), _c1_not_0_m1,
        ),
        _entry("M4_1", "A", ("c",), "", lambda c: type_a(0, 0, 1, 0, c, 2)),
        _entry("M5_1", "A", ("c",), "", lambda c: type_a(1, 0, 0, 0, 1 + c * c, 2 * c)),
        # flat Type B orbit representatives
        _entry("N0_0", "B", (), "", lambda: type_b(0, 0, 0, 0, 0, 0)),
        _entry("N1_0+", "B", (), "", lambda: type_b(1, 0, 0, 0, 1, 0)),
        _entry("N1_0-", "B", (), "", lambda: type_b(1, 0, 0, 0, -1, 0)),
        _entry(
            "N2_0", "B", ("c1",), "c1 != 0",
            lambda c1: type_b(c1 - 1, 0, 0, c1, 0, 0), _nonzero,
        ),
        _entry("N3_0", "B", (), "", lambda: type_b(-2, 1, 0, -1, 0, 0)),
        _entry("N4_0", "B", (), "", lambda: type_b(0, 1, 0, 0, 0, 0)),
        _entry("N5_0", "B", (), "", lambda: type_b(-1, 0, 0, 0, 0, 0)),
        _entry(
            "N6_0", "B", ("c2",), "c2 not in {0, -1}",
            lambda c2: type_b(c2, 0, 0, 0, 0, 0), _c1_not_0_m1,
        ),
        # Type B representatives with alternating Ricci tensor
        _entry("N1_alt", "B", ("c",), "", lambda c: type_b(0, c, 1, 0, 0, 1)),
        _entry(
            "N2_alt+", "B", ("c",), "c > 0",
            lambda c: type_b(1 - c * c, c, 0, -c * c, 1, 2 * c), _positive,
        ),
        _entry(
            "N2_alt-", "B", ("c",), "c > 0",
            lambda c: type_b(1 + c * c, c, 0, c * c, -1, -2 * c), _positive,
        ),
    ]
}


def canonical_model(entry_id: str, params: Sequence = ()) -> Model:
    """Build the exact catalog model ``entry_id`` at the given parameters."""
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {entry_id!r}")
    values = [rational(p) for p in params]
    if len(values) != entry.arity:
        raise CatalogError(
            f"{entry_id} takes {entry.arity} parameter(s), got {len(values)}"
        )
    violation = entry.check(*values)
    if violation is not None:
        raise CatalogError(f"{entry_id}: {violation}")
    return entry.build(*values)
