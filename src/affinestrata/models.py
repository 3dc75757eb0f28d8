"""Model types for the two coefficient families, the canonical catalog,
the family record type behind every registry, and JSON serialization.

A Type A model has constant connection coefficients; a Type B model has
coefficients scaled by 1/x^1 on the half-plane x^1 > 0.  Both are recorded
by six exact rationals (a, b, c, d, e, f) in the fixed symbol order
G_11^1, G_11^2, G_12^1, G_12^2, G_22^1, G_22^2, symmetric in the lower
indices so torsion vanishes by construction.

Each model clears its denominators once: :attr:`integer_form` holds the
integer numerators of the six coefficients over their least common
denominator, computed on first use and cached on the model, and every
rational kernel downstream (the Ricci tensors, the coefficient law and its
witness checks, the binary cubic, the orbit matchers and the charts) reads
that pair instead of the coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from .exact import clear_denominators, rational, rational_str


class ModelParseError(ValueError):
    """Raised when a model document does not match the JSON schema."""


class CatalogError(ValueError):
    """Unknown catalog id, wrong arity, or violated parameter constraint."""


@dataclass(frozen=True)
class _Coefficients:
    """The body both model types share.  Ints (and rational strings) are
    stored as Fractions, so that the solvers never divide ints into floats;
    floats raise TypeError as in :func:`rational`.  Each subclass sets its
    ``kind`` and the ``letter`` of its repr; dataclass equality compares the
    class too, so a Type A and a Type B model never compare equal."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def __post_init__(self):
        if (
            type(self.a) is Fraction and type(self.b) is Fraction and type(self.c) is Fraction
            and type(self.d) is Fraction and type(self.e) is Fraction and type(self.f) is Fraction
        ):
            return
        for name in ("a", "b", "c", "d", "e", "f"):
            object.__setattr__(self, name, rational(getattr(self, name)))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(n, L): the integer numerators n_k = L * coeffs[k] over the least
        common denominator L of the coefficients, so gcd(n, L) = 1.

        Computed once per model and cached outside the dataclass fields, so
        equality, hashing and repr do not see it."""
        nums, den = clear_denominators(self.coeffs)
        return tuple(nums), den

    def is_zero(self) -> bool:
        return not any(self.integer_form[0])

    def __repr__(self):
        return "%s(%s)" % (self.letter, ", ".join(rational_str(x) for x in self.coeffs))


class TypeAModel(_Coefficients):
    kind = "A"
    letter = "M"


class TypeBModel(_Coefficients):
    kind = "B"
    letter = "N"


Model = Union[TypeAModel, TypeBModel]

_MODEL_TYPES = {"A": TypeAModel, "B": TypeBModel}


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
        except ValueError as exc:  # an integer past int()'s digit limit
            raise ModelParseError("a JSON integer coefficient is too long to be a rational literal") from exc
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
    return _MODEL_TYPES[kind](*values)


# ---------------------------------------------------------------------------
# Family records and the canonical-model catalog


def _no_constraint(*_params):
    return None


@dataclass(frozen=True)
class CatalogEntry:
    """One family of models: stable id, model type, parameters, coefficient
    map and constraints.  The catalog and the stratum parametrizations are
    both tables of these records.

    ``build`` maps a parameter sequence to the six coefficients with ring
    operations only, so it evaluates on exact rationals and on dual numbers
    alike.
    ``check`` returns a violation message or None.  ``aliases`` are further
    names the library (not the command line) accepts for the family.
    """

    entry_id: str
    model_type: str
    param_names: tuple[str, ...]
    constraints: str
    build: Callable[[Sequence], tuple]
    check: Callable[..., str | None] = _no_constraint
    aliases: tuple[str, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.param_names)

    def describe(self) -> dict:
        return {
            "id": self.entry_id,
            "type": self.model_type,
            "arity": self.arity,
            "params": list(self.param_names),
            "constraints": self.constraints,
        }

    def model(self, params: Sequence = ()) -> Model:
        """The exact model at ``params``; raises CatalogError on a wrong
        arity or a violated constraint."""
        values = [rational(p) for p in params]
        if len(values) != self.arity:
            raise CatalogError(
                f"{self.entry_id} takes {self.arity} parameter(s), got {len(values)}"
            )
        violation = self.check(*values)
        if violation is not None:
            raise CatalogError(f"{self.entry_id}: {violation}")
        return _MODEL_TYPES[self.model_type](*self.build(values))


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


CATALOG: dict[str, CatalogEntry] = {
    e.entry_id: e
    for e in [
        # flat Type A orbit representatives
        CatalogEntry("M0_0", "A", (), "", lambda p: (0, 0, 0, 0, 0, 0)),
        CatalogEntry("M1_0", "A", (), "", lambda p: (1, 0, 0, 1, 0, 0)),
        CatalogEntry("M2_0", "A", (), "", lambda p: (-1, 0, 0, 0, 0, 1)),
        CatalogEntry("M3_0", "A", (), "", lambda p: (0, 0, 0, 0, 0, 1)),
        CatalogEntry("M4_0", "A", (), "", lambda p: (0, 0, 0, 0, 1, 0)),
        CatalogEntry("M5_0", "A", (), "", lambda p: (1, 0, 0, 1, -1, 0)),
        # Type A families with rank-one Ricci tensor
        CatalogEntry("M1_1", "A", (), "", lambda p: (-1, 0, 1, 0, 0, 2)),
        CatalogEntry(
            "M2_1", "A", ("c1",), "c1 not in {0, -1}",
            lambda p: (-1, 0, p[0], 0, 0, 1 + 2 * p[0]), _c1_not_0_m1,
        ),
        CatalogEntry(
            "M3_1", "A", ("c1",), "c1 not in {0, -1}",
            lambda p: (0, 0, p[0], 0, 0, 1 + 2 * p[0]), _c1_not_0_m1,
        ),
        CatalogEntry("M4_1", "A", ("c",), "", lambda p: (0, 0, 1, 0, p[0], 2)),
        CatalogEntry("M5_1", "A", ("c",), "", lambda p: (1, 0, 0, 0, 1 + p[0] * p[0], 2 * p[0])),
        # flat Type B orbit representatives
        CatalogEntry("N0_0", "B", (), "", lambda p: (0, 0, 0, 0, 0, 0)),
        CatalogEntry("N1_0+", "B", (), "", lambda p: (1, 0, 0, 0, 1, 0)),
        CatalogEntry("N1_0-", "B", (), "", lambda p: (1, 0, 0, 0, -1, 0)),
        CatalogEntry(
            "N2_0", "B", ("c1",), "c1 != 0",
            lambda p: (p[0] - 1, 0, 0, p[0], 0, 0), _nonzero,
        ),
        CatalogEntry("N3_0", "B", (), "", lambda p: (-2, 1, 0, -1, 0, 0)),
        CatalogEntry("N4_0", "B", (), "", lambda p: (0, 1, 0, 0, 0, 0)),
        CatalogEntry("N5_0", "B", (), "", lambda p: (-1, 0, 0, 0, 0, 0)),
        CatalogEntry(
            "N6_0", "B", ("c2",), "c2 not in {0, -1}",
            lambda p: (p[0], 0, 0, 0, 0, 0), _c1_not_0_m1,
        ),
        # Type B representatives with alternating Ricci tensor
        CatalogEntry("N1_alt", "B", ("c",), "", lambda p: (0, p[0], 1, 0, 0, 1)),
        CatalogEntry(
            "N2_alt+", "B", ("c",), "c > 0",
            lambda p: (1 - p[0] * p[0], p[0], 0, -p[0] * p[0], 1, 2 * p[0]), _positive,
        ),
        CatalogEntry(
            "N2_alt-", "B", ("c",), "c > 0",
            lambda p: (1 + p[0] * p[0], p[0], 0, p[0] * p[0], -1, -2 * p[0]), _positive,
        ),
    ]
}


def canonical_model(entry_id: str, params: Sequence = ()) -> Model:
    """Build the exact catalog model ``entry_id`` at the given parameters."""
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {entry_id!r}")
    return entry.model(params)
