"""Model types for the two coefficient families, the canonical catalog,
the family record type behind every registry, the one membership record of
the family read-outs, and JSON serialization.

A Type A model has constant connection coefficients; a Type B model has
coefficients scaled by 1/x^1 on the half-plane x^1 > 0.  Both are recorded
by six exact rationals (a, b, c, d, e, f) in the fixed symbol order
G_11^1, G_11^2, G_12^1, G_12^2, G_22^1, G_22^2, symmetric in the lower
indices so torsion vanishes by construction.

A model is stored as its integer form (:class:`~affinestrata.exact.IntegerForm`):
:attr:`integer_form` holds the integer numerators of the six coefficients
over their least common denominator, in lowest terms.  A model built from
rationals (or ints, or rational strings), a parsed model document among
them, clears them once, in one straight-line pass through the table of the
scalar gate; the coefficient law and every catalog and family build make
the model straight from integer numerators (:meth:`TypeAModel.of_integers`).
Every rational kernel downstream (the Ricci tensors, the coefficient law
and its witness checks, the binary cubic, the orbit matchers and the
charts) reads that pair, and the ``Fraction`` coefficients, ``coeffs`` and
the fields ``a`` .. ``f``, are built from it each time a caller reads one;
no model keeps the Fractions it was built from.
"""

from __future__ import annotations

import json
import math
from typing import Sequence, Union

from .exact import _RATIOS, ONE, Frozen, IntegerForm, _refused, _set_integer_form, clear_denominators, echo, ratio_str


class ModelParseError(ValueError):
    """Raised when a model document does not match the JSON schema."""


class CatalogError(ValueError):
    """Unknown catalog id, wrong arity, or violated parameter constraint."""


def _coefficient(k: int) -> property:
    return property(lambda self: self.coeffs[k], doc=f"coefficient {k} (of a, b, c, d, e, f), a Fraction")


class _Coefficients(IntegerForm):
    """The body both model types share: six exact rationals held as their
    integer form, which is all it keeps: ``coeffs`` and ``a`` .. ``f`` are
    built from it when read.  Ints, Fractions and rational strings are
    accepted, each read once through the table of the scalar gate (a
    string by the literal grammar); floats raise TypeError.  Each subclass sets its ``kind``
    and the ``letter`` of its repr.  Models are immutable, and two models
    are equal exactly when they are of the same class and have the same
    coefficients, so a Type A and a Type B model never compare equal."""

    __slots__ = ()
    _fields = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a, b, c, d, e, f):
        # straight-line: each ratio is in lowest terms, so the numerators
        # over their least common denominator are too
        try:
            an, ad = _RATIOS[type(a)](a)
            bn, bd = _RATIOS[type(b)](b)
            cn, cd = _RATIOS[type(c)](c)
            dn, dd = _RATIOS[type(d)](d)
            en, ed = _RATIOS[type(e)](e)
            fn, fd = _RATIOS[type(f)](f)
        except KeyError as missing:  # a type the gate refuses
            raise _refused(missing.args[0]) from None
        den = math.lcm(ad, bd, cd, dd, ed, fd)
        nums = (
            an * (den // ad), bn * (den // bd), cn * (den // cd),
            dn * (den // dd), en * (den // ed), fn * (den // fd),
        )
        _set_integer_form(self, (nums, den))

    coeffs = property(IntegerForm._fractions, doc="the six coefficients, Fractions")
    a, b, c, d, e, f = map(_coefficient, range(6))

    def __repr__(self):
        nums, den = self.integer_form
        return "%s(%s)" % (self.letter, ", ".join(ratio_str(n, den) for n in nums))


class TypeAModel(_Coefficients):
    __slots__ = ()
    kind = "A"
    letter = "M"


class TypeBModel(_Coefficients):
    __slots__ = ()
    kind = "B"
    letter = "N"


Model = Union[TypeAModel, TypeBModel]

_MODEL_TYPES = {"A": TypeAModel, "B": TypeBModel}


def type_a(*coeffs) -> TypeAModel:
    if len(coeffs) != 6:
        raise ValueError("a model needs exactly six coefficients")
    return TypeAModel(*coeffs)


def type_b(*coeffs) -> TypeBModel:
    if len(coeffs) != 6:
        raise ValueError("a model needs exactly six coefficients")
    return TypeBModel(*coeffs)


def negate_model(m: TypeAModel) -> TypeAModel:
    """All six coefficients negated; the pullback of ``m`` under x -> -x."""
    nums, den = m.integer_form
    return TypeAModel.of_integers([-n for n in nums], den)


# ---------------------------------------------------------------------------
# JSON serialization


def serialize_model(m: Model) -> dict:
    nums, den = m.integer_form
    return {"type": m.kind, "coeffs": [ratio_str(n, den) for n in nums]}


def parse_model(text) -> Model:
    """Parse a model document; exact round-trip with :func:`serialize_model`.

    Accepts a JSON string or an already-decoded mapping.  Coefficients must
    be rational strings (or integers); floats are rejected outright.  The
    literals go to the model constructor, which reads each as integers
    (:func:`~affinestrata.exact.parse_literal`) straight into the model's
    integer form, so no Fraction is built.  A key given twice keeps its
    last value, and keys other than ``type`` and ``coeffs`` are ignored.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except UnicodeDecodeError as exc:  # bytes in no encoding that JSON allows
            detail = f"{exc.reason} at byte {exc.start}"
            raise ModelParseError(f"model document is not valid {exc.encoding} text: {detail}") from exc
        except json.JSONDecodeError as exc:
            raise ModelParseError(f"malformed JSON: {exc}") from exc
        except RecursionError as exc:  # nested past the interpreter's recursion limit
            raise ModelParseError("model document is nested too deeply") from exc
        except ValueError as exc:  # an integer past int()'s digit limit
            raise ModelParseError("a JSON integer coefficient is too long to be a rational literal") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ModelParseError("model document must be a JSON object")
    kind = doc.get("type")
    if kind not in ("A", "B"):
        raise ModelParseError(f"model type must be 'A' or 'B', got {echo(kind)}")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != 6:
        raise ModelParseError("'coeffs' must be a list of six rational strings")
    for item in coeffs:
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise ModelParseError(f"coefficient {echo(item)} is not an exact rational literal")
    try:
        return _MODEL_TYPES[kind](*coeffs)
    except ValueError as exc:
        raise ModelParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Family records and the canonical-model catalog


def _no_constraint(_nums, _den):
    return None


class CatalogEntry(Frozen):
    """One family of models: stable id, model type, parameters, coefficient
    map and constraints.  The catalog and the stratum parametrizations are
    both tables of these records.

    ``build(x, h)`` takes the parameters as numerators ``x`` over one
    denominator ``h`` and returns ``(nums, den)``, the six coefficients as
    numerators over a denominator, written with ring operations only.
    :meth:`model` runs it on integers, with ``h > 0`` the parameters'
    common denominator, and builds the model from the integers with one gcd
    (``of_integers``), so no Fraction is made; :meth:`evaluate` runs the same
    build at ``h = 1`` over any field of scalars (the dual numbers of
    :func:`~affinestrata.exact.jacobian`, say) and divides by ``den`` there.
    ``check(x, h)`` reads the same integers and returns a violation message
    or None.  ``aliases`` are further names the library (not the command
    line) accepts for the family.
    """

    __slots__ = ("entry_id", "model_type", "param_names", "constraints", "build", "check", "aliases")
    _defaults = {"check": _no_constraint, "aliases": ()}

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

    def cleared(self, params: Sequence) -> tuple[list[int], int]:
        """The numerators of ``params`` over their common denominator h > 0;
        raises CatalogError on a wrong arity or a violated constraint."""
        nums, den = clear_denominators(params)
        if len(nums) != self.arity:
            raise CatalogError(
                f"{self.entry_id} takes {self.arity} parameter(s), got {len(nums)}"
            )
        violation = self.check(nums, den)
        if violation is not None:
            raise CatalogError(f"{self.entry_id}: {violation}")
        return nums, den

    def model(self, params: Sequence = ()) -> Model:
        """The exact model at ``params``; raises CatalogError on a wrong
        arity or a violated constraint (:meth:`cleared`)."""
        return _MODEL_TYPES[self.model_type].of_integers(*self.build(*self.cleared(params)))

    def evaluate(self, values: Sequence) -> tuple:
        """The six coefficients at ``values`` in their own field of scalars,
        with no constraint check."""
        nums, den = self.build(values, ONE)
        inverse = ONE / den
        return tuple([n * inverse for n in nums])


class FamilyMembership(IntegerForm):
    """The one record of a family read-out: a model lies in ``family`` at
    ``params``, the Fraction view of the integers x / h at which the
    family's build was checked (``of_integers(x, h, family)``).  The repr
    and hash are the record's; equality compares family and form."""

    __slots__ = ("family",)
    _fields = ("family", "params")

    def __init__(self, family: str, params: Sequence):
        object.__setattr__(self, "family", family)
        self._clear(params)

    params = property(IntegerForm._fractions)

    __hash__ = Frozen.__hash__  # the record's hash, of (family, params)

    def to_dict(self) -> dict:
        nums, den = self.integer_form
        return {"family": self.family, "params": [ratio_str(n, den) for n in nums]}


# The checks and builds below read the parameters as numerators x over h > 0;
# each build clears the powers of h.


def _c1_not_0_m1(x, h):
    if x[0] == 0 or x[0] == -h:
        return "parameter must avoid 0 and -1"
    return None


def _nonzero(x, _h):
    if x[0] == 0:
        return "parameter must be nonzero"
    return None


def _positive(x, _h):
    if x[0] <= 0:
        return "parameter must be positive"
    return None


def _constant(*nums):
    return lambda _x, _h: (nums, 1)


CATALOG: dict[str, CatalogEntry] = {
    e.entry_id: e
    for e in [
        # flat Type A orbit representatives
        CatalogEntry("M0_0", "A", (), "", _constant(0, 0, 0, 0, 0, 0)),
        CatalogEntry("M1_0", "A", (), "", _constant(1, 0, 0, 1, 0, 0)),
        CatalogEntry("M2_0", "A", (), "", _constant(-1, 0, 0, 0, 0, 1)),
        CatalogEntry("M3_0", "A", (), "", _constant(0, 0, 0, 0, 0, 1)),
        CatalogEntry("M4_0", "A", (), "", _constant(0, 0, 0, 0, 1, 0)),
        CatalogEntry("M5_0", "A", (), "", _constant(1, 0, 0, 1, -1, 0)),
        # Type A families with rank-one Ricci tensor
        CatalogEntry("M1_1", "A", (), "", _constant(-1, 0, 1, 0, 0, 2)),
        CatalogEntry(
            "M2_1", "A", ("c1",), "c1 not in {0, -1}",
            lambda x, h: ((-h, 0, x[0], 0, 0, h + 2 * x[0]), h), _c1_not_0_m1,
        ),
        CatalogEntry(
            "M3_1", "A", ("c1",), "c1 not in {0, -1}",
            lambda x, h: ((0, 0, x[0], 0, 0, h + 2 * x[0]), h), _c1_not_0_m1,
        ),
        CatalogEntry("M4_1", "A", ("c",), "", lambda x, h: ((0, 0, h, 0, x[0], 2 * h), h)),
        CatalogEntry(
            "M5_1", "A", ("c",), "",
            lambda x, h: ((h * h, 0, 0, 0, h * h + x[0] * x[0], 2 * x[0] * h), h * h),
        ),
        # flat Type B orbit representatives
        CatalogEntry("N0_0", "B", (), "", _constant(0, 0, 0, 0, 0, 0)),
        CatalogEntry("N1_0+", "B", (), "", _constant(1, 0, 0, 0, 1, 0)),
        CatalogEntry("N1_0-", "B", (), "", _constant(1, 0, 0, 0, -1, 0)),
        CatalogEntry(
            "N2_0", "B", ("c1",), "c1 != 0",
            lambda x, h: ((x[0] - h, 0, 0, x[0], 0, 0), h), _nonzero,
        ),
        CatalogEntry("N3_0", "B", (), "", _constant(-2, 1, 0, -1, 0, 0)),
        CatalogEntry("N4_0", "B", (), "", _constant(0, 1, 0, 0, 0, 0)),
        CatalogEntry("N5_0", "B", (), "", _constant(-1, 0, 0, 0, 0, 0)),
        CatalogEntry(
            "N6_0", "B", ("c2",), "c2 not in {0, -1}",
            lambda x, h: ((x[0], 0, 0, 0, 0, 0), h), _c1_not_0_m1,
        ),
        # Type B representatives with alternating Ricci tensor
        CatalogEntry("N1_alt", "B", ("c",), "", lambda x, h: ((0, x[0], h, 0, 0, h), h)),
        CatalogEntry(
            "N2_alt+", "B", ("c",), "c > 0",
            lambda x, h: ((h * h - x[0] * x[0], x[0] * h, 0, -x[0] * x[0], h * h, 2 * x[0] * h), h * h),
            _positive,
        ),
        CatalogEntry(
            "N2_alt-", "B", ("c",), "c > 0",
            lambda x, h: ((h * h + x[0] * x[0], x[0] * h, 0, x[0] * x[0], -h * h, -2 * x[0] * h), h * h),
            _positive,
        ),
    ]
}


def canonical_model(entry_id: str, params: Sequence = ()) -> Model:
    """Build the exact catalog model ``entry_id`` at the given parameters."""
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {entry_id!r}")
    return entry.model(params)
