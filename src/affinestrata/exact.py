"""Exact scalar and small-matrix arithmetic.

Everything downstream computes over arbitrary-precision rationals; no
floating point enters any classification path.  Angles never appear as
numbers: rotations and circle-valued chart data are carried by rational
points (c, s) on the unit circle, and every trigonometric expression is
expanded into a polynomial in (c, s).

The equivalence solvers decide a forced irrational scale sqrt(k) in
Z[sqrt(k)] (:class:`QuadInt`, integer pairs with no denominator), the one
quadratic ring of the package.  The dual numbers (:class:`_Dual`, integers
(p + q*eps) / d) carry the exact first derivatives of the parametrizations
(:func:`jacobian`), so tangent-rank certificates are exact as well.

Every scalar a caller hands in passes one gate, :func:`_ratio`, a table of
readers by type: an int or a Fraction gives its integers, a rational literal
is read once by the literal grammar (:func:`parse_literal`), and any other
type (a float, say) raises TypeError.  Rational kernels compute on
integers: a tuple of rationals is cleared of denominators once
(:func:`clear_denominators`), the arithmetic runs on the numerators, and a
``Fraction`` is built, with its one normalization, only for a value that is
returned.  Models, Ricci tensors and their splits, rational matrices, flat
and rank-one chart points, circle points and family memberships share one
integer-form base, :class:`IntegerForm`:
numerators over a positive denominator in lowest terms, cleared once by a
constructor or reduced with one gcd by :meth:`~IntegerForm.of_integers`
(:func:`lowest_terms`, straight-line for six and four numerators), and the
only representation held: the Fraction view is built each time it is read.
A :class:`Mat2` holds only rationals; its determinant, inverse, product and
singularity test (and so the invertibility check of :class:`LinearMap2`)
read its integer form, as do the coefficient
law and its witness check.  The unit-circle check works on integers as
well, and the flat orbit matchers solve their three integer rows in two
unknowns in closed form (:func:`solve_3x2`); the general fraction-free
solver (:func:`solve_integer`) is the engine of :func:`solve_linear` and
the reference that closed form is tested against.  Every rational an
answer contains is written by :func:`ratio_str`, at any length.

Every immutable value of the package, here and downstream, is a slotted
subclass of :class:`Frozen`, which builds a record from its fields and
gives it equality, hashing, its repr and pickling over them, as a frozen
dataclass would, without importing ``dataclasses`` or generating code.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Callable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


#: the rational literal grammar: ``n`` or ``n/d`` in ASCII digits, optionally
#: signed, with surrounding whitespace
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def echo(value) -> str:
    """How a diagnostic shows a value a caller handed in: the repr, or past
    40 characters the first 20 and the length (of a string, or of anything
    else's repr), so a huge input makes a short message."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:20])}... ({len(text)} characters)"


def parse_literal(text: str) -> tuple[int, int]:
    """The integers (n, d) of a rational literal ``n`` or ``n/d``, in lowest
    terms with d > 0.

    The text must match ``[+-]?[0-9]+(/[0-9]+)?`` after stripping
    surrounding whitespace; decimals, exponents, a zero denominator and a
    number past ``int()``'s digit limit raise ValueError, so a short literal
    cannot stand for a huge integer.  The message echoes the literal through
    :func:`echo`, built only when it is raised.
    """
    match = _LITERAL.fullmatch(text.strip())
    if match is not None:
        num, den = match.groups()
        try:
            n, d = int(num), 1 if den is None else int(den)
        except ValueError:  # past int()'s digit limit
            limit = f"an integer past int()'s limit of {sys.get_int_max_str_digits()} digits"
            raise ValueError(f"not a rational literal: {echo(text)}, {limit}") from None
        if d != 0:
            g = math.gcd(n, d)
            return (n, d) if g == 1 else (n // g, d // g)
    raise ValueError(f"not a rational literal: {echo(text)}")


#: the integer ratio of each scalar type the package takes in
_RATIOS = {int: int.as_integer_ratio, bool: int.as_integer_ratio, Fraction: Fraction.as_integer_ratio,
           str: parse_literal}


def _refused(kind: type) -> TypeError:
    """The error of the gate for a scalar of a type it does not take."""
    return TypeError(f"cannot interpret {kind.__name__} as a rational")


def _ratio(x) -> tuple[int, int]:
    """The scalar gate: (n, d) in lowest terms, d > 0, of an int, a Fraction
    or a rational literal; TypeError for any other type."""
    try:
        return _RATIOS[type(x)](x)
    except KeyError:
        raise _refused(type(x)) from None


def rational(value) -> Fraction:
    """Coerce an int, Fraction or rational literal like ``"3/5"`` to an exact
    rational, through :func:`_ratio`."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


def _long_str(n: int) -> str:
    """``str(n)`` at any length.  Past ``int()``'s digit limit, which guards
    the parser, the digits are written in two halves split at a power of
    ten, recursively, so the process-wide limit is left as it is."""
    try:
        return str(n)
    except ValueError:
        pass
    k = n.bit_length() * 3 // 20  # about half the digits of |n|, and fewer than all
    high, low = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + _long_str(high) + _long_str(low).zfill(k)


def ratio_str(n: int, d: int) -> str:
    """The canonical string of n / d for integers n and d != 0: ``"n/d"`` in
    lowest terms with d > 0, or ``"n"`` when the denominator is 1, written
    without building a Fraction; the one writer of every rational in an
    answer, at any length."""
    if n == 0:
        return "0"
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past int()'s digit limit
        return _long_str(n) if d == 1 else f"{_long_str(n)}/{_long_str(d)}"


def sqrt_rational(value: Fraction) -> Fraction | None:
    """Exact non-negative square root, or None when ``value`` is not a square."""
    num, den = _ratio(value)
    if num < 0:
        return None
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def primitive_covector(pair) -> tuple[int, int]:
    """Scale a nonzero rational pair to a primitive integer pair.

    The sign is normalized so the first nonzero entry is positive, making the
    result canonical for the line it spans.
    """
    (xn, xd), (yn, yd) = _ratio(pair[0]), _ratio(pair[1])
    ix, iy = xn * yd, yn * xd  # the pair times xd * yd
    g = math.gcd(ix, iy)
    if g == 0:
        raise ValueError("zero pair has no primitive representative")
    ix, iy = ix // g, iy // g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return ix, iy


def clear_denominators(values) -> tuple[list[int], int]:
    """Integers n_i and the least common denominator d with values[i] = n_i / d.

    Takes ints, Fractions and rational literals through the table of the
    gate :func:`_ratio`; the exact kernels work on the n_i and normalize
    once at the end.
    """
    try:
        pairs = [_RATIOS[type(x)](x) for x in values]
    except KeyError as missing:  # a type the gate refuses, with its TypeError
        raise _refused(missing.args[0]) from None
    d = math.lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


# ---------------------------------------------------------------------------
# Immutable value types


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


class Frozen:
    """The base of every immutable value type: models, Ricci tensors and
    matrices, and the records (maps, circle points, catalog entries,
    curvature data, memberships, charts, reports).

    A record names its fields once, in ``__slots__`` (a subclass adds its
    own slots to its parent's fields), and this base builds it: the
    constructor sets each field once, in ``_fields`` order, from positional
    or keyword arguments, taking a field that is not given from the class's
    ``_defaults``.  A call with one positional value per field sets the
    slots straight through their descriptors; any other call is bound by
    :meth:`_bind`, which raises TypeError as a Python signature would.  Any
    later assignment or deletion raises :class:`FrozenInstanceError`.  The
    base also gives what a frozen dataclass would: equality with an
    instance of the same class with equal fields, the hash of the tuple of
    its fields, the repr ``Name(field=value, ...)``, and copying and
    pickling through the constructor.

    A type that does more than copy its fields keeps its own constructor:
    :class:`LinearMap2` checks invertibility, :class:`ShearMap` checks its
    scale and builds its matrix, and an :class:`IntegerForm` clears its
    values (:class:`CirclePoint` also checks that the point is on the
    circle).
    A type whose slots are not its fields (``ShearMap.matrix``, an
    :class:`IntegerForm`'s cleared values) names the fields in ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + cls.__slots__
        if cls.__init__ is Frozen.__init__:
            # the slot descriptors' setters, in field order, for the fast path
            cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        i = 0  # a counter, not zip: for a few fields, making the zip costs more than the loop
        for value in args:
            setters[i](self, value)
            i += 1

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call that names fields or leaves some to
        their defaults, checked as Python checks a signature."""
        name, fields, defaults = cls.__qualname__, cls._fields, cls._defaults
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        missing = [field for field in fields if field not in values and field not in defaults]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return [values[field] if field in values else defaults[field] for field in fields]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())


def lowest_terms(nums, den) -> tuple[tuple[int, ...], int]:
    """(nums / g, den / g) for g = gcd(nums, den) taken with the sign of
    ``den``, so the result is in lowest terms with a positive denominator."""
    g = math.gcd(*nums, den)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    # the six coefficients of a model and the four entries of a matrix, a
    # Ricci tensor or a chart point are divided straight-line, since a
    # comprehension is a function call
    size = len(nums)
    if size == 6:
        a, b, c, d, e, f = nums
        return (a // g, b // g, c // g, d // g, e // g, f // g), den // g
    if size == 4:
        a, b, c, d = nums
        return (a // g, b // g, c // g, d // g), den // g
    return tuple([n // g for n in nums]), den // g


class IntegerForm(Frozen):
    """A value held as its integer form: models, Ricci tensors and their
    splits, rational matrices, flat and rank-one chart points, circle
    points and family memberships.

    :attr:`integer_form` is ``(nums, den)``, the integer numerators of the
    values over their least common denominator den > 0, so gcd(nums, den)
    = 1 and equal values have equal forms.  It is made once: a constructor
    clears its values through the scalar gate (:meth:`_clear`), and
    :meth:`of_integers` reduces integers with one gcd.  It is the one
    representation held: the ``Fraction`` view (``coeffs``, ``rows``,
    ``coords``, ``c`` and ``s``, ``params``, shaped by ``_shape``) is built
    from it each time it is read, and not kept.  A subclass may add slots of
    its own beside the form (a Ricci tensor's ``cleared`` flag, a
    membership's family, the symmetric part of a Ricci split, a flat
    chart's circle point).  Equality compares the form and those slots
    within one class, so values of two classes never compare equal, and the
    hash is the form's (a Ricci tensor adds its flag; a circle point, a
    membership, a split and a flat chart keep the hash of their record);
    the repr, copies and pickles go through the fields named in
    ``_fields``.
    """

    __slots__ = ("integer_form",)
    _fields = ()

    def __init_subclass__(cls, **kwargs):  # the setters of a subclass's own slots, for of_integers
        super().__init_subclass__(**kwargs)
        cls._own_setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def _clear(self, values) -> None:
        """Set the form from ints and Fractions (:func:`clear_denominators`)."""
        nums, den = clear_denominators(values)
        object.__setattr__(self, "integer_form", (tuple(nums), den))

    @classmethod
    def of_integers(cls, nums, den, *fields):
        """The value nums / den for integers nums and den != 0, brought to
        lowest terms with one gcd, with the subclass's own slots set to
        ``fields``; no Fraction is built."""
        out = object.__new__(cls)
        _set_integer_form(out, lowest_terms(nums, den))
        i = 0  # a counter, not zip, as in Frozen.__init__
        for value in fields:
            cls._own_setters[i](out, value)
            i += 1
        return out

    _shape = tuple

    def _fractions(self):
        nums, den = self.integer_form
        return self._shape([Fraction(n, den) for n in nums])

    def is_zero(self) -> bool:
        return not any(self.integer_form[0])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            if self.integer_form != other.integer_form:  # the lowest-terms form is unique
                return False
            for name in self.__slots__:  # a subclass's own slots: a flag, a family, a circle point
                if getattr(self, name) != getattr(other, name):
                    return False
            return True
        return NotImplemented

    def __hash__(self):
        return hash(self.integer_form)


#: the setter of the slot every integer form has, called straight through
#: its descriptor by :meth:`IntegerForm.of_integers`
_set_integer_form = IntegerForm.integer_form.__set__


# ---------------------------------------------------------------------------
# 2x2 matrices


class Mat2(IntegerForm):
    """A 2x2 matrix of exact rationals; invertibility is checked on demand.

    Its integer form holds the entries (p11, p12, p21, p22) over their
    least common denominator, and every operation reads it; ``rows`` is the
    Fraction view built from it when read, so equal matrices print alike.
    ``Mat2(rows)`` takes ints and Fractions, and the scalar gate raises
    TypeError on others.
    """

    __slots__ = ()
    _fields = ("rows",)

    def __init__(self, rows):
        self._clear(rows[0] + rows[1])

    @staticmethod
    def of(a, b, c, d) -> "Mat2":
        return Mat2(((a, b), (c, d)))

    @staticmethod
    def identity() -> "Mat2":
        return _IDENTITY_MATRIX

    @staticmethod
    def _shape(values) -> tuple[tuple, tuple]:
        return ((values[0], values[1]), (values[2], values[3]))

    rows = property(IntegerForm._fractions)

    def det(self) -> Fraction:
        (p11, p12, p21, p22), den = self.integer_form
        return Fraction(p11 * p22 - p12 * p21, den * den)

    def is_singular(self) -> bool:
        """Whether the determinant vanishes: an integer cross-multiplication,
        with no Fraction built."""
        (p11, p12, p21, p22), _ = self.integer_form
        return p11 * p22 == p12 * p21

    def transpose(self) -> "Mat2":
        (p11, p12, p21, p22), den = self.integer_form
        return mat2_of_integers((p11, p21, p12, p22), den)

    def inverse(self) -> "Mat2":
        """The inverse D adj(p) / det(p) for the entries p / D."""
        (p11, p12, p21, p22), den = self.integer_form
        det = p11 * p22 - p12 * p21
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return mat2_of_integers((den * p22, -den * p12, -den * p21, den * p11), det)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        (a, b, c, d), den = self.integer_form
        (e, f, g, h), other_den = other.integer_form
        return mat2_of_integers((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), den * other_den)

    def apply(self, vec):
        """Matrix-vector product on a pair."""
        (a, b), (c, d) = self.rows
        return (a * vec[0] + b * vec[1], c * vec[0] + d * vec[1])

    def col(self, j):
        return (self.rows[0][j], self.rows[1][j])

    def to_strings(self) -> list[list[str]]:
        (p11, p12, p21, p22), den = self.integer_form
        return [[ratio_str(p11, den), ratio_str(p12, den)], [ratio_str(p21, den), ratio_str(p22, den)]]


#: the rational matrix p / den for integers p = (p11, p12, p21, p22) and
#: den != 0, in lowest terms; its rows are built only when they are read
mat2_of_integers = Mat2.of_integers

_IDENTITY_MATRIX = mat2_of_integers((1, 0, 0, 1), 1)


# The two kinds of coordinate change: invertible linear maps, which act on
# Type A models, and the shears, which act on Type B models.


class LinearMap2(Frozen):
    """An invertible linear coordinate change on the plane."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mat2):
        if matrix.is_singular():
            raise ValueError("linear map must be invertible")
        object.__setattr__(self, "matrix", matrix)

    @staticmethod
    def identity() -> "LinearMap2":
        return LinearMap2(Mat2.identity())

    def inverse(self) -> "LinearMap2":
        return LinearMap2(self.matrix.inverse())

    def compose(self, first: "LinearMap2") -> "LinearMap2":
        """The map 'apply ``first``, then self'."""
        return LinearMap2(self.matrix @ first.matrix)

    def to_json(self):
        return self.matrix.to_strings()


class ShearMap(Frozen):
    """(x1, x2) -> (x1, a x2 + b x1) with a != 0, held as its matrix
    [[1, 0], [b, a]] alone: every operation reads its integer form
    (D, 0, B, A) / D, and ``a`` and ``b`` are read off its rows.  The matrix
    stays out of the repr; equality compares it, and the hash is the
    record's, of (a, b)."""

    __slots__ = ("matrix",)
    _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        object.__setattr__(self, "matrix", _shear_matrix(an * bd, bn * ad, ad * bd))

    @classmethod
    def of_integers(cls, an: int, bn: int, den: int) -> "ShearMap":
        """The shear a = an / den, b = bn / den for integers with den != 0."""
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", _shear_matrix(an, bn, den))
        return out

    a = property(lambda self: self.matrix.rows[1][1])
    b = property(lambda self: self.matrix.rows[1][0])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.matrix.integer_form == other.matrix.integer_form
        return NotImplemented

    __hash__ = Frozen.__hash__

    @staticmethod
    def identity() -> "ShearMap":
        return ShearMap.of_integers(1, 0, 1)

    def inverse(self) -> "ShearMap":
        """a' = 1 / a and b' = -b / a: on the form, (D, -B) / A."""
        (_, _, bn, an), den = self.matrix.integer_form
        return ShearMap.of_integers(den, -bn, an)

    def compose(self, first: "ShearMap") -> "ShearMap":
        """a a1 and b + a b1, on the forms of the two matrices."""
        (_, _, bn, an), den = self.matrix.integer_form
        (_, _, bn1, an1), den1 = first.matrix.integer_form
        return ShearMap.of_integers(an * an1, bn * den1 + an * bn1, den * den1)

    def to_json(self):
        (_, _, bn, an), den = self.matrix.integer_form
        return {"a": ratio_str(an, den), "b": ratio_str(bn, den), "matrix": self.matrix.to_strings()}


def _shear_matrix(an: int, bn: int, den: int) -> Mat2:
    """The matrix [[1, 0], [b, a]] of a = an / den and b = bn / den, with
    the shear's check of its scale."""
    if an == 0:
        raise ValueError("shear scale must be nonzero")
    return mat2_of_integers((den, 0, bn, an), den)


# ---------------------------------------------------------------------------
# Rational circle points


class CirclePoint(IntegerForm):
    """A rational point (c, s) with c^2 + s^2 = 1, standing in for an angle.

    Held as its integer form: the numerators (C, S) over one denominator
    n > 0, with C^2 + S^2 = n^2; the half-turn, the lexicographic sign and
    the rotation read them, and ``c`` and ``s`` are the Fraction view, built
    when read."""

    __slots__ = ()
    _fields = ("c", "s")

    def __init__(self, c: Fraction, s: Fraction):
        self._clear((c, s))
        (cn, sn), n = self.integer_form
        if cn * cn + sn * sn != n * n:
            raise ValueError(f"({c}, {s}) is not on the unit circle")

    c = property(lambda self: self._fractions()[0])
    s = property(lambda self: self._fractions()[1])
    __hash__ = Frozen.__hash__  # the record's hash, of (c, s)

    def antipode(self) -> "CirclePoint":
        """The half-turn: (c, s) -> (-c, -s)."""
        (cn, sn), n = self.integer_form
        return CirclePoint.of_integers((-cn, -sn), n)

    def is_lex_positive(self) -> bool:
        (cn, sn), _ = self.integer_form
        return cn > 0 or (cn == 0 and sn > 0)

    def rotation(self) -> Mat2:
        """The rotation (x1, x2) -> (c*x1 + s*x2, -s*x1 + c*x2)."""
        (cn, sn), n = self.integer_form
        return mat2_of_integers((cn, sn, -sn, cn), n)


def circle_from_slope(t: Fraction) -> CirclePoint:
    """Rational circle point ((1-t^2)/(1+t^2), 2t/(1+t^2)) for slope ``t``,
    built from the integers of t with no Fraction."""
    n, d = _ratio(t)
    return CirclePoint.of_integers((d * d - n * n, 2 * n * d), d * d + n * n)


# ---------------------------------------------------------------------------
# Z[sqrt(k)] and the dual numbers
#
# Equivalence solvers sometimes meet a forced scale sqrt(k) with k not a
# rational square.  Arithmetic in Z[sqrt(k)] (:class:`QuadInt`) decides
# exactly whether the remaining equations hold at that scale: an element
# vanishes at one real embedding of the field exactly when it vanishes at
# both.  The dual numbers x + y*eps with eps^2 = 0 (:class:`_Dual`) carry
# exact first derivatives: the eps-part of f(x + eps) is f'(x), which
# :func:`jacobian` reads.


class QuadInt:
    """An element x + y*sqrt(k) of Z[sqrt(k)], for integers x, y and a k
    that is not a square, so the element is zero exactly when x = y = 0.

    The ring operations with each other and with ints are a few integer
    products each, with no gcd and no denominator: the equivalence solvers
    run the coefficient law on integer matrices A + B*sqrt(k), over one
    denominator held apart, and compare the result with a target's
    numerators by cross-multiplication.
    """

    __slots__ = ("x", "y", "k")

    def __init__(self, x: int, y: int, k: int):
        self.x, self.y, self.k = x, y, k

    def __add__(self, other):
        if type(other) is int:
            return QuadInt(self.x + other, self.y, self.k)
        return QuadInt(self.x + other.x, self.y + other.y, self.k)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(-self.x, -self.y, self.k)

    def __sub__(self, other):
        if type(other) is int:
            return QuadInt(self.x - other, self.y, self.k)
        return QuadInt(self.x - other.x, self.y - other.y, self.k)

    def __rsub__(self, other):
        return QuadInt(other - self.x, -self.y, self.k)

    def __mul__(self, other):
        if type(other) is int:
            return QuadInt(self.x * other, self.y * other, self.k)
        return QuadInt(self.x * other.x + self.k * self.y * other.y, self.x * other.y + self.y * other.x, self.k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is int:
            return self.y == 0 and self.x == other
        return self.x == other.x and self.y == other.y

    __hash__ = None

    def __repr__(self):
        return f"QuadInt({self.x} + {self.y}*sqrt({self.k}))"


class _Dual:
    """A dual number (p + q*eps) / d, eps^2 = 0, on integers with d > 0 and
    gcd(p, q, d) = 1: each operation is a few integer products and one gcd.
    Other scalars enter through the gate, so a float raises TypeError."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int, d: int):
        if d < 0:
            p, q, d = -p, -q, -d
        g = math.gcd(p, q, d)
        if g > 1:
            p, q, d = p // g, q // g, d // g
        self.p, self.q, self.d = p, q, d

    @staticmethod
    def _lift(x) -> "_Dual":
        if type(x) is _Dual:
            return x
        n, d = _ratio(x)
        return _Dual(n, 0, d)

    def __add__(self, other):
        o = _Dual._lift(other)
        return _Dual(self.p * o.d + o.p * self.d, self.q * o.d + o.q * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + -_Dual._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _Dual._lift(other)
        return _Dual(self.p * o.p, self.p * o.q + self.q * o.p, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (p + q eps) / (p' + q' eps) = (p + q eps)(p' - q' eps) / p'^2
        o = _Dual._lift(other)
        if o.p == 0:
            raise ZeroDivisionError("division by a non-unit of the dual numbers")
        return _Dual(self.p * o.p * o.d, (self.q * o.p - self.p * o.q) * o.d, self.d * o.p * o.p)

    def __rtruediv__(self, other):
        return _Dual._lift(other) / self

    def __eq__(self, other):
        o = _Dual._lift(other)
        return self.p == o.p and self.q == o.q and self.d == o.d


def jacobian(fn: Callable[[Sequence], Sequence], point: Sequence[Fraction]) -> list[list[Fraction]]:
    """Exact Jacobian of a rational map at ``point`` over the dual numbers.

    Returns the n x m matrix whose (i, j) entry is the partial of output i
    with respect to input j: column j is the eps-part of ``fn`` at the point
    moved by eps along input j.  Outputs that are plain constants have zero
    partials.  Each coordinate of the point passes the scalar gate.
    """
    ratios = [_ratio(x) for x in point]
    columns = []
    for j in range(len(ratios)):
        outputs = fn([_Dual(n, d if i == j else 0, d) for i, (n, d) in enumerate(ratios)])
        columns.append([Fraction(out.q, out.d) if type(out) is _Dual else ZERO for out in outputs])
    return [list(row) for row in zip(*columns)]


# ---------------------------------------------------------------------------
# Exact linear algebra on small rectangular systems


def _forward_eliminate(m: list[list[int]], cols) -> list[int]:
    """Bring the integer rows ``m`` to row echelon form in place, taking
    pivots in the columns ``cols`` in that order; returns the pivot columns.

    A row is eliminated as p row - row[col] top against the pivot p =
    top[col] and divided by its content, so it stays integral and primitive.
    """
    pivots: list[int] = []
    for col in cols:
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            factor = m[r][col]
            if factor != 0:
                row = [p * x - factor * y for x, y in zip(m[r], top)]
                g = math.gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return pivots


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of an exact rational matrix: the number of pivots of the
    fraction-free forward elimination.

    Each row is cleared of denominators once; eliminating a row keeps it
    integral and primitive, so no ``Fraction`` is built.
    """
    m = [clear_denominators(r)[0] for r in rows]
    return len(_forward_eliminate(m, range(len(m[0]) if m else 0)))


def solve_integer(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[list[int], int, list[list[int]]] | None:
    """Solve A x = b exactly for integer A and b, fraction-free.

    Returns None when the system is inconsistent, else (y, q, kernel): the
    particular solution y / q with q > 0, and the kernel basis, each vector
    a positive integer multiple of its reduced-row-echelon basis vector (1
    in its free column).  Both are read off the reduced row echelon form,
    which is unique: the forward elimination of :func:`mat_rank`, then a back
    pass that clears each pivot column above its pivot.  No Fraction is
    built.
    """
    n_var = len(rows[0]) if rows else 0
    aug = [[*r, b] for r, b in zip(rows, rhs)]
    pivots = _forward_eliminate(aug, range(n_var))
    rank = len(pivots)
    if any(row[n_var] != 0 for row in aug[rank:]):
        return None
    # the back pass is the same elimination on the pivot rows taken bottom
    # up, pivoting on their pivot columns right to left: each pivot row is
    # first in its turn, so no row moves
    upper = aug[:rank][::-1]
    _forward_eliminate(upper, pivots[::-1])
    aug[:rank] = upper[::-1]
    # x[col] = aug[r][n_var] / aug[r][col] on pivot row r; scaled by q, the
    # least common multiple of the pivots, every entry is an integer
    q = math.lcm(*(aug[r][col] for r, col in enumerate(pivots))) if pivots else 1
    scales = [q // aug[r][col] for r, col in enumerate(pivots)]
    particular = [0] * n_var
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n_var] * scales[r]
    kernel = []
    for free in (c for c in range(n_var) if c not in pivots):
        vec = [0] * n_var
        vec[free] = q
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free] * scales[r]
        kernel.append(vec)
    return particular, q, kernel


def solve_3x2(rows, rhs) -> tuple[list[int], int, list[list[int]]] | None:
    """:func:`solve_integer` on three integer rows in two unknowns, in closed
    form: the same rational particular solution y / q and kernel vectors that
    are positive multiples of the same reduced-row-echelon basis vectors.

    A nonzero 2x2 minor gives the one solution by Cramer's rule, consistent
    when the third row holds at it; with every minor zero the rows are
    multiples of the first nonzero one, whose pivot is read directly."""
    row1, row2, row3 = [(a, b, r) for (a, b), r in zip(rows, rhs)]
    # the minors of rows (1, 2), (1, 3) and (2, 3), each checked on the third row
    for (ai, bi, ri), (aj, bj, rj), (ak, bk, rk) in ((row1, row2, row3), (row1, row3, row2), (row2, row3, row1)):
        det = ai * bj - aj * bi
        if det != 0:
            x, y = ri * bj - rj * bi, ai * rj - aj * ri
            if ak * x + bk * y != rk * det:
                return None
            return ([x, y], det, []) if det > 0 else ([-x, -y], -det, [])
    # rank at most one: each row (a_i, b_i, r_i) is the same multiple of the
    # first nonzero one, (a, b, r)
    a, b, r = next((row for row in (row1, row2, row3) if row[0] != 0 or row[1] != 0), (0, 0, 0))
    if a == 0 and b == 0:
        return ([0, 0], 1, [[1, 0], [0, 1]]) if not any(rhs) else None
    for ai, bi, ri in (row1, row2, row3):
        if a * ri != ai * r or b * ri != bi * r:
            return None
    if a < 0 or (a == 0 and b < 0):  # a positive pivot
        a, b, r = -a, -b, -r
    if a != 0:  # pivot in the first column: x = r / a, kernel (-b / a, 1)
        return [r, 0], a, [[-b, a]]
    return [0, r], b, [[1, 0]]


def solve_linear(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A x = b exactly over the rationals.

    Returns (particular solution, kernel basis) or None when inconsistent:
    :func:`solve_integer` on the augmented rows, each cleared of
    denominators once, with every entry divided by ``q`` as it is read off,
    so the kernel vectors have 1 in their free columns.
    """
    aug = [clear_denominators([*r, b])[0] for r, b in zip(rows, rhs)]
    solved = solve_integer([row[:-1] for row in aug], [row[-1] for row in aug])
    if solved is None:
        return None
    y, q, kernel = solved
    return [Fraction(x, q) for x in y], [[Fraction(x, q) for x in vec] for vec in kernel]
