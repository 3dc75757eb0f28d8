"""Stratum parametrizations and their registry, exact inversions, coordinate
charts, Type B family membership, and transversality certificates.

Conventions:

- Every parametrized family is a :class:`~affinestrata.models.CatalogEntry`
  in :data:`COEFF_FAMILIES`; its one build takes the parameters as
  numerators over a common denominator h and returns the coefficients'
  numerators over theirs, with ring operations only, so the same definition
  builds the exact model on integers and, at h = 1, is differentiated over
  the dual numbers.
- The flat Type A stratum is charted by (theta, r, s, t) with theta a
  rational circle point and (r, s, t) != 0; the chart is two-to-one along
  the half-turn (theta, r) ~ (-theta, -r), and coordinates returned by
  :func:`flat_a_coords` use the canonical representative with r > 0, or
  lexicographically positive theta when r = 0.
- Flat Type B models fall into three parametrized surfaces; membership is
  reported for every containing family, with intersection curves labeled.
- Alternating Type B models fall into two parametrized 3-folds, again with
  all memberships reported.

The chart inverses and the Type B memberships compute on the model's
integer form: each equation is an integer cross-multiplication.  The
memberships in ``U1`` and ``V2`` run that family's registry build at the
parameters they recover; every membership is built from the integers it
was read or checked at, and the rank-one chart point holds its integer
form, so a Fraction is built only for a flat chart coordinate.

Orbit matching lives in :mod:`affinestrata.matchers`, above the frame
reduction it shares with the solvers; ``match_flat_a_orbit``,
``match_rank1_family`` and their exceptions are also bound here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import (
    ONE,
    ZERO,
    CirclePoint,
    Frozen,
    IntegerForm,
    LinearMap2,
    clear_denominators,
    jacobian,
    mat_rank,
    primitive_covector,
    ratio_str,
    rational,
    rational_str,
    sqrt_rational,
)
from .curvature import is_flat_a, rank1_scale, rank_signature, ricci_type_a, ricci_type_b, split_ricci
from .law import pullback_type_a
from .matchers import NotFlatError

# bound here as well, because the benchmark's span table (``bench/spans.py``
# ``TARGETS``) traces these two and its error counters read the exception
# under this module's name
from .matchers import UnmatchedOrbitError, match_flat_a_orbit, match_rank1_family  # noqa: F401
from .models import CatalogEntry, CatalogError, FamilyMembership, TypeAModel, TypeBModel


class ConePointError(ValueError):
    """The zero model is a singular point of the chart."""


class NonRationalCirclePointError(ValueError):
    """The circle point demanded by the data is irrational; reported, never
    approximated."""


class NotRank1Error(ValueError):
    """The operation requires a rank-one Ricci tensor."""


class NonRationalRotationError(ValueError):
    """The reducing rotation would have irrational cosine/sine; the quadratic
    it must satisfy is reported exactly."""


class NotInStratumError(ValueError):
    """The model does not lie in the requested stratum."""


# ---------------------------------------------------------------------------
# Flat Type A chart


class FlatAChart(Frozen):
    """Chart data (theta, r, s, t) for a nonzero flat Type A model."""

    __slots__ = ("theta", "r", "s", "t")

    def to_dict(self) -> dict:
        (c, sn), n = self.theta.integer_form
        return {
            "theta": [ratio_str(c, n), ratio_str(sn, n)],
            "r": rational_str(self.r),
            "s": rational_str(self.s),
            "t": rational_str(self.t),
        }


def flat_a_param(theta: CirclePoint, r, s, t) -> TypeAModel:
    """The flat model at chart point (theta, r, s, t).

    Invariant under the half-turn (theta, r) -> (-theta, -r); the zero
    parameter triple is rejected because the chart is singular at the cone
    point.  Built from the integer form of theta and the numerators of
    (r, s, t) over their denominator.
    """
    (c, sn), n = theta.integer_form
    (r, s, t), h = clear_denominators([rational(x) if isinstance(x, str) else x for x in (r, s, t)])
    return TypeAModel.of_integers(*_flat_a_coeffs(c, sn, n, r, s, t, h))


def _flat_a_coeffs(c, sn, n, r, s, t, h) -> tuple:
    """The coefficients of :func:`flat_a_param` at theta = (c, sn) / n and
    (r, s, t) / h, as numerators over the denominator h n^3, over any scalar
    ring."""
    if r == 0 and s == 0 and t == 0:
        raise ConePointError("the chart is singular at (r, s, t) = 0")
    cos2 = c * c - sn * sn
    sin2 = 2 * c * sn
    p = r * sn * sn * sn + n * (s * sin2 - t * cos2)
    q = r * c * sn * sn + n * (s * cos2 + t * sin2)
    n2 = n * n
    v = r * c * n2
    w = r * sn * n2
    n3 = n * n2
    return (2 * q, p + t * n3, w, q + s * n3, v, p - t * n3), h * n3


def flat_a_coords(m: TypeAModel) -> FlatAChart:
    """Invert :func:`flat_a_param` on its canonical representatives.

    Raises ConePointError on the zero model, NotFlatError off the flat
    stratum, and NonRationalCirclePointError when the circle point the data
    demands is irrational.
    """
    if m.is_zero():
        raise ConePointError("the cone point carries no chart coordinates")
    if not is_flat_a(m):
        raise NotFlatError("flat_a_coords requires a flat model")
    return _flat_a_coords(m)


def _flat_a_coords(m: TypeAModel) -> FlatAChart:
    """:func:`flat_a_coords` of a nonzero flat model.

    The linear chart a = 2q, b = p + t, c = w, d = q + s, e = v, f = p - t is
    inverted on the integer form of ``m``: the names below hold the
    numerators of p, q, s, t, v, w over 2L, so the radius, the residual and
    the double angle are integer tests."""
    (a, b, c, d, e, f), den = m.integer_form
    den *= 2
    q, w, s, v, p, t = a, 2 * c, 2 * d - a, 2 * e, b + f, b - f
    if v != 0 or w != 0:
        r2 = v * v + w * w
        r = math.isqrt(r2)
        if r * r != r2:
            raise NonRationalCirclePointError(
                f"the radius must satisfy x^2 = {ratio_str(r2, den * den)}, which has no rational root"
            )
        theta = CirclePoint.of_integers((v, w), r)
        return FlatAChart(theta, Fraction(r, den), Fraction(s, den), Fraction(t, den))
    # r = 0 branch: p^2 + q^2 = s^2 + t^2 and theta is read from (p, q, s, t)
    norm = s * s + t * t
    if norm == 0:
        raise ConePointError("degenerate chart data")
    if p * p + q * q != norm:
        raise NotFlatError("chart residual is nonzero")  # unreachable for flat input
    # cos 2theta = (s q - t p) / norm and sin 2theta = (s p + t q) / norm
    cos2, sin2 = s * q - t * p, s * p + t * q
    if cos2 == -norm:
        theta = CirclePoint(ZERO, ONE)
    else:
        half = Fraction(norm + cos2, 2 * norm)  # (1 + cos 2theta) / 2
        c = sqrt_rational(half)
        if c is None:
            raise NonRationalCirclePointError(
                f"the cosine must satisfy x^2 = {rational_str(half)}, which has no rational root"
            )
        theta = CirclePoint(c, Fraction(sin2 * c.denominator, 2 * norm * c.numerator))  # sin 2theta / (2c)
    if not theta.is_lex_positive():
        theta = theta.antipode()
    return FlatAChart(theta, ZERO, Fraction(s, den), Fraction(t, den))


# ---------------------------------------------------------------------------
# Rank-one chart and rotation reduction


class Rank1Chart(IntegerForm):
    """Coordinates (p, q, u, v) on the reduced rank-one stratum.

    The reconstructed model has b = d = 0 and Ricci scale
    p^2 + q^2 - u^2 - v^2; the sign of that scale separates the
    positive and negative semi-definite strata.

    Held as its integer form, the numerators of (p, q, u, v) over a
    denominator D > 0 in lowest terms; the scale, its sign and the report
    read it, and the Fraction coordinates are built on first read.  Equality
    and hashing compare the coordinates.
    """

    __slots__ = ()
    _fields = ("p", "q", "u", "v")

    def __init__(self, p, q, u, v):
        self._clear((p, q, u, v))

    coords = property(IntegerForm._fractions)
    p = property(lambda self: self.coords[0])
    q = property(lambda self: self.coords[1])
    u = property(lambda self: self.coords[2])
    v = property(lambda self: self.coords[3])

    @property
    def scale(self) -> Fraction:
        (p, q, u, v), den = self.integer_form
        return Fraction(p * p + q * q - u * u - v * v, den * den)

    @property
    def sign(self) -> str:
        (p, q, u, v), _ = self.integer_form
        scale = p * p + q * q - u * u - v * v
        if scale > 0:
            return "+"
        return "-" if scale < 0 else "0"

    def to_dict(self) -> dict:
        (p, q, u, v), den = self.integer_form
        return {
            "p": ratio_str(p, den),
            "q": ratio_str(q, den),
            "u": ratio_str(u, den),
            "v": ratio_str(v, den),
            "sign": self.sign,
        }


def rank1_chart_forward(p, q, u, v) -> TypeAModel:
    return COEFF_FAMILIES["rank1_chart"].model((p, q, u, v))


def rank1_chart_inverse(m: TypeAModel) -> Rank1Chart:
    """(p, q, u, v) = (f / 2, (a + e) / 2, c - f / 2, (a - e) / 2), on the
    numerators of the integer form of ``m`` over 2L."""
    (a, b, c, d, e, f), den = m.integer_form
    if b != 0 or d != 0:
        raise ValueError("the chart inverse requires b = d = 0")
    return Rank1Chart.of_integers((f, a + e, 2 * c - f, a - e), 2 * den)


class Rank1Reduction(Frozen):
    """The rotation of :func:`rank1_reduce`, the rotated model and its Ricci
    scale."""

    __slots__ = ("rotation", "normalized", "scale")


def rank1_reduce(m: TypeAModel) -> Rank1Reduction:
    """Rotate a rank-one model so its Ricci tensor is a multiple of
    dx2 (x) dx2; the rotated model then has b = d = 0.

    The rotation must be a rational circle point; when the kernel direction
    has irrational norm the exact quadratic is reported instead.
    """
    r = ricci_type_a(m)
    sig = rank_signature(r)
    if sig.rank != 1:
        raise NotRank1Error(f"Ricci rank is {sig.rank}, not 1")
    (r11, r12, _, r22), _ = r.integer_form
    row = (r11, r12) if r11 or r12 else (r12, r22)
    k = primitive_covector((-row[1], row[0]))  # kernel direction
    norm2 = k[0] * k[0] + k[1] * k[1]
    n = math.isqrt(norm2)
    if n * n != norm2:
        raise NonRationalRotationError(
            f"the rotation requires x^2 = {ratio_str(norm2, 1)} to have a rational root"
        )
    theta = CirclePoint.of_integers(k, n)
    if not theta.is_lex_positive():
        theta = theta.antipode()
    t = LinearMap2(theta.rotation())
    normalized = pullback_type_a(m, t)
    if normalized.b != 0 or normalized.d != 0:
        raise AssertionError("rotation failed to reduce the model")
    return Rank1Reduction(theta, normalized, rank1_scale(r))


# ---------------------------------------------------------------------------
# The parametrization registry

# Each build takes the parameters as numerators over one denominator h and
# returns the coefficients' numerators over theirs (CatalogEntry), with ring
# operations only, so the same definitions feed exact evaluation on integers
# and differentiation over the dual numbers.


def _flat_a(x, h):
    """The flat chart with theta the circle point of a slope; it raises
    ConePointError (a domain error, not a constraint) at (r, s, t) = 0."""
    slope, r, s, t = x
    return _flat_a_coeffs(h * h - slope * slope, 2 * slope * h, h * h + slope * slope, r, s, t, h)


def _u1(x, h):
    r, s = x
    h2 = h * h
    head = h * h2 + r * s * s
    return (h * head, -s * head, r * s * h2, -r * s * s * h, r * h * h2, -r * s * h2), h2 * h2


def _u2(x, h):
    u, v = x
    return (u, v, 0, 0, 0, 0), h


def _u3(x, h):
    u, v = x
    return (u, v, 0, h + u, 0, 0), h


def _u1_closure(x, h):
    t, w = x
    tw = t * w
    h2 = h * h
    one = h2 + tw  # h^2 (1 + tw)
    two = h2 + one  # h^2 (2 + tw)
    return (-tw * two * h, w * one * two, -t * one * h2, one * one * h, -t * t * h * h2, t * one * h2), h2 * h2 * h


def _v1(x, h):
    r, s, t = x
    return (s, t, r, 0, 0, r), h


def _v2(x, h):
    u, v, w = x
    vw = v * w
    uh = u * h
    h2 = h * h
    h3 = h * h2
    return (
        h * (h3 - 2 * uh * w + vw * w),
        w * (h3 - uh * w + vw * w),
        h2 * (uh - vw),
        -vw * w * h,
        v * h3,
        h2 * (uh + vw),
    ), h2 * h2


def _rank1_chart(x, h):
    p, q, u, v = x
    return (q + v, 0, u + p, 0, q - v, 2 * p), h


def _leading_nonzero(x, _h):
    if x[0] == 0:
        return "zero leading parameter lands in the flat stratum"
    return None


COEFF_FAMILIES = {
    e.entry_id: e
    for e in [
        CatalogEntry("flat_a", "A", ("slope", "r", "s", "t"), "(r, s, t) != 0", _flat_a),
        CatalogEntry("U1", "B", ("r", "s"), "", _u1, aliases=("1",)),
        CatalogEntry("U2", "B", ("u", "v"), "", _u2, aliases=("2",)),
        CatalogEntry("U3", "B", ("u", "v"), "", _u3, aliases=("3",)),
        CatalogEntry("U1_closure", "B", ("t", "w"), "", _u1_closure, aliases=("closure",)),
        CatalogEntry(
            "V1", "B", ("r", "s", "t"), "leading parameter != 0", _v1, _leading_nonzero, ("1",)
        ),
        CatalogEntry(
            "V2", "B", ("u", "v", "w"), "leading parameter != 0", _v2, _leading_nonzero, ("2",)
        ),
        CatalogEntry("rank1_chart", "A", ("p", "q", "u", "v"), "", _rank1_chart),
    ]
}


def _family_model(family_ids, label: str, family, params: Sequence) -> TypeBModel:
    """The model of the family among ``family_ids`` that ``family`` names by
    id or alias."""
    key = str(family)
    for entry_id in family_ids:
        entry = COEFF_FAMILIES[entry_id]
        if key == entry_id or key in entry.aliases:
            return entry.model(params)
    raise CatalogError(f"unknown {label} family {family!r}")


def flat_b_param(family, params: Sequence) -> TypeBModel:
    """One of the three flat surfaces (or the closure chart of the first).

    Family 1 admits r = 0 for the extended surface; the closure chart admits
    any (t, w).
    """
    return _family_model(("U1", "U2", "U3", "U1_closure"), "flat", family, params)


def alt_b_param(family, params: Sequence) -> TypeBModel:
    """One of the two alternating-Ricci 3-folds; the leading parameter is the
    alternating Ricci entry and must be nonzero."""
    return _family_model(("V1", "V2"), "alternating", family, params)


# ---------------------------------------------------------------------------
# Type B membership


class TypeBMembership(Frozen):
    """Every flat or alternating family containing a Type B model, with the
    intersection curves or surfaces it lies on."""

    __slots__ = ("members", "intersections")

    def to_dict(self) -> dict:
        return {
            "members": [m.to_dict() for m in self.members],
            "intersections": list(self.intersections),
        }


def _builds(family_id: str, member: str, x, h: int, m: TypeBModel) -> FamilyMembership | None:
    """The membership ``member`` at the parameters x / h (h != 0) when the
    family's build there is the model ``m``, by cross-multiplying the
    numerators; None when it is not."""
    (n1, n2, n3, n4, n5, n6), den = COEFF_FAMILIES[family_id].build(x, h)
    (a, b, c, d, e, f), L = m.integer_form
    if (
        n1 * L == a * den and n2 * L == b * den and n3 * L == c * den
        and n4 * L == d * den and n5 * L == e * den and n6 * L == f * den
    ):
        return FamilyMembership.of_integers(x, h, member)
    return None


def classify_flat_b(m: TypeBModel) -> TypeBMembership:
    """All flat families containing a flat Type B model, with intersection
    curves flagged.  Raises NotFlatError off the stratum; a flat model that
    matches no family is a broken invariant and raises NotInStratumError.
    """
    if not ricci_type_b(m).is_zero():
        raise NotFlatError("classify_flat_b requires a flat model")
    return _classify_flat_b(m)


def _classify_flat_b(m: TypeBModel) -> TypeBMembership:
    """:func:`classify_flat_b` of a flat model, on its integer form
    (A, ..., F) / L."""
    (a, b, c, d, e, f), den = m.integer_form
    members: list[FamilyMembership] = []
    labels: list[str] = []
    if e != 0:
        # r = E / L and s = C / E, over the denominator L E
        member = _builds("U1", "B1", (e * e, c * den), den * e, m)
        if member is None:
            raise NotInStratumError("flat model with e != 0 escapes the first family")
        return TypeBMembership((member,), ())
    # e = 0 and flatness force c = f = 0 and d (1 + a - d) = 0
    if c != 0 or f != 0 or d * (den + a - d) != 0:
        raise NotInStratumError("flat model escapes the coordinate families")
    if d == 0:
        members.append(FamilyMembership.of_integers((a, b), den, "B2"))
    if d == den + a:
        members.append(FamilyMembership.of_integers((a, b), den, "B3"))
    if d == 0 and d == den + a:
        labels.append("B2&B3")
    if d == 0 and a == den:
        labels.append("B1~&B2")  # limit of the first family as r -> 0
    if d == den + a and a == 0:
        members.append(FamilyMembership.of_integers((0, b), 2 * den, "B1closure"))
        labels.append("B1~&B3")
    if not members:
        raise NotInStratumError("flat model escapes all three families")
    return TypeBMembership(tuple(members), tuple(labels))


def classify_alt_b(m: TypeBModel) -> TypeBMembership:
    """All alternating families containing the model, with exact parameters.

    Membership in the second family uses the recovery u = (c + f)/2, v = e,
    then w = (f - u)/v, or (1 - a)/(2u) when v = 0; regeneration is checked
    exactly.
    """
    split = split_ricci(ricci_type_b(m))
    if not split.sym_is_zero() or split.alt == 0:
        raise NotInStratumError("classify_alt_b requires sym = 0 and alt != 0")
    return _classify_alt_b(m)


def _classify_alt_b(m: TypeBModel) -> TypeBMembership:
    """:func:`classify_alt_b` of a model with sym = 0 and alt != 0."""
    (a, b, c, d, e, f), den = m.integer_form
    members: list[FamilyMembership] = []
    if d == 0 and e == 0 and c == f:
        members.append(FamilyMembership.of_integers((c, a, b), den, "D1"))
    u = c + f  # u = U / 2L and v = E / L
    if u != 0:
        # w = (f - u) / v = (F - C) / 2E, or (1 - a) / (2u) = (L - A) / U
        wn, wd = (f - c, 2 * e) if e != 0 else (den - a, u)
        # (u, v, w) over the denominator 2 L wd
        member = _builds("V2", "D2", (u * wd, 2 * e * wd, 2 * den * wn), 2 * den * wd, m)
        if member is not None:
            members.append(member)
    labels = ("D1&D2",) if len(members) == 2 else ()
    if not members:
        raise NotInStratumError("alternating model escapes both families")
    return TypeBMembership(tuple(members), labels)


# ---------------------------------------------------------------------------
# Transversality certificates


def tangent_sum_rank(family_points: Sequence[tuple[str, Sequence]]) -> int:
    """Exact rank of the concatenated Jacobians of several parametrizations
    at points mapping to one common model.

    Two surfaces meet transversally along a curve exactly when this rank is 3.
    Each point is checked as the family's model checks it, so a wrong arity
    or a violated constraint raises the same CatalogError.
    """
    if not family_points:
        raise ValueError("at least one family/point pair is required")
    images = []
    jacobians = []
    for family, params in family_points:
        entry = COEFF_FAMILIES.get(str(family))
        if entry is None:
            raise CatalogError(f"unknown parametrized family {family!r}")
        nums, den = entry.cleared(params)
        values = [Fraction(n, den) for n in nums]
        images.append(entry.evaluate(values))
        jacobians.append(jacobian(entry.evaluate, values))
    if any(img != images[0] for img in images[1:]):
        raise ValueError("the chart points map to different models")
    return mat_rank([[x for jac in jacobians for x in jac[i]] for i in range(6)])  # row i of every Jacobian
