"""Stratum parametrizations, their exact inversions, coordinate charts,
canonical-orbit matchers, and transversality certificates.

Conventions:

- The flat Type A stratum is charted by (theta, r, s, t) with theta a
  rational circle point and (r, s, t) != 0; the chart is two-to-one along
  the half-turn (theta, r) ~ (-theta, -r), and coordinates returned by
  :func:`flat_a_coords` use the canonical representative with r > 0, or
  lexicographically positive theta when r = 0.
- Flat Type B models fall into three parametrized surfaces; membership is
  reported for every containing family, with intersection curves labeled.
- Alternating Type B models fall into two parametrized 3-folds, again with
  all memberships reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import (
    ONE,
    ZERO,
    CirclePoint,
    Mat2,
    clear_denominators,
    jacobian,
    mat2_from_cols,
    mat_rank,
    primitive_covector,
    rational,
    solve_linear,
    sqrt_rational,
)
from .curvature import (
    binary_cubic,
    coefficient_rank,
    rank1_scale,
    rank_signature,
    ricci_type_a,
    ricci_type_b,
    split_ricci,
)
from .group_action import (
    LinearMap2,
    _frame_inverse,
    _product,
    _reduced_numerators,
    _solve_reduced_pair,
    carries,
    pullback_type_a,
    rank1_frame,
)
from .models import CatalogError, TypeAModel, TypeBModel, canonical_model
from .polys import binary_cubic_pattern


class NotFlatError(ValueError):
    """The operation requires a flat model."""


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


class UnmatchedOrbitError(ValueError):
    """No canonical-orbit matcher produced a verified witness."""


# ---------------------------------------------------------------------------
# Flat Type A chart


@dataclass(frozen=True)
class FlatAChart:
    """Chart data (theta, r, s, t) for a nonzero flat Type A model."""

    theta: CirclePoint
    r: Fraction
    s: Fraction
    t: Fraction

    def to_dict(self) -> dict:
        return {
            "theta": [str(self.theta.c), str(self.theta.s)],
            "r": str(self.r),
            "s": str(self.s),
            "t": str(self.t),
        }


def flat_a_param(theta: CirclePoint, r, s, t) -> TypeAModel:
    """The flat model at chart point (theta, r, s, t).

    Invariant under the half-turn (theta, r) -> (-theta, -r); the zero
    parameter triple is rejected because the chart is singular at the cone
    point.
    """
    r, s, t = rational(r), rational(s), rational(t)
    if r == 0 and s == 0 and t == 0:
        raise ConePointError("the chart is singular at (r, s, t) = 0")
    c, sn = theta.c, theta.s
    cos2 = c * c - sn * sn
    sin2 = 2 * c * sn
    p = r * sn * sn * sn + s * sin2 - t * cos2
    q = r * c * sn * sn + s * cos2 + t * sin2
    v = r * c
    w = r * sn
    return TypeAModel(2 * q, p + t, w, q + s, v, p - t)


def flat_a_coords(m: TypeAModel) -> FlatAChart:
    """Invert :func:`flat_a_param` on its canonical representatives.

    Raises ConePointError on the zero model, NotFlatError off the flat
    stratum, and NonRationalCirclePointError when the circle point the data
    demands is irrational.
    """
    if m.is_zero():
        raise ConePointError("the cone point carries no chart coordinates")
    if not ricci_type_a(m).is_zero():
        raise NotFlatError("flat_a_coords requires a flat model")
    return _flat_a_coords(m)


def _flat_a_coords(m: TypeAModel) -> FlatAChart:
    """:func:`flat_a_coords` of a nonzero flat model."""
    # invert the linear chart a=2q, b=p+t, c=w, d=q+s, e=v, f=p-t
    q = m.a / 2
    w = m.c
    s = m.d - m.a / 2
    v = m.e
    p = (m.b + m.f) / 2
    t = (m.b - m.f) / 2
    if v != 0 or w != 0:
        r2 = v * v + w * w
        r = sqrt_rational(r2)
        if r is None:
            raise NonRationalCirclePointError(
                f"the radius must satisfy x^2 = {r2}, which has no rational root"
            )
        theta = CirclePoint(v / r, w / r)
        return FlatAChart(theta, r, s, t)
    # r = 0 branch: p^2 + q^2 = s^2 + t^2 and theta is read from (p, q, s, t)
    den = s * s + t * t
    if den == 0:
        raise ConePointError("degenerate chart data")
    if p * p + q * q != den:
        raise NotFlatError("chart residual is nonzero")  # unreachable for flat input
    cos2 = (s * q - t * p) / den
    sin2 = (s * p + t * q) / den
    if cos2 == -1:
        theta = CirclePoint(ZERO, ONE)
    else:
        c = sqrt_rational((1 + cos2) / 2)
        if c is None:
            raise NonRationalCirclePointError(
                f"the cosine must satisfy x^2 = {(1 + cos2) / 2}, which has no rational root"
            )
        theta = CirclePoint(c, sin2 / (2 * c))
    if not theta.is_lex_positive():
        theta = theta.antipode()
    return FlatAChart(theta, ZERO, s, t)


# ---------------------------------------------------------------------------
# Rank-one chart and rotation reduction


@dataclass(frozen=True)
class Rank1Chart:
    """Coordinates (p, q, u, v) on the reduced rank-one stratum.

    The reconstructed model has b = d = 0 and Ricci scale
    p^2 + q^2 - u^2 - v^2; the sign of that scale separates the
    positive and negative semi-definite strata.
    """

    p: Fraction
    q: Fraction
    u: Fraction
    v: Fraction

    @property
    def scale(self) -> Fraction:
        return self.p * self.p + self.q * self.q - self.u * self.u - self.v * self.v

    @property
    def sign(self) -> str:
        scale = self.scale
        if scale > 0:
            return "+"
        return "-" if scale < 0 else "0"

    def to_dict(self) -> dict:
        return {
            "p": str(self.p),
            "q": str(self.q),
            "u": str(self.u),
            "v": str(self.v),
            "sign": self.sign,
        }


def rank1_chart_forward(p, q, u, v) -> TypeAModel:
    p, q, u, v = (rational(x) for x in (p, q, u, v))
    return TypeAModel(q + v, ZERO, u + p, ZERO, q - v, 2 * p)


def rank1_chart_inverse(m: TypeAModel) -> Rank1Chart:
    if m.b != 0 or m.d != 0:
        raise ValueError("the chart inverse requires b = d = 0")
    return Rank1Chart(m.f / 2, (m.a + m.e) / 2, m.c - m.f / 2, (m.a - m.e) / 2)


def rank1_chart(direction: str, data):
    """Dispatching form: 'forward' takes (p, q, u, v); 'inverse' takes a model."""
    if direction == "forward":
        return rank1_chart_forward(*data)
    if direction == "inverse":
        return rank1_chart_inverse(data)
    raise ValueError(f"unknown chart direction {direction!r}")


@dataclass(frozen=True)
class Rank1Reduction:
    rotation: CirclePoint
    normalized: TypeAModel
    scale: Fraction


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
    (r11, r12), (_, r22) = r.rows
    row = (r11, r12) if (r11, r12) != (ZERO, ZERO) else (r12, r22)
    k = primitive_covector((-row[1], row[0]))  # kernel direction
    norm2 = Fraction(k[0] * k[0] + k[1] * k[1])
    n = sqrt_rational(norm2)
    if n is None:
        raise NonRationalRotationError(
            f"the rotation requires x^2 = {norm2} to have a rational root"
        )
    theta = CirclePoint(Fraction(k[0]) / n, Fraction(k[1]) / n)
    if not theta.is_lex_positive():
        theta = theta.antipode()
    t = LinearMap2(theta.rotation())
    normalized = pullback_type_a(m, t)
    if normalized.b != 0 or normalized.d != 0:
        raise AssertionError("rotation failed to reduce the model")
    return Rank1Reduction(theta, normalized, rank1_scale(r))


# ---------------------------------------------------------------------------
# Type B parametrized families

# Coefficient maps are generic over the scalar ring so the same definitions
# feed both exact evaluation and jet differentiation.


def _u1(params):
    r, s = params
    head = 1 + r * s * s
    return (head, -s * head, r * s, -r * s * s, r, -r * s)


def _u2(params):
    u, v = params
    zero = u - u
    return (u, v, zero, zero, zero, zero)


def _u3(params):
    u, v = params
    zero = u - u
    return (u, v, zero, 1 + u, zero, zero)


def _u1_closure(params):
    t, w = params
    tw = t * w
    return (
        -tw * (2 + tw),
        w * (2 + 3 * tw + tw * tw),
        -t * (1 + tw),
        (1 + tw) * (1 + tw),
        -t * t,
        t * (1 + tw),
    )


def _v1(params):
    r, s, t = params
    zero = r - r
    return (s, t, r, zero, zero, r)


def _v2(params):
    u, v, w = params
    vw = v * w
    return (1 - 2 * u * w + vw * w, w * (1 - u * w + vw * w), u - vw, -vw * w, v, u + vw)


def _rank1_chart_map(params):
    p, q, u, v = params
    zero = p - p
    return (q + v, zero, u + p, zero, q - v, 2 * p)


COEFF_FAMILIES: dict[str, tuple[int, Callable]] = {
    "U1": (2, _u1),
    "U2": (2, _u2),
    "U3": (2, _u3),
    "U1_closure": (2, _u1_closure),
    "V1": (3, _v1),
    "V2": (3, _v2),
    "rank1_chart": (4, _rank1_chart_map),
}

_FLAT_B_ALIASES = {"1": "U1", "2": "U2", "3": "U3", "closure": "U1_closure",
                   "U1": "U1", "U2": "U2", "U3": "U3", "U1_closure": "U1_closure"}
_ALT_B_ALIASES = {"1": "V1", "2": "V2", "V1": "V1", "V2": "V2"}


def flat_b_param(family, params: Sequence) -> TypeBModel:
    """One of the three flat surfaces (or the closure chart of the first).

    Family 1 admits r = 0 for the extended surface; the closure chart admits
    any (t, w).
    """
    key = _FLAT_B_ALIASES.get(str(family))
    if key is None:
        raise CatalogError(f"unknown flat family {family!r}")
    arity, fn = COEFF_FAMILIES[key]
    values = [rational(p) for p in params]
    if len(values) != arity:
        raise CatalogError(f"family {key} takes {arity} parameters")
    return TypeBModel(*fn(values))


def alt_b_param(family, params: Sequence) -> TypeBModel:
    """One of the two alternating-Ricci 3-folds; the leading parameter is the
    alternating Ricci entry and must be nonzero."""
    key = _ALT_B_ALIASES.get(str(family))
    if key is None:
        raise CatalogError(f"unknown alternating family {family!r}")
    arity, fn = COEFF_FAMILIES[key]
    values = [rational(p) for p in params]
    if len(values) != arity:
        raise CatalogError(f"family {key} takes {arity} parameters")
    if values[0] == 0:
        raise CatalogError("zero leading parameter lands in the flat stratum")
    return TypeBModel(*fn(values))


# ---------------------------------------------------------------------------
# Type B membership


@dataclass(frozen=True)
class FamilyMembership:
    family: str
    params: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {"family": self.family, "params": [str(p) for p in self.params]}


@dataclass(frozen=True)
class FlatBClass:
    members: tuple[FamilyMembership, ...]
    intersections: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "members": [m.to_dict() for m in self.members],
            "intersections": list(self.intersections),
        }


@dataclass(frozen=True)
class AltBClass:
    members: tuple[FamilyMembership, ...]
    intersections: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "members": [m.to_dict() for m in self.members],
            "intersections": list(self.intersections),
        }


def classify_flat_b(m: TypeBModel) -> FlatBClass:
    """All flat families containing a flat Type B model, with intersection
    curves flagged.  Raises NotFlatError off the stratum; a flat model that
    matches no family is a broken invariant and raises NotInStratumError.
    """
    if not ricci_type_b(m).is_zero():
        raise NotFlatError("classify_flat_b requires a flat model")
    return _classify_flat_b(m)


def _classify_flat_b(m: TypeBModel) -> FlatBClass:
    """:func:`classify_flat_b` of a flat model."""
    a, b, c, d, e, f = m.coeffs
    members: list[FamilyMembership] = []
    labels: list[str] = []
    if e != 0:
        r, s = e, c / e
        if tuple(_u1([r, s])) != m.coeffs:
            raise NotInStratumError("flat model with e != 0 escapes the first family")
        return FlatBClass((FamilyMembership("B1", (r, s)),), ())
    # e = 0 and flatness force c = f = 0 and d (1 + a - d) = 0
    if c != 0 or f != 0 or d * (1 + a - d) != 0:
        raise NotInStratumError("flat model escapes the coordinate families")
    if d == 0:
        members.append(FamilyMembership("B2", (a, b)))
    if d == 1 + a:
        members.append(FamilyMembership("B3", (a, b)))
    if d == 0 and d == 1 + a:
        labels.append("B2&B3")
    if d == 0 and a == 1:
        labels.append("B1~&B2")  # limit of the first family as r -> 0
    if d == 1 + a and a == 0:
        members.append(FamilyMembership("B1closure", (ZERO, b / 2)))
        labels.append("B1~&B3")
    if not members:
        raise NotInStratumError("flat model escapes all three families")
    return FlatBClass(tuple(members), tuple(labels))


def classify_alt_b(m: TypeBModel) -> AltBClass:
    """All alternating families containing the model, with exact parameters.

    Membership in the second family uses the recovery u = (c + f)/2, v = e,
    then w = (f - u)/v, or (1 - a)/(2u) when v = 0; regeneration is checked
    exactly.
    """
    split = split_ricci(ricci_type_b(m))
    if not split.sym_is_zero() or split.alt == 0:
        raise NotInStratumError("classify_alt_b requires sym = 0 and alt != 0")
    return _classify_alt_b(m)


def _classify_alt_b(m: TypeBModel) -> AltBClass:
    """:func:`classify_alt_b` of a model with sym = 0 and alt != 0."""
    a, b, c, d, e, f = m.coeffs
    members: list[FamilyMembership] = []
    if d == 0 and e == 0 and c == f:
        members.append(FamilyMembership("D1", (c, a, b)))
    u = (c + f) / 2
    v = e
    if u != 0:
        w = (f - u) / v if v != 0 else (1 - a) / (2 * u)
        if tuple(_v2([u, v, w])) == m.coeffs:
            members.append(FamilyMembership("D2", (u, v, w)))
    labels = ("D1&D2",) if len(members) == 2 else ()
    if not members:
        raise NotInStratumError("alternating model escapes both families")
    return AltBClass(tuple(members), labels)


# ---------------------------------------------------------------------------
# Flat Type A orbit matching
#
# Soundness is absolute: a claimed witness is always re-verified by exact
# pullback of the canonical model.  Screening uses cheap orbit invariants
# (the rank of the coefficient matrix, the trace covector, and the binary
# cubic's root pattern where needed); each orbit then has a structured
# recovery of the witness.


def _probe_gammas(g):
    """G(u, u) at the probe vectors u = e1, e2, e1 + e2, read off a
    coefficient tuple."""
    a, b, c, d, e, f = g
    return ((a, b), (e, f), (a + 2 * c + e, b + 2 * d + f))


def _flat_rows(g, o1, o2):
    """2 G(e_i, e_j) - e_i omega_j - omega_i e_j for the basis pairs
    (e1, e1), (e1, e2), (e2, e2), one row each, from the coefficient tuple
    ``g`` and its trace form ``(o1, o2)``."""
    a, b, c, d, e, f = g
    return [[2 * (a - o1), 2 * b], [2 * c - o2, 2 * d - o1], [2 * e, 2 * (f - o2)]]


def _verify_orbit(orbit_id: str, t: Mat2, m: TypeAModel) -> tuple[str, LinearMap2] | None:
    if t.det() == 0:
        return None
    if carries(canonical_model(orbit_id).coeffs, t.rows, m.coeffs):
        return (orbit_id, LinearMap2(t))
    return None


def _verify_frame(orbit_id: str, s: Mat2, m: TypeAModel) -> tuple[str, LinearMap2] | None:
    """:func:`_verify_orbit` for the witness T = S^-1, checked as
    pullback(m, S) = canonical, so S is inverted only when it is a witness."""
    if s.det() == 0:
        return None
    if carries(m.coeffs, s.rows, canonical_model(orbit_id).coeffs):
        return (orbit_id, LinearMap2(s.inverse()))
    return None


# The matchers below work on the cleared numerators: G = g / L and the trace
# form omega = o / L with integer g, o, so every equation is built on integers
# and a Fraction appears only where a witness entry or a root is read off.


def _match_m1(m: TypeAModel):
    # orbit structure: G(u, v) = l(u) v + l(v) u - l(u) l(v) w with l(w) = 1;
    # the trace covector recovers 2l = o / L.  Probing with u = e1 (or e2
    # when l(e1) = 0) gives w = 4 L (o(u) u - g(u, u)) / o(u)^2.
    g, L = clear_denominators(m.coeffs)
    a, b, _, _, e, f = g
    o1, o2 = g[0] + g[3], g[2] + g[5]
    if o1 == 0 and o2 == 0:
        return None
    if o1 != 0:
        ou, w1, w2 = o1, 4 * L * (o1 - a), -4 * L * b
    else:
        ou, w1, w2 = o2, -4 * L * e, 4 * L * (o2 - f)
    den = ou * ou
    if o1 * w1 + o2 * w2 != 2 * L * den:  # l(w) = 1
        return None
    t = Mat2(((Fraction(w1, den), Fraction(-o2, 2 * L)), (Fraction(w2, den), Fraction(o1, 2 * L))))
    return _verify_orbit("M1_0", t, m)


def _match_m2(m: TypeAModel):
    # rows of S = (sigma, sigma + omega) with sigma(G(u,v)) = -sigma(u)sigma(v);
    # eliminating the square leaves a linear system for sigma, one equation
    # per basis pair (e_i, e_j); for sigma = y / L it has integer rows
    g, L = clear_denominators(m.coeffs)
    a, b, c, d, e, f = g
    o1, o2 = a + d, c + f
    rhs = [o1 * o1 - (o1 * a + o2 * b), o1 * o2 - (o1 * c + o2 * d), o2 * o2 - (o1 * e + o2 * f)]
    solved = solve_linear(_flat_rows(g, o1, o2), rhs)
    if solved is None:
        return None
    y, kernel = solved
    (y1, y2), dy = clear_denominators(y)
    candidates = []  # (n, q): sigma = n / (L q)
    if not kernel:
        candidates.append(((y1, y2), dy))
    elif len(kernel) == 1:
        # y = (Y + w K) / dy along the kernel line K / dk; w = (dk / dy) z
        # keeps the orientation of the original parameter z, so the roots
        # come in the same order
        (k1, k2), _ = clear_denominators(kernel[0])
        y3, k3 = y1 + y2, k1 + k2
        for ku, yu, gu in zip((k1, k2, k3), (y1, y2, y3), _probe_gammas(g)):
            if ku == 0:
                continue
            # sigma(G(u,u)) + sigma(u)^2 = 0 pins the free parameter
            qa = ku * ku
            qb = 2 * yu * ku + dy * (k1 * gu[0] + k2 * gu[1])
            qc = dy * (y1 * gu[0] + y2 * gu[1]) + yu * yu
            disc = qb * qb - 4 * qa * qc
            root = math.isqrt(disc) if disc >= 0 else -1
            if root * root == disc:
                wd = 2 * qa
                for wn in ((-qb + root, -qb - root) if root else (-qb,)):
                    candidates.append(((wd * y1 + wn * k1, wd * y2 + wn * k2), dy * wd))
            break
    for (n1, n2), q in candidates:
        den = L * q
        s = Mat2(((Fraction(n1, den), Fraction(n2, den)), (Fraction(n1 + o1 * q, den), Fraction(n2 + o2 * q, den))))
        found = _verify_frame("M2_0", s, m)
        if found:
            return found
    return None


def _match_m5(m: TypeAModel):
    # complex-multiplication structure: sigma1 = omega/2, sigma2 solves a
    # homogeneous linear system, with the scale pinned by one quadratic; the
    # system is 1 / (2L) times the integer rows of the M2 matcher
    g, L = clear_denominators(m.coeffs)
    o1, o2 = g[0] + g[3], g[2] + g[5]
    if o1 == 0 and o2 == 0:
        return None
    solved = solve_linear(_flat_rows(g, o1, o2), [0, 0, 0])
    if solved is None:
        return None
    _, kernel = solved
    if len(kernel) != 1:
        return None
    (k1, k2), _ = clear_denominators(kernel[0])
    for ku, ou, gu in zip((k1, k2, k1 + k2), (o1, o2, o1 + o2), _probe_gammas(g)):
        if ku == 0:
            continue
        # sigma2 = scale * kernel, scale^2 = (sigma1(u)^2 - sigma1(G(u, u))) / kernel(u)^2;
        # on the cleared kernel K / dk that is (o(u)^2 - 2 o(g(u, u))) (dk / (2 L ku))^2
        square = ou * ou - 2 * (o1 * gu[0] + o2 * gu[1])
        root = math.isqrt(square) if square > 0 else 0
        if root * root != square or root == 0:
            return None
        den = 2 * L * abs(ku)
        top = (Fraction(o1 * abs(ku), den), Fraction(o2 * abs(ku), den))
        for r in (root, -root):
            s = Mat2((top, (Fraction(r * k1, den), Fraction(r * k2, den))))
            found = _verify_frame("M5_0", s, m)
            if found:
                return found
        return None
    return None


def _match_tensor_line(m: TypeAModel):
    # coefficient matrix of rank one: G = q (x) z with q = kappa l (x) l;
    # the pairing l(z) separates the two orbits.  On the cleared numerators
    # G = g / L every pair (g^1_ij, g^2_ij) is an integer multiple Q_ij of
    # the primitive z_hat, so q = Q / L.
    g, L = clear_denominators(m.coeffs)
    pairs = [(g[0], g[1]), (g[2], g[3]), (g[4], g[5])]
    base = next(p for p in pairs if p != (0, 0))
    z0, z1 = primitive_covector(base)
    idx = 0 if z0 != 0 else 1
    q = []
    for p in pairs:
        if p[0] * z1 != p[1] * z0:
            return None
        q.append(p[idx] // (z0, z1)[idx])
    q11, q12, q22 = q
    if q11 * q22 != q12 * q12:
        return None
    # kappa = kn / kd
    if q11 != 0:
        l0, l1 = primitive_covector((q11, q12))
        kn, kd = q11, L * l0 * l0
    elif q22 != 0:
        l0, l1 = primitive_covector((q12, q22))
        kn, kd = q22, L * l1 * l1
    else:
        return None
    pairing = l0 * z0 + l1 * z1
    if pairing != 0:
        # ell = kappa l(z) l_hat and z = z_hat / (kappa l(z)^2)
        zd = kn * pairing * pairing
        t = Mat2((
            (Fraction(-kn * pairing * l1, kd), Fraction(kd * z0, zd)),
            (Fraction(kn * pairing * l0, kd), Fraction(kd * z1, zd)),
        ))
        return _verify_orbit("M3_0", t, m)
    # pairing zero: the triple-root orbit; z_hat^perp = c0 l_hat spans one
    # line with l_hat; z = kappa z_hat and y = det * z^perp / |z|^2 with
    # det = kappa c0
    perp = (-z1, z0)
    cn, cd = (perp[0], l0) if l0 != 0 else (perp[1], l1)
    if cn * l0 != perp[0] * cd or cn * l1 != perp[1] * cd:
        return None
    yd = cd * (z0 * z0 + z1 * z1)
    t = Mat2((
        (Fraction(kn * z0, kd), Fraction(-z1 * cn, yd)),
        (Fraction(kn * z1, kd), Fraction(z0 * cn, yd)),
    ))
    return _verify_orbit("M4_0", t, m)


_PATTERN_ORBIT_HINT = {
    "three_simple": "M2_0",
    "one_real": "M5_0",
    "double_simple": "M1_0",
    "triple": "M4_0",
}


def _rank2_matchers(m: TypeAModel):
    """The three matchers for a flat model of coefficient rank two, the one
    for its orbit first.

    The binary cubic det(x, G(x, x)) has three distinct real root directions
    on M2_0, one on M5_0 and a repeated one on M1_0, and the sign of its
    discriminant is an orbit invariant.  At most one matcher can succeed, so
    the order changes no answer, only how many matchers a model pays for.
    """
    (k3, k2, k1, k0), _ = clear_denominators(binary_cubic(m))
    disc = (
        k2 * k2 * k1 * k1 - 4 * k3 * k1 ** 3 - 4 * k2 ** 3 * k0
        - 27 * k3 * k3 * k0 * k0 + 18 * k3 * k2 * k1 * k0
    )
    if disc > 0:
        return (_match_m2, _match_m1, _match_m5)
    if disc < 0:
        return (_match_m5, _match_m1, _match_m2)
    return (_match_m1, _match_m2, _match_m5)


def match_flat_a_orbit(m: TypeAModel) -> tuple[str, LinearMap2]:
    """Canonical flat orbit id plus an exactly verified witness T with
    pullback(canonical, T) = m.

    Matching is sound (every witness re-verified) and complete on models
    generated from the canonical forms by rational maps.  A rational flat
    model can sit in a canonical orbit without any rational witness (its
    invariant root directions may be irrational); such models raise
    UnmatchedOrbitError carrying the real-orbit screening verdict.
    """
    if not ricci_type_a(m).is_zero():
        raise NotFlatError("orbit matching requires a flat model")
    return _match_flat_a_orbit(m)


def _match_flat_a_orbit(m: TypeAModel) -> tuple[str, LinearMap2]:
    """:func:`match_flat_a_orbit` of a flat model."""
    if m.is_zero():
        return ("M0_0", LinearMap2.identity())
    if coefficient_rank(m) == 1:
        found = _match_tensor_line(m)
        if found:
            return found
    else:
        for solver in _rank2_matchers(m):
            found = solver(m)
            if found:
                return found
    pattern = binary_cubic_pattern(binary_cubic(m))
    hint = _PATTERN_ORBIT_HINT.get(pattern)
    detail = (
        f"screening (cubic root pattern {pattern!r}) places it in the real orbit "
        f"of {hint}, but no rational witness exists"
        if hint
        else f"cubic root pattern is {pattern!r}"
    )
    raise UnmatchedOrbitError(f"no rational witness to a canonical flat model; {detail}")


# ---------------------------------------------------------------------------
# Rank-one family matching


def match_rank1_family(m: TypeAModel) -> tuple[str, tuple[Fraction, ...], LinearMap2]:
    """Canonical rank-one family, recovered parameters, and a verified witness.

    Cross-parameter identifications inside the families are resolved to a
    canonical representative (see the triangular-solver invariants); the
    family id itself is an exact orbit invariant.
    """
    frame, n = rank1_frame(m)  # raises for non-rank-one input
    return _match_rank1_reduced(m, frame, n)


def _match_rank1_reduced(
    m: TypeAModel, frame: LinearMap2, n: TypeAModel
) -> tuple[str, tuple[Fraction, ...], LinearMap2]:
    """:func:`match_rank1_family` of a rank-one model ``m`` whose rational
    frame ``frame`` reduces it to ``n`` (as :func:`rank1_frame` returns).

    The family is read off the cleared numerators n = (A, 0, C, 0, E, F) / L
    with Ricci scale R / L^2: the invariant j = f^2 / lambda = F^2 / R does
    not depend on L, so every test is on integers and only the family
    parameter is a Fraction.
    """
    a, c, e, f, _, r = _reduced_numerators(n)
    if a != 0:
        if r > 0 and f * f == 4 * r:  # j = 4
            family, params = "M1_1", ()
        elif r > 0 and f * f < 4 * r:  # j < 4
            # p = sqrt(j / (4 - j)) = |F| / sqrt(4R - F^2)
            p = _root_ratio(f, 4 * r - f * f)
            family, params = "M5_1", (p,)
        else:
            # root = sqrt(1 + 4 / (j - 4)) = |F| / sqrt(F^2 - 4R)
            root = _root_ratio(f, f * f - 4 * r)
            family, params = "M2_1", ((root - 1) / 2,)
    else:
        if f != 2 * c:  # k = f / c != 2
            family, params = "M3_1", (Fraction(c, f - 2 * c),)
        else:
            family, params = "M4_1", ((ZERO,) if e == 0 else (ONE,))
    target = canonical_model(family, params)
    status, mats, note = _solve_reduced_pair(target, n)
    if status != "equivalent":
        raise UnmatchedOrbitError(f"candidate family {family} rejected: {note}")
    witness = LinearMap2(_product(_frame_inverse(frame), mats[0]))
    if not carries(target.coeffs, witness.matrix.rows, m.coeffs):
        raise AssertionError("rank-one family witness failed verification")
    return family, tuple(params), witness


def _root_ratio(f: int, den: int) -> Fraction:
    """sqrt(f^2 / den) for an integer den > 0; raises UnmatchedOrbitError
    when it is irrational."""
    if f == 0:
        return ZERO
    s = math.isqrt(den)
    if s * s != den:
        raise UnmatchedOrbitError("the family parameter would be irrational")
    return Fraction(abs(f), s)


# ---------------------------------------------------------------------------
# Transversality certificates


def tangent_sum_rank(family_points: Sequence[tuple[str, Sequence]]) -> int:
    """Exact rank of the concatenated Jacobians of several parametrizations
    at points mapping to one common model.

    Two surfaces meet transversally along a curve exactly when this rank is 3.
    """
    if not family_points:
        raise ValueError("at least one family/point pair is required")
    images = []
    jacobians = []
    for family, params in family_points:
        key = str(family)
        if key not in COEFF_FAMILIES:
            raise CatalogError(f"unknown parametrized family {family!r}")
        arity, fn = COEFF_FAMILIES[key]
        values = [rational(p) for p in params]
        if len(values) != arity:
            raise CatalogError(f"family {key} takes {arity} parameters")
        images.append(tuple(fn(values)))
        jacobians.append(jacobian(fn, values, arity=arity))
    if any(img != images[0] for img in images[1:]):
        raise ValueError("the chart points map to different models")
    rows = []
    for i in range(6):
        row = []
        for jac in jacobians:
            row.extend(jac[i])
        rows.append(row)
    return mat_rank(rows)
