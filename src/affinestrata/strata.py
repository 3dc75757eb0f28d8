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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import (
    ONE,
    ZERO,
    CirclePoint,
    Mat2,
    jacobian,
    mat2_from_cols,
    mat2_from_rows,
    mat_rank,
    primitive_covector,
    rational,
    solve_linear,
    sqrt_rational,
)
from .curvature import (
    binary_cubic,
    coefficient_rank,
    gamma_pair,
    rank1_scale,
    rank_signature,
    ricci_type_a,
    ricci_type_b,
    split_ricci,
    trace_form,
)
from .group_action import (
    LinearMap2,
    _solve_reduced_pair,
    pullback_type_a,
    rank1_frame,
)
from .models import CatalogError, TypeAModel, TypeBModel, canonical_model
from .polys import binary_cubic_pattern, quadratic_rational_roots


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
        if self.scale > 0:
            return "+"
        return "-" if self.scale < 0 else "0"

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


_E1 = (ONE, ZERO)
_E2 = (ZERO, ONE)
_E12 = (ONE, ONE)


def _verify_orbit(orbit_id: str, t: Mat2, m: TypeAModel) -> tuple[str, LinearMap2] | None:
    if t.det() == 0:
        return None
    witness = LinearMap2(t)
    if pullback_type_a(canonical_model(orbit_id), witness) == m:
        return (orbit_id, witness)
    return None


def _match_m1(m: TypeAModel):
    # orbit structure: G(u, v) = l(u) v + l(v) u - l(u) l(v) w with l(w) = 1;
    # the trace covector recovers 2l
    om = trace_form(m)
    ell = (om[0] / 2, om[1] / 2)
    if ell == (ZERO, ZERO):
        return None
    u = _E1 if ell[0] != 0 else _E2
    lu = ell[0] * u[0] + ell[1] * u[1]
    guu = gamma_pair(m, u, u)
    w = ((2 * lu * u[0] - guu[0]) / (lu * lu), (2 * lu * u[1] - guu[1]) / (lu * lu))
    if ell[0] * w[0] + ell[1] * w[1] != 1:
        return None
    t = mat2_from_cols(w, (-ell[1], ell[0]))
    return _verify_orbit("M1_0", t, m)


def _match_m2(m: TypeAModel):
    # rows of S = (sigma, sigma + omega) with sigma(G(u,v)) = -sigma(u)sigma(v);
    # eliminating the square leaves a linear system for sigma
    om = trace_form(m)

    def omega(x):
        return om[0] * x[0] + om[1] * x[1]

    rows, rhs = [], []
    for u, v in ((_E1, _E1), (_E1, _E2), (_E2, _E2)):
        g = gamma_pair(m, u, v)
        rows.append(
            [
                2 * g[0] - u[0] * omega(v) - omega(u) * v[0],
                2 * g[1] - u[1] * omega(v) - omega(u) * v[1],
            ]
        )
        rhs.append(omega(u) * omega(v) - omega(g))
    solved = solve_linear(rows, rhs)
    if solved is None:
        return None
    particular, kernel = solved
    candidates = []
    if not kernel:
        candidates.append(tuple(particular))
    elif len(kernel) == 1:
        k = kernel[0]
        for u in (_E1, _E2, _E12):
            ku = k[0] * u[0] + k[1] * u[1]
            if ku == 0:
                continue
            pu = particular[0] * u[0] + particular[1] * u[1]
            g = gamma_pair(m, u, u)
            # sigma(G(u,u)) + sigma(u)^2 = 0 pins the free parameter
            a_coef = ku * ku
            b_coef = 2 * pu * ku + (k[0] * g[0] + k[1] * g[1])
            c_coef = (particular[0] * g[0] + particular[1] * g[1]) + pu * pu
            roots, _ = quadratic_rational_roots(a_coef, b_coef, c_coef)
            for root in roots:
                candidates.append((particular[0] + root * k[0], particular[1] + root * k[1]))
            break
    for sigma in candidates:
        s = mat2_from_rows(sigma, (sigma[0] + om[0], sigma[1] + om[1]))
        if s.det() == 0:
            continue
        found = _verify_orbit("M2_0", s.inverse(), m)
        if found:
            return found
    return None


def _match_m5(m: TypeAModel):
    # complex-multiplication structure: sigma1 = omega/2, sigma2 solves a
    # homogeneous linear system, with the scale pinned by one quadratic
    om = trace_form(m)
    s1 = (om[0] / 2, om[1] / 2)
    if s1 == (ZERO, ZERO):
        return None

    def sig1(x):
        return s1[0] * x[0] + s1[1] * x[1]

    rows = []
    for u, v in ((_E1, _E1), (_E1, _E2), (_E2, _E2)):
        g = gamma_pair(m, u, v)
        rows.append(
            [
                g[0] - sig1(u) * v[0] - sig1(v) * u[0],
                g[1] - sig1(u) * v[1] - sig1(v) * u[1],
            ]
        )
    solved = solve_linear(rows, [ZERO, ZERO, ZERO])
    if solved is None:
        return None
    _, kernel = solved
    if len(kernel) != 1:
        return None
    k = kernel[0]
    for u in (_E1, _E2, _E12):
        ku = k[0] * u[0] + k[1] * u[1]
        if ku == 0:
            continue
        g = gamma_pair(m, u, u)
        t2 = (sig1(u) * sig1(u) - sig1(g)) / (ku * ku)
        root = sqrt_rational(t2)
        if root is None:
            return None
        for scale in (root, -root):
            if scale == 0:
                break
            s = mat2_from_rows(s1, (scale * k[0], scale * k[1]))
            if s.det() == 0:
                continue
            found = _verify_orbit("M5_0", s.inverse(), m)
            if found:
                return found
        return None
    return None


def _match_tensor_line(m: TypeAModel):
    # coefficient matrix of rank one: G = q (x) z with q = kappa l (x) l;
    # the pairing l(z) separates the two orbits
    pairs = [(m.a, m.b), (m.c, m.d), (m.e, m.f)]
    base = next(p for p in pairs if p != (ZERO, ZERO))
    z_hat = primitive_covector(base)

    def component(pair):
        if pair == (ZERO, ZERO):
            return ZERO
        idx = 0 if z_hat[0] != 0 else 1
        val = pair[idx] / z_hat[idx]
        if (pair[0], pair[1]) != (val * z_hat[0], val * z_hat[1]):
            return None
        return val

    q = [component(p) for p in pairs]
    if any(x is None for x in q):
        return None
    q11, q12, q22 = q
    if q11 * q22 != q12 * q12:
        return None
    if q11 != 0:
        l_hat = primitive_covector((q11, q12))
        kappa = q11 / (l_hat[0] * l_hat[0])
    elif q22 != 0:
        l_hat = primitive_covector((q12, q22))
        kappa = q22 / (l_hat[1] * l_hat[1])
    else:
        return None
    pairing = Fraction(l_hat[0] * z_hat[0] + l_hat[1] * z_hat[1])
    if pairing != 0:
        scale = kappa * pairing
        ell = (scale * l_hat[0], scale * l_hat[1])
        tz = 1 / (scale * pairing)
        z = (tz * z_hat[0], tz * z_hat[1])
        t = mat2_from_cols((-ell[1], ell[0]), z)
        return _verify_orbit("M3_0", t, m)
    # pairing zero: the triple-root orbit; z_hat^perp and l_hat span one line
    perp = (-z_hat[1], z_hat[0])
    c0 = Fraction(perp[0], l_hat[0]) if l_hat[0] != 0 else Fraction(perp[1], l_hat[1])
    if (c0 * l_hat[0], c0 * l_hat[1]) != perp:
        return None
    z = (kappa * z_hat[0], kappa * z_hat[1])
    target_det = kappa * c0
    norm2 = z[0] * z[0] + z[1] * z[1]
    y = (-z[1] * target_det / norm2, z[0] * target_det / norm2)
    t = mat2_from_cols(z, y)
    return _verify_orbit("M4_0", t, m)


_PATTERN_ORBIT_HINT = {
    "three_simple": "M2_0",
    "one_real": "M5_0",
    "double_simple": "M1_0",
    "triple": "M4_0",
}


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
    if m.is_zero():
        return ("M0_0", LinearMap2.identity())
    if coefficient_rank(m) == 1:
        found = _match_tensor_line(m)
        if found:
            return found
    else:
        for solver in (_match_m1, _match_m2, _match_m5):
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
    a, _, c, _, e, f = n.coeffs
    lam = -c * c + a * e + c * f
    if a != 0:
        j = f * f / lam
        if lam > 0 and j == 4:
            family, params = "M1_1", ()
        elif lam > 0 and j < 4:
            p = sqrt_rational(j / (4 - j))
            if p is None:
                raise UnmatchedOrbitError("the family parameter would be irrational")
            family, params = "M5_1", (p,)
        else:
            mu = 1 / (j - 4)
            root = sqrt_rational(1 + 4 * mu)
            if root is None:
                raise UnmatchedOrbitError("the family parameter would be irrational")
            family, params = "M2_1", ((root - 1) / 2,)
    else:
        k = f / c
        if k != 2:
            family, params = "M3_1", (1 / (k - 2),)
        else:
            family, params = "M4_1", ((ZERO,) if e == 0 else (ONE,))
    target = canonical_model(family, params)
    status, mats, note = _solve_reduced_pair(target, n)
    if status != "equivalent":
        raise UnmatchedOrbitError(f"candidate family {family} rejected: {note}")
    witness_mat = frame.matrix.inverse() @ mats[0]
    witness = LinearMap2(witness_mat)
    if pullback_type_a(target, witness) != m:
        raise AssertionError("rank-one family witness failed verification")
    return family, tuple(params), witness


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
