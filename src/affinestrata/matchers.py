"""Orbit matching of Type A models: the flat matchers and the rank-one
family read-out, each returning a witness checked by exact pullback.

A flat model runs one orbit matcher, the one its coefficient rank and the
root pattern of its binary cubic name; it solves its integer rows in closed
form (:func:`exact.solve_3x2`) and checks each candidate witness, an integer
matrix over a denominator, against a catalog model read once from the family
registry.  The rank-one family read-out runs on the reduced model's
numerators; its catalog target is the family's own registry build at the
parameter it reads, and it reports a membership held as those integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import LinearMap2, primitive_covector, solve_3x2
from .curvature import binary_cubic_coeffs, coefficient_rank, gamma_coeffs, is_flat_a
from .models import CATALOG, FamilyMembership, TypeAModel
from . import polys
from .law import _IDENTITY, _witness
from .frames import _frame_inverse, _product, _reduced_numerators, _solve_reduced, rank1_frame


class NotFlatError(ValueError):
    """The operation requires a flat model."""


class UnmatchedOrbitError(ValueError):
    """No canonical-orbit matcher produced a verified witness."""


# ---------------------------------------------------------------------------
# Flat Type A orbit matching
#
# Soundness is absolute: a claimed witness is always re-verified by exact
# pullback of the canonical model.  Screening uses cheap orbit invariants
# (the rank of the coefficient matrix, the trace covector, and the binary
# cubic's root pattern where needed); each orbit then has a structured
# recovery of the witness.


#: pairwise independent probes: a cubic's three root lines and a Ricci form's two
#: null lines leave one free; the flat matchers read G(u, u) at the first three
_PROBES = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))


def _flat_rows(g, o1, o2):
    """2 G(e_i, e_j) - e_i omega_j - omega_i e_j for the basis pairs
    (e1, e1), (e1, e2), (e2, e2), one row each, from the coefficient tuple
    ``g`` and its trace form ``(o1, o2)``."""
    a, b, c, d, e, f = g
    return (2 * (a - o1), 2 * b), (2 * c - o2, 2 * d - o1), (2 * e, 2 * (f - o2))


#: the integer forms of the canonical flat models, computed once
_FLAT_ORBITS = {
    orbit_id: CATALOG[orbit_id].model().integer_form for orbit_id in ("M1_0", "M2_0", "M3_0", "M4_0", "M5_0")
}


def _verify_orbit(orbit_id: str, p, den, m: TypeAModel) -> tuple[str, LinearMap2] | None:
    """The witness T = p / den, for integers p, when T is invertible and
    pullback(canonical, T) = m (:func:`_witness`)."""
    t = _witness(_FLAT_ORBITS[orbit_id], p, den, m.integer_form)
    return None if t is None else (orbit_id, t)


def _verify_frame(orbit_id: str, p, den, m: TypeAModel) -> tuple[str, LinearMap2] | None:
    """:func:`_verify_orbit` for T = S^-1 = den adj(p) / det(p), S = p / den."""
    p11, p12, p21, p22 = p
    return _verify_orbit(orbit_id, (den * p22, -den * p12, -den * p21, den * p11), p11 * p22 - p12 * p21, m)


# The matchers below work on the integer form: G = g / L and the trace form
# omega = o / L with integer g, o, so every equation is built and solved on
# integers, and each candidate witness is an integer matrix over a denominator.


def _match_m1(m: TypeAModel):
    # orbit structure: G(u, v) = l(u) v + l(v) u - l(u) l(v) w with l(w) = 1;
    # the trace covector recovers 2l = o / L.  Probing with u = e1 (or e2
    # when l(e1) = 0) gives w = 4 L (o(u) u - g(u, u)) / o(u)^2.
    g, L = m.integer_form
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
    # T = [[w1 / den, -o2 / 2L], [w2 / den, o1 / 2L]]
    return _verify_orbit("M1_0", (2 * L * w1, -o2 * den, 2 * L * w2, o1 * den), 2 * L * den, m)


def _match_m2(m: TypeAModel):
    # rows of S = (sigma, sigma + omega) with sigma(G(u,v)) = -sigma(u)sigma(v);
    # eliminating the square leaves a linear system for sigma, one equation
    # per basis pair (e_i, e_j); for sigma = y / L it has integer rows
    g, L = m.integer_form
    a, b, c, d, e, f = g
    o1, o2 = a + d, c + f
    rhs = (o1 * o1 - (o1 * a + o2 * b), o1 * o2 - (o1 * c + o2 * d), o2 * o2 - (o1 * e + o2 * f))
    solved = solve_3x2(_flat_rows(g, o1, o2), rhs)
    if solved is None:
        return None
    (y1, y2), dy, kernel = solved
    candidates = []  # (n, q): sigma = n / (L q)
    if not kernel:
        candidates.append(((y1, y2), dy))
    elif len(kernel) == 1:
        # y = (Y + w K) / dy along the kernel line K, a positive multiple of
        # the basis vector, so the roots come in the order of the original
        # parameter
        k1, k2 = kernel[0]
        y3, k3 = y1 + y2, k1 + k2
        for ku, yu, gu in zip((k1, k2, k3), (y1, y2, y3), (gamma_coeffs(g, u, u) for u in _PROBES)):
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
        found = _verify_frame("M2_0", (n1, n2, n1 + o1 * q, n2 + o2 * q), L * q, m)
        if found:
            return found
    return None


def _match_m5(m: TypeAModel):
    # complex-multiplication structure: sigma1 = omega/2, sigma2 solves a
    # homogeneous linear system, with the scale pinned by one quadratic; the
    # system is 1 / (2L) times the integer rows of the M2 matcher
    g, L = m.integer_form
    o1, o2 = g[0] + g[3], g[2] + g[5]
    if o1 == 0 and o2 == 0:
        return None
    _, _, kernel = solve_3x2(_flat_rows(g, o1, o2), (0, 0, 0))
    if len(kernel) != 1:
        return None
    k1, k2 = kernel[0]
    for ku, ou, gu in zip((k1, k2, k1 + k2), (o1, o2, o1 + o2), (gamma_coeffs(g, u, u) for u in _PROBES)):
        if ku == 0:
            continue
        # sigma2 = scale * kernel, scale^2 = (sigma1(u)^2 - sigma1(G(u, u))) / kernel(u)^2;
        # on the integer kernel vector K that is (o(u)^2 - 2 o(g(u, u))) / (2 L K(u))^2
        square = ou * ou - 2 * (o1 * gu[0] + o2 * gu[1])
        root = math.isqrt(square) if square > 0 else 0
        if root * root != square or root == 0:
            return None
        size = abs(ku)
        for r in (root, -root):
            # S = [[o1 |ku|, o2 |ku|], [r k1, r k2]] / (2 L |ku|)
            found = _verify_frame("M5_0", (o1 * size, o2 * size, r * k1, r * k2), 2 * L * size, m)
            if found:
                return found
        return None
    return None


def _match_tensor_line(m: TypeAModel):
    # coefficient matrix of rank one: G = q (x) z with q = kappa l (x) l;
    # the pairing l(z) separates the two orbits.  On the integer form
    # G = g / L every pair (g^1_ij, g^2_ij) is an integer multiple Q_ij of
    # the primitive z_hat, so q = Q / L.
    g, L = m.integer_form
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
        # ell = kappa l(z) l_hat and z = z_hat / (kappa l(z)^2):
        # T = [[-kn l(z) l1 / kd, kd z0 / zd], [kn l(z) l0 / kd, kd z1 / zd]]
        zd = kn * pairing * pairing
        p = (-kn * pairing * l1 * zd, kd * kd * z0, kn * pairing * l0 * zd, kd * kd * z1)
        return _verify_orbit("M3_0", p, kd * zd, m)
    # pairing zero: the triple-root orbit; z_hat^perp = c0 l_hat spans one
    # line with l_hat; z = kappa z_hat and y = det * z^perp / |z|^2 with
    # det = kappa c0:  T = [[kn z0 / kd, -z1 cn / yd], [kn z1 / kd, z0 cn / yd]]
    perp = (-z1, z0)
    cn, cd = (perp[0], l0) if l0 != 0 else (perp[1], l1)
    if cn * l0 != perp[0] * cd or cn * l1 != perp[1] * cd:
        return None
    yd = cd * (z0 * z0 + z1 * z1)
    p = (kn * z0 * yd, -z1 * cn * kd, kn * z1 * yd, z0 * cn * kd)
    return _verify_orbit("M4_0", p, kd * yd, m)


#: root pattern of the binary cubic det(x, G(x, x)) -> the real orbit it
#: names and that orbit's matcher.  The pattern is an orbit invariant, so a
#: flat model can only match the orbit it names, except that M3_0 shares the
#: double_simple pattern with M1_0; its coefficient rank one tells it apart
#: and sends it to the tensor-line matcher.
_PATTERN_ORBIT = {
    "three_simple": ("M2_0", _match_m2),
    "one_real": ("M5_0", _match_m5),
    "double_simple": ("M1_0", _match_m1),
    "triple": ("M4_0", _match_tensor_line),
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
    if not is_flat_a(m):
        raise NotFlatError("orbit matching requires a flat model")
    return _match_flat_a_orbit(m, _cubic_pattern(m))


def _cubic_pattern(m: TypeAModel) -> str:
    """The root pattern of the binary cubic det(x, G(x, x)) of ``m``, read
    off the cubic's integer numerators over the model's common denominator."""
    return polys.binary_cubic_pattern(binary_cubic_coeffs(m.integer_form[0]))


def _match_flat_a_orbit(m: TypeAModel, pattern: str) -> tuple[str, LinearMap2]:
    """:func:`match_flat_a_orbit` of a flat model whose cubic has the root
    pattern ``pattern``."""
    if m.is_zero():
        return ("M0_0", _IDENTITY)
    if pattern == "double_simple" and coefficient_rank(m) == 1:
        found = _match_tensor_line(m)
        if found:
            return found
    hint, matcher = _PATTERN_ORBIT.get(pattern, (None, None))
    found = matcher(m) if matcher else None
    if found:
        return found
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
    member, witness = _match_rank1_reduced(m, frame, n)
    return member.family, member.params, witness


def _match_rank1_reduced(m: TypeAModel, frame: LinearMap2, n: TypeAModel) -> tuple[FamilyMembership, LinearMap2]:
    """:func:`match_rank1_family` of a rank-one model ``m`` whose rational
    frame ``frame`` reduces it to ``n`` (as :func:`rank1_frame` returns): the
    membership, held as the integers x / h of the parameters, and the
    witness.

    The family is read off the integer form n = (A, 0, C, 0, E, F) / L with
    Ricci scale R / L^2: the invariant j = f^2 / lambda = F^2 / R does not
    depend on L, so every test is on integers.  The catalog target is the
    family's own build at x / h, and the witness passes :func:`_witness`.
    """
    red = _reduced_numerators(n.integer_form)
    a, c, e, f, _, r = red
    if a != 0:
        if r > 0 and f * f == 4 * r:  # j = 4
            family, x, h = "M1_1", (), 1
        elif r > 0 and f * f < 4 * r:  # j < 4: c = sqrt(j / (4 - j)) = |F| / sqrt(4R - F^2)
            pn, pd = _root_ratio(f, 4 * r - f * f)
            family, x, h = "M5_1", (pn,), pd
        else:  # c1 = (root - 1) / 2 with root = sqrt(1 + 4 / (j - 4)) = |F| / sqrt(F^2 - 4R) = rn / rd
            rn, rd = _root_ratio(f, f * f - 4 * r)
            family, x, h = "M2_1", (rn - rd,), 2 * rd
    elif f != 2 * c:  # k = f / c != 2 and c1 = C / (F - 2C)
        family, x, h = "M3_1", (c,), f - 2 * c
    else:
        family, x, h = "M4_1", (int(e != 0),), 1
    target = CATALOG[family].build(x, h)
    status, mats, note = _solve_reduced(_reduced_numerators(target), red)
    if status != "equivalent":
        raise UnmatchedOrbitError(f"candidate family {family} rejected: {note}")
    witness = _witness(target, *_product(_frame_inverse(frame), mats[0]), m.integer_form)
    if witness is None:
        raise AssertionError("rank-one family witness failed verification")
    return FamilyMembership.of_integers(x, h, family), witness


def _root_ratio(f: int, den: int) -> tuple[int, int]:
    """(|f|, s) with s^2 = den, the ratio sqrt(f^2 / den) for an integer
    den > 0, or (0, 1) when f = 0; raises UnmatchedOrbitError when the ratio
    is irrational."""
    if f == 0:
        return 0, 1
    s = math.isqrt(den)
    if s * s != den:
        raise UnmatchedOrbitError("the family parameter would be irrational")
    return abs(f), s
