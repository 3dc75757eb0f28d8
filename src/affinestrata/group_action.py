"""Coordinate-change actions on the two model families and the solvers built
on them: infinitesimal orbit dimension, the rank-one frame, matching to the
canonical flat orbits and rank-one families, isotropy groups, and linear
equivalence with exact witnesses.

Type A models are acted on by all invertible linear maps; Type B models only
by the shears (x1, x2) -> (x1, a x2 + b x1), which preserve the 1/x1 profile.
Both actions share one coefficient transformation law: for y = T x the
coefficients in y-coordinates are G'^m_ab = T^m_k G^k_ij S^i_a S^j_b with
S = T^{-1}.

Every rational kernel here computes on integers: models and rational
matrices are their integer forms, and a Fraction is built only for a value a
caller reads.  The one law (:func:`_adjugate_law`), over any ring, is one
straight-line polynomial in the numerators and the entries of T's integer
adjugate; a pullback (:func:`_law`) builds its model from it with one gcd,
a witness check (:func:`carries`) cross-multiplies it against the target's
numerators, and a forced irrational scale sqrt(K) runs it on entries in
Z[sqrt(K)] (:class:`QuadInt`); every Type A witness passes one gate
(:func:`_witness`).  The rank-one frame is written in closed form, and the
reduced case analysis and the family read-out run on the reduced model's
numerators; the read-out's catalog target is the family's own registry
build at the parameter it reads, and it reports a membership held as those
integers.  The equivalence
screen reads each orbit dimension off the normal form its stratum's solver
computes anyway, on rank one off the integer case split
(:func:`_reduced_dimension`) that the reduced isotropy group refines;
:func:`orbit_dimension_a`, the rank of the infinitesimal action at the
identity, is the independent check.  A flat model runs one orbit matcher,
the one its coefficient rank and the root pattern of its binary cubic name;
it solves its integer rows in closed form (:func:`exact.solve_3x2`) and
checks each candidate witness, an integer matrix over a denominator, against
a catalog model read once from the family registry.  A rank-two pair is
decided by the models' own covariants, with no search bound
(:func:`_solve_rank2_pair`), and a Type B pair by eliminating the shear on
the numerators (:func:`solve_equivalence_b`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (
    ONE,
    ZERO,
    Frozen,
    LinearMap2,
    Mat2,
    QuadInt,
    ShearMap,
    _forward_eliminate,
    clear_denominators,
    mat2_of_integers,
    primitive_covector,
    ratio_str,
    rational,
    solve_3x2,
)
from .curvature import (
    Curvature,
    Ricci2,
    binary_cubic_coeffs,
    coefficient_rank,
    covariant_frame,
    curvature_of,
    gamma_coeffs,
    is_flat_a,
    rank_signature,
    ricci_det,
    ricci_type_a,
    stratum_flags,
    trace_numerators,
)
from .models import CATALOG, FamilyMembership, TypeAModel, TypeBModel
from . import polys


class UndecidedError(Exception):
    """An operation declined to answer; carries the honest reason."""


class NotFlatError(ValueError):
    """The operation requires a flat model."""


class UnmatchedOrbitError(ValueError):
    """No canonical-orbit matcher produced a verified witness."""


def _integer_form(source) -> tuple:
    """The integer form of a model (its own) or of a coefficient sequence."""
    if isinstance(source, (TypeAModel, TypeBModel)):
        return source.integer_form
    return clear_denominators(source)


def transform_coeffs(coeffs, t) -> tuple:
    """Connection coefficients in y = T x coordinates, as Fractions.

    ``coeffs`` is a model or a sequence of rational coefficients, ``t`` a
    Mat2 or its rows (so its entries are rational: ``Mat2`` raises
    TypeError on any other scalar).  It runs the one law on integers
    (:func:`_law`) and normalizes each output once.  A singular T raises
    ZeroDivisionError."""
    mat = t if isinstance(t, Mat2) else Mat2(t)
    nums, den = _law(coeffs, mat.integer_form)
    return tuple([Fraction(n, den) for n in nums])


def carries(coeffs, t, target) -> bool:
    """Whether ``transform_coeffs(coeffs, t) == tuple(target)`` for rational
    models or coefficient sequences and a rational Mat2 (or its rows),
    decided on integers by :func:`_carries` from the matrix's cached integer
    form.  A singular T raises ZeroDivisionError."""
    mat = t if isinstance(t, Mat2) else Mat2(t)
    return _carries(_integer_form(coeffs), *mat.integer_form, _integer_form(target))


def _carries(source, p, pd, target) -> bool:
    """Whether the law carries the integer form ``source`` onto ``target``
    under T = p / pd, by cross-multiplying numerators: for source = g / L,
    S = pd adj(p) / det(p), so G' = pd p g(adj p, adj p) / (L det(p)^2)."""
    nums, det = _adjugate_law(source[0], *p)
    scale, den = pd * target[1], source[1] * det * det
    for n, x in zip(nums, target[0]):
        if scale * n != x * den:
            return False
    return True


def _witness(source, p, den, target) -> LinearMap2 | None:
    """The one gate of every Type A witness: the map T = p / den (integers),
    when T is invertible and carries ``source`` onto ``target`` on integers,
    else None; T is brought to lowest terms before the check, and the map is
    built only once it has passed."""
    if p[0] * p[3] == p[1] * p[2]:
        return None
    t = mat2_of_integers(p, den)
    if not _carries(source, *t.integer_form, target):
        return None
    return LinearMap2(t)


def _adjugate_law(g, p11, p12, p21, p22) -> tuple[list, object]:
    """P g(adj P ., adj P .) and det P, over any scalar ring: the one law,
    run on integer numerators and on entries in Z[sqrt(K)].

    Since P^-1 = adj(P) / det(P), the law for P is the first divided by
    det(P)^2; a singular P raises ZeroDivisionError."""
    det = p11 * p22 - p12 * p21
    if det == 0:
        raise ZeroDivisionError("matrix is singular")
    a, b, c, d, e, f = g
    # G(w, w') = (a, b) w1 w1' + (c, d) (w1 w2' + w2 w1') + (e, f) w2 w2' at the
    # columns u = (p22, -p21) and v = (-p12, p11) of adj(P), through h, k, t
    h, k, t = p22 * p22, 2 * p22 * p21, p21 * p21  # u1 u1 = h, 2 u1 u2 = -k, u2 u2 = t
    x1, y1 = a * h - c * k + e * t, b * h - d * k + f * t
    h, k, t = p22 * p12, p22 * p11 + p21 * p12, p21 * p11  # u1 v1 = -h, u1 v2 + u2 v1 = k, u2 v2 = -t
    x2, y2 = c * k - a * h - e * t, d * k - b * h - f * t
    h, k, t = p12 * p12, 2 * p12 * p11, p11 * p11  # v1 v1 = h, 2 v1 v2 = -k, v2 v2 = t
    x3, y3 = a * h - c * k + e * t, b * h - d * k + f * t
    return [
        p11 * x1 + p12 * y1, p21 * x1 + p22 * y1,
        p11 * x2 + p12 * y2, p21 * x2 + p22 * y2,
        p11 * x3 + p12 * y3, p21 * x3 + p22 * y3,
    ], det


def _law(source, t_form) -> tuple[tuple[int, ...], int]:
    """The numerators of pullback(source, T) over one denominator, for a model
    or coefficient sequence ``source`` and T given by its integer form."""
    (g, dg), (p, dt) = _integer_form(source), t_form
    (n1, n2, n3, n4, n5, n6), det = _adjugate_law(g, *p)
    # scaled straight-line, since a comprehension is a function call
    return (dt * n1, dt * n2, dt * n3, dt * n4, dt * n5, dt * n6), dg * det * det


def pullback_type_a(m: TypeAModel, t: LinearMap2) -> TypeAModel:
    """The model representing the same connection in coordinates y = T x."""
    return TypeAModel.of_integers(*_law(m, t.matrix.integer_form))


def pullback_type_b(m: TypeBModel, phi: ShearMap) -> TypeBModel:
    """Shear reparametrization; preserves the 1/x1 coefficient profile."""
    return TypeBModel.of_integers(*_law(m, phi.matrix.integer_form))


#: (k, i, j) of G^k_ij for each coefficient slot a, b, c, d, e, f
_SLOTS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def orbit_dimension_a(m: TypeAModel) -> int:
    """Rank of the derivative at the identity of T -> pullback(m, T).

    This is the dimension of the orbit through ``m``, which for every model
    equals 4 minus the dimension of its isotropy group.  Along T = 1 + tX the
    coefficients move by the infinitesimal action X G - G(X., .) - G(., X.);
    for each X = E_pq that is one row of a 4 x 6 integer matrix, built from
    the cleared numerators since a common scale does not change the rank.
    The equivalence solver reads the dimension off normal forms instead
    (:func:`_stratum_normal_form`); this rank is the independent check.
    """
    (a, b, c, d, e, f), _ = m.integer_form
    g = (((a, c), (c, e)), ((b, d), (d, f)))  # g[k][i][j] = L G^k_ij
    rows = []
    for p in (0, 1):
        for q in (0, 1):
            rows.append([
                (g[q][i][j] if k == p else 0)
                - (g[k][p][j] if i == q else 0)
                - (g[k][i][p] if j == q else 0)
                for k, i, j in _SLOTS
            ])
    return len(_forward_eliminate(rows, range(6)))


# ---------------------------------------------------------------------------
# Rank-one frame reduction
#
# A rank-one symmetric Ricci matrix is lambda * w w^T for a rational covector
# w.  Any invertible S whose first column spans ker(w) and whose second
# column u pairs to 1 against w carries the Ricci matrix to lambda * diag(0, 1),
# so the transformed model has b = d = 0.  Unlike a rotation this frame is
# always rational.  With S = (ker w | u), ker w = (-w1, w0), det S = -1, so
# the frame T = S^-1 = [[-u1, u0], [w0, w1]] needs no division, and S is
# read back off T as det(T) adj(T).


def rank1_frame(m: TypeAModel) -> tuple[LinearMap2, TypeAModel]:
    """Rational change of frame making the Ricci tensor a multiple of
    dx2 (x) dx2; returns (T, pullback of m under T) with reduced b = d = 0."""
    r = ricci_type_a(m)
    if rank_signature(r).rank != 1:
        raise ValueError("rank1_frame expects a model with rank-one Ricci tensor")
    return _rank1_frame(m, r)


def _rank1_frame(m: TypeAModel, r: Ricci2) -> tuple[LinearMap2, TypeAModel]:
    """:func:`rank1_frame` of a model whose Ricci tensor ``r`` has rank one."""
    (_, b, _, d, _, _), _ = m.integer_form
    if b == 0 and d == 0:
        return _IDENTITY, m
    (r11, r12, r21, r22), _ = r.integer_form
    w0, w1 = primitive_covector((r11, r12) if r11 or r12 else (r21, r22))
    # u = (1 / w0, 0) pairs to 1 against w, so T = [[0, 1], [w0^2, w0 w1]] / w0;
    # when w0 = 0, w = (0, 1), u = (0, 1) and T = [[-1, 0], [0, 1]]
    p, den = ((0, 1, w0 * w0, w0 * w1), w0) if w0 != 0 else ((-1, 0, 0, 1), 1)
    t = LinearMap2(mat2_of_integers(p, den))
    reduced = pullback_type_a(m, t)
    if reduced.integer_form[0][1] != 0 or reduced.integer_form[0][3] != 0:
        raise AssertionError("frame reduction failed to clear b, d")
    return t, reduced


def _frame_inverse(frame: LinearMap2) -> Mat2:
    """S = T^-1 = det(T) adj(T) for a rank-one frame T, whose determinant is
    -1 (or 1 for the identity frame)."""
    (t11, t12, t21, t22), den = frame.matrix.integer_form
    if t12 == 0 and t21 == 0 and t11 == den and t22 == den:
        return frame.matrix
    return mat2_of_integers((-t22, t12, t21, -t11), den)


def _product(*mats: Mat2) -> tuple[tuple[int, int, int, int], int]:
    """The product of rational 2 x 2 matrices on their integer forms, as
    integers (p11, p12, p21, p22) over a common denominator."""
    (x11, x12, x21, x22), den = mats[0].integer_form
    for mat in mats[1:]:
        (y11, y12, y21, y22), dy = mat.integer_form
        x11, x12, x21, x22 = (
            x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
            x21 * y11 + x22 * y21, x21 * y12 + x22 * y22,
        )
        den *= dy
    return (x11, x12, x21, x22), den


def _reduced_numerators(form) -> tuple[int, int, int, int, int, int]:
    """(A, C, E, F, L, R) for the integer form ``form`` of a reduced model
    n = (A, 0, C, 0, E, F) / L: the numerators, their denominator, and
    R = L^2 lambda, the numerator of the Ricci scale lambda = -c^2 + a e + c f."""
    (a, _, c, _, e, f), den = form
    return a, c, e, f, den, a * e + c * (f - c)


def _solve_reduced_pair(n1: TypeAModel, n2: TypeAModel):
    """:func:`_solve_reduced` on two reduced models."""
    return _solve_reduced(_reduced_numerators(n1.integer_form), _reduced_numerators(n2.integer_form))


def _solve_reduced(red1, red2):
    """Witnesses T with pullback(n1, T) = n2 for reduced (b = d = 0) rank-one
    models n_i, given by their reduced numerators ``red_i``
    (:func:`_reduced_numerators`).  Any such T is upper triangular because it
    must preserve the dx2 (x) dx2 line, which collapses the problem to
    rational case analysis.

    The analysis runs on n_i = (A_i, 0, C_i, 0, E_i, F_i) / L_i with Ricci
    scales R_i / L_i^2, so every sign, vanishing and ratio test is an integer
    cross-multiplication.  The entries alpha, beta, delta of
    T = [[alpha, beta], [0, delta]] are integer pairs (numerator,
    denominator), and T is built from integers, so no Fraction is built.  At
    an irrational frame scale the forced T has entries in Z[sqrt(R1 R2)] and
    is checked by the law before the answer; a failure is an AssertionError.

    Returns (status, matrices, note).
    """
    a1, c1, e1, f1, l1, r1 = red1
    a2, c2, e2, f2, l2, r2 = red2
    if r1 * r2 < 0:
        return ("not_equivalent", [], "Ricci signs differ")
    sols: list[tuple[tuple[int, int], tuple[int, int], tuple[int, int]]] = []
    if (a1 == 0) != (a2 == 0):
        return ("not_equivalent", [], "vanishing of G_11^1 differs between reduced frames")
    if a1 != 0:
        alpha = (a1 * l2, a2 * l1)
        if (f1 == 0) != (f2 == 0):
            return ("not_equivalent", [], "vanishing of G_22^2 differs between reduced frames")
        if f1 != 0:
            # delta = f1 / f2 must have delta^2 lambda2 = lambda1: F1^2 R2 = F2^2 R1
            if f1 * f1 * r2 != f2 * f2 * r1:
                return ("not_equivalent", [], "Ricci scale incompatible with the G_22^2 ratio")
            # delta = f1 / f2 and beta = alpha (c1 - delta c2) / a1
            sols.append((alpha, (l2 * (c1 * f2 - f1 * c2), a2 * f2 * l1), (f1 * l2, f2 * l1)))
        else:
            # delta^2 = lambda1 / lambda2 = (R1 / R2) (L2 / L1)^2, rational
            # exactly when R1 R2 is a square s^2: delta = +-s L2 / (|R2| L1)
            square = r1 * r2
            s = math.isqrt(square)
            q = abs(r2)
            roots = (s, -s) if s * s == square else (QuadInt(0, 1, square),)
            forced = [(alpha, (l2 * (c1 * q - root * c2), a2 * q * l1), (root * l2, q * l1)) for root in roots]
            if s * s != square:
                # vanishing in Z[sqrt(R1 R2)] covers both embeddings, so -delta holds too
                p, den = _triangular(*forced[0])
                if not _carries(((a1, 0, c1, 0, e1, 0), l1), p, den, ((a2, 0, c2, 0, e2, 0), l2)):
                    raise AssertionError("the forced rank-one map at the irrational frame scale fails the law")
                ratio = ratio_str(r1 * l2 * l2, r2 * l1 * l1)
                return (
                    "undecided",
                    [],
                    f"equivalent over the reals, but the frame scale is the irrational sqrt({ratio})",
                )
            sols.extend(forced)
    else:
        # on this stratum a = 0 forces c != 0
        delta = (c1 * l2, c2 * l1)
        if f1 * c2 != c1 * f2:  # f1 != delta f2
            return ("not_equivalent", [], "the invariant ratio f/c differs")
        # rhs = delta^2 e2 = C1^2 E2 L2 / (C2^2 L1^2) and coef = f1 - 2 c1 =
        # (F1 - 2 C1) / L1; the names below hold their numerators
        rhs = c1 * c1 * e2 * l2
        coef = f1 - 2 * c1
        if e1 != 0:
            if coef != 0:
                if rhs != 0:
                    sols.append(((rhs, c2 * c2 * l1 * e1), (0, 1), delta))
                else:
                    # alpha = (rhs - coef) / e1 at beta = 1
                    sols.append(((-coef, e1), (1, 1), delta))
            else:
                if e2 == 0:
                    return ("not_equivalent", [], "vanishing of G_22^1 differs on the f = 2c subfamily")
                sols.append(((rhs, c2 * c2 * l1 * e1), (0, 1), delta))
        else:
            if coef != 0:
                sols.append(((1, 1), (rhs, c2 * c2 * l1 * coef), delta))
            else:
                if e2 != 0:
                    return ("not_equivalent", [], "vanishing of G_22^1 differs on the f = 2c subfamily")
                sols.append(((1, 1), (0, 1), delta))
    mats = [mat2_of_integers(*_triangular(*sol)) for sol in sols if sol[0][0] != 0 and sol[2][0] != 0]
    if not mats:
        return ("not_equivalent", [], "triangular system has no invertible solution")
    return ("equivalent", mats, None)


def _triangular(alpha, beta, delta) -> tuple[tuple, object]:
    """T = [[alpha, beta], [0, delta]] for entries given as pairs (numerator,
    denominator), as numerators over one denominator; a numerator may be a
    QuadInt."""
    (an, ad), (bn, bd), (dn, dd) = alpha, beta, delta
    return (an * bd * dd, bn * ad * dd, 0, dn * ad * bd), ad * bd * dd


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


# ---------------------------------------------------------------------------
# Isotropy groups


class IsotropyFamily(Frozen):
    """A parametrized family of isotropy elements.

    ``build`` maps a tuple of rational parameters to the matrix; ``template``
    and ``constraints`` are the human-readable description used in reports.
    """

    __slots__ = ("dimension", "param_names", "constraints", "template", "build")

    def instantiate(self, params) -> LinearMap2:
        if len(params) != self.dimension:
            raise ValueError(f"family takes {self.dimension} parameter(s)")
        return LinearMap2(self.build(*[rational(p) for p in params]))

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "params": list(self.param_names),
            "constraints": list(self.constraints),
            "template": self.template,
        }


class IsotropyGroup(Frozen):
    """Every listed element and family member fixes the model under pullback."""

    __slots__ = ("finite_elements", "families")

    @property
    def dimension(self) -> int:
        return max((fam.dimension for fam in self.families), default=0)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "elements": [el.to_json() for el in self.finite_elements],
            "families": [fam.to_dict() for fam in self.families],
        }


_IDENTITY = LinearMap2.identity()

_SPOT_PARAMS = [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5), Fraction(-1, 4)]


def _spot_check(group: IsotropyGroup, m: TypeAModel) -> IsotropyGroup:
    """Cheap construction-time verification that the group fixes the model."""
    for el in group.finite_elements:
        if not carries(m, el.matrix, m):
            raise AssertionError("isotropy element does not fix the model")
    for fam in group.families:
        for k in range(3):
            params = [_SPOT_PARAMS[(k + i) % len(_SPOT_PARAMS)] for i in range(fam.dimension)]
            try:
                el = fam.instantiate(params)
            except (ValueError, ZeroDivisionError):
                continue
            if not carries(m, el.matrix, m):
                raise AssertionError("isotropy family member does not fix the model")
    return group


#: the isotropy groups of the canonical flat models
_FLAT_ISOTROPY = {
    "M0_0": IsotropyGroup((), (
        IsotropyFamily(
            4, ("p", "q", "r", "s"), ("p*s - q*r != 0",), "[[p, q], [r, s]]",
            lambda p, q, r, s: Mat2(((p, q), (r, s))),
        ),
    )),
    "M1_0": IsotropyGroup((_IDENTITY,), (
        IsotropyFamily(1, ("a",), ("a != 0",), "[[1, 0], [0, a]]", lambda a: Mat2(((ONE, ZERO), (ZERO, a)))),
    )),
    "M2_0": IsotropyGroup((_IDENTITY, LinearMap2(Mat2(((ZERO, -ONE), (-ONE, ZERO))))), ()),
    "M3_0": IsotropyGroup((_IDENTITY,), (
        IsotropyFamily(1, ("a",), ("a != 0",), "[[a, 0], [0, 1]]", lambda a: Mat2(((a, ZERO), (ZERO, ONE)))),
    )),
    "M4_0": IsotropyGroup((_IDENTITY,), (
        IsotropyFamily(
            2, ("a", "b"), ("a != 0",), "[[a^2, b], [0, a]]", lambda a, b: Mat2(((a * a, b), (ZERO, a))),
        ),
    )),
    "M5_0": IsotropyGroup((_IDENTITY, LinearMap2(Mat2(((ONE, ZERO), (ZERO, -ONE))))), ()),
}


def _reduced_dimension(red) -> int:
    """The isotropy dimension of a nonflat reduced model, read off its reduced
    numerators ``red`` (:func:`_reduced_numerators`): 0 when A != 0, 2 when
    E = 0 and 2C = F, and 1 otherwise.  :func:`_isotropy_reduced` refines
    this one case split into the groups themselves."""
    a, c, e, f = red[:4]
    if a != 0:
        return 0
    return 2 if e == 0 and 2 * c == f else 1


def _isotropy_reduced(m: TypeAModel) -> IsotropyGroup:
    """Isotropy of a nonflat reduced (b = d = 0) model, by solving within the
    upper-triangular maps T(x1, x2) = (v^{-1}(x1 - w x2), eps x2); the case
    split is :func:`_reduced_dimension` on the model's integer form."""
    red = _reduced_numerators(m.integer_form)
    a, c, e, f = red[:4]
    dimension = _reduced_dimension(red)
    if dimension == 0:
        if f != 0:
            return IsotropyGroup((_IDENTITY,), ())
        # the reflection with w = -2c / a
        return IsotropyGroup((_IDENTITY, LinearMap2(Mat2(((ONE, Fraction(2 * c, a)), (ZERO, -ONE))))), ())
    if dimension == 2:
        family = IsotropyFamily(
            2, ("v", "w"), ("v != 0",), "[[1/v, -w/v], [0, 1]]",
            lambda v, w: Mat2(((1 / v, -w / v), (ZERO, ONE))),
        )
    elif e == 0:
        family = IsotropyFamily(
            1, ("v",), ("v != 0",), "[[1/v, 0], [0, 1]]", lambda v: Mat2(((1 / v, ZERO), (ZERO, ONE)))
        )
    elif 2 * c == f:
        family = IsotropyFamily(1, ("w",), (), "[[1, -w], [0, 1]]", lambda w: Mat2(((ONE, -w), (ZERO, ONE))))
    else:
        ratio, shown = Fraction(2 * c - f, e), ratio_str(2 * c - f, e)

        def tilted(w):
            v = 1 + w * ratio
            if v == 0:
                raise ValueError("parameter outside the family domain")
            return Mat2(((1 / v, -w / v), (ZERO, ONE)))

        family = IsotropyFamily(
            1, ("w",), (f"1 + w*({shown}) != 0",), f"[[1/v, -w/v], [0, 1]] with v = 1 + w*({shown})", tilted
        )
    return IsotropyGroup((_IDENTITY,), (family,))


def _conjugate_group(group: IsotropyGroup, w: Mat2) -> IsotropyGroup:
    """The group W H W^-1 of pullback(n, W), for the group H of n."""
    if w == Mat2.identity():
        return group
    w_inv = w.inverse()
    elements = tuple(LinearMap2(w @ el.matrix @ w_inv) for el in group.finite_elements)
    families = tuple(
        IsotropyFamily(
            fam.dimension, fam.param_names, fam.constraints,
            f"W @ {fam.template} @ W^-1 with W = {w.to_strings()}",
            (lambda *ps, _b=fam.build, _w=w, _wi=w_inv: _w @ _b(*ps) @ _wi),
        )
        for fam in group.families
    )
    return IsotropyGroup(elements, families)


def isotropy_type_a(m: TypeAModel) -> IsotropyGroup:
    """The subgroup of linear maps fixing ``m`` under pullback.

    A flat or rank-one model is the pullback of a normal form n under a
    witness W, and its group is W H W^-1 for the group H of n: a flat model
    (the zero model included) conjugates the stored group of its canonical
    orbit by the matcher's witness, and a rank-one model conjugates the group
    of its frame-reduced model (:func:`_isotropy_reduced`) by the inverse of
    the frame.  A rank-two model with v = rho^{-1} omega nonzero has the
    self-witnesses of the pair solver: every isotropy element fixes v and
    G(v, v); when they are independent the group is trivial, and when they
    are parallel it is the identity and at most one Ricci reflection fixing
    v (:func:`_solve_rank2_forced`).  A rank-two model with omega = 0 raises
    :class:`UndecidedError`.
    """
    cv = curvature_of(m)
    if cv.flags.is_flat:
        try:
            orbit_id, witness = _match_flat_a_orbit(m, _cubic_pattern(m))
        except UnmatchedOrbitError as exc:
            raise UndecidedError(f"flat orbit matcher failed: {exc}") from exc
        group = _conjugate_group(_FLAT_ISOTROPY[orbit_id], witness.matrix)
    elif cv.sig.rank == 1:
        frame, reduced = _rank1_frame(m, cv.ricci)
        group = _conjugate_group(_isotropy_reduced(reduced), _frame_inverse(frame))
    elif trace_numerators(m) != (0, 0):
        # with v = rho^-1 omega != 0 the pair solver lists every real self-witness
        group = IsotropyGroup(_solve_rank2_pair(m, m, cv.ricci, cv.ricci).maps, ())
    else:
        raise UndecidedError(
            "isotropy is not solved for rank-two models with omega = 0: the rational "
            "group may be smaller than the real one"
        )
    return _spot_check(group, m)


# ---------------------------------------------------------------------------
# Linear equivalence


class EquivalenceWitnesses(Frozen):
    """Outcome of an equivalence query.

    ``status`` is one of ``equivalent`` (with at least one exactly verified
    intertwining map), ``not_equivalent`` (with the violated invariant or the
    exhausted case analysis as obstruction), or ``undecided`` (with a
    reason; never silently coerced).
    """

    __slots__ = ("status", "maps", "obstruction", "reason")
    _defaults = {"maps": (), "obstruction": None, "reason": None}

    @property
    def is_equivalent(self) -> bool:
        return self.status == "equivalent"

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.status == "equivalent":
            out["witnesses"] = [w.to_json() for w in self.maps]
        elif self.status == "not_equivalent":
            out["obstruction"] = self.obstruction
        else:
            out["reason"] = self.reason
        return out


def _equivalent(maps: tuple) -> EquivalenceWitnesses:
    return EquivalenceWitnesses("equivalent", maps, None, None)


def _not_equivalent(obstruction: str) -> EquivalenceWitnesses:
    return EquivalenceWitnesses("not_equivalent", (), obstruction, None)


def _undecided(reason: str) -> EquivalenceWitnesses:
    return EquivalenceWitnesses("undecided", (), None, reason)


def _verified_a(m1, m2, products) -> list[LinearMap2]:
    """The witnesses p / den, given as :func:`_product` returns them, each
    passed through :func:`_witness`."""
    out = [_witness(m1.integer_form, p, den, m2.integer_form) for p, den in products]
    if None in out:
        raise AssertionError("equivalence witness failed exact verification")
    return out


def _screen_a(c1: Curvature, c2: Curvature) -> str | None:
    if c1.flags.primary != c2.flags.primary:
        return f"stratum flags differ: {c1.flags.primary} vs {c2.flags.primary}"
    if c1.sig != c2.sig:
        return f"Ricci rank/signature differ: {c1.sig.label} vs {c2.sig.label}"
    return None


def _stratum_normal_form(m: TypeAModel, cv: Curvature) -> tuple[int, object]:
    """The orbit dimension of ``m``, 4 minus the isotropy dimension of a
    normal form, and what the stratum's solver reuses: the cubic's root
    pattern of a flat model, the frame and reduced model of a rank-one
    model, and None on rank two, where every orbit is open (see
    :func:`solve_equivalence_a`)."""
    if cv.flags.is_flat:
        # the pattern names the real orbit; among flat models only the zero
        # model has the zero cubic (G(x, x) = l(x) x with l != 0 has Ricci
        # tensor a nonzero multiple of l (x) l), and M3_0 shares
        # double_simple and dimension 3 with M1_0
        pattern = _cubic_pattern(m)
        orbit_id = "M0_0" if pattern == "zero" else _PATTERN_ORBIT[pattern][0]
        return 4 - _FLAT_ISOTROPY[orbit_id].dimension, pattern
    if cv.sig.rank == 1:
        frame, reduced = _rank1_frame(m, cv.ricci)
        return 4 - _reduced_dimension(_reduced_numerators(reduced.integer_form)), (frame, reduced)
    return 4, None


def solve_equivalence_a(m1: TypeAModel, m2: TypeAModel) -> EquivalenceWitnesses:
    """Decide linear equivalence of two Type A models.

    Pipeline: screening by stratum flags, Ricci signature and orbit
    dimension, then a stratified solve (flat models via canonical-orbit
    matching, rank-one via the rational frame reduction and the triangular
    residual system, rank-two via the covariants of
    :func:`_solve_rank2_pair`: the frame (v, G(v, v)) with
    v = rho^{-1} omega forces the only possible witness; when both frames
    are degenerate, a nonzero v and its Ricci-normal force it up to sign, and
    with v = 0 the binary cubic pins every rational witness).  Every witness
    is verified by exact pullback.  The curvature of each model is computed
    once and handed to every stage.

    Each orbit dimension is 4 minus the isotropy dimension of the normal
    form the stratum's solver computes anyway (:func:`_stratum_normal_form`).
    On rank two it is always 4: an infinitesimal isotropy X preserves rho,
    so it lies in so(rho) and has trace 0, and it preserves the binary cubic
    f, since f2(y) = det T f1(S y).  For a nondegenerate rho, so(rho) is
    spanned by a rotation or a boost, and neither fixes a nonzero binary
    cubic: the rotation weights on cubics are +-1 and +-3, and under a boost
    the null-coordinate monomials p^i q^j of degree 3 have i != j.  But
    f != 0 on rank two (f = 0 forces det rho = 0), so X = 0.
    """
    c1, c2 = curvature_of(m1), curvature_of(m2)
    obstruction = _screen_a(c1, c2)
    if obstruction is not None:
        return _not_equivalent(obstruction)
    (d1, n1), (d2, n2) = _stratum_normal_form(m1, c1), _stratum_normal_form(m2, c2)
    if d1 != d2:
        return _not_equivalent(f"orbit dimensions differ: {d1} vs {d2}")
    if c1.flags.is_flat:
        return _solve_flat_pair(m1, m2, n1, n2)
    if c1.sig.rank == 1:
        (frame1, red1), (frame2, red2) = n1, n2
        status, mats, note = _solve_reduced_pair(red1, red2)
        if status == "not_equivalent":
            return _not_equivalent(note)
        if status == "undecided":
            return _undecided(note)
        s2 = _frame_inverse(frame2)
        witnesses = [_product(s2, mat, frame1.matrix) for mat in mats]
        return _equivalent(tuple(_verified_a(m1, m2, witnesses)))
    return _solve_rank2_pair(m1, m2, c1.ricci, c2.ricci)


def _solve_flat_pair(m1, m2, pattern1: str, pattern2: str) -> EquivalenceWitnesses:
    try:
        id1, w1 = _match_flat_a_orbit(m1, pattern1)
        id2, w2 = _match_flat_a_orbit(m2, pattern2)
    except UnmatchedOrbitError as exc:
        if pattern1 != pattern2:  # the real root lines of det(x, G(x, x)) are GL(2, R)-invariant
            return _not_equivalent(f"cubic root patterns differ: {pattern1} vs {pattern2}")
        return _undecided(f"flat orbit matcher failed: {exc}")
    if id1 != id2:
        return _not_equivalent(f"different flat orbits: {id1} vs {id2}")
    t = _product(w2.matrix, w1.matrix.inverse())
    return _equivalent(tuple(_verified_a(m1, m2, [t])))


# -- rank two -----------------------------------------------------------------


def _rho(r: Ricci2, x) -> int:
    """D rho(x, x) for the Ricci tensor rho = n / D and an integer vector x."""
    (n11, n12, _, n22), _ = r.integer_form
    return (n11 * x[0] + 2 * n12 * x[1]) * x[0] + n22 * x[1] * x[1]


def _normal_frame(r: Ricci2, x) -> tuple[int, int, int, int]:
    """D times the matrix with columns x and its Ricci-normal J rho x, for
    the Ricci tensor rho = n / D and an integer vector x, so that
    rho(x, J rho x) = 0; its determinant is D :func:`_rho`."""
    (n11, n12, _, n22), den = r.integer_form
    return (den * x[0], -(n12 * x[0] + n22 * x[1]), den * x[1], n11 * x[0] + n12 * x[1])


def _frame_map(n2, alpha, beta, n1) -> tuple:
    """N2 diag(alpha, beta) adj(N1) for integer N_i and int or QuadInt scales."""
    b11, b12, b21, b22 = n2
    a11, a12, a21, a22 = n1[3], -n1[1], -n1[2], n1[0]  # adj(N1)
    rows = ((alpha * b11, beta * b12), (alpha * b21, beta * b22))
    return tuple(x * a1j + y * a2j for x, y in rows for a1j, a2j in ((a11, a21), (a12, a22)))


def _solve_rank2_pair(m1, m2, r1: Ricci2, r2: Ricci2) -> EquivalenceWitnesses:
    """Any real T with pullback(m1, T) = m2 carries the covariants of m1 onto
    those of m2.  A nondegenerate frame F = (v, G(v, v)) forces
    T = F2 F1^{-1}; otherwise a nonzero v and its Ricci-normal force T up to
    sign (:func:`_solve_rank2_forced`), and with v = 0 the binary cubic pins
    every rational witness (:func:`_rank2_witnesses_by_cubic`).  ``r1`` and
    ``r2`` are the Ricci tensors of the two models."""
    f1, v1 = covariant_frame(m1, r1)
    f2, v2 = (f1, v1) if m2 is m1 else covariant_frame(m2, r2)
    if (f1 is None) != (f2 is None):
        return _not_equivalent("v = rho^-1 omega and G(v, v) are independent for one model only")
    if f1 is not None:
        t = _witness(m1.integer_form, *_product(f2, f1.inverse()), m2.integer_form)
        if t is None:
            return _not_equivalent(
                "the map carrying the frame (v, G(v, v)) of one model onto the other does not intertwine them"
            )
        return _equivalent((t,))
    if v1[0] != (0, 0) or v2[0] != (0, 0):
        return _solve_rank2_forced(m1, m2, r1, r2, v1, v2)
    witnesses = _rank2_witnesses_by_cubic(m1, m2, r1, r2)
    if witnesses:
        return _equivalent(tuple(witnesses))
    (det1, d1), (det2, d2) = ricci_det(r1), ricci_det(r2)
    k = det1 * det2
    if k < 0 or math.isqrt(k) ** 2 != k:
        return _undecided(
            f"Ricci determinant ratio {ratio_str(det2 * d1 * d1, det1 * d2 * d2)} is not a rational "
            "square, so no rational witness exists"
        )
    # over R the rank-two models with omega = 0 and one Ricci signature form
    # a single open orbit
    return _undecided(
        "equivalent over the reals (omega = 0, equal Ricci signature), but no rational witness exists"
    )


def _solve_rank2_forced(m1, m2, r1: Ricci2, r2: Ricci2, v1, v2) -> EquivalenceWitnesses:
    """The covariants v_i = rho_i^{-1} omega_i, as
    :func:`~affinestrata.curvature.covariant_frame` returns them, are parallel
    to G(v_i, v_i), and one is nonzero.  A nonzero v has rho(v, v) != 0 (a
    null v moved to e2 would force omega = 0), so rho(v, v) also tells v = 0
    from v != 0.  Any witness T
    has T v1 = v2 and is a Ricci congruence, so it carries the Ricci-normal
    w1 of v1 to delta w2, with delta^2 = rho1(w1, w1) / rho2(w2, w2) =
    det rho1 / det rho2 once rho(v, v) agrees.  A rational delta leaves two
    candidates; an irrational one is decided in Z[sqrt(K)], where vanishing
    covers both real embeddings.  On the integer forms rho_i = n_i / D_i,
    v_i = x_i / q_i, the frame (v_i, w_i) is N_i / (D_i q_i) for N_i the
    :func:`_normal_frame` of x_i, delta = D2 sqrt(K) / (D1 det n2) with
    K = det n1 det n2, and T = q1 N2 diag(D1 det n2, D2 sqrt(K)) adj(N1) /
    (D2 q2 det n2 det N1)."""
    (x1, q1), (x2, q2) = v1, v2
    (det1, d1), (det2, d2) = ricci_det(r1), ricci_det(r2)
    if _rho(r1, x1) * d2 * q2 * q2 != _rho(r2, x2) * d1 * q1 * q1:
        return _not_equivalent("rho(v, v) differs for v = rho^-1 omega")
    k = det1 * det2
    if k < 0:
        return _not_equivalent("Ricci determinant signs differ")
    n1, n2 = _normal_frame(r1, x1), _normal_frame(r2, x2)
    den = d2 * q2 * det2 * d1 * _rho(r1, x1)
    root = math.isqrt(k)
    if root * root != k:
        t = _frame_map(n2, q1 * d1 * det2, q1 * d2 * QuadInt(0, 1, k), n1)
        ratio = ratio_str(det1 * d2 * d2, det2 * d1 * d1)
        if _carries(m1.integer_form, t, den, m2.integer_form):
            return _undecided(
                "equivalent over the reals, but the forced scale of the "
                f"Ricci-normal of v is the irrational sqrt({ratio})"
            )
        return _not_equivalent(
            f"the equations fail at the forced scale sqrt({ratio}) of the Ricci-normal of v"
        )
    signs = (1, -1) if det2 > 0 else (-1, 1)  # delta > 0 first
    maps = [_frame_map(n2, q1 * d1 * det2, q1 * d2 * sign * root, n1) for sign in signs]
    found = [_witness(m1.integer_form, p, den, m2.integer_form) for p in maps]
    witnesses = tuple([t for t in found if t is not None])
    if witnesses:
        return _equivalent(witnesses)
    return _not_equivalent(
        "neither map carrying v and its Ricci-normal onto the other model's intertwines them"
    )


def _cubic_at(f, x):
    """The binary cubic with coefficients ``f`` (X^3, X^2 Y, X Y^2, Y^3) at x."""
    return ((f[0] * x[0] + f[1] * x[1]) * x[0] + f[2] * x[1] * x[1]) * x[0] + f[3] * x[1] ** 3


def _rank2_witnesses_by_cubic(m1, m2, r1: Ricci2, r2: Ricci2) -> list[LinearMap2]:
    """Every rational T with pullback(m1, T) = m2, for rank-two models with
    Ricci tensors ``r1``, ``r2``.

    Write S = T^{-1}.  The binary cubic f = det(x, G(x, x)) obeys
    f2(y) = det T f1(S y), and rho2(y, y) = rho1(S y, S y).  A rank-two model
    has f != 0 (f = 0 forces det rho = 0), so some probe u has
    k = rho2(u, u) != 0 and f2(u) != 0.  With det S = sigma s, where
    s^2 = det rho2 / det rho1 (no rational witness when that is not a
    square), sigma S u = x has rho1(x, x) = k and f1(x) = c = s f2(u).  So
    the direction x^ of x is a rational root of the binary sextic
    c^2 rho1^3 - k^3 f1^2, and x = c rho1(x^) / (k f1(x^)) x^.  As a Ricci
    congruence of determinant sigma / s, T carries x to sigma u and the
    Ricci-normal of x to 1 / s times that of u.  Each of the at most 12
    candidates is checked by exact pullback.  On the integer forms
    m_i = g_i / L_i, rho_i = n_i / D_i with det n1 det n2 = r^2,
    s = D1 r / (D2 |det n1|), and the sextic is taken times D1 D2^3 det n1 L1^2 L2^2.
    """
    (det1, d1), (det2, d2) = ricci_det(r1), ricci_det(r2)
    k = det1 * det2
    root = math.isqrt(k) if k > 0 else 0
    if root * root != k:
        return []
    (g1, l1), (g2, l2) = m1.integer_form, m2.integer_form
    c1, c2 = binary_cubic_coeffs(g1), binary_cubic_coeffs(g2)  # L_i f_i
    u = next(p for p in _PROBES if _rho(r2, p) != 0 and _cubic_at(c2, p) != 0)
    k2, f2u = _rho(r2, u), _cubic_at(c2, u)
    # rho1 and f1 on x^ = (t, 1), ascending in t; the direction (1, 0) is a
    # root when the sextic drops degree
    (n11, n12, _, n22), _ = r1.integer_form
    q, f = [n22, 2 * n12, n11], list(reversed(c1))
    sextic = polys.padd(
        polys.pscale(polys.pmul(q, polys.pmul(q, q)), det2 * f2u * f2u * d2 * l1 * l1),
        polys.pscale(polys.pmul(f, f), -(k2**3) * d1 * det1 * l2 * l2),
    )
    directions = [(t.numerator, t.denominator) for t, _ in polys.rational_roots(sextic)]
    if polys.pdeg(sextic) < 6:
        directions.append((1, 0))
    n2 = _normal_frame(r2, u)
    found = []  # one entry per candidate, None where it fails
    for xh in directions:
        fx = _cubic_at(c1, xh)
        if fx == 0:  # a common root of rho1 and f1 carries no x with f1(x) = c
            continue
        # x = X / qx with X = r f2(u) L1 rho1(x^) x^ and qx = |det n1| L2 k f1(x^), on numerators
        scale = root * f2u * l1 * _rho(r1, xh)
        x = (scale * xh[0], scale * xh[1])
        qx = abs(det1) * l2 * k2 * fx
        n1 = _normal_frame(r1, x)
        den = d2 * root * d1 * _rho(r1, x)
        for sigma in (1, -1):
            p = _frame_map(n2, qx * sigma * d1 * root, qx * d2 * abs(det1), n1)
            found.append(_witness(m1.integer_form, p, den, m2.integer_form))
    return [t for t in found if t is not None]


# -- Type B -------------------------------------------------------------------


def solve_equivalence_b(m1: TypeBModel, m2: TypeBModel) -> EquivalenceWitnesses:
    """Decide shear equivalence of two Type B models by exact elimination of
    the two unknowns (a, b) from the six coefficient equations.  Each
    candidate shear is kept only when its exact pullback carries m1 to m2.
    Every test reads the integer forms m_i = g_i / L_i, and each candidate
    (a, b), a pair of integer ratios, is checked on integers (:func:`_carries`)
    before a :class:`ShearMap` is built."""
    fl1, fl2 = stratum_flags(m1), stratum_flags(m2)
    if fl1.primary != fl2.primary:
        return _not_equivalent(f"stratum flags differ: {fl1.primary} vs {fl2.primary}")
    (a1, b1, c1, d1, e1, f1), l1 = source = m1.integer_form
    (a2, b2, c2, d2, e2, f2), l2 = target = m2.integer_form
    candidates: list[tuple[tuple[int, int], tuple[int, int]]] = []  # ((n, d), (n, d))
    if e1 != 0 or e2 != 0:
        if (e1 == 0) != (e2 == 0):
            return _not_equivalent("vanishing of G_22^1 differs")
        k = e1 * e2 * l1 * l2  # alpha^2 = e1 / e2 = K / q^2
        if k < 0:
            return _not_equivalent("signs of G_22^1 differ")
        # alpha = rho / q, rho^2 = K, and beta = (c1 alpha - c2 alpha^2) / e1
        q = abs(e2 * l1)
        den = e1 * e2 * q
        root = math.isqrt(k)
        if root * root == k:
            candidates += [((rho, q), (c1 * e2 * rho - c2 * e1 * q, den)) for rho in (root, -root)]
        else:
            # decide the irrational scale in Z[sqrt(K)], for both real embeddings
            rho = QuadInt(0, 1, k)
            shear = (den, 0, c1 * e2 * rho - c2 * e1 * q, e1 * e2 * rho)
            if _carries(source, shear, den, target):
                return _undecided(
                    "equivalent over the reals, but every intertwining shear "
                    f"has the irrational scale sqrt({ratio_str(e1 * l2, e2 * l1)})"
                )
            return _not_equivalent("the equations fail at the forced scale sqrt of the G_22^1 ratio")
    elif c1 != 0 or c2 != 0:
        if (c1 == 0) != (c2 == 0):
            return _not_equivalent("vanishing of G_12^1 differs")
        alpha = (c1 * l2, c2 * l1)
        if c1 != f1:
            # beta = alpha (d2 - d1) / (c1 - f1)
            candidates.append((alpha, (c1 * (d2 * l1 - d1 * l2), c2 * l1 * (c1 - f1))))
        else:
            # f1 = c1 makes the G_12^2 equation vacuous; use the G_11^1 one
            if f1 * c2 != f2 * c1:  # f1 / alpha != f2
                return _not_equivalent("G_22^2 ratio differs")
            # beta = alpha (a1 - a2) / (2 c1)
            candidates.append((alpha, (a1 * l2 - a2 * l1, 2 * c2 * l1)))
    elif f1 != 0 or f2 != 0:
        if (f1 == 0) != (f2 == 0):
            return _not_equivalent("vanishing of G_22^2 differs")
        # alpha = f1 / f2 and beta = alpha (d1 - d2) / f1
        candidates.append(((f1 * l2, f2 * l1), (d1 * l2 - d2 * l1, f2 * l1)))
    else:
        # c = e = f = 0 on both sides; a and d are then shear invariants
        if a1 * l2 != a2 * l1 or d1 * l2 != d2 * l1:
            return _not_equivalent("G_11^1 or G_12^2 differ on the invariant subfamily")
        coef = a1 - 2 * d1  # L1 (a1 - 2 d1)
        if b1 != 0:
            for beta in (0, 1):
                # alpha = (b2 - beta coef) / b1
                num = b2 * l1 - beta * l2 * coef
                if num != 0:
                    candidates.append(((num, l2 * b1), (beta, 1)))
        elif coef != 0:
            candidates.append(((1, 1), (b2 * l1, l2 * coef)))
        elif b2 == 0:
            candidates.append(((1, 1), (0, 1)))
        else:
            return _not_equivalent("G_11^2 cannot be produced by any shear")
    shears = [
        ShearMap(Fraction(an, ad), Fraction(bn, bd))
        for (an, ad), (bn, bd) in candidates
        if an != 0 and _carries(source, (ad * bd, 0, bn * ad, an * bd), ad * bd, target)
    ]
    if shears:
        return _equivalent(tuple(shears))
    return _not_equivalent("the shear elimination has no solution")
