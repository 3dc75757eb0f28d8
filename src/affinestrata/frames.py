"""The rank-one frame and the reduced solver.

A model whose Ricci tensor has rank one is carried by a rational frame
(:func:`rank1_frame`) to a reduced model with b = d = 0, and every map
between two reduced models is upper triangular (:func:`_solve_reduced`).
The frame is written in closed form, and the reduced case analysis runs on
the reduced model's numerators (:func:`_reduced_numerators`); a forced
irrational frame scale is checked by the law in Z[sqrt(K)].
"""

from __future__ import annotations

import math

from .exact import LinearMap2, Mat2, QuadInt, mat2_of_integers, primitive_covector, ratio_str
from .curvature import Ricci2, rank_signature, ricci_type_a
from .models import TypeAModel
from .law import _IDENTITY, _carries, pullback_type_a


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
