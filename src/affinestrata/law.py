"""The coordinate-change action on the two model families: the one
coefficient law, pullbacks, the witness check and gate, and the
infinitesimal orbit dimension.

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
Z[sqrt(K)] (:class:`~affinestrata.exact.QuadInt`); every Type A witness
passes one gate (:func:`_witness`).  :func:`orbit_dimension_a`, the rank of
the infinitesimal action at the identity, is the independent check of the
orbit dimensions that the equivalence screen reads off normal forms.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import LinearMap2, Mat2, ShearMap, _forward_eliminate, clear_denominators, mat2_of_integers
from .models import TypeAModel, TypeBModel


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
    decided on integers by :func:`_carries` from the matrix's integer
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


#: the identity map, the witness of a model already in its normal form
_IDENTITY = LinearMap2.identity()
