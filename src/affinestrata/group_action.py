"""Isotropy groups and linear equivalence with exact witnesses, built on
the coefficient law (:mod:`~affinestrata.law`), the rank-one frame
(:mod:`~affinestrata.frames`) and the orbit matchers
(:mod:`~affinestrata.matchers`).

The equivalence screen reads each orbit dimension off the normal form its
stratum's solver computes anyway, on rank one off the integer case split
(:func:`_reduced_dimension`) that the reduced isotropy group refines.  A
rank-two pair is decided by the models' own covariants, with no search bound
(:func:`_solve_rank2_pair`), and a Type B pair by eliminating the shear on
the numerators (:func:`solve_equivalence_b`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ONE, ZERO, Frozen, LinearMap2, Mat2, QuadInt, ShearMap, ratio_str, rational
from .curvature import (
    Curvature,
    Ricci2,
    binary_cubic_coeffs,
    covariant_frame,
    curvature_of,
    ricci_det,
    stratum_flags,
    trace_numerators,
)
from .models import TypeAModel, TypeBModel
from . import polys
from .law import _IDENTITY, _carries, _witness, carries
from .frames import _frame_inverse, _product, _rank1_frame, _reduced_numerators, _solve_reduced_pair
from .matchers import _PATTERN_ORBIT, _PROBES, UnmatchedOrbitError, _cubic_pattern, _match_flat_a_orbit

# bound here as well, because the benchmark's span table (``bench/spans.py``
# ``TARGETS``) traces these three under this module's name
from .law import orbit_dimension_a, transform_coeffs  # noqa: F401
from .frames import rank1_frame  # noqa: F401


class UndecidedError(Exception):
    """An operation declined to answer; carries the honest reason."""


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
