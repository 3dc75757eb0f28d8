"""Ricci tensors, symmetric/alternating split, rank and signature, and the
stratum flags that drive classification.

For Type B models the stored matrix is the cleared form (x^1)^2 * rho, which
is polynomial in the six coefficients; every stratum predicate used here is
invariant under that positive rescaling.

A :class:`Ricci2` is a 2 x 2 matrix held as its integer form: the entries
are integer polynomials in the model's integer form
(:attr:`~affinestrata.models.TypeAModel.integer_form`) over the square of
its denominator, and the Fraction ``rows`` are built only when a caller
reads them.  The zero test, the split, the rank and signature and the
stratum flags compute on those integers, and the split holds the
alternating entry as its integer form; so do the binary cubic's
coefficient map and the rank-two covariant frame (v, G(v, v)) with
v = rho^{-1} omega (:func:`covariant_frame`).  The signatures and the
stratum flags are few, so each is built once at import and shared
(:data:`RANK_SIGS`, :data:`PRIMARY_FLAGS`).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Frozen, IntegerForm, Mat2, mat2_of_integers
from .models import Model, TypeAModel, TypeBModel

RANK_ZERO = "zero"
RANK1_POS = "positive_semidefinite"
RANK1_NEG = "negative_semidefinite"
RANK2_POS = "positive_definite"
RANK2_NEG = "negative_definite"
RANK2_INDEF = "indefinite"


class NotSymmetricError(ValueError):
    """rank_signature received a matrix that is not symmetric."""


class Ricci2(Mat2):
    """2x2 exact Ricci matrix; ``cleared`` marks the (x^1)^2-scaled form.

    A :class:`~affinestrata.exact.Mat2` with the flag: its integer form
    holds the entries (n11, n12, n21, n22) over a denominator D > 0 in
    lowest terms, ``Ricci2(rows, cleared)`` clears the rows once, and the
    ``rows`` of a tensor computed from a model
    (``Ricci2.of_integers(nums, den, cleared)``) are built from the
    integers when read.  Equality and hashing compare the entries and
    the ``cleared`` flag, so a Ricci2 never equals a Mat2."""

    __slots__ = ("cleared",)

    def __init__(self, rows, cleared: bool = False):
        Mat2.__init__(self, rows)
        object.__setattr__(self, "cleared", cleared)

    def __hash__(self):
        return hash((self.integer_form, self.cleared))


class RicciSplit(IntegerForm):
    """The symmetric part, a symmetric tensor with the source's ``cleared``
    flag, plus the single entry of the alternating part, held as its
    integer form ``((n,), d)``: ``alt`` is its Fraction view, built when
    read, and :func:`split_ricci` builds no Fraction."""

    __slots__ = ("symmetric",)
    _fields = ("symmetric", "alt")

    def __init__(self, symmetric: Ricci2, alt):
        object.__setattr__(self, "symmetric", symmetric)
        self._clear((alt,))

    alt = property(lambda self: self._fractions()[0])
    __hash__ = Frozen.__hash__  # the record's hash, of (symmetric, alt)

    @property
    def sym(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return self.symmetric.rows

    def sym_is_zero(self) -> bool:
        return self.symmetric.is_zero()


class RankSig(Frozen):
    """The rank and definiteness label of a symmetric 2 x 2 tensor; the six
    values :func:`rank_signature` returns are built once (:data:`RANK_SIGS`)
    and shared."""

    __slots__ = ("rank", "label")


class StratumFlags(Frozen):
    """Which strata a model lies in, held as its one ``primary`` stratum;
    the six ``is_*`` flags are read off it (a cone point is flat as well).
    The flags :func:`curvature_of` returns, one value per primary stratum,
    are built once (:data:`PRIMARY_FLAGS`) and shared."""

    __slots__ = ("primary",)

    is_cone_point = property(lambda self: self.primary == "cone_point")
    is_flat = property(lambda self: self.primary in ("cone_point", "flat"))
    is_rank1_pos = property(lambda self: self.primary == "rank1_positive")
    is_rank1_neg = property(lambda self: self.primary == "rank1_negative")
    is_alt_only = property(lambda self: self.primary == "alternating_only")
    is_rank2 = property(lambda self: self.primary == "rank2")

    def to_dict(self) -> dict:
        return {
            "cone_point": self.is_cone_point,
            "flat": self.is_flat,
            "rank1_positive": self.is_rank1_pos,
            "rank1_negative": self.is_rank1_neg,
            "alternating_only": self.is_alt_only,
            "rank2": self.is_rank2,
            "primary": self.primary,
        }


#: the value of :func:`rank_signature` for each label, built once and shared
RANK_SIGS = {
    label: RankSig(rank, label)
    for rank, label in (
        (0, RANK_ZERO), (1, RANK1_POS), (1, RANK1_NEG), (2, RANK2_POS), (2, RANK2_NEG), (2, RANK2_INDEF)
    )
}

#: the flags of each primary stratum, keyed by :attr:`StratumFlags.primary`,
#: built once and shared
PRIMARY_FLAGS = {
    primary: StratumFlags(primary)
    for primary in ("cone_point", "flat", "alternating_only", "rank1_positive", "rank1_negative", "rank2")
}


def _ricci_a_numerators(g) -> tuple:
    """(N11, N12, N22), the Ricci tensor of the Type A model g / L times L^2."""
    a, b, c, d, e, f = g
    return (a - d) * d + b * (f - c), c * d - b * e, c * (f - c) + (a - d) * e


def ricci_type_a(m: TypeAModel) -> Ricci2:
    """Ricci tensor of a constant-coefficient model; always symmetric.

    The entries are quadratic in the coefficients, so they are integer
    polynomials in the cleared numerators (:func:`_ricci_a_numerators`)
    over the square of the common denominator, reduced with one gcd.
    """
    g, den = m.integer_form
    r11, r12, r22 = _ricci_a_numerators(g)
    return Ricci2.of_integers((r11, r12, r12, r22), den * den, False)


def is_flat_a(m: TypeAModel) -> bool:
    """Whether a Type A model is flat, read off its Ricci numerators."""
    return not any(_ricci_a_numerators(m.integer_form[0]))


def ricci_type_b(m: TypeBModel) -> Ricci2:
    """Cleared Ricci tensor (x^1)^2 * rho of a 1/x^1-profile model.

    Computed like :func:`ricci_type_a`; the terms linear in the coefficients
    carry one factor of the common denominator ``q``.
    """
    (a, b, c, d, e, f), q = m.integer_form
    return Ricci2.of_integers(
        (
            (a - d + q) * d + b * (f - c),
            c * d - b * e + q * f,
            c * (d - q) - b * e,
            -c * c + f * c + (a - d - q) * e,
        ),
        q * q,
        True,
    )


def ricci(m: Model) -> Ricci2:
    return ricci_type_a(m) if m.kind == "A" else ricci_type_b(m)


def split_ricci(r: Ricci2) -> RicciSplit:
    """sym = (r + r^T)/2; alt = the (1,2) entry of the alternating part.  A
    symmetric tensor (every Type A one) is its own symmetric part."""
    (n11, n12, n21, n22), den = r.integer_form
    if n12 == n21:
        return RicciSplit.of_integers((0,), 1, r)
    # (r12 +- r21) / 2 over 2 D, the diagonal doubled to match
    off = n12 + n21
    sym = Ricci2.of_integers((2 * n11, off, off, 2 * n22), 2 * den, r.cleared)
    return RicciSplit.of_integers((n12 - n21,), 2 * den, sym)


def rank_signature(sym) -> RankSig:
    """Rank and definiteness of an exact symmetric 2x2 matrix, a
    :class:`Ricci2` or its rows, on the integer form.

    Rank-one definiteness is read off the sign of a nonzero diagonal entry
    (a symmetric rank-one matrix always has one); rank-two signs come from
    the determinant and a diagonal entry.  The common denominator is
    positive, so every sign is a sign of numerators.
    """
    if not isinstance(sym, Ricci2):
        sym = Ricci2(sym)
    (s11, s12, s21, s22), _ = sym.integer_form
    if s12 != s21:
        raise NotSymmetricError("rank_signature expects a symmetric matrix")
    if s11 == 0 and s12 == 0 and s22 == 0:
        return RANK_SIGS[RANK_ZERO]
    det = s11 * s22 - s12 * s12
    if det == 0:
        diag = s11 if s11 != 0 else s22
        if diag == 0:
            raise NotSymmetricError("symmetric rank-one matrix with zero diagonal")
        return RANK_SIGS[RANK1_POS if diag > 0 else RANK1_NEG]
    if det < 0:
        return RANK_SIGS[RANK2_INDEF]
    return RANK_SIGS[RANK2_POS if s11 > 0 else RANK2_NEG]


class Curvature(Frozen):
    """Everything the strata read off one model's Ricci tensor: the tensor,
    its split, the rank and signature of the symmetric part, and the flags."""

    __slots__ = ("ricci", "split", "sig", "flags")


def curvature_of(m: Model) -> Curvature:
    """The Ricci tensor of ``m`` with its split, signature and stratum flags,
    each computed once; the signature and the flags are the shared values
    of :data:`RANK_SIGS` and :data:`PRIMARY_FLAGS`."""
    r = ricci(m)
    split = split_ricci(r)
    sig = rank_signature(split.symmetric)
    if r.is_zero():
        primary = "cone_point" if m.is_zero() else "flat"
    elif sig.rank == 0:  # a nonzero tensor whose symmetric part vanishes
        primary = "alternating_only"
    elif sig.rank == 1:
        primary = "rank1_positive" if sig.label == RANK1_POS else "rank1_negative"
    else:
        primary = "rank2"
    return Curvature(r, split, sig, PRIMARY_FLAGS[primary])


def stratum_flags(m: Model) -> StratumFlags:
    """Mutually consistent stratum flags; exactly one primary stratum."""
    return curvature_of(m).flags


def rank1_scale(r: Ricci2) -> Fraction:
    """The nonzero eigenvalue of a symmetric rank-one matrix (its trace)."""
    (n11, _, _, n22), den = r.integer_form
    return Fraction(n11 + n22, den)


def gamma_coeffs(coeffs, x, y):
    """The coefficient bilinear map G(x, y) of a coefficient tuple, over any
    scalar ring: G(x, y)^k = G^k_ij x^i y^j."""
    a, b, c, d, e, f = coeffs
    head = x[0] * y[0]
    cross = x[0] * y[1] + x[1] * y[0]
    tail = x[1] * y[1]
    return (a * head + c * cross + e * tail, b * head + d * cross + f * tail)


def trace_numerators(m: TypeAModel) -> tuple[int, int]:
    """L omega = (A + D, C + F), the trace form on the numerators of m = g / L."""
    (a, _, c, d, _, f), _ = m.integer_form
    return a + d, c + f


def ricci_det(r: Ricci2) -> tuple[int, int]:
    """(det n, D) for the Ricci tensor rho = n / D, so det rho = det n / D^2."""
    (n11, n12, _, n22), den = r.integer_form
    return n11 * n22 - n12 * n12, den


def covariant_frame(m: TypeAModel, r: Ricci2) -> tuple[Mat2 | None, tuple[tuple[int, int], int]]:
    """The matrix F with columns v = rho^{-1} omega and G(v, v) for a
    rank-two model with Ricci tensor ``r``, or None when they are dependent,
    and v as ``(x, q)``, an integer vector over an integer, v = x / q.  Both
    are vector covariants, so F(pullback(m, T)) = T F(m).

    On the integer forms m = g / L and rho = n / D, v = s V with
    V = adj(n) (L omega) and s = D / (L det n), and G(v, v) = s^2 g(V, V) / L,
    so F is singular exactly when det[V, g(V, V)] = 0; no Fraction is built."""
    g, den = m.integer_form
    (n11, n12, _, n22), dr = r.integer_form
    w1, w2 = trace_numerators(m)
    x = (n22 * w1 - n12 * w2, n11 * w2 - n12 * w1)
    det = n11 * n22 - n12 * n12
    v = ((dr * x[0], dr * x[1]), den * det)
    y0, y1 = gamma_coeffs(g, x, x)
    if x[0] * y1 == x[1] * y0:
        return None, v
    # F = [D L^2 det V | D^2 g(V, V)] / (L^3 det^2)
    col0, col1 = dr * den * den * det, dr * dr
    return mat2_of_integers((col0 * x[0], col1 * y0, col0 * x[1], col1 * y1), den**3 * det * det), v


def binary_cubic_coeffs(coeffs) -> tuple:
    """The coefficients of det(x, G(x, x)), a binary cubic invariant of the
    orbit, in the order X^3, X^2 Y, X Y^2, Y^3 for x = (X, Y), from a
    coefficient tuple over any scalar ring; on a model's integer numerators
    they are the cubic's numerators over the same denominator."""
    a, b, c, d, e, f = coeffs
    return (b, 2 * d - a, f - 2 * c, -e)


def coefficient_rank(m: TypeAModel) -> int:
    """Rank of the 2x3 coefficient matrix [[a, c, e], [b, d, f]].

    Equals the dimension of the span of G(u, v) over all u, v, hence is an
    orbit invariant.
    """
    (a, b, c, d, e, f), _ = m.integer_form
    pairs = [(a, b), (c, d), (e, f)]
    nonzero = [p for p in pairs if p != (0, 0)]
    if not nonzero:
        return 0
    x0, y0 = nonzero[0]
    for x1, y1 in nonzero[1:]:
        if x0 * y1 - y0 * x1 != 0:
            return 2
    return 1
