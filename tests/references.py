"""Fraction and generic-ring references for the tests.

Each function here is the plain form of a kernel the package computes on
integers, kept as the oracle that kernel is checked against:
``trace_form``, ``gamma_pair``, ``ricci_trace_vector`` and ``binary_cubic``
on a model's Fraction coefficients, ``mat2_from_cols`` on Fraction columns
and ``peval`` on a Fraction polynomial.

``ring_law`` is the coefficient law over any field of scalars (``QuadExt``,
the dual numbers at k = 0, sympy expressions): the package's one law,
``group_action._adjugate_law``, divided once by det(T)^2.  ``ring_product``
is the 2 x 2 product of rows over any ring.

``rand_rational`` is the plain form of ``sampling.rand_rational``: two
``randint`` draws and a fresh Fraction, the stream the sampler must keep.
"""

from fractions import Fraction

from affinestrata.curvature import binary_cubic_coeffs, gamma_coeffs
from affinestrata.exact import ZERO, Mat2
from affinestrata.group_action import _adjugate_law
from affinestrata.polys import ptrim


def trace_form(m):
    """The contraction G_ji^i as a covector; equivariant under pullback."""
    a, b, c, d, e, f = m.coeffs
    return (a + d, c + f)


def gamma_pair(m, x, y):
    """The coefficient bilinear map G(x, y) evaluated on rational vectors."""
    return gamma_coeffs(m.coeffs, x, y)


def ricci_trace_vector(m, r):
    """v = rho^{-1} omega for a nondegenerate Ricci tensor ``r`` of ``m``, with
    omega the trace form.

    A vector covariant: v(pullback(m, T)) = T v(m), because rho^{-1}
    transforms as T rho^{-1} T^T and omega as omega T^{-1}.  The other
    contraction G^k_ij (rho^{-1})^ij is the same vector for every model.
    """
    (r11, r12), (_, r22) = r.rows
    det = r11 * r22 - r12 * r12
    w1, w2 = trace_form(m)
    return ((r22 * w1 - r12 * w2) / det, (r11 * w2 - r12 * w1) / det)


def binary_cubic(m):
    """Coefficients of det(x, G(x, x)) on ``m.coeffs``, in the order X^3,
    X^2 Y, X Y^2, Y^3 for x = (X, Y)."""
    return binary_cubic_coeffs(m.coeffs)


def mat2_from_cols(col0, col1):
    return Mat2(((col0[0], col1[0]), (col0[1], col1[1])))


def peval(p, x):
    """The polynomial ``p`` (ascending coefficients) at ``x``, by Horner's rule."""
    acc = ZERO
    for coeff in reversed(ptrim(p)):
        acc = acc * x + coeff
    return acc


def ring_law(coeffs, rows) -> tuple:
    """The coefficients in y = T x coordinates for T given by its ``rows``,
    over any field of scalars; a singular T raises ZeroDivisionError."""
    (t11, t12), (t21, t22) = rows
    nums, det = _adjugate_law(coeffs, t11, t12, t21, t22)
    square = det * det
    return tuple(n / square for n in nums)


def ring_product(x, y):
    """The product of 2 x 2 matrices given by their rows, over any ring."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def rand_rational(rng, height=12):
    """n / d with |n| <= height and 1 <= d <= height, drawn in that order."""
    return Fraction(rng.randint(-height, height), rng.randint(1, height))
