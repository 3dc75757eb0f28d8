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

``draw_ratio`` is the plain form of the sampler's one draw,
``sampling._draw_ratio``: two ``randint`` draws, the stream the sampler
must keep.  ``PLAIN_SAMPLERS`` holds the plain forms of the samplers, each
built from fresh Fractions (``rand_rational``) in the order the rows and
coefficients are read, as a model or a matrix takes them.
"""

from fractions import Fraction

from affinestrata.curvature import binary_cubic_coeffs, gamma_coeffs
from affinestrata.exact import ZERO, Mat2, circle_from_slope
from affinestrata.group_action import LinearMap2, ShearMap, _adjugate_law
from affinestrata.models import TypeAModel, TypeBModel
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


def draw_ratio(rng, height):
    """The integers (n, d) with |n| <= height and 1 <= d <= height, drawn in
    that order."""
    return rng.randint(-height, height), rng.randint(1, height)


def rand_rational(rng, height=12):
    return Fraction(*draw_ratio(rng, height))


def rand_nonzero(rng, height=12):
    while True:
        x = rand_rational(rng, height)
        if x != 0:
            return x


def rand_model_a(rng, height=12):
    return TypeAModel(*[rand_rational(rng, height) for _ in range(6)])


def rand_model_b(rng, height=12):
    return TypeBModel(*[rand_rational(rng, height) for _ in range(6)])


def rand_linear_map(rng, height=12):
    while True:
        rows = (
            (rand_rational(rng, height), rand_rational(rng, height)),
            (rand_rational(rng, height), rand_rational(rng, height)),
        )
        mat = Mat2(rows)
        if not mat.is_singular():
            return LinearMap2(mat)


def rand_shear(rng, height=12):
    return ShearMap(rand_nonzero(rng, height), rand_rational(rng, height))


def rand_circle(rng, height=12):
    return circle_from_slope(rand_rational(rng, height))


PLAIN_SAMPLERS = {
    f.__name__: f
    for f in (rand_rational, rand_nonzero, rand_model_a, rand_model_b, rand_linear_map, rand_shear, rand_circle)
}
