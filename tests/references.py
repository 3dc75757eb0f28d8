"""Fraction and generic-ring references for the tests.

Each function here is the plain form of a kernel the package computes on
integers, kept as the oracle that kernel is checked against:
``trace_form``, ``gamma_pair``, ``ricci_trace_vector`` and ``binary_cubic``
on a model's Fraction coefficients, ``mat2_from_cols`` on Fraction columns
and ``peval`` on a Fraction polynomial.

``gamma_law`` is the coefficient law in the form the package's straight-line
``group_action._adjugate_law`` expands: T g(adj T ., adj T .) and det T,
with g(u, v) read through ``gamma_coeffs`` on each pair of adjugate columns.
``ring_law`` is that law over any field of scalars (``QuadExt``, the dual
numbers at k = 0, sympy expressions), divided once by det(T)^2.
``ring_product`` is the 2 x 2 product of rows over any ring.

``QuadExt`` is the field Q(sqrt(k)) (the dual numbers at k = 0), held on
integers as (p + q*sqrt(K)) / d: the reference the package's one quadratic
ring, ``exact.QuadInt`` on Z[sqrt(k)], and its integer dual numbers are
checked against.  Its scalars pass the package's gate, ``exact._ratio``.

``draw_ratio`` is the plain form of the sampler's one draw,
``sampling._draw_ratio``: two ``randint`` draws, the stream the sampler
must keep.  ``PLAIN_SAMPLERS`` holds the plain forms of the samplers, each
built from fresh Fractions (``rand_rational``) in the order the rows and
coefficients are read, as a model or a matrix takes them.

``FAMILY_BUILDS`` holds the plain form of every catalog and family build:
the coefficients as ring expressions in the parameters themselves, with the
constraint each entry checks (``FAMILY_CHECKS``) on those parameters, and
``flat_a_coeffs`` is the flat chart on a circle point (c, s).  The package
builds the same models from the parameters' numerators over one
denominator.
"""

import math
from fractions import Fraction

from affinestrata.curvature import binary_cubic_coeffs, gamma_coeffs
from affinestrata.exact import ZERO, Mat2, _ratio, circle_from_slope
from affinestrata.group_action import LinearMap2, ShearMap
from affinestrata.models import TypeAModel, TypeBModel
from affinestrata.polys import ptrim
from affinestrata.strata import ConePointError


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


def gamma_law(g, p11, p12, p21, p22) -> tuple[list, object]:
    """P g(adj P ., adj P .) and det P over any ring, one ``gamma_coeffs``
    per pair of the columns of adj(P); a singular P raises
    ZeroDivisionError."""
    det = p11 * p22 - p12 * p21
    if det == 0:
        raise ZeroDivisionError("matrix is singular")
    u, v = (p22, -p21), (-p12, p11)
    nums = []
    for x, y in (gamma_coeffs(g, u, u), gamma_coeffs(g, u, v), gamma_coeffs(g, v, v)):
        nums.append(p11 * x + p12 * y)
        nums.append(p21 * x + p22 * y)
    return nums, det


def ring_law(coeffs, rows) -> tuple:
    """The coefficients in y = T x coordinates for T given by its ``rows``,
    over any field of scalars; a singular T raises ZeroDivisionError."""
    (t11, t12), (t21, t22) = rows
    nums, det = gamma_law(coeffs, t11, t12, t21, t22)
    square = det * det
    return tuple(n / square for n in nums)


def ring_product(x, y):
    """The product of 2 x 2 matrices given by their rows, over any ring."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


class QuadExt:
    """An element u + v*sqrt(k) of Q(sqrt(k)), or of the dual numbers when
    k = 0.

    Held on integers as (p + q*sqrt(K)) / d with K = k.numerator *
    k.denominator, so that sqrt(K) = k.denominator * sqrt(k), d > 0 and
    gcd(p, q, d) = 1: each operation is a few integer products and one gcd,
    and equal elements have equal (p, q, d).
    """

    __slots__ = ("p", "q", "d", "k", "_big_k")

    def __init__(self, u, v, k):
        (pu, du), (pv, dv), (n, m) = _ratio(u), _ratio(v), _ratio(k)
        lcm = math.lcm(du, dv)
        self.k, self._big_k = k, n * m
        self._set(pu * (lcm // du) * m, pv * (lcm // dv), lcm * m)

    def _set(self, p, q, d) -> None:
        if d < 0:
            p, q, d = -p, -q, -d
        g = math.gcd(p, q, d)
        if g > 1:
            p, q, d = p // g, q // g, d // g
        self.p, self.q, self.d = p, q, d

    def _new(self, p, q, d) -> "QuadExt":
        out = object.__new__(QuadExt)
        out.k, out._big_k = self.k, self._big_k
        out._set(p, q, d)
        return out

    @property
    def u(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def v(self) -> Fraction:
        return Fraction(self.q * self.k.denominator, self.d)

    def _lift(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        n, d = _ratio(other)
        return self._new(n, 0, d)

    def __add__(self, other):
        o = self._lift(other)
        return self._new(self.p * o.d + o.p * self.d, self.q * o.d + o.q * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        return self._new(
            self.p * o.p + self._big_k * self.q * o.q,
            self.p * o.q + self.q * o.p,
            self.d * o.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        # the norm vanishes only at 0 when k is not a square, and at every v*eps when k = 0
        norm = o.p * o.p - self._big_k * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by a non-unit of the quadratic extension")
        return self._new(
            (self.p * o.p - self._big_k * self.q * o.q) * o.d,
            (self.q * o.p - self.p * o.q) * o.d,
            self.d * norm,
        )

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        o = self._lift(other)
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __repr__(self):
        return f"QuadExt({self.u} + {self.v}*sqrt({self.k}))"


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


def _c1_not_0_m1(c1):
    return "parameter must avoid 0 and -1" if c1 == 0 or c1 == -1 else None


def _nonzero(c):
    return "parameter must be nonzero" if c == 0 else None


def _positive(c):
    return "parameter must be positive" if c <= 0 else None


def _leading_nonzero(lead, *_rest):
    return "zero leading parameter lands in the flat stratum" if lead == 0 else None


def flat_a_coeffs(c, sn, r, s, t) -> tuple:
    """The flat chart at theta = (c, sn) over any scalar ring."""
    if r == 0 and s == 0 and t == 0:
        raise ConePointError("the chart is singular at (r, s, t) = 0")
    cos2 = c * c - sn * sn
    sin2 = 2 * c * sn
    p = r * sn * sn * sn + s * sin2 - t * cos2
    q = r * c * sn * sn + s * cos2 + t * sin2
    v = r * c
    w = r * sn
    return (2 * q, p + t, w, q + s, v, p - t)


def _flat_a(params):
    slope, r, s, t = params
    den = 1 + slope * slope
    return flat_a_coeffs((1 - slope * slope) / den, 2 * slope / den, r, s, t)


def _u1(params):
    r, s = params
    head = 1 + r * s * s
    return (head, -s * head, r * s, -r * s * s, r, -r * s)


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


def _v2(params):
    u, v, w = params
    vw = v * w
    return (1 - 2 * u * w + vw * w, w * (1 - u * w + vw * w), u - vw, -vw * w, v, u + vw)


FAMILY_BUILDS = {
    # the catalog
    "M0_0": lambda p: (0, 0, 0, 0, 0, 0),
    "M1_0": lambda p: (1, 0, 0, 1, 0, 0),
    "M2_0": lambda p: (-1, 0, 0, 0, 0, 1),
    "M3_0": lambda p: (0, 0, 0, 0, 0, 1),
    "M4_0": lambda p: (0, 0, 0, 0, 1, 0),
    "M5_0": lambda p: (1, 0, 0, 1, -1, 0),
    "M1_1": lambda p: (-1, 0, 1, 0, 0, 2),
    "M2_1": lambda p: (-1, 0, p[0], 0, 0, 1 + 2 * p[0]),
    "M3_1": lambda p: (0, 0, p[0], 0, 0, 1 + 2 * p[0]),
    "M4_1": lambda p: (0, 0, 1, 0, p[0], 2),
    "M5_1": lambda p: (1, 0, 0, 0, 1 + p[0] * p[0], 2 * p[0]),
    "N0_0": lambda p: (0, 0, 0, 0, 0, 0),
    "N1_0+": lambda p: (1, 0, 0, 0, 1, 0),
    "N1_0-": lambda p: (1, 0, 0, 0, -1, 0),
    "N2_0": lambda p: (p[0] - 1, 0, 0, p[0], 0, 0),
    "N3_0": lambda p: (-2, 1, 0, -1, 0, 0),
    "N4_0": lambda p: (0, 1, 0, 0, 0, 0),
    "N5_0": lambda p: (-1, 0, 0, 0, 0, 0),
    "N6_0": lambda p: (p[0], 0, 0, 0, 0, 0),
    "N1_alt": lambda p: (0, p[0], 1, 0, 0, 1),
    "N2_alt+": lambda p: (1 - p[0] * p[0], p[0], 0, -p[0] * p[0], 1, 2 * p[0]),
    "N2_alt-": lambda p: (1 + p[0] * p[0], p[0], 0, p[0] * p[0], -1, -2 * p[0]),
    # the stratum parametrizations
    "flat_a": _flat_a,
    "U1": _u1,
    "U2": lambda p: (p[0], p[1], 0, 0, 0, 0),
    "U3": lambda p: (p[0], p[1], 0, 1 + p[0], 0, 0),
    "U1_closure": _u1_closure,
    "V1": lambda p: (p[1], p[2], p[0], 0, 0, p[0]),
    "V2": _v2,
    "rank1_chart": lambda p: (p[1] + p[3], 0, p[2] + p[0], 0, p[1] - p[3], 2 * p[0]),
}

FAMILY_CHECKS = {
    "M2_1": _c1_not_0_m1,
    "M3_1": _c1_not_0_m1,
    "N2_0": _nonzero,
    "N6_0": _c1_not_0_m1,
    "N2_alt+": _positive,
    "N2_alt-": _positive,
    "V1": _leading_nonzero,
    "V2": _leading_nonzero,
}
