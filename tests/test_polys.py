import math
import random
import time
from fractions import Fraction as F

import pytest

from affinestrata.polys import (
    binary_cubic_pattern,
    count_real_roots,
    interpolate,
    pdeg,
    pderiv,
    pdivmod,
    pgcd,
    pmul,
    pscale,
    ptrim,
    rational_roots,
)
from references import peval


def P(*coeffs):
    return [F(c) for c in coeffs]


def test_division_and_gcd():
    # (x - 1)(x - 2) = x^2 - 3x + 2
    p = P(2, -3, 1)
    q, r = pdivmod(p, P(-1, 1))
    assert q == P(-2, 1) and r == []
    g = pgcd(pmul(P(-1, 1), P(2, 1)), pmul(P(-1, 1), P(5, 1)))
    assert g == P(-1, 1)


def test_rational_roots_with_multiplicity():
    # (2x - 1)^2 (x + 3)
    p = pmul(pmul(P(-1, 2), P(-1, 2)), P(3, 1))
    roots = dict(rational_roots(p))
    assert roots == {F(1, 2): 2, F(-3): 1}


def test_count_real_roots_sturm():
    assert count_real_roots(P(-2, 0, 1)) == 2  # x^2 - 2
    assert count_real_roots(P(1, 0, 1)) == 0  # x^2 + 1
    assert count_real_roots(P(0, -1, 0, 1)) == 3  # x^3 - x


def root_order(root):
    """The documented order of rational_roots: zero first, then by
    (|numerator|, denominator), the positive root first."""
    x, _ = root
    return (x != 0, abs(x.numerator), x.denominator, x < 0)


def irreducible_quadratic(rng, height):
    """a x^2 + b x + c with no rational root: a complex pair or two
    irrational real roots."""
    while True:
        a, b, c = rng.randint(1, height), rng.randint(-height, height), rng.randint(-height, height)
        disc = b * b - 4 * a * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return [F(c), F(b), F(a)]


def planted(rng, height):
    """Planted rational roots with multiplicities (zero among them at times),
    times irreducible quadratics, scaled by a rational; and the planted roots
    in the documented order."""
    roots = {}
    p = [F(1)]
    for _ in range(rng.randint(1, 3)):
        x = F(rng.randint(-height, height), rng.randint(1, height))
        mult = rng.randint(1, 3)
        roots[x] = roots.get(x, 0) + mult
        for _ in range(mult):
            p = pmul(p, [-x, F(1)])
    for _ in range(rng.randint(0, 2)):
        p = pmul(p, irreducible_quadratic(rng, height))
    p = pscale(p, F(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height)))
    return p, sorted(roots.items(), key=root_order)


def lattice_edge_cases(n):
    """Inputs the 1/L lattice rule must get right, with their roots in order:
    adjacent lattice roots 1/(n + 1) = n/L and 1/n = (n + 1)/L with
    L = n (n + 1); the same mirrored, under a negative leading coefficient;
    roots 1/2 and -3 at bisection midpoints (the root bound is 4); the
    midpoint root -1/2 with the irrational root (9 - sqrt 97) / 2 less than
    1/L to its right, in the interval whose lower end it is; the root 2,
    which an interval twice as wide would share with the lattice point 3;
    and zero beside the adjacent roots 1/3 = 2/6 and 1/2 = 3/6."""
    return [
        (pmul(P(-1, n), P(-1, n + 1)), [(F(1, n), 1), (F(1, n + 1), 1)]),
        (pmul(P(1, n), P(-3, -3 * (n + 1))), [(F(-1, n), 1), (F(-1, n + 1), 1)]),
        (P(-3, 5, 2), [(F(1, 2), 1), (F(-3), 1)]),
        (pmul(P(1, 2), P(-4, -9, 1)), [(F(-1, 2), 1)]),
        (pmul(P(-2, 1), P(-6, -9, 1)), [(F(2), 1)]),
        (pmul(P(0, 0, 1), P(1, -5, 6)), [(F(0), 2), (F(1, 2), 1), (F(1, 3), 1)]),
    ]


def zero_root_cases(n):
    """Zero of multiplicity 1, 2 and 3 beside the adjacent lattice root
    -1/n, a double root n and the irrational pair of x^2 - 2."""
    rest = pmul(pmul(P(1, n), P(-n, 1)), pmul(P(-n, 1), P(-2, 0, 1)))
    return [
        (pmul([F(0)] * k + [F(1)], rest), [(F(0), k), (F(-1, n), 1), (F(n), 2)])
        for k in (1, 2, 3)
    ]


@pytest.mark.parametrize("height", [12, 10**12])
def test_rational_roots_planted(height):
    """Exactly the planted roots, in order, at any height: Sturm isolation has
    no search bound, where a divisor scan of the end coefficients stalls."""
    rng = random.Random(height)
    start = time.perf_counter()
    cases = [planted(rng, height) for _ in range(30)] + lattice_edge_cases(height) + zero_root_cases(height)
    for p, expected in cases:
        assert rational_roots(p) == expected, p
    assert time.perf_counter() - start < 30


def pattern_reference(cubic):
    """binary_cubic_pattern by gcd and Sturm on the dehomogenized cubic, with
    the direction (0:1) a root of multiplicity 3 - deg."""
    k3, k2, k1, k0 = cubic
    if k3 == k2 == k1 == k0 == 0:
        return "zero"
    p = ptrim([k3, k2, k1, k0])
    d = pdeg(p)
    if d == 0:
        return "triple"
    if d == 1:
        return "double_simple"
    repeated = pdeg(pgcd(p, pderiv(p)))
    if d == 2:
        if repeated >= 1:
            return "double_simple"
        return "three_simple" if count_real_roots(p) == 2 else "one_real"
    if repeated == 2:
        return "triple"
    if repeated == 1:
        return "double_simple"
    return "three_simple" if count_real_roots(p) == 3 else "one_real"


def test_binary_cubic_pattern_matches_reference():
    """The closed form against gcd and Sturm, on products of linear and
    quadratic forms (so repeated, triple and dropped-degree roots occur
    often) and on random cubics."""
    rng = random.Random(31)

    def small():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    def form_product():
        # (p X + q Y)(r X^2 + s X Y + t Y^2), or a cube of a linear form
        p, q = small(), small()
        if rng.random() < 0.2:
            return (p ** 3, 3 * p * p * q, 3 * p * q * q, q ** 3)
        r, s, t = small(), small(), small()
        return (p * r, p * s + q * r, p * t + q * s, q * t)

    for _ in range(3000):
        cubic = form_product() if rng.random() < 0.6 else tuple(small() for _ in range(4))
        assert binary_cubic_pattern(cubic) == pattern_reference(cubic), cubic


def test_interpolation():
    pts = [(F(0), F(2)), (F(1), F(0)), (F(2), F(0))]
    p = interpolate(pts)
    assert all(peval(p, x) == y for x, y in pts)


@pytest.mark.parametrize(
    "cubic,pattern",
    [
        # canonical flat models' invariant cubics
        ((F(0), F(1), F(0), F(0)), "double_simple"),  # X^2 Y
        ((F(0), F(1), F(1), F(0)), "three_simple"),  # X^2 Y + X Y^2 = XY(X+Y)
        ((F(0), F(0), F(1), F(0)), "double_simple"),  # X Y^2
        ((F(0), F(0), F(0), F(-1)), "triple"),  # -Y^3
        ((F(0), F(1), F(0), F(1)), "one_real"),  # Y(X^2 + Y^2)
        ((F(0), F(0), F(0), F(0)), "zero"),
    ],
)
def test_binary_cubic_patterns(cubic, pattern):
    assert binary_cubic_pattern(cubic) == pattern
