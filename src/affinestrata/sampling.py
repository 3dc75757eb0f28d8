"""Seeded, portable random sampling of exact rationals, models, and maps.

The generator is the Mersenne Twister from the standard library, seeded with
the string "<seed>:<check id>" (CPython hashes string seeds with SHA-512, so
streams are reproducible across platforms and runs).  Rationals are sampled
as n/d with |n| <= 12 and 1 <= d <= 12, the one height the harness draws at.
Every draw goes through one primitive, :func:`_draw_ratio`, which reads the
integer pair (n, d) straight from ``getrandbits`` by the rejection loop that
``randrange`` runs, so the stream is that of ``randint(-12, 12)`` then
``randint(1, 12)``.  ``rand_rational`` reads its value from one table of
the 25 * 12 rationals, built at import.  Models and linear maps are
built from the drawn integers over their least common denominator
(``of_integers``), so no Fraction is made for them.  This is the one module
that imports ``random``, so the harness's stream is defined here alone.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exact import CirclePoint, LinearMap2, ShearMap, circle_from_slope, mat2_of_integers
from .models import TypeAModel, TypeBModel

HEIGHT = 12

#: every value of rand_rational, n / d at index (n + 12) * 12 + d - 1
_RATIONALS = tuple([Fraction(n - HEIGHT, d + 1) for n in range(2 * HEIGHT + 1) for d in range(HEIGHT)])


def stream(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}:{check_id}")


def _draw_ratio(rng: random.Random, height: int) -> tuple[int, int]:
    """The integers (n, d) with |n| <= height and 1 <= d <= height: each is a
    ``getrandbits`` draw of the bound's bit length, redrawn while at or above
    the bound, as ``randrange`` draws it."""
    getrandbits = rng.getrandbits
    bound = 2 * height + 1
    k = bound.bit_length()
    n = getrandbits(k)
    while n >= bound:
        n = getrandbits(k)
    k = height.bit_length()
    d = getrandbits(k)
    while d >= height:
        d = getrandbits(k)
    return n - height, d + 1


def _draw_coeffs(rng: random.Random) -> tuple[tuple[int, ...], int]:
    """Six rationals a .. f drawn in that order, as integer numerators over
    their least common denominator."""
    a, da = _draw_ratio(rng, HEIGHT)
    b, db = _draw_ratio(rng, HEIGHT)
    c, dc = _draw_ratio(rng, HEIGHT)
    d, dd = _draw_ratio(rng, HEIGHT)
    e, de = _draw_ratio(rng, HEIGHT)
    f, df = _draw_ratio(rng, HEIGHT)
    den = math.lcm(da, db, dc, dd, de, df)
    return (a * (den // da), b * (den // db), c * (den // dc), d * (den // dd), e * (den // de), f * (den // df)), den


def rand_rational(rng: random.Random) -> Fraction:
    n, d = _draw_ratio(rng, HEIGHT)
    return _RATIONALS[(n + HEIGHT) * HEIGHT + d - 1]


def rand_nonzero(rng: random.Random) -> Fraction:
    while True:
        x = rand_rational(rng)
        if x != 0:
            return x


def rand_model_a(rng: random.Random) -> TypeAModel:
    return TypeAModel.of_integers(*_draw_coeffs(rng))


def rand_model_b(rng: random.Random) -> TypeBModel:
    return TypeBModel.of_integers(*_draw_coeffs(rng))


def rand_circle(rng: random.Random) -> CirclePoint:
    return circle_from_slope(rand_rational(rng))


def rand_linear_map(rng: random.Random) -> LinearMap2:
    """The rows (p11, p12), (p21, p22) drawn in that order, over their least
    common denominator, redrawn while the matrix is singular."""
    while True:
        p11, d11 = _draw_ratio(rng, HEIGHT)
        p12, d12 = _draw_ratio(rng, HEIGHT)
        p21, d21 = _draw_ratio(rng, HEIGHT)
        p22, d22 = _draw_ratio(rng, HEIGHT)
        den = math.lcm(d11, d12, d21, d22)
        p11, p12, p21, p22 = p11 * (den // d11), p12 * (den // d12), p21 * (den // d21), p22 * (den // d22)
        if p11 * p22 != p12 * p21:
            return LinearMap2(mat2_of_integers((p11, p12, p21, p22), den))


def rand_shear(rng: random.Random) -> ShearMap:
    return ShearMap(rand_nonzero(rng), rand_rational(rng))
