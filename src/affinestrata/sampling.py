"""Seeded, portable random sampling of exact rationals, models, and maps.

The generator is the Mersenne Twister from the standard library, seeded with
the string "<seed>:<check id>" (CPython hashes string seeds with SHA-512, so
streams are reproducible across platforms and runs).  Rationals are sampled
as n/d with |n| <= height and 1 <= d <= height; the default height is 12.
Every draw goes through one primitive, :func:`_draw_ratio`, which reads the
integer pair (n, d) straight from ``getrandbits`` by the rejection loop that
``randrange`` runs, so the stream is that of ``randint(-height, height)``
then ``randint(1, height)``.  ``rand_rational`` reads its value at the
default height from one table of the 25 * 12 rationals, built at import, and
at any other height builds it as a Fraction.  Models and linear maps are
built from the drawn integers over their least common denominator
(``of_integers``), so no Fraction is made for them.  This is the one module
that imports ``random``, so the harness's stream is defined here alone.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exact import CirclePoint, circle_from_slope, mat2_of_integers
from .group_action import LinearMap2, ShearMap
from .models import TypeAModel, TypeBModel

DEFAULT_HEIGHT = 12

#: every value of rand_rational at the default height n / d, at index
#: (n + 12) * 12 + d - 1
_DEFAULT_RATIONALS = tuple(
    [Fraction(n - DEFAULT_HEIGHT, d + 1) for n in range(2 * DEFAULT_HEIGHT + 1) for d in range(DEFAULT_HEIGHT)]
)


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


def _draw_coeffs(rng: random.Random, height: int) -> tuple[tuple[int, ...], int]:
    """Six rationals a .. f drawn in that order, as integer numerators over
    their least common denominator."""
    a, da = _draw_ratio(rng, height)
    b, db = _draw_ratio(rng, height)
    c, dc = _draw_ratio(rng, height)
    d, dd = _draw_ratio(rng, height)
    e, de = _draw_ratio(rng, height)
    f, df = _draw_ratio(rng, height)
    den = math.lcm(da, db, dc, dd, de, df)
    return (a * (den // da), b * (den // db), c * (den // dc), d * (den // dd), e * (den // de), f * (den // df)), den


def rand_rational(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Fraction:
    n, d = _draw_ratio(rng, height)
    if height == DEFAULT_HEIGHT:
        return _DEFAULT_RATIONALS[(n + DEFAULT_HEIGHT) * DEFAULT_HEIGHT + d - 1]
    return Fraction(n, d)


def rand_nonzero(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Fraction:
    while True:
        x = rand_rational(rng, height)
        if x != 0:
            return x


def rand_model_a(rng: random.Random, height: int = DEFAULT_HEIGHT) -> TypeAModel:
    return TypeAModel.of_integers(*_draw_coeffs(rng, height))


def rand_model_b(rng: random.Random, height: int = DEFAULT_HEIGHT) -> TypeBModel:
    return TypeBModel.of_integers(*_draw_coeffs(rng, height))


def rand_circle(rng: random.Random, height: int = DEFAULT_HEIGHT) -> CirclePoint:
    return circle_from_slope(rand_rational(rng, height))


def rand_linear_map(rng: random.Random, height: int = DEFAULT_HEIGHT) -> LinearMap2:
    """The rows (p11, p12), (p21, p22) drawn in that order, over their least
    common denominator, redrawn while the matrix is singular."""
    while True:
        p11, d11 = _draw_ratio(rng, height)
        p12, d12 = _draw_ratio(rng, height)
        p21, d21 = _draw_ratio(rng, height)
        p22, d22 = _draw_ratio(rng, height)
        den = math.lcm(d11, d12, d21, d22)
        p11, p12, p21, p22 = p11 * (den // d11), p12 * (den // d12), p21 * (den // d21), p22 * (den // d22)
        if p11 * p22 != p12 * p21:
            return LinearMap2(mat2_of_integers((p11, p12, p21, p22), den))


def rand_shear(rng: random.Random, height: int = DEFAULT_HEIGHT) -> ShearMap:
    return ShearMap(rand_nonzero(rng, height), rand_rational(rng, height))
