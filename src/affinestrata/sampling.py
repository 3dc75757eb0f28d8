"""Seeded, portable random sampling of exact rationals, models, and maps.

The generator is the Mersenne Twister from the standard library, seeded with
the string "<seed>:<check id>" (CPython hashes string seeds with SHA-512, so
streams are reproducible across platforms and runs).  Rationals are sampled
as n/d with |n| <= height and 1 <= d <= height; the default height is 12.
The two draws are ``randrange(2 height + 1)`` and ``randrange(height)``, the
same draws as ``randint(-height, height)`` and ``randint(1, height)``; at the
default height the value is read from one table of its 25 * 12 rationals,
built at import, and at any other height it is built as a Fraction.  This is
the one module that imports ``random``, so the harness's stream is defined
here alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import CirclePoint, Mat2, circle_from_slope
from .group_action import LinearMap2, ShearMap
from .models import TypeAModel, TypeBModel

DEFAULT_HEIGHT = 12

#: every value of rand_rational at the default height, at index n * 12 + d
#: for the draws n (numerator + 12) and d (denominator - 1)
_DEFAULT_RATIONALS = tuple(
    [Fraction(n - DEFAULT_HEIGHT, d + 1) for n in range(2 * DEFAULT_HEIGHT + 1) for d in range(DEFAULT_HEIGHT)]
)


def stream(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}:{check_id}")


def rand_rational(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Fraction:
    n = rng.randrange(2 * height + 1)
    d = rng.randrange(height)
    if height == DEFAULT_HEIGHT:
        return _DEFAULT_RATIONALS[n * DEFAULT_HEIGHT + d]
    return Fraction(n - height, d + 1)


def rand_nonzero(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Fraction:
    while True:
        x = rand_rational(rng, height)
        if x != 0:
            return x


def rand_coeffs(rng: random.Random, height: int = DEFAULT_HEIGHT) -> tuple[Fraction, ...]:
    return tuple(rand_rational(rng, height) for _ in range(6))


def rand_model_a(rng: random.Random, height: int = DEFAULT_HEIGHT) -> TypeAModel:
    return TypeAModel(*rand_coeffs(rng, height))


def rand_model_b(rng: random.Random, height: int = DEFAULT_HEIGHT) -> TypeBModel:
    return TypeBModel(*rand_coeffs(rng, height))


def rand_circle(rng: random.Random, height: int = DEFAULT_HEIGHT) -> CirclePoint:
    return circle_from_slope(rand_rational(rng, height))


def rand_linear_map(rng: random.Random, height: int = DEFAULT_HEIGHT) -> LinearMap2:
    while True:
        rows = (
            (rand_rational(rng, height), rand_rational(rng, height)),
            (rand_rational(rng, height), rand_rational(rng, height)),
        )
        mat = Mat2(rows)
        if not mat.is_singular():
            return LinearMap2(mat)


def rand_shear(rng: random.Random, height: int = DEFAULT_HEIGHT) -> ShearMap:
    return ShearMap(rand_nonzero(rng, height), rand_rational(rng, height))
