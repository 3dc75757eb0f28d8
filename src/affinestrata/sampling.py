"""Seeded, portable random sampling of exact rationals, models, and maps.

The generator is the Mersenne Twister from the standard library, seeded with
the string "<seed>:<check id>" (CPython hashes string seeds with SHA-512, so
streams are reproducible across platforms and runs).  Rationals are sampled
as n/d with |n| <= height and 1 <= d <= height; the default height is 12.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import CirclePoint, Mat2, circle_from_slope
from .group_action import LinearMap2, ShearMap
from .models import TypeAModel, TypeBModel

DEFAULT_HEIGHT = 12


def stream(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}:{check_id}")


def rand_rational(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


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
