"""The sampler's stream: ``sampling.rand_rational`` reads its default-height
values from a prebuilt table, and draws with ``randrange`` where the plain
form (``references.rand_rational``) calls ``randint``.  Every sampler must
draw the same values in the same order as with the plain form, and leave
the generator in the same state, so the verification report stays the
same."""

import random
from fractions import Fraction

import pytest

from affinestrata import sampling
from affinestrata.classify import verify_theorems
import references

#: looked up on the module at each draw, so a patched rand_rational is seen
SAMPLERS = (
    "rand_rational",
    "rand_nonzero",
    "rand_model_a",
    "rand_model_b",
    "rand_linear_map",
    "rand_shear",
    "rand_circle",
)


def _draws(height, seed):
    rng = random.Random(f"{seed}:{height}")
    values = [getattr(sampling, name)(rng, height) for _ in range(40) for name in SAMPLERS]
    return values, rng.getstate()


@pytest.mark.parametrize("height", [1, 2, 12, 13, 10**6])
def test_samplers_draw_the_plain_stream(height, monkeypatch):
    got = [_draws(height, seed) for seed in range(1, 4)]
    monkeypatch.setattr(sampling, "rand_rational", references.rand_rational)
    assert got == [_draws(height, seed) for seed in range(1, 4)]


def test_default_table_holds_every_default_value():
    table = sampling._DEFAULT_RATIONALS
    h = sampling.DEFAULT_HEIGHT
    assert len(table) == (2 * h + 1) * h
    assert all(table[n * h + d] == Fraction(n - h, d + 1) for n in range(2 * h + 1) for d in range(h))


@pytest.mark.parametrize("seed", range(1, 6))
def test_verify_report_matches_the_plain_sampler(seed, monkeypatch):
    got = verify_theorems(seed, 20)
    monkeypatch.setattr(sampling, "rand_rational", references.rand_rational)
    assert got.all_passed and got == verify_theorems(seed, 20)
