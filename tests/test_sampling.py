"""The sampler's stream: every draw of ``sampling`` goes through one
primitive, ``sampling._draw_ratio``, which reads ``getrandbits`` by the
rejection loop of ``randrange``; its plain form, ``references.draw_ratio``,
calls ``randint``.  The samplers build models and maps from the drawn
integers, where their plain forms (``references.PLAIN_SAMPLERS``) build them
from fresh Fractions.  Every sampler must draw the same values in the same
order as its plain form, and leave the generator in the same state, so the
verification report stays the same."""

import random
from fractions import Fraction

import pytest

from affinestrata import sampling
from affinestrata.classify import verify_theorems
import references

#: each sampler looks its draws up on the module at each call, so a patched
#: primitive is seen
SAMPLERS = tuple(references.PLAIN_SAMPLERS)

HEIGHTS = [1, 2, 12, 13, 10**6]


@pytest.mark.parametrize("height", HEIGHTS)
def test_draw_ratio_is_randrange(height):
    for seed in range(1, 4):
        rng, plain = random.Random(seed), random.Random(seed)
        got = [sampling._draw_ratio(rng, height) for _ in range(200)]
        want = [(plain.randrange(2 * height + 1) - height, plain.randrange(height) + 1) for _ in range(200)]
        assert got == want
        assert rng.getstate() == plain.getstate()


def _draws(samplers, height, seed):
    rng = random.Random(f"{seed}:{height}")
    values = [samplers[name](rng, height) for _ in range(40) for name in SAMPLERS]
    return values, rng.getstate()


@pytest.mark.parametrize("height", HEIGHTS)
def test_samplers_draw_the_plain_stream(height, monkeypatch):
    got = [_draws(vars(sampling), height, seed) for seed in range(1, 4)]
    assert got == [_draws(references.PLAIN_SAMPLERS, height, seed) for seed in range(1, 4)]
    monkeypatch.setattr(sampling, "_draw_ratio", references.draw_ratio)
    assert got == [_draws(vars(sampling), height, seed) for seed in range(1, 4)]


def test_default_table_holds_every_default_value():
    table = sampling._DEFAULT_RATIONALS
    h = sampling.DEFAULT_HEIGHT
    assert len(table) == (2 * h + 1) * h
    assert all(table[(n + h) * h + d - 1] == Fraction(n, d) for n in range(-h, h + 1) for d in range(1, h + 1))


@pytest.mark.parametrize("seed", range(1, 6))
def test_verify_report_matches_the_plain_sampler(seed, monkeypatch):
    got = verify_theorems(seed, 20)
    monkeypatch.setattr(sampling, "_draw_ratio", references.draw_ratio)
    assert got.all_passed and got == verify_theorems(seed, 20)
    for name, plain in references.PLAIN_SAMPLERS.items():
        monkeypatch.setattr(sampling, name, plain)
    assert got == verify_theorems(seed, 20)
