"""The sampler's stream: every draw of ``sampling`` goes through one
primitive, ``sampling._draw_ratio``, which reads ``getrandbits`` by the
rejection loop of ``randrange``; its plain form, ``references.draw_ratio``,
calls ``randint``.  The samplers build models and maps from the drawn
integers, where their plain forms (``references.PLAIN_SAMPLERS``) build them
from fresh Fractions.  Every sampler must draw the same values in the same
order as its plain form, and leave the generator in the same state, so the
verification report stays the same; the harness is run on both, and the
values it draws are compared sampler call by sampler call."""

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


def _verify_drawing(monkeypatch, samplers, seed):
    """The report of ``verify_theorems(seed, 20)`` run with the samplers
    ``samplers``, and the values the harness drew from them, in order: the
    name and value of each outermost sampler call (a sampler that calls
    another is recorded once)."""
    drawn, depth = [], [0]

    def recording(name, sampler):
        def recorded(*args):
            depth[0] += 1
            try:
                value = sampler(*args)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                drawn.append((name, value))
            return value

        return recorded

    for name, sampler in samplers.items():
        monkeypatch.setattr(sampling, name, recording(name, sampler))
    return verify_theorems(seed, 20), drawn


@pytest.mark.parametrize("seed", range(1, 6))
def test_verify_report_matches_the_plain_sampler(seed, monkeypatch):
    """The harness draws the same values, sampler by sampler, from the
    package samplers, from them on the plain draw, and from the plain
    samplers, so a sampler that draws the right stream but builds a wrong
    value from it shows here even where every check still passes."""
    package = {name: getattr(sampling, name) for name in SAMPLERS}
    got = _verify_drawing(monkeypatch, package, seed)
    report, drawn = got
    assert report.all_passed and {name for name, _ in drawn} == set(SAMPLERS)
    monkeypatch.setattr(sampling, "_draw_ratio", references.draw_ratio)
    assert _verify_drawing(monkeypatch, package, seed) == got
    assert _verify_drawing(monkeypatch, references.PLAIN_SAMPLERS, seed) == got
