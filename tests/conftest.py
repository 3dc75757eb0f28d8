"""Shared fixtures."""

from fractions import Fraction

import pytest


@pytest.fixture
def fractions_made(monkeypatch):
    """The arguments of every Fraction built while the test runs, counted at
    ``Fraction.__new__`` (and at the constructor that Fraction arithmetic
    uses on Python 3.12 and later).  A test clears the list before the code
    it measures."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        counting_coprime = classmethod(lambda cls, n, d: made.append((n, d)) or coprime(n, d))
        monkeypatch.setattr(Fraction, "_from_coprime_ints", counting_coprime)
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6) and len(made) >= 3  # it counts arithmetic too
    made.clear()
    return made
