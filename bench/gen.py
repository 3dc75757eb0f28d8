"""Seeded input rounds for the three workloads.

Inputs come from the benchmark's own Mersenne Twister, seeded with the string
``"affinestrata-bench:<seed>:<workload>"``, and never from
``affinestrata.sampling``, so a change to the program's sampler cannot change
the traffic.  A run times one round of inputs again and again.  A round holds
every input class in a fixed proportion, evenly interleaved, so every run sees
the same mix whatever its seed; the seed draws the inputs, all but the
rank-two corpus of ``equiv_mix`` (``CORPUS``).  Every item carries the label
the benchmark checks the program's answer against.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle

BIG = 10**6


def stream(seed, workload: str) -> random.Random:
    return random.Random(f"affinestrata-bench:{seed}:{workload}")


def rat(rng, h: int) -> Fraction:
    return Fraction(rng.randint(-h, h), rng.randint(1, h))


def nonzero(rng, h: int) -> Fraction:
    while True:
        x = rat(rng, h)
        if x != 0:
            return x


def invertible(rng, h: int):
    while True:
        t = ((rat(rng, h), rat(rng, h)), (rat(rng, h), rat(rng, h)))
        if t[0][0] * t[1][1] - t[0][1] * t[1][0] != 0:
            return t


def shear(rng, h: int):
    """(x1, x2) -> (x1, a x2 + b x1) as a matrix."""
    return ((oracle.ONE, oracle.ZERO), (rat(rng, h), nonzero(rng, h)))


def rank1_params(rng, family: str, h: int) -> tuple:
    if family == "M1_1":
        return ()
    while True:
        p = rat(rng, h)
        if family not in ("M2_1", "M3_1") or p not in (0, -1):
            return (p,)


def model_a(rng, h: int, stratum: str):
    """A random Type A model of the given stratum with its catalog label
    (``None`` for rank two, which has no catalog)."""
    if stratum == "flat":
        orbit = rng.choice(sorted(oracle.FLAT_A))
        return oracle.pullback(oracle.catalog_model(orbit), invertible(rng, h)), (orbit, ())
    if stratum == "rank1":
        family = rng.choice(oracle.RANK1_FAMILIES)
        params = rank1_params(rng, family, h)
        m = oracle.pullback(oracle.catalog_model(family, params), invertible(rng, h))
        return m, (family, oracle.rank1_key(family, params))
    while True:
        m = tuple(rat(rng, h) for _ in range(6))
        if oracle.a_stratum(m) == "rank2":
            return m, None


def interleave(spec) -> list:
    """One round's classes; ``spec`` maps an input class to its count.

    The classes are spread evenly (the i-th of a class's ``count`` items sits
    at (i + 1/2) / count of the round), so a run that stops part-way through
    its first round still sees the round's mix to within two items per class."""
    slots = sorted(
        ((i + 0.5) / count, k, cls) for k, (cls, count) in enumerate(spec) for i in range(count)
    )
    return [cls for _, _, cls in slots]


# -- equiv_mix --------------------------------------------------------------

# (stratum, height, pair) -> count per round.  Half of each stratum is built
# equivalent as (m, pullback(m, T)); the other half are independent draws.
# Pullbacks and catalog draws use height 12; rank two is drawn at 6, 12, 30.
EQUIV_SPEC = (
    (("B", 12, "constructed"), 32),
    (("B", 12, "independent"), 32),
    (("flat", 12, "constructed"), 32),
    (("flat", 12, "independent"), 32),
    (("rank1", 12, "constructed"), 32),
    (("rank1", 12, "independent"), 32),
    (("rank2", 6, "constructed"), 8),
    (("rank2", 6, "independent"), 8),
    (("rank2", 12, "constructed"), 2),
    (("rank2", 12, "independent"), 2),
    (("rank2", 30, "constructed"), 1),
    (("rank2", 30, "independent"), 1),
)

# Rank-two pairs built equivalent take 0.1-2 s, or 3-6 s when the bounded
# search ends undecided, and they are most of the round's time.  They are the
# same in every round and every seed, drawn from one fixed corpus stream: at
# about ten per run, a fresh draw per seed would make the run's time a count
# of its undecided searches.  The seed draws every other pair.
CORPUS = {("rank2", h, "constructed") for h in (6, 12, 30)}


def equiv_round(seed: int) -> list[dict]:
    rng, corpus = stream(seed, "equiv_mix"), stream("corpus", "equiv_mix")
    return [equiv_item(corpus if cls in CORPUS else rng, cls) for cls in interleave(EQUIV_SPEC)]


def equiv_item(rng, cls) -> dict:
    stratum, h, pair = cls
    if stratum == "B":
        m1 = tuple(rat(rng, h) for _ in range(6))
        if pair == "constructed":
            m2, expect = oracle.pullback(m1, shear(rng, h)), "equivalent"
        else:
            m2, expect = tuple(rat(rng, h) for _ in range(6)), None
        kind = "B"
    else:
        m1, label1 = model_a(rng, h, stratum)
        if pair == "constructed":
            m2, expect = oracle.pullback(m1, invertible(rng, h)), "equivalent"
        else:
            m2, label2 = model_a(rng, h, stratum)
            expect = None if label1 is None else ("equivalent" if label1 == label2 else "not_equivalent")
        kind = "A"
    return {"kind": kind, "stratum": stratum, "height": h, "pair": pair, "m1": m1, "m2": m2, "expect": expect}


# -- classify_stream --------------------------------------------------------

# (source, height) -> count per block of 32; three quarters are catalog
# pullbacks, which run the orbit matchers.  A round is CLASSIFY_BLOCKS blocks.
CLASSIFY_SPEC = tuple(
    ((source, h), count)
    for h in (12, BIG)
    for source, count in (
        ("flat_a", 6),
        ("rank1_a", 6),
        ("flat_b", 1),
        ("alt_b", 1),
        ("random_a", 1),
        ("random_b", 1),
    )
)


CLASSIFY_BLOCKS = 125


def classify_round(seed: int) -> list[dict]:
    rng = stream(seed, "classify_stream")
    return [classify_item(rng, cls) for _ in range(CLASSIFY_BLOCKS) for cls in interleave(CLASSIFY_SPEC)]


def classify_item(rng, cls) -> dict:
    source, h = cls
    expect: dict = {}
    if source in ("flat_a", "rank1_a"):
        coeffs, (orbit, key) = model_a(rng, h, "flat" if source == "flat_a" else "rank1")
        kind = "A"
        expect["orbit"] = (orbit, key)
    elif source == "flat_b":
        name = rng.choice(("U1", "U2", "U3"))
        params = (nonzero(rng, h) if name == "U1" else rat(rng, h), rat(rng, h))
        coeffs, kind = oracle.u_family(name, params), "B"
        expect["member"] = (oracle.B_MEMBERSHIP[name], params)
    elif source == "alt_b":
        name = rng.choice(("V1", "V2"))
        params = (nonzero(rng, h), rat(rng, h), rat(rng, h))
        coeffs, kind = oracle.v_family(name, params), "B"
        expect["member"] = (oracle.B_MEMBERSHIP[name], params)
    elif source == "random_a":
        coeffs, kind = tuple(rat(rng, h) for _ in range(6)), "A"
    else:
        coeffs, kind = tuple(rat(rng, h) for _ in range(6)), "B"
    expect["stratum"] = oracle.a_stratum(coeffs) if kind == "A" else oracle.b_stratum(coeffs)
    text = json.dumps({"type": kind, "coeffs": [str(x) for x in coeffs]})
    return {"source": source, "height": h, "kind": kind, "coeffs": coeffs, "text": text, "expect": expect}


# -- verify -----------------------------------------------------------------


# the harness's own size (README, `affinestrata verify --samples 100`)
VERIFY_SAMPLES = 100
VERIFY_SEEDS = 6


def verify_round(seed: int) -> list[int]:
    """Harness seeds, each run at ``VERIFY_SAMPLES``."""
    rng = stream(seed, "verify")
    return [rng.randrange(2**31) for _ in range(VERIFY_SEEDS)]
