import random
from fractions import Fraction

import pytest
from affinestrata import curvature, group_action, models, strata

import gen
import oracle


@pytest.mark.parametrize("height", [3, 12, 10**6])
def test_oracle_agrees_with_the_program(height):
    rng = random.Random(f"oracle:{height}")
    for _ in range(300):
        coeffs = tuple(gen.rat(rng, height) if rng.random() < 0.7 else Fraction(0) for _ in range(6))
        t = gen.invertible(rng, height)
        assert oracle.pullback(coeffs, t) == group_action.transform_coeffs(coeffs, t)
        a, b = models.TypeAModel(*coeffs), models.TypeBModel(*coeffs)
        assert oracle.ricci_a(coeffs) == curvature.ricci_type_a(a).rows
        assert oracle.ricci_b(coeffs) == curvature.ricci_type_b(b).rows
        flags = curvature.stratum_flags(a)
        kind = oracle.a_stratum(coeffs)
        assert (kind == "cone_point") == flags.is_cone_point
        assert (kind in ("cone_point", "flat_chart")) == flags.is_flat
        assert (kind == "rank2") == flags.is_rank2
        flags_b = curvature.stratum_flags(b)
        assert (oracle.b_stratum(coeffs) == "flat_families") == flags_b.is_flat
        assert (oracle.b_stratum(coeffs) == "alternating_families") == flags_b.is_alt_only


def test_catalog_and_families_match_the_program():
    p = Fraction(3, 7)
    for orbit in oracle.FLAT_A:
        assert oracle.catalog_model(orbit) == models.canonical_model(orbit).coeffs
    for family in oracle.RANK1_FAMILIES:
        params = () if family == "M1_1" else (p,)
        assert oracle.catalog_model(family, params) == models.canonical_model(family, params).coeffs
    for name in ("U1", "U2", "U3"):
        assert oracle.u_family(name, (p, -p)) == strata.flat_b_param(name, (p, -p)).coeffs
    for name in ("V1", "V2"):
        assert oracle.v_family(name, (p, -p, 2 * p)) == strata.alt_b_param(name, (p, -p, 2 * p)).coeffs


def test_rounds_are_deterministic_in_the_seed():
    assert gen.classify_round(5) == gen.classify_round(5)
    assert gen.classify_round(5) != gen.classify_round(6)
    assert gen.equiv_round(5) == gen.equiv_round(5)
    assert gen.verify_round(5) == gen.verify_round(5) != gen.verify_round(6)


def test_equiv_round_has_the_full_mix_and_a_fixed_corpus():
    first, second = gen.equiv_round(3), gen.equiv_round(4)
    mix = {}
    for item in first:
        key = (item["stratum"], item["height"], item["pair"])
        mix[key] = mix.get(key, 0) + 1
    assert mix == dict(gen.EQUIV_SPEC)
    keys = [(a["stratum"], a["height"], a["pair"]) for a in first]
    assert keys == [(b["stratum"], b["height"], b["pair"]) for b in second]
    same = [a == b for a, b in zip(first, second)]
    assert all(s for s, key in zip(same, keys) if key in gen.CORPUS)
    assert sum(same) < len(gen.CORPUS) + 10  # the seed draws the rest


@pytest.mark.parametrize("spec", [gen.EQUIV_SPEC, gen.CLASSIFY_SPEC])
def test_every_prefix_keeps_the_mix(spec):
    n = sum(count for _, count in spec)
    seen = {cls: 0 for cls, _ in spec}
    for k, cls in enumerate(gen.interleave(spec), 1):
        seen[cls] += 1
        for cls, count in spec:
            assert abs(seen[cls] - k * count / n) < 2
