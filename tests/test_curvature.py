import random
from fractions import Fraction as F

import pytest

from affinestrata.curvature import (
    NotSymmetricError,
    Ricci2,
    coefficient_rank,
    is_flat_a,
    RANK2_INDEF,
    RANK2_NEG,
    rank_signature,
    ricci_type_a,
    ricci_type_b,
    split_ricci,
    stratum_flags,
)
from affinestrata.models import canonical_model, type_a, type_b
from affinestrata.polys import binary_cubic_pattern
from affinestrata.law import pullback_type_a
from affinestrata.sampling import rand_model_b
import references
from references import binary_cubic, gamma_pair, ricci_trace_vector, trace_form


def test_ricci_type_a_examples():
    assert ricci_type_a(type_a(1, 0, 0, 1, 0, 0)).is_zero()
    assert ricci_type_a(canonical_model("M0_0")).is_zero()
    r = ricci_type_a(canonical_model("M2_1", [F(2)]))
    assert r.rows == ((0, 0), (0, F(6)))  # c1 (1 + c1) at c1 = 2


def test_ricci_type_a_is_symmetric():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        r = ricci_type_a(type_a(*coeffs))
        assert r.rows[0][1] == r.rows[1][0]


@pytest.mark.parametrize("height", [1, 12, 10**6])
def test_flat_test_agrees_with_the_ricci_tensor(height):
    """``is_flat_a`` reads the Ricci numerators that ``ricci_type_a`` reduces,
    on random models and on pullbacks of every flat catalog model."""
    rng = random.Random(height)
    models = [references.rand_model_a(rng, height) for _ in range(300)]
    flat_ids = ("M0_0", "M1_0", "M2_0", "M3_0", "M4_0", "M5_0")
    models += [
        pullback_type_a(canonical_model(orbit_id), references.rand_linear_map(rng, height))
        for orbit_id in flat_ids
        for _ in range(20)
    ]
    flat = [is_flat_a(m) for m in models]
    assert flat == [ricci_type_a(m).is_zero() for m in models]
    assert all(flat[300:])


def test_ricci_type_b_examples():
    r = ricci_type_b(type_b(0, 3, 1, 0, 0, 1))  # first alternating family
    assert r.rows == ((0, 1), (-1, 0))
    assert ricci_type_b(type_b(2, -2, 1, -1, 1, -1)).is_zero()  # a flat sample
    assert ricci_type_b(canonical_model("N0_0")).is_zero()


def test_ricci_type_b_antisymmetry_identity():
    # the difference of the off-diagonal entries is c + f identically
    rng = random.Random(13)
    for _ in range(300):
        m = rand_model_b(rng)
        r = ricci_type_b(m)
        assert r.rows[0][1] - r.rows[1][0] == m.c + m.f


def test_split_ricci():
    s = split_ricci(Ricci2(((F(0), F(1)), (F(-1), F(0)))))
    assert s.sym_is_zero() and s.alt == 1
    s = split_ricci(Ricci2(((F(1), F(2)), (F(0), F(3)))))
    assert s.sym == ((1, 1), (1, 3)) and s.alt == 1
    # reconstruction
    assert s.sym[0][1] + s.alt == 2 and s.sym[1][0] - s.alt == 0


def test_rank_signature():
    assert rank_signature(((F(0), F(0)), (F(0), F(0)))).rank == 0
    sig = rank_signature(((F(0), F(0)), (F(0), F(1))))
    assert (sig.rank, sig.label) == (1, "positive_semidefinite")
    sig = rank_signature(((F(0), F(0)), (F(0), F(-1, 4))))
    assert (sig.rank, sig.label) == (1, "negative_semidefinite")
    assert rank_signature(((F(1), F(0)), (F(0), F(1)))).label == "positive_definite"
    assert rank_signature(((F(-2), F(0)), (F(0), F(-1)))).label == "negative_definite"
    assert rank_signature(((F(1), F(0)), (F(0), F(-1)))).label == "indefinite"
    with pytest.raises(NotSymmetricError):
        rank_signature(((F(0), F(1)), (F(-1), F(0))))


def test_stratum_flags_examples():
    flags = stratum_flags(canonical_model("M5_1", [0]))
    assert flags.is_rank1_pos and flags.primary == "rank1_positive"
    flags = stratum_flags(type_b(1, 0, 1, 0, 0, 1))
    assert flags.is_alt_only and flags.primary == "alternating_only"
    flags = stratum_flags(canonical_model("M0_0"))
    assert flags.is_cone_point and flags.is_flat and flags.primary == "cone_point"
    flags = stratum_flags(canonical_model("M2_1", [F(-1, 2)]))
    assert flags.is_rank1_neg
    flags = stratum_flags(type_a(0, 1, 0, 0, 1, 0))
    assert flags.is_rank2


def test_type_a_never_alternating():
    rng = random.Random(17)
    for _ in range(200):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        assert split_ricci(ricci_type_a(type_a(*coeffs))).alt == 0


def test_orbit_invariants_of_flat_catalog():
    # screening invariants used by the flat orbit matcher
    assert coefficient_rank(canonical_model("M3_0")) == 1
    assert coefficient_rank(canonical_model("M4_0")) == 1
    assert coefficient_rank(canonical_model("M1_0")) == 2
    assert trace_form(canonical_model("M1_0")) == (2, 0)
    assert trace_form(canonical_model("M4_0")) == (0, 0)
    assert binary_cubic(canonical_model("M4_0")) == (0, 0, 0, -1)


def test_ricci_trace_vector_is_covariant():
    """v = rho^{-1} omega and G(v, v) move with the map, and the other
    contraction G^k_ij (rho^{-1})^ij adds nothing: it equals v."""
    rng = random.Random(19)
    done = 0
    while done < 100:
        m = references.rand_model_a(rng, 6)
        r = ricci_type_a(m)
        if rank_signature(r).rank != 2:
            continue
        done += 1
        t = references.rand_linear_map(rng, 6)
        m2 = pullback_type_a(m, t)
        v = ricci_trace_vector(m, r)
        assert ricci_trace_vector(m2, ricci_type_a(m2)) == t.matrix.apply(v)
        assert gamma_pair(m2, t.matrix.apply(v), t.matrix.apply(v)) == t.matrix.apply(gamma_pair(m, v, v))
        (r11, r12), (_, r22) = r.rows
        det = r11 * r22 - r12 * r12
        h = (r22 / det, -r12 / det, r11 / det)
        a, b, c, d, e, f = m.coeffs
        assert (a * h[0] + 2 * c * h[1] + e * h[2], b * h[0] + 2 * d * h[1] + f * h[2]) == v


def test_omega_zero_signature_names_the_cubic_pattern():
    """With omega = 0 the binary cubic determines the model, and its root
    pattern is read off the Ricci signature: indefinite goes with one real
    root line, negative definite with three, and no model is positive
    definite.  The rank-two equivalence rule for omega = 0 rests on this."""
    rng = random.Random(23)
    seen = set()
    for _ in range(3000):
        a, b, c, e = (F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(4))
        m = type_a(a, b, c, -a, e, -c)
        sig = rank_signature(ricci_type_a(m))
        if sig.rank != 2:
            continue
        pattern = binary_cubic_pattern(binary_cubic(m))
        assert (sig.label, pattern) in ((RANK2_INDEF, "one_real"), (RANK2_NEG, "three_simple")), m
        seen.add(sig.label)
    assert seen == {RANK2_INDEF, RANK2_NEG}
