import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinestrata.classify import classify_model
from affinestrata.exact import Mat2
from affinestrata.curvature import covariant_frame, rank_signature, ricci_type_a, ricci_type_b
from affinestrata.group_action import (
    LinearMap2,
    ShearMap,
    UndecidedError,
    UnmatchedOrbitError,
    _solve_reduced_pair,
    _rank2_witnesses_by_cubic,
    _solve_rank2_pair,
    isotropy_type_a,
    match_flat_a_orbit,
    orbit_dimension_a,
    pullback_type_a,
    pullback_type_b,
    rank1_frame,
    solve_equivalence_a,
    solve_equivalence_b,
    transform_coeffs,
)
from affinestrata.models import CATALOG, canonical_model, negate_model, type_a, type_b
from affinestrata.strata import COEFF_FAMILIES
from affinestrata import sampling
import references
from references import FAMILY_CHECKS, ricci_trace_vector


def normal_form(v, w, eps):
    """T(x1, x2) = (v^-1 (x1 - w x2), eps x2)."""
    v, w = F(v), F(w)
    return LinearMap2(Mat2(((1 / v, -w / v), (F(0), F(eps)))))


def test_pullback_identity():
    m = type_a(F(1, 2), -2, 3, F(5, 7), 0, 1)
    assert pullback_type_a(m, LinearMap2.identity()) == m


def test_pullback_normal_form_formulas():
    """The transformation law written out for T = (v^-1(x1 - w x2), eps x2)
    must reproduce the six coefficient formulas of that normal form."""
    rng = random.Random(5)
    for _ in range(100):
        a, b, c, d, e, f = (references.rand_rational(rng, 6) for _ in range(6))
        v = references.rand_nonzero(rng, 6)
        w = references.rand_rational(rng, 6)
        eps = rng.choice([F(1), F(-1)])
        got = pullback_type_a(type_a(a, b, c, d, e, f), normal_form(v, w, eps))
        assert got.a == v * (a - w * b)
        assert got.b == v * v * eps * b
        assert got.c == eps * (c + w * (a - d - w * b))
        assert got.d == v * (d + w * b)
        assert got.e == (e + w * (2 * c - f) + w * w * (a - 2 * d) - w ** 3 * b) / v
        assert got.f == eps * (f + 2 * w * d + w * w * b)


def test_pullback_case_examples():
    # first rank-one model under (v, w, eps) = (2, 1, 1)
    got = pullback_type_a(canonical_model("M1_1"), normal_form(2, 1, 1))
    assert got == type_a(-2, 0, 0, 0, F(-1, 2), 2)
    # sign flip on the fifth family
    flip = LinearMap2(Mat2(((F(1), F(0)), (F(0), F(-1)))))
    assert pullback_type_a(canonical_model("M5_1", [1]), flip) == canonical_model("M5_1", [-1])


def test_pullback_type_b_examples():
    m = type_b(0, 0, 0, 0, 1, 0)
    assert pullback_type_b(m, ShearMap(F(2), F(0))) == type_b(0, 0, 0, 0, F(1, 4), 0)
    assert pullback_type_b(m, ShearMap.identity()) == m
    flat = type_b(1, 1, 0, 0, 0, 0)
    rng = random.Random(3)
    for _ in range(50):
        phi = sampling.rand_shear(rng)
        assert ricci_type_b(pullback_type_b(flat, phi)).is_zero()


def test_pullback_type_b_frame_oracle():
    """Independent oracle: transform the coordinate frame explicitly at a
    point and recompute the scaled coefficients."""
    rng = random.Random(23)
    for _ in range(60):
        m = references.rand_model_b(rng, 6)
        phi = references.rand_shear(rng, 6)
        got = pullback_type_b(m, phi)
        x1 = F(rng.randint(1, 9))  # base point with x1 > 0
        gam = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
        a, b, c, d, e, f = m.coeffs
        vals = {(0, 0): (a, b), (0, 1): (c, d), (1, 0): (c, d), (1, 1): (e, f)}
        s = phi.matrix.inverse()  # columns are the new frame in old coords
        t = phi.matrix
        new_coeffs = {}
        for i in range(2):
            for j in range(2):
                ei = s.col(i)
                ej = s.col(j)
                # nabla_{ei} ej at the point, old coordinates
                out = [F(0), F(0)]
                for p in range(2):
                    for q in range(2):
                        g1, g2 = vals[(p, q)]
                        weight = ei[p] * ej[q] / x1
                        out[0] += g1 * weight
                        out[1] += g2 * weight
                new = t.apply(out)  # re-express in the new frame
                new_coeffs[(i, j)] = (new[0] * x1, new[1] * x1)  # clear 1/y1 = 1/x1
        assert new_coeffs[(0, 0)] == (got.a, got.b)
        assert new_coeffs[(0, 1)] == (got.c, got.d)
        assert new_coeffs[(1, 1)] == (got.e, got.f)


def test_functoriality_and_naturality():
    rng = random.Random(29)
    for _ in range(150):
        m = references.rand_model_a(rng, 6)
        t1 = references.rand_linear_map(rng, 6)
        t2 = references.rand_linear_map(rng, 6)
        assert pullback_type_a(pullback_type_a(m, t1), t2) == pullback_type_a(m, t2.compose(t1))
        s = t1.matrix.inverse()
        assert Mat2(ricci_type_a(pullback_type_a(m, t1)).rows) == (
            s.transpose() @ Mat2(ricci_type_a(m).rows) @ s
        )
        mb = references.rand_model_b(rng, 6)
        p1 = references.rand_shear(rng, 6)
        p2 = references.rand_shear(rng, 6)
        assert pullback_type_b(pullback_type_b(mb, p1), p2) == pullback_type_b(mb, p2.compose(p1))
        sb = p1.matrix.inverse()
        assert Mat2(ricci_type_b(pullback_type_b(mb, p1)).rows) == (
            sb.transpose() @ Mat2(ricci_type_b(mb).rows) @ sb
        )


def test_negation_law():
    neg = LinearMap2(Mat2(((F(-1), F(0)), (F(0), F(-1)))))
    rng = random.Random(31)
    for _ in range(100):
        m = references.rand_model_a(rng, 6)
        assert pullback_type_a(m, neg) == negate_model(m)


def test_orbit_dimension_examples():
    assert orbit_dimension_a(canonical_model("M0_0")) == 0
    assert orbit_dimension_a(canonical_model("M4_0")) == 2
    assert orbit_dimension_a(canonical_model("M5_1", [1])) == 4
    dims = [orbit_dimension_a(canonical_model(f"M{i}_0")) for i in range(6)]
    assert dims == [0, 3, 4, 3, 2, 4]


def test_rank1_frame():
    rng = random.Random(37)
    rot = LinearMap2(Mat2(((F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)))))
    for c in [F(0), F(2), F(-1, 3)]:
        m = pullback_type_a(canonical_model("M5_1", [c]), rot)
        frame, reduced = rank1_frame(m)
        assert reduced.b == 0 and reduced.d == 0
        assert pullback_type_a(m, frame) == reduced
        assert rank_signature(ricci_type_a(reduced)).rank == 1
    with pytest.raises(ValueError):
        rank1_frame(canonical_model("M1_0"))


# Every branch of the reduced rank-one case analysis, on hand-built reduced
# pairs (a, 0, c, 0, e, f); the answers were recorded from the Fraction form
# of the solver.  The last pair is not a valid one (the first model is flat),
# which is the only way to reach the last note.
REDUCED_PAIR_CASES = [
    ((-1, 0, 1, 0, 0, 2), (-1, 0, "-1/2", 0, 0, 0), "not_equivalent", [], "Ricci signs differ"),
    ((-1, 0, 1, 0, 0, 2), (0, 0, 1, 0, 0, 3), "not_equivalent", [],
     "vanishing of G_11^1 differs between reduced frames"),
    ((1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 2, 2), "not_equivalent", [],
     "vanishing of G_22^2 differs between reduced frames"),
    ((1, 0, 0, 0, 2, 2), (-1, 0, 1, 0, 0, 2), "not_equivalent", [],
     "Ricci scale incompatible with the G_22^2 ratio"),
    ((1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 2, 0), "undecided", [],
     "equivalent over the reals, but the frame scale is the irrational sqrt(1/2)"),
    ((0, 0, 1, 0, 0, 3), (0, 0, 1, 0, 0, 2), "not_equivalent", [], "the invariant ratio f/c differs"),
    # a = 0, e1 != 0, f1 != 2 c1: alpha = delta^2 e2 / e1, or beta = 1 when that is 0
    ((0, 0, 1, 0, 1, 3), (0, 0, 1, 0, 2, 3), "equivalent", [[["2", "0"], ["0", "1"]]], None),
    ((0, 0, 1, 0, 1, 3), (0, 0, 1, 0, 0, 3), "equivalent", [[["-1", "1"], ["0", "1"]]], None),
    ((0, 0, "1/2", 0, "1/3", "5/2"), (0, 0, "2/3", 0, "1/7", "10/3"), "equivalent",
     [[["27/112", "0"], ["0", "3/4"]]], None),
    # the f = 2c subfamily
    ((0, 0, 1, 0, 1, 2), (0, 0, 1, 0, 0, 2), "not_equivalent", [],
     "vanishing of G_22^1 differs on the f = 2c subfamily"),
    ((0, 0, 1, 0, 0, 2), (0, 0, 1, 0, 1, 2), "not_equivalent", [],
     "vanishing of G_22^1 differs on the f = 2c subfamily"),
    ((0, 0, 1, 0, 0, 3), (0, 0, 1, 0, 1, 3), "equivalent", [[["1", "1"], ["0", "1"]]], None),
    ((0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 1, 2), "not_equivalent", [],
     "triangular system has no invertible solution"),
]


@pytest.mark.parametrize("n1, n2, status, mats, note", REDUCED_PAIR_CASES)
def test_reduced_pair_branches(n1, n2, status, mats, note):
    got_status, got_mats, got_note = _solve_reduced_pair(type_a(*n1), type_a(*n2))
    assert (got_status, [m.to_strings() for m in got_mats], got_note) == (status, mats, note)
    for mat in got_mats:
        assert pullback_type_a(type_a(*n1), LinearMap2(mat)) == type_a(*n2)


#: rank-one catalog cases: (family, parameter) -> (isotropy dimension,
#: number of finite elements)
RANK1_ISOTROPY = {
    ("M1_1", None): (0, 1),
    ("M2_1", F(3)): (0, 1),
    ("M2_1", F(-1, 2)): (0, 2),
    ("M3_1", F(2)): (1, 1),
    ("M4_1", F(7)): (1, 1),
    ("M4_1", F(0)): (2, 1),
    ("M5_1", F(4)): (0, 1),
    ("M5_1", F(0)): (0, 2),
}


def test_isotropy_rank1_cases():
    for (entry_id, param), (dim, n_elems) in RANK1_ISOTROPY.items():
        m = canonical_model(entry_id, () if param is None else (param,))
        group = isotropy_type_a(m)
        assert group.dimension == dim, (entry_id, param)
        assert len(group.finite_elements) == n_elems, (entry_id, param)
        for el in group.finite_elements:
            assert pullback_type_a(m, el) == m
    # the exceptional elements
    g = isotropy_type_a(canonical_model("M2_1", [F(-1, 2)]))
    mats = {el.matrix for el in g.finite_elements}
    assert Mat2(((F(1), F(1)), (F(0), F(-1)))) in mats  # (x1 + x2, -x2)
    g = isotropy_type_a(canonical_model("M5_1", [0]))
    assert Mat2(((F(1), F(0)), (F(0), F(-1)))) in {el.matrix for el in g.finite_elements}


def _instances(fam, count=3):
    """``count`` members of an isotropy family, skipping parameters outside
    its domain."""
    out = []
    for base in itertools.permutations([F(2), F(-3), F(1, 2), F(5), F(-1, 4), F(7, 3)], fam.dimension):
        try:
            out.append((base, fam.instantiate(base)))
        except (ValueError, ZeroDivisionError):
            continue
        if len(out) == count:
            return out
    raise AssertionError("too few family members inside the domain")


@pytest.mark.parametrize("height", [3, 12, 10**6])
def test_isotropy_rank1_unreduced(height):
    """A rank-one model with b, d not both zero has the group of its
    frame-reduced model conjugated by the inverse frame."""
    rng = random.Random(height)
    for (entry_id, param), (dim, n_elems) in RANK1_ISOTROPY.items():
        base = canonical_model(entry_id, () if param is None else (param,))
        for _ in range(5):
            m = pullback_type_a(base, references.rand_linear_map(rng, height))
            group = isotropy_type_a(m)
            assert group.dimension == dim == 4 - orbit_dimension_a(m), (entry_id, param, m)
            assert len(group.finite_elements) == n_elems, (entry_id, param, m)
            for el in group.finite_elements:
                assert pullback_type_a(m, el) == m
            frame, reduced = rank1_frame(m)
            s, t = frame.matrix.inverse(), frame.matrix
            red_group = isotropy_type_a(reduced)
            assert {el.matrix for el in group.finite_elements} == {
                s @ el.matrix @ t for el in red_group.finite_elements
            }
            assert len(group.families) == len(red_group.families)
            for fam, red_fam in zip(group.families, red_group.families):
                for params, el in _instances(fam):
                    assert pullback_type_a(m, el) == m
                    assert el.matrix == s @ red_fam.instantiate(params).matrix @ t


def test_zero_model_answers():
    """The zero model goes through the general flat paths; its answers are
    pinned as they were when it had branches of its own."""
    zero = type_a(0, 0, 0, 0, 0, 0)
    identity = [["1", "0"], ["0", "1"]]
    assert solve_equivalence_a(zero, zero).to_dict() == {"status": "equivalent", "witnesses": [identity]}
    assert isotropy_type_a(zero).to_dict() == {
        "dimension": 4,
        "elements": [],
        "families": [{
            "dimension": 4,
            "params": ["p", "q", "r", "s"],
            "constraints": ["p*s - q*r != 0"],
            "template": "[[p, q], [r, s]]",
        }],
    }
    zeros = [["0", "0"], ["0", "0"]]
    assert classify_model(zero).to_dict() == {
        "model": {"type": "A", "coeffs": ["0"] * 6},
        "flags": {
            "cone_point": True, "flat": True, "rank1_positive": False, "rank1_negative": False,
            "alternating_only": False, "rank2": False, "primary": "cone_point",
        },
        "ricci": {"cleared": False, "matrix": zeros, "symmetric": zeros, "alternating": "0"},
        "rank_signature": {"rank": 0, "label": "zero"},
        "stratum": {"kind": "cone_point"},
        "orbit": {"id": "M0_0", "params": [], "witness": identity},
        "admits_type_b": None,
        "errors": {},
    }


def test_isotropy_flat_catalog():
    expected_dims = {"M0_0": 4, "M1_0": 1, "M2_0": 0, "M3_0": 1, "M4_0": 2, "M5_0": 0}
    for orbit_id, dim in expected_dims.items():
        m = canonical_model(orbit_id)
        group = isotropy_type_a(m)
        assert group.dimension == dim
        for el in group.finite_elements:
            assert pullback_type_a(m, el) == m
        for fam in group.families:
            for base in ([F(2), F(-1), F(3), F(5)], [F(-1, 3), F(7), F(1, 2), F(-4)]):
                el = fam.instantiate(base[: fam.dimension])
                assert pullback_type_a(m, el) == m
    g = isotropy_type_a(canonical_model("M2_0"))
    assert Mat2(((F(0), F(-1)), (F(-1), F(0)))) in {el.matrix for el in g.finite_elements}


def test_isotropy_conjugation_for_non_catalog_flat():
    rng = random.Random(41)
    t = references.rand_linear_map(rng, 4)
    m = pullback_type_a(canonical_model("M4_0"), t)
    group = isotropy_type_a(m)
    assert group.dimension == 2
    for fam in group.families:
        el = fam.instantiate([F(3), F(-2)][: fam.dimension])
        assert pullback_type_a(m, el) == m


def test_isotropy_undecided():
    with pytest.raises(UndecidedError):
        isotropy_type_a(type_a(0, 1, 0, 0, 1, 0))  # rank two


def test_isotropy_unmatched_flat_is_undecided():
    """A flat model whose canonical orbit has no rational witness answers
    undecided with the matcher's reason: the example, in the real orbit of
    M5_0, and small-height flat chart points the matcher cannot place."""
    example = type_a("0", "-2", "1", "1", "-1/2", "1/2")
    rng = random.Random(12)
    unmatched = [example]
    while len(unmatched) < 8:
        point = [references.rand_rational(rng, 3) for _ in range(4)]
        if point[1:] == [0, 0, 0]:
            continue
        m = COEFF_FAMILIES["flat_a"].model(point)
        try:
            match_flat_a_orbit(m)
        except UnmatchedOrbitError:
            unmatched.append(m)
    for m in unmatched:
        with pytest.raises(UnmatchedOrbitError) as matcher:
            match_flat_a_orbit(m)
        with pytest.raises(UndecidedError) as undecided:
            isotropy_type_a(m)
        assert str(undecided.value) == f"flat orbit matcher failed: {matcher.value}"


def test_equivalence_self():
    for m in [canonical_model("M1_0"), canonical_model("M2_1", [F(2)]), type_a(1, 2, 0, 1, 1, 3)]:
        res = solve_equivalence_a(m, m)
        assert res.is_equivalent
        assert any(w.matrix == Mat2.identity() for w in res.maps)


def test_equivalence_m5_flip():
    for c in [F(1), F(-2), F(3, 7)]:
        res = solve_equivalence_a(canonical_model("M5_1", [c]), canonical_model("M5_1", [-c]))
        assert res.is_equivalent
        flip = Mat2(((F(1), F(0)), (F(0), F(-1))))
        assert any(w.matrix == flip for w in res.maps)
        assert all(w.matrix.det() == -1 for w in res.maps if w.matrix == flip)


def test_equivalence_screening():
    res = solve_equivalence_a(canonical_model("M1_0"), canonical_model("M0_0"))
    assert res.status == "not_equivalent"
    # different orbit dimensions among flat models
    res = solve_equivalence_a(canonical_model("M1_0"), canonical_model("M4_0"))
    assert res.status == "not_equivalent"
    assert "orbit dimensions" in res.obstruction or "orbits" in res.obstruction
    # fifth family never meets the others
    res = solve_equivalence_a(canonical_model("M5_1", [0]), canonical_model("M1_1"))
    assert res.status == "not_equivalent"


@pytest.mark.parametrize(
    "first, second, obstruction",
    [
        (("M1_0", ()), ("M4_0", ()), "orbit dimensions differ: 3 vs 2"),
        (("M4_1", (0,)), ("M4_1", (1,)), "orbit dimensions differ: 2 vs 3"),
        (("M3_1", (2,)), ("M4_1", (0,)), "orbit dimensions differ: 3 vs 2"),
        (("M2_0", ()), ("M5_0", ()), "different flat orbits: M2_0 vs M5_0"),
    ],
)
def test_screen_obstructions(first, second, obstruction):
    """The screen's exact answers on catalog pairs and on their height-12
    pullbacks: three pairs the orbit dimension separates, and one of equal
    dimension that reaches the flat matchers."""
    m1, m2 = canonical_model(*first), canonical_model(*second)
    rng = random.Random(f"{first} {second}")
    pulled = [pullback_type_a(m, sampling.rand_linear_map(rng)) for m in (m1, m2)]
    for pair in ((m1, m2), pulled):
        res = solve_equivalence_a(*pair)
        assert (res.status, res.obstruction) == ("not_equivalent", obstruction), pair


def test_equivalence_symmetry():
    rng = random.Random(43)
    pairs = []
    for entry_id, params in [("M2_1", (F(2),)), ("M4_1", (F(1),)), ("M1_0", ())]:
        base = canonical_model(entry_id, params)
        t = references.rand_linear_map(rng, 4)
        pairs.append((base, pullback_type_a(base, t)))
    pairs.append((canonical_model("M1_1"), canonical_model("M5_1", [0])))
    for m1, m2 in pairs:
        r12 = solve_equivalence_a(m1, m2)
        r21 = solve_equivalence_a(m2, m1)
        assert r12.status == r21.status
        if r12.is_equivalent:
            inv = r12.maps[0].inverse()
            assert pullback_type_a(m2, inv) == m1


def test_equivalence_generate_recover_rank1():
    rng = random.Random(47)
    for entry_id, params in [("M1_1", ()), ("M2_1", (F(-1, 2),)), ("M3_1", (F(5),)), ("M5_1", (F(2),))]:
        base = canonical_model(entry_id, params)
        for _ in range(10):
            t = references.rand_linear_map(rng, 5)
            m2 = pullback_type_a(base, t)
            res = solve_equivalence_a(base, m2)
            assert res.is_equivalent, (entry_id, res.status, res.reason or res.obstruction)


def test_equivalence_cross_parameter_identifications():
    # identifications inside the rank-one families that the solver must find
    for id1, p1, id2, p2 in [
        ("M2_1", (F(3),), "M2_1", (F(-4),)),  # c1 ~ -1 - c1
        ("M4_1", (F(1),), "M4_1", (F(-7),)),  # all nonzero parameters
        ("M5_1", (F(2),), "M5_1", (F(-2),)),  # sign flip
    ]:
        res = solve_equivalence_a(canonical_model(id1, p1), canonical_model(id2, p2))
        assert res.is_equivalent, (id1, p1, id2, p2, res.status)
    # separations with exact invariant obstructions
    for id1, p1, id2, p2 in [
        ("M2_1", (F(3),), "M2_1", (F(5),)),
        ("M3_1", (F(2),), "M3_1", (F(3),)),
        ("M4_1", (F(1),), "M4_1", (F(0),)),
        ("M2_1", (F(3),), "M3_1", (F(3),)),
        ("M5_1", (F(1),), "M1_1", ()),
    ]:
        res = solve_equivalence_a(canonical_model(id1, p1), canonical_model(id2, p2))
        assert res.status == "not_equivalent", (id1, p1, id2, p2, res.status)


def test_equivalence_rank2_congruence_regression():
    # this pair once defeated the Ricci-congruence construction
    m1 = type_a(3, 0, 0, -1, 1, 0)
    t = LinearMap2(Mat2(((F(0), F(-1)), (F(-2), F(-2)))))
    m2 = pullback_type_a(m1, t)
    res = solve_equivalence_a(m1, m2)
    assert res.is_equivalent
    for w in res.maps:
        assert pullback_type_a(m1, w) == m2


def rank2_pairs(rng, height, count):
    """``count`` pairs (m, pullback(m, T)) with m of rank two, both at ``height``."""
    pairs = []
    while len(pairs) < count:
        m1 = references.rand_model_a(rng, height)
        if rank_signature(ricci_type_a(m1)).rank != 2:
            continue
        pairs.append((m1, pullback_type_a(m1, references.rand_linear_map(rng, height))))
    return pairs


def test_equivalence_rank2_generate_recover():
    degenerate = 0
    for m1, m2 in rank2_pairs(random.Random(53), 3, 15):
        res = solve_equivalence_a(m1, m2)
        assert res.is_equivalent, (m1, m2, res.status)
        assert all(pullback_type_a(m1, w) == m2 for w in res.maps)
        if covariant_frame(m1, ricci_type_a(m1))[0] is None:
            degenerate += 1  # decided by v and its Ricci-normal, or the cubic
        else:
            assert len(res.maps) == 1
    assert degenerate == 1


def test_equivalence_rank2_height_sweep():
    rng = random.Random(67)
    for height in (3, 6, 30, 500):
        for m1, m2 in rank2_pairs(rng, height, 20):
            res = solve_equivalence_a(m1, m2)
            assert res.is_equivalent, (height, m1, m2, res.status)
            assert all(pullback_type_a(m1, w) == m2 for w in res.maps)
            if covariant_frame(m1, ricci_type_a(m1))[0] is not None:
                assert len(res.maps) == 1


def degenerate_models(rng, height, count):
    """``count`` rank-two models whose covariant frame (v, G(v, v)) is
    degenerate, both kinds (v = 0 and v parallel to G(v, v)) mixed."""
    models = []
    while len(models) < count:
        m = references.rand_model_a(rng, height)
        r = ricci_type_a(m)
        if rank_signature(r).rank == 2 and covariant_frame(m, r)[0] is None:
            models.append(m)
    return models


def omega_zero_model(rng, height):
    """A rank-two model with trace form omega = (a + d, c + f) = 0."""
    while True:
        a, b, c, e = (references.rand_rational(rng, height) for _ in range(4))
        m = type_a(a, b, c, -a, e, -c)
        if rank_signature(ricci_type_a(m)).rank == 2:
            return m


def test_equivalence_rank2_symmetry():
    rng = random.Random(73)
    pairs = rank2_pairs(rng, 6, 10)
    pairs += [(m1, m3) for (m1, _), (m3, _) in zip(pairs, rank2_pairs(rng, 6, 10))]
    degenerate = degenerate_models(rng, 3, 12)
    pairs += [(m, pullback_type_a(m, references.rand_linear_map(rng, 4))) for m in degenerate]
    pairs += list(zip(degenerate, degenerate[1:]))
    for m1, m2 in pairs:
        r12 = solve_equivalence_a(m1, m2)
        r21 = solve_equivalence_a(m2, m1)
        assert r12.status == r21.status, (m1, m2)
        if m1 not in degenerate:
            assert r12.status != "undecided"
        inverses = [w.matrix.inverse() for w in r12.maps]
        assert sorted(map(repr, inverses)) == sorted(repr(w.matrix) for w in r21.maps)
        assert len(set(inverses)) == len(inverses)


def test_equivalence_rank2_frame_matches_cubic_witnesses():
    """The frame and the cubic rule agree on every pair, down to the list of
    witnesses: a nondegenerate frame has trivial isotropy, and the cubic
    rule finds every rational witness of any rank-two pair."""
    rng = random.Random(71)
    pairs = []
    for height, count in ((3, 4), (12, 4), (10**6, 2)):
        built = rank2_pairs(rng, height, count)
        pairs += built
        pairs += [(m1, m3) for (m1, _), (m3, _) in zip(built, rank2_pairs(rng, height, count))]
    # distinct models with the same Ricci form
    by_ricci = {}
    while len(pairs) < 23:
        m = references.rand_model_a(rng, 2)
        r = ricci_type_a(m)
        if rank_signature(r).rank != 2:
            continue
        other = by_ricci.setdefault(r.rows, m)
        if other != m:
            pairs.append((other, m))
            del by_ricci[r.rows]
    statuses = set()
    for m1, m2 in pairs:
        assert covariant_frame(m1, ricci_type_a(m1))[0] is not None
        r1, r2 = ricci_type_a(m1), ricci_type_a(m2)
        frame = _solve_rank2_pair(m1, m2, r1, r2)
        statuses.add(frame.status)
        cubic = _rank2_witnesses_by_cubic(m1, m2, r1, r2)
        assert [w.matrix for w in frame.maps] == [w.matrix for w in cubic], (m1, m2)
    assert statuses == {"equivalent", "not_equivalent"}


def test_equivalence_rank2_degenerate_frames():
    base = type_a(0, 1, -2, 0, 0, 0)  # v on the x2 axis, G(x2, x2) = 0
    t = LinearMap2(Mat2(((F(1), F(-2)), (F(3), F(1, 2)))))
    m2 = pullback_type_a(base, t)
    assert covariant_frame(base, ricci_type_a(base))[0] is None and covariant_frame(m2, ricci_type_a(m2))[0] is None
    res = solve_equivalence_a(base, m2)
    assert res.is_equivalent
    assert t in res.maps
    assert all(pullback_type_a(base, w) == m2 for w in res.maps)
    # T and T composed with the Ricci reflection that fixes v
    assert len(set(res.maps)) == len(res.maps) == 2
    # same screening invariants, but only one frame is degenerate
    other = type_a(1, 1, -2, 0, 0, 0)
    assert covariant_frame(other, ricci_type_a(other))[0] is not None
    for m1, m2 in ((base, other), (other, base)):
        assert solve_equivalence_a(m1, m2).status == "not_equivalent"


def test_equivalence_rank2_omega_zero_reproducer():
    """omega = 0, so both frames are degenerate; the cubic rule recovers T
    from the rational roots of its sextic, with no bound to exceed."""
    m1 = type_a(F(3, 2), F(-2, 3), 1, F(-3, 2), -1, -1)
    t = LinearMap2(Mat2(((F(1, 6), F(-2)), (F(-1, 2), F(-1, 8)))))
    m2 = pullback_type_a(m1, t)
    res = solve_equivalence_a(m1, m2)
    assert res.status == "equivalent"
    assert t in res.maps
    assert all(pullback_type_a(m1, w) == m2 for w in res.maps)


def test_equivalence_rank2_degenerate_kinds():
    """Both kinds of degenerate frame: a nonzero v and its Ricci-normal force
    the witness up to sign, and with v = 0 the binary cubic pins every
    rational witness."""
    # rho(v, v) is 1 against 9/7: the pair once ended undecided
    res = solve_equivalence_a(type_a(0, 1, -2, 0, 0, 0), type_a(0, 1, -2, 0, 0, 1))
    assert res.status == "not_equivalent"
    # equal rho(v, v) = -1 but Ricci determinants of opposite sign: the pair
    # solver separates them without the signature screen
    m1, m2 = type_a(-2, -2, -2, 0, -2, 2), type_a(-2, -2, 2, 1, 0, 0)
    res = _solve_rank2_pair(m1, m2, ricci_type_a(m1), ricci_type_a(m2))
    assert res.status == "not_equivalent"
    rng = random.Random(11)
    models = degenerate_models(rng, 3, 24)
    kinds = {ricci_trace_vector(m, ricci_type_a(m)) == (0, 0) for m in models}
    assert kinds == {True, False}
    for m in models:
        for height in (2, 4, 8):
            t = references.rand_linear_map(rng, height)
            m2 = pullback_type_a(m, t)
            res = solve_equivalence_a(m, m2)
            assert res.is_equivalent and t in res.maps, (m, t, res.status)
            assert all(pullback_type_a(m, w) == m2 for w in res.maps)
    omega_zero = [m for m in models if ricci_trace_vector(m, ricci_type_a(m)) == (0, 0)]
    omega_zero += [omega_zero_model(rng, 12) for _ in range(12)]
    for i, m1 in enumerate(omega_zero):
        for m2 in omega_zero[i + 1:]:
            same = rank_signature(ricci_type_a(m1)) == rank_signature(ricci_type_a(m2))
            res = solve_equivalence_a(m1, m2)
            # one Ricci signature is one real orbit: never not_equivalent
            assert (res.status != "not_equivalent") == same, (m1, m2, res.status)
    for _ in range(2):
        m = omega_zero_model(rng, 10**6)
        t = references.rand_linear_map(rng, 10**6)
        res = solve_equivalence_a(m, pullback_type_a(m, t))
        assert res.is_equivalent and t in res.maps


def test_equivalence_rank2_degenerate_undecided_reasons():
    """Each undecided degenerate pair says why no rational witness exists."""
    cases = [
        # v parallel to G(v, v): the forced scale passes in Q(sqrt(6))
        ((0, -1, F(3, 2), 0, 0, 3), (0, F(2, 3), F(-1, 2), -1, F(2, 3), 1), "the irrational sqrt("),
        # omega = 0: det S would be sqrt of the Ricci determinant ratio
        ((F(3, 2), F(-2, 3), 1, F(-3, 2), -1, -1), (F(-1, 3), 0, -3, F(1, 3), 0, 3), "not a rational square"),
        # omega = 0 and a square ratio, but no root of the sextic gives a witness
        ((-1, 3, 1, 1, -1, -1), (1, F(1, 2), -2, -1, F(1, 3), 2), "no rational witness exists"),
    ]
    for c1, c2, reason in cases:
        for m1, m2 in ((type_a(*c1), type_a(*c2)), (type_a(*c2), type_a(*c1))):
            res = solve_equivalence_a(m1, m2)
            assert res.status == "undecided" and reason in res.reason, (m1, m2, res.reason)


def test_isotropy_rank2_frame_is_trivial():
    rng = random.Random(79)
    for m, _ in rank2_pairs(rng, 6, 10):
        group = isotropy_type_a(m)
        assert group.dimension == 0
        assert [el.matrix for el in group.finite_elements] == [Mat2.identity()]


def test_equivalence_b_examples():
    n1 = canonical_model("N1_alt", [F(4)])
    res = solve_equivalence_b(n1, n1)
    assert res.is_equivalent
    m2 = pullback_type_b(n1, ShearMap(F(2), F(0)))
    res = solve_equivalence_b(n1, m2)
    assert res.is_equivalent
    assert any((w.a, w.b) == (2, 0) for w in res.maps)
    res = solve_equivalence_b(type_b(1, 0, 0, 0, 0, 0), type_b(0, 0, 1, 0, 0, 1))
    assert res.status == "not_equivalent"  # flat against alternating


def test_equivalence_b_irrational_scale_decided():
    # scale forced to sqrt(2): real-equivalent pair is reported as undecided
    # with the exact reason, and a failing pair as not_equivalent
    m1 = type_b(1, 0, 0, 3, 2, 0)
    res = solve_equivalence_b(m1, type_b(1, 0, 0, 3, 1, 0))
    assert res.status == "undecided"
    assert "sqrt(2)" in res.reason
    res = solve_equivalence_b(m1, type_b(1, 0, 0, 4, 1, 0))
    assert res.status == "not_equivalent"


def test_quad_ext_arithmetic():
    QuadExt = references.QuadExt
    x = QuadExt(0, 1, F(2))  # sqrt(2)
    assert x * x == QuadExt(2, 0, F(2))
    assert (1 + x) * (1 - x) == QuadExt(-1, 0, F(2))
    assert (1 / (1 + x)) * (1 + x) == QuadExt(1, 0, F(2))
    assert x / x == QuadExt(1, 0, F(2))


def test_equivalence_b_generate_recover():
    rng = random.Random(59)
    for _ in range(60):
        m1 = references.rand_model_b(rng, 6)
        phi = references.rand_shear(rng, 6)
        m2 = pullback_type_b(m1, phi)
        res = solve_equivalence_b(m1, m2)
        assert res.status in ("equivalent", "undecided"), (m1, phi)
        if res.is_equivalent:
            for w in res.maps:
                assert pullback_type_b(m1, w) == m2


def test_transform_coeffs_matches_wrappers():
    rng = random.Random(61)
    m = sampling.rand_model_a(rng)
    t = sampling.rand_linear_map(rng)
    assert transform_coeffs(m.coeffs, t.matrix.rows) == pullback_type_a(m, t).coeffs


def test_isotropy_rank2_degenerate_frame_is_forced():
    """With v nonzero and parallel to G(v, v) every isotropy element fixes v
    and is a Ricci congruence: the identity and the Ricci reflection fixing
    v, when it fixes the model."""
    rng = random.Random(11)
    forced = [m for m in degenerate_models(rng, 3, 60) if ricci_trace_vector(m, ricci_type_a(m)) != (0, 0)]
    assert len(forced) == 38
    for m in forced:
        group = isotropy_type_a(m)
        assert group.dimension == 0
        assert len(group.finite_elements) == 2
        assert group.finite_elements[0].matrix == Mat2.identity()
        assert all(pullback_type_a(m, el) == m for el in group.finite_elements)


def test_degenerate_frames_have_no_null_v():
    """A degenerate frame with v != 0 has rho(v, v) != 0, which the forced
    rank-two rule divides by: a null v parallel to G(v, v), moved to e2,
    would force omega = 0.  Checked on every model with coefficients in
    {-2, ..., 2}."""
    degenerate = 0
    for coeffs in itertools.product(range(-2, 3), repeat=6):
        m = type_a(*coeffs)
        r = ricci_type_a(m)
        if rank_signature(r).rank != 2 or covariant_frame(m, r)[0] is not None:
            continue
        v = ricci_trace_vector(m, r)
        if v == (0, 0):
            continue
        degenerate += 1
        (r11, r12), (_, r22) = r.rows
        assert r11 * v[0] ** 2 + 2 * r12 * v[0] * v[1] + r22 * v[1] ** 2 != 0, m
    assert degenerate == 408


# Pairs for the symmetry properties, drawn from every stratum: catalog
# models (flat and rank-one) and random Type A models, mostly of rank two,
# with omega = 0 (d = -a, f = -c) or without; each is paired with a pullback
# of itself or with an independent draw, which includes pairs that the
# orbit-dimension screen separates.


def small_rationals(height=4):
    return st.builds(F, st.integers(-height, height), st.integers(1, height))


@st.composite
def linear_maps(draw, height=4):
    entries = draw(st.lists(small_rationals(height), min_size=4, max_size=4))
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    return LinearMap2(Mat2.of(*entries))


@st.composite
def catalog_models(draw, model_type):
    entry = draw(st.sampled_from([e for e in CATALOG.values() if e.model_type == model_type]))
    params = draw(st.lists(small_rationals(), min_size=entry.arity, max_size=entry.arity))
    assume(FAMILY_CHECKS.get(entry.entry_id, lambda *_: None)(*params) is None)
    return entry.model(params)


@st.composite
def type_a_models(draw):
    kind = draw(st.sampled_from(("catalog", "random", "omega_zero")))
    if kind == "catalog":
        return draw(catalog_models("A"))
    a, b, c, d, e, f = draw(st.lists(small_rationals(), min_size=6, max_size=6))
    return type_a(a, b, c, -a, e, -c) if kind == "omega_zero" else type_a(a, b, c, d, e, f)


@st.composite
def type_b_models(draw):
    if draw(st.booleans()):
        return draw(catalog_models("B"))
    return type_b(*draw(st.lists(small_rationals(), min_size=6, max_size=6)))


@st.composite
def model_pairs(draw, models, pullback, maps):
    m1 = draw(models)
    if draw(st.booleans()):
        return m1, pullback(m1, draw(maps))
    m2 = draw(models)
    return m1, (pullback(m2, draw(maps)) if draw(st.booleans()) else m2)


def shears(height=4):
    return st.builds(ShearMap, small_rationals(height).filter(bool), small_rationals(height))


@settings(max_examples=300, deadline=None)
@given(model_pairs(type_a_models(), pullback_type_a, linear_maps()))
def test_equivalence_a_is_symmetric(pair):
    """The same status both ways; with a zero-dimensional isotropy group
    (orbit dimension 4) the two witness lists are inverse to each other.
    With a larger group each side may list different members of a witness
    family."""
    m1, m2 = pair
    forward, backward = solve_equivalence_a(m1, m2), solve_equivalence_a(m2, m1)
    assert forward.status == backward.status, (m1, m2)
    if forward.is_equivalent and orbit_dimension_a(m1) == 4:
        assert {w.inverse() for w in forward.maps} == set(backward.maps), (m1, m2)


@settings(max_examples=200, deadline=None)
@given(model_pairs(type_b_models(), pullback_type_b, shears()))
def test_equivalence_b_is_symmetric(pair):
    m1, m2 = pair
    assert solve_equivalence_b(m1, m2).status == solve_equivalence_b(m2, m1).status, pair
