import pickle
import random
from fractions import Fraction as F

import pytest

from affinestrata.exact import CirclePoint, LinearMap2, Mat2, circle_from_slope, jacobian, mat_rank
from affinestrata.curvature import rank_signature, ricci_type_a, ricci_type_b, split_ricci
from affinestrata.law import pullback_type_a
from affinestrata.frames import _rank1_frame
from affinestrata.matchers import _match_rank1_reduced
from affinestrata.models import CATALOG, CatalogEntry, CatalogError, FamilyMembership, canonical_model, type_a, type_b
from affinestrata.strata import (
    COEFF_FAMILIES,
    ConePointError,
    NonRationalCirclePointError,
    NonRationalRotationError,
    NotFlatError,
    NotInStratumError,
    NotRank1Error,
    UnmatchedOrbitError,
    _classify_alt_b,
    _classify_flat_b,
    alt_b_param,
    classify_alt_b,
    classify_flat_b,
    flat_a_coords,
    flat_a_param,
    flat_b_param,
    match_flat_a_orbit,
    match_rank1_family,
    rank1_chart_forward,
    rank1_chart_inverse,
    rank1_reduce,
    tangent_sum_rank,
)
from affinestrata import sampling, strata
import references
from references import FAMILY_BUILDS, flat_a_coeffs


# ---------------------------------------------------------------------------
# flat Type A chart


def test_flat_a_param_at_theta_zero():
    # hand substitution at theta = (1, 0): the model is M(2s, 0, 0, 2s, r, -2t)
    theta = CirclePoint(F(1), F(0))
    for r, s, t in [(F(1), F(1), F(0)), (F(2), F(-3), F(5)), (F(0), F(1, 2), F(-1, 3))]:
        m = flat_a_param(theta, r, s, t)
        assert m == type_a(2 * s, 0, 0, 2 * s, r, -2 * t)


def test_flat_a_param_always_flat():
    rng = random.Random(67)
    for _ in range(150):
        theta = sampling.rand_circle(rng)
        r, s, t = (sampling.rand_rational(rng) for _ in range(3))
        if (r, s, t) == (0, 0, 0):
            continue
        assert ricci_type_a(flat_a_param(theta, r, s, t)).is_zero()


def test_flat_a_param_half_turn_identity():
    rng = random.Random(71)
    for _ in range(150):
        theta = sampling.rand_circle(rng)
        r, s, t = (sampling.rand_rational(rng) for _ in range(3))
        if (r, s, t) == (0, 0, 0):
            continue
        assert flat_a_param(theta.antipode(), -r, s, t) == flat_a_param(theta, r, s, t)


def test_flat_a_param_cone_rejected():
    with pytest.raises(ConePointError):
        flat_a_param(CirclePoint(F(1), F(0)), 0, 0, 0)


def test_flat_a_coords_examples():
    chart = flat_a_coords(type_a(2, 0, 0, 2, 1, 0))
    assert (chart.theta, chart.r, chart.s, chart.t) == (CirclePoint(F(1), F(0)), 1, 1, 0)
    with pytest.raises(ConePointError):
        flat_a_coords(canonical_model("M0_0"))
    with pytest.raises(NotFlatError):
        flat_a_coords(canonical_model("M1_1"))
    # degenerate-radius branch: chart inversion solves the six linear chart
    # equations, giving (p, q, s, t) = (0, 1/2, 1/2, 0) for this model
    chart = flat_a_coords(canonical_model("M1_0"))
    assert chart.r == 0
    assert (chart.s, chart.t) == (F(1, 2), F(0))
    assert chart.theta == CirclePoint(F(1), F(0))
    # this flat model needs an irrational circle point
    with pytest.raises(NonRationalCirclePointError):
        flat_a_coords(canonical_model("M2_0"))


def test_flat_a_model_level_round_trip():
    # flat_a_param(flat_a_coords(m)) reproduces m even when the chart tuple
    # is replaced by its canonical representative
    rng = random.Random(211)
    for _ in range(80):
        theta = sampling.rand_circle(rng)
        r, s, t = (sampling.rand_rational(rng) for _ in range(3))
        if (r, s, t) == (0, 0, 0):
            continue
        m = flat_a_param(theta, r, s, t)
        chart = flat_a_coords(m)
        assert flat_a_param(chart.theta, chart.r, chart.s, chart.t) == m


def test_flat_a_coords_irrational_radius():
    # flat model with (e, c) = (1, 1): the radius would need x^2 = 2
    m = type_a(1, F(1, 2), 1, F(1, 2), 1, F(1, 2))
    assert ricci_type_a(m).is_zero()
    with pytest.raises(NonRationalCirclePointError):
        flat_a_coords(m)


def test_flat_a_round_trip_canonical():
    rng = random.Random(73)
    for _ in range(150):
        theta = sampling.rand_circle(rng)
        r = abs(sampling.rand_nonzero(rng))
        s, t = sampling.rand_rational(rng), sampling.rand_rational(rng)
        chart = flat_a_coords(flat_a_param(theta, r, s, t))
        assert (chart.theta, chart.r, chart.s, chart.t) == (theta, r, s, t)
    # r = 0 representatives with lexicographically positive theta
    for _ in range(80):
        theta = sampling.rand_circle(rng)
        if not theta.is_lex_positive():
            theta = theta.antipode()
        s, t = sampling.rand_rational(rng), sampling.rand_rational(rng)
        if (s, t) == (0, 0):
            continue
        chart = flat_a_coords(flat_a_param(theta, F(0), s, t))
        assert (chart.theta, chart.r, chart.s, chart.t) == (theta, 0, s, t)


# ---------------------------------------------------------------------------
# rank-one chart and rotation reduction


def test_rank1_chart_examples():
    m = rank1_chart_forward(0, 1, 0, 0)
    assert m == canonical_model("M5_1", [0])
    chart = rank1_chart_inverse(canonical_model("M2_1", [F(-1, 2)]))
    assert (chart.p, chart.q, chart.u, chart.v) == (0, F(-1, 2), F(-1, 2), F(-1, 2))
    assert chart.scale == F(-1, 4)
    assert chart.sign == "-"


def test_rank1_chart_round_trip():
    rng = random.Random(79)
    for _ in range(100):
        p, q, u, v = (sampling.rand_rational(rng) for _ in range(4))
        m = rank1_chart_forward(p, q, u, v)
        chart = rank1_chart_inverse(m)
        assert (chart.p, chart.q, chart.u, chart.v) == (p, q, u, v)
        a, _, c, _, e, f = m.coeffs
        assert -c * c + a * e + c * f == chart.scale
    with pytest.raises(ValueError):
        rank1_chart_inverse(type_a(0, 1, 0, 0, 0, 0))
    assert rank1_chart_forward(F(0), F(1), F(0), F(0)) == canonical_model("M5_1", [0])


def test_rank1_reduce():
    m = canonical_model("M4_1", [2])
    red = rank1_reduce(m)
    assert red.rotation == CirclePoint(F(1), F(0))
    assert red.normalized == m
    assert red.scale == 1
    # quarter turn then reduce: scale is preserved
    quarter = LinearMap2(CirclePoint(F(0), F(1)).rotation())
    m2 = pullback_type_a(canonical_model("M1_1"), quarter)
    red = rank1_reduce(m2)
    assert red.normalized.b == 0 and red.normalized.d == 0
    assert red.scale == 1
    with pytest.raises(NotRank1Error):
        rank1_reduce(canonical_model("M1_0"))


def test_rank1_reduce_rational_rotations():
    rng = random.Random(83)
    for _ in range(60):
        p, q, u, v = (references.rand_rational(rng, 6) for _ in range(4))
        m0 = rank1_chart_forward(p, q, u, v)
        scale = p * p + q * q - u * u - v * v
        if scale == 0:
            continue
        rot = LinearMap2(sampling.rand_circle(rng).rotation())
        red = rank1_reduce(pullback_type_a(m0, rot))
        assert red.normalized.b == 0 and red.normalized.d == 0
        assert red.scale == scale


def test_rank1_reduce_irrational_rotation_reported():
    # Ricci kernel direction (1, 1) has irrational norm
    m = pullback_type_a(canonical_model("M5_1", [0]), LinearMap2(Mat2(((F(1), F(0)), (F(1), F(1))))))
    sig = rank_signature(ricci_type_a(m))
    assert sig.rank == 1
    with pytest.raises(NonRationalRotationError):
        rank1_reduce(m)
    # the rational frame still reduces it, so family matching succeeds
    family, _, _ = match_rank1_family(m)
    assert family == "M5_1"


# ---------------------------------------------------------------------------
# flat Type B families


def test_flat_b_param_examples():
    assert flat_b_param("U1", (1, 1)) == type_b(2, -2, 1, -1, 1, -1)
    assert flat_b_param("1", (1, 1)) == type_b(2, -2, 1, -1, 1, -1)
    w = F(3, 2)
    assert flat_b_param("closure", (0, w)) == type_b(0, 2 * w, 0, 1, 0, 0)
    v = F(5)
    assert flat_b_param("U2", (-1, v)) == flat_b_param("U3", (-1, v))


def test_flat_b_closure_chart_matches_family_interior():
    # the closure chart at t != 0 is the first family at (-t^2, 1/t + w)
    rng = random.Random(89)
    for _ in range(80):
        t = sampling.rand_nonzero(rng)
        w = sampling.rand_rational(rng)
        assert flat_b_param("closure", (t, w)) == flat_b_param("U1", (-t * t, 1 / t + w))


def test_flat_b_param_outputs_flat():
    rng = random.Random(97)
    for fam in ("U1", "U2", "U3", "U1_closure"):
        for _ in range(60):
            params = (sampling.rand_rational(rng), sampling.rand_rational(rng))
            assert ricci_type_b(flat_b_param(fam, params)).is_zero()


def test_classify_flat_b_examples():
    cls = classify_flat_b(type_b(2, -2, 1, -1, 1, -1))
    assert [(m.family, m.params) for m in cls.members] == [("B1", (1, 1))]
    cls = classify_flat_b(type_b(-1, 3, 0, 0, 0, 0))
    assert sorted(m.family for m in cls.members) == ["B2", "B3"]
    assert "B2&B3" in cls.intersections
    cls = classify_flat_b(type_b(1, 5, 0, 0, 0, 0))
    assert [(m.family, m.params) for m in cls.members] == [("B2", (1, 5))]
    assert "B1~&B2" in cls.intersections
    w = F(7, 3)
    cls = classify_flat_b(type_b(0, 2 * w, 0, 1, 0, 0))
    fams = {m.family: m.params for m in cls.members}
    assert fams["B3"] == (0, 2 * w)
    assert fams["B1closure"] == (0, w)
    assert "B1~&B3" in cls.intersections
    with pytest.raises(NotFlatError):
        classify_flat_b(type_b(0, 0, 1, 0, 0, 1))


def test_classify_flat_b_on_catalog_models():
    def families(m):
        cls = classify_flat_b(m)
        return {mb.family: mb.params for mb in cls.members}, set(cls.intersections)

    fams, _ = families(canonical_model("N1_0+"))
    assert fams == {"B1": (1, 0)}
    fams, _ = families(canonical_model("N1_0-"))
    assert fams == {"B1": (-1, 0)}
    c1 = F(5, 2)
    fams, _ = families(canonical_model("N2_0", [c1]))
    assert fams == {"B3": (c1 - 1, 0)}
    fams, _ = families(canonical_model("N3_0"))
    assert fams == {"B3": (-2, 1)}
    fams, _ = families(canonical_model("N4_0"))
    assert fams == {"B2": (0, 1)}
    # this representative sits on the transversal curve of the two planes
    fams, labels = families(canonical_model("N5_0"))
    assert set(fams) == {"B2", "B3"} and "B2&B3" in labels
    fams, labels = families(canonical_model("N6_0", [1]))
    assert fams == {"B2": (1, 0)} and "B1~&B2" in labels


def test_classify_flat_b_after_shear_pullbacks():
    # the union of the three families is shear-invariant, so every pullback
    # of a flat catalog model must classify
    rng = random.Random(167)
    flat_ids = ["N1_0+", "N1_0-", "N3_0", "N4_0", "N5_0"]
    from affinestrata.law import pullback_type_b

    for entry_id in flat_ids:
        base = canonical_model(entry_id)
        for _ in range(20):
            phi = sampling.rand_shear(rng)
            cls = classify_flat_b(pullback_type_b(base, phi))
            assert cls.members


def test_classify_alt_b_on_catalog_models():
    c = F(3, 2)
    cls = classify_alt_b(canonical_model("N2_alt+", [c]))
    assert [(m.family, m.params) for m in cls.members] == [("D2", (c, 1, c))]
    cls = classify_alt_b(canonical_model("N2_alt-", [c]))
    assert ("D2", (-c, -1, c)) in [(m.family, m.params) for m in cls.members]


def test_classify_flat_b_recovers_families():
    rng = random.Random(101)
    for _ in range(100):
        r, s = sampling.rand_nonzero(rng), sampling.rand_rational(rng)
        cls = classify_flat_b(flat_b_param("U1", (r, s)))
        assert [(m.family, m.params) for m in cls.members] == [("B1", (r, s))]
        u, v = sampling.rand_rational(rng), sampling.rand_rational(rng)
        cls = classify_flat_b(flat_b_param("U2", (u, v)))
        assert ("B2", (u, v)) in [(m.family, m.params) for m in cls.members]
        cls = classify_flat_b(flat_b_param("U3", (u, v)))
        assert ("B3", (u, v)) in [(m.family, m.params) for m in cls.members]


# ---------------------------------------------------------------------------
# alternating Type B families


def test_alt_b_param_examples():
    assert alt_b_param("V1", (1, 0, 3)) == canonical_model("N1_alt", [3])
    m = alt_b_param("V2", (1, 0, 0))
    assert m == type_b(1, 0, 1, 0, 0, 1)
    assert ricci_type_b(m).rows == ((0, 1), (-1, 0))
    with pytest.raises(Exception):
        alt_b_param("V1", (0, 1, 2))


def test_alt_b_param_split():
    rng = random.Random(103)
    for _ in range(100):
        r = sampling.rand_nonzero(rng)
        s, t = sampling.rand_rational(rng), sampling.rand_rational(rng)
        split = split_ricci(ricci_type_b(alt_b_param("V1", (r, s, t))))
        assert split.sym_is_zero() and split.alt == r
        u = sampling.rand_nonzero(rng)
        v, w = sampling.rand_rational(rng), sampling.rand_rational(rng)
        split = split_ricci(ricci_type_b(alt_b_param("V2", (u, v, w))))
        assert split.sym_is_zero() and split.alt == u


def test_classify_alt_b_examples():
    cls = classify_alt_b(canonical_model("N1_alt", [3]))
    assert ("D1", (1, 0, 3)) in [(m.family, m.params) for m in cls.members]
    cls = classify_alt_b(type_b(1, 0, 1, 0, 0, 1))
    assert ("D2", (1, 0, 0)) in [(m.family, m.params) for m in cls.members]
    with pytest.raises(NotInStratumError):
        classify_alt_b(canonical_model("N0_0"))
    with pytest.raises(NotInStratumError):
        classify_alt_b(flat_b_param("U1", (1, 1)))


def test_classify_alt_b_round_trip():
    rng = random.Random(107)
    for _ in range(100):
        r = sampling.rand_nonzero(rng)
        s, t = sampling.rand_rational(rng), sampling.rand_rational(rng)
        cls = classify_alt_b(alt_b_param("V1", (r, s, t)))
        assert ("D1", (r, s, t)) in [(m.family, m.params) for m in cls.members]
        u = sampling.rand_nonzero(rng)
        v, w = sampling.rand_rational(rng), sampling.rand_rational(rng)
        cls = classify_alt_b(alt_b_param("V2", (u, v, w)))
        assert ("D2", (u, v, w)) in [(m.family, m.params) for m in cls.members]


def test_classify_alt_b_intersection_surface():
    rng = random.Random(109)
    for _ in range(50):
        u, w = sampling.rand_nonzero(rng), sampling.rand_rational(rng)
        cls = classify_alt_b(alt_b_param("V2", (u, 0, w)))
        assert sorted(m.family for m in cls.members) == ["D1", "D2"]
        assert "D1&D2" in cls.intersections


# ---------------------------------------------------------------------------
# orbit matchers


def test_match_flat_a_orbit_examples():
    assert match_flat_a_orbit(canonical_model("M0_0"))[0] == "M0_0"
    orbit_id, witness = match_flat_a_orbit(canonical_model("M1_0"))
    assert orbit_id == "M1_0"
    assert witness.matrix == Mat2.identity()
    with pytest.raises(NotFlatError):
        match_flat_a_orbit(canonical_model("M1_1"))


def test_match_flat_a_orbit_generate_recover():
    rng = random.Random(113)
    for orbit_id in ["M0_0", "M1_0", "M2_0", "M3_0", "M4_0", "M5_0"]:
        base = canonical_model(orbit_id)
        for _ in range(40):
            t = sampling.rand_linear_map(rng)
            m = pullback_type_a(base, t)
            got, witness = match_flat_a_orbit(m)
            assert got == orbit_id
            assert pullback_type_a(canonical_model(got), witness) == m


def test_match_rank1_family_generate_recover():
    rng = random.Random(127)
    cases = [("M1_1", ()), ("M2_1", (F(3),)), ("M2_1", (F(-1, 4),)), ("M3_1", (F(-1, 2),)),
             ("M4_1", (F(0),)), ("M4_1", (F(-2),)), ("M5_1", (F(0),)), ("M5_1", (F(5),))]
    for entry_id, params in cases:
        base = canonical_model(entry_id, params)
        for _ in range(25):
            t = sampling.rand_linear_map(rng)
            m = pullback_type_a(base, t)
            family, rec, witness = match_rank1_family(m)
            assert family == entry_id
            assert pullback_type_a(canonical_model(family, rec), witness) == m


def test_match_flat_a_orbit_unmatched_reports_real_orbit():
    # a rational flat model in a canonical orbit without a rational witness:
    # its three transversal root directions are irrational
    m = flat_a_param(circle_from_slope(F(1, 3)), F(2), F(1), F(1))
    assert ricci_type_a(m).is_zero()
    with pytest.raises(UnmatchedOrbitError) as err:
        match_flat_a_orbit(m)
    assert "real orbit of M2_0" in str(err.value)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 0, 0, 0, 2, 1),  # positive scale, j < 4: p^2 = 1/7
        (2, 0, 0, 0, 3, 1),  # positive scale, j < 4: p^2 = 1/23
        (1, 0, 0, 0, -1, 1),  # negative scale: the root of 1 + 4 mu is sqrt(1/5)
    ],
)
def test_match_rank1_family_irrational_parameter(coeffs):
    m = type_a(*coeffs)
    t = LinearMap2(Mat2(((F(1), F(2)), (F(-1), F(3)))))
    for model in (m, pullback_type_a(m, t)):
        with pytest.raises(UnmatchedOrbitError, match="^the family parameter would be irrational$"):
            match_rank1_family(model)


def test_match_rank1_family_candidate_rejected():
    # the read-out picks M5_1(0), but the frame scale to it is sqrt(2/3)
    with pytest.raises(UnmatchedOrbitError) as err:
        match_rank1_family(type_a(F(3, 2), 0, 0, 0, 1, 0))
    assert str(err.value) == (
        "candidate family M5_1 rejected: equivalent over the reals, but the frame "
        "scale is the irrational sqrt(2/3)"
    )


def test_match_rank1_family_mirror_parameter():
    # the second family identifies c1 with -1 - c1; the canonical pick is the
    # larger root
    m = canonical_model("M2_1", [F(-3, 4)])
    family, rec, witness = match_rank1_family(m)
    assert family == "M2_1"
    assert rec == (F(-1, 4),)
    assert pullback_type_a(canonical_model("M2_1", rec), witness) == m


# ---------------------------------------------------------------------------
# transversality


def _difference_jacobian(fn, arity, point, h=F(1, 7)):
    """Independent derivative oracle: Richardson-extrapolated central
    differences, exact for coordinate polynomials of degree <= 4."""
    cols = []
    for k in range(arity):
        def shifted(step):
            moved = list(point)
            moved[k] = moved[k] + step
            return fn(moved)
        d_h = [(a - b) / (2 * h) for a, b in zip(shifted(h), shifted(-h))]
        d_2h = [(a - b) / (4 * h) for a, b in zip(shifted(2 * h), shifted(-2 * h))]
        cols.append([(4 * x - y) / 3 for x, y in zip(d_h, d_2h)])
    return [[cols[k][i] for k in range(arity)] for i in range(6)]


def _flat_a_slope_column(point):
    """The slope partials of the flat chart, a rational map, by the chain
    rule through its circle point (c, s) = ((1 - x^2), 2x) / (1 + x^2), whose
    derivative is (-4x, 2 (1 - x^2)) / (1 + x^2)^2; the coefficients are
    polynomial in (c, s)."""
    x, r, s, t = point
    den = 1 + x * x
    circle = [(1 - x * x) / den, 2 * x / den]
    inner = _difference_jacobian(lambda cs: flat_a_coeffs(cs[0], cs[1], r, s, t), 2, circle)
    dc, ds = -4 * x / (den * den), 2 * (1 - x * x) / (den * den)
    return [row[0] * dc + row[1] * ds for row in inner]


def test_jacobian_matches_difference_oracle():
    """Every family's exact Jacobian, read off its build over the dual
    numbers, against the difference oracle on the family's plain formula, at
    points with nonzero parameters (so no shift reaches the flat chart's cone
    point); the flat chart's slope column divides by a dual number and is
    checked against the chain rule."""
    rng = random.Random(137)
    for entry in COEFF_FAMILIES.values():
        arity, plain = entry.arity, FAMILY_BUILDS[entry.entry_id]
        for _ in range(4):
            point = [sampling.rand_nonzero(rng) for _ in range(arity)]
            expected = _difference_jacobian(plain, arity, point)
            if entry.entry_id == "flat_a":
                for row, d_slope in zip(expected, _flat_a_slope_column(point)):
                    row[0] = d_slope
            assert jacobian(entry.evaluate, point) == expected, (entry.entry_id, point)
            assert entry.evaluate(point) == tuple(plain(point)), (entry.entry_id, point)
    v2 = COEFF_FAMILIES["V2"]
    point = [F(1), F(0), F(0)]
    assert jacobian(v2.evaluate, point) == _difference_jacobian(FAMILY_BUILDS["V2"], 3, point)
    assert mat_rank(jacobian(v2.evaluate, point)) == 3


def test_tangent_sum_rank_examples():
    assert tangent_sum_rank([("U2", (F(-1), F(0))), ("U3", (F(-1), F(0)))]) == 3
    assert tangent_sum_rank([("V1", (F(1), F(1), F(0))), ("V2", (F(1), F(0), F(0)))]) == 4
    assert tangent_sum_rank([("U2", (F(2), F(5)))]) == 2
    with pytest.raises(ValueError):
        tangent_sum_rank([("U2", (F(1), F(0))), ("U3", (F(1), F(0)))])


def test_tangent_sum_rank_checks_points_as_the_family_model_does():
    """A point that the family's model rejects, for its constraint or its
    arity, raises the model's own CatalogError."""
    for family, point in (("V1", (0, 1, 2)), ("V2", ("0/3", F(1, 2), -1)), ("V1", (1, 2)), ("U2", (1, 2, 3))):
        with pytest.raises(CatalogError) as by_model:
            COEFF_FAMILIES[family].model(point)
        with pytest.raises(CatalogError) as by_rank:
            tangent_sum_rank([("U2", (F(-1), F(0))), (family, point)])
        assert str(by_rank.value) == str(by_model.value)
    assert str(by_rank.value) == "U2 takes 2 parameter(s), got 3"


def test_tangent_sum_rank_along_curves():
    rng = random.Random(131)
    for _ in range(10):
        v = sampling.rand_rational(rng)
        w = sampling.rand_rational(rng)
        assert tangent_sum_rank([("U2", (-1, v)), ("U3", (-1, v))]) == 3
        assert tangent_sum_rank([("U1", (0, -v)), ("U2", (1, v))]) == 3
        assert tangent_sum_rank([("U1_closure", (0, w)), ("U3", (0, 2 * w))]) == 3


# ---------------------------------------------------------------------------
# one registry of families


def test_read_outs_run_their_family_build(monkeypatch):
    """The rank-one read-out and the two Type B memberships run their
    family's registry build, looked up when they run, so no copy of its
    formula can stand in for it."""
    m5 = pullback_type_a(canonical_model("M5_1", (F(2, 3),)), LinearMap2(Mat2(((1, 2), (3, 4)))))
    u1 = flat_b_param("U1", (F(2), F(1, 3)))
    v2 = alt_b_param("V2", (F(1), F(2), F(-1, 2)))
    calls = []

    def counting(registry, entry_id):
        entry = registry[entry_id]

        def build(x, h):
            calls.append(entry_id)
            return entry.build(x, h)

        fields = {name: getattr(entry, name) for name in CatalogEntry._fields}
        monkeypatch.setitem(registry, entry_id, CatalogEntry(**{**fields, "build": build}))

    counting(CATALOG, "M5_1")
    counting(COEFF_FAMILIES, "U1")
    counting(COEFF_FAMILIES, "V2")
    assert match_rank1_family(m5)[:2] == ("M5_1", (F(2, 3),))
    assert calls == ["M5_1"]
    calls.clear()
    assert [(mb.family, mb.params) for mb in classify_flat_b(u1).members] == [("B1", (F(2), F(1, 3)))]
    assert calls == ["U1"]
    calls.clear()
    members = [(mb.family, mb.params) for mb in classify_alt_b(v2).members]
    assert members == [("D2", (F(1), F(2), F(-1, 2)))]
    assert calls == ["V2"]


# ---------------------------------------------------------------------------
# one membership record


def test_membership_is_an_integer_form_record():
    """A membership holds its parameters' integers in lowest terms; its
    repr, hash and equality are those of the record (family, params), and
    ``strata`` still binds the name."""
    member = FamilyMembership.of_integers((12, 2), 6, "B1")
    assert member.integer_form == ((6, 1), 3)
    assert member == FamilyMembership("B1", (F(2), F(1, 3))) != FamilyMembership("B2", (F(2), F(1, 3)))
    assert repr(member) == "FamilyMembership(family='B1', params=(Fraction(2, 1), Fraction(1, 3)))"
    assert hash(member) == hash(("B1", (F(2), F(1, 3))))
    assert member.to_dict() == {"family": "B1", "params": ["2", "1/3"]}
    assert pickle.loads(pickle.dumps(member)) == member
    assert FamilyMembership.of_integers((1,), -2, "M3_1").params == (F(-1, 2),)
    assert FamilyMembership.of_integers((), 1, "M1_1").to_dict() == {"family": "M1_1", "params": []}
    assert strata.FamilyMembership is FamilyMembership


def test_rank1_read_out_returns_the_membership():
    """The rank-one read-out reports the membership at the integers its
    family build was checked at, and the verified witness."""
    base = canonical_model("M5_1", (F(2, 3),))
    m = pullback_type_a(base, LinearMap2(Mat2(((1, 2), (3, 4)))))
    member, witness = _match_rank1_reduced(m, *_rank1_frame(m, ricci_type_a(m)))
    assert member == FamilyMembership("M5_1", (F(2, 3),))
    assert pullback_type_a(base, witness) == m


def _draw(rng, height, nonzero=False):
    while True:
        x = F(rng.randint(-height, height), rng.randint(1, height))
        if x != 0 or not nonzero:
            return x


def _read_out_inputs(rng, height):
    """Points of the six Type B families and the three intersection curves,
    and rank-one catalog pullbacks, at one height."""
    flat = [flat_b_param(f, (_draw(rng, height), _draw(rng, height))) for f in ("U1", "U2", "U3", "U1_closure")]
    v, w = _draw(rng, height), _draw(rng, height)
    flat += [type_b(-1, v, 0, 0, 0, 0), type_b(1, v, 0, 0, 0, 0), type_b(0, 2 * w, 0, 1, 0, 0)]
    alt = [alt_b_param(f, (_draw(rng, height, True), _draw(rng, height), _draw(rng, height))) for f in ("V1", "V2")]
    rank1 = []
    for entry_id in ("M1_1", "M2_1", "M3_1", "M4_1", "M5_1"):
        while True:
            try:
                base = canonical_model(entry_id, [_draw(rng, height) for _ in range(CATALOG[entry_id].arity)])
                break
            except CatalogError:
                pass
        while True:
            rows = [[_draw(rng, height) for _ in range(2)] for _ in range(2)]
            if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
                break
        m = pullback_type_a(base, LinearMap2(Mat2(rows)))
        rank1.append((m, *_rank1_frame(m, ricci_type_a(m))))
    return flat, alt, rank1


def test_read_outs_make_no_fraction(fractions_made, monkeypatch):
    """The Type B memberships and the rank-one read-out build every
    membership from the model's integers: no Fraction is constructed on the
    way (``fractions_made``), at heights 1, 12 and 10^6."""
    rng = random.Random(24)
    inputs = [_read_out_inputs(rng, height) for height in (1, 12, 10**6)]
    fractions_made.clear()
    members = []
    for flat, alt, rank1 in inputs:
        members += [mb for m in flat for mb in _classify_flat_b(m).members]
        members += [mb for m in alt for mb in _classify_alt_b(m).members]
        members += [_match_rank1_reduced(*args)[0] for args in rank1]
    assert fractions_made == []
    monkeypatch.undo()
    assert all(type(mb) is FamilyMembership for mb in members) and len(members) >= 3 * 14
    assert {mb.family for mb in members} >= {"B1", "B2", "B3", "B1closure", "D1", "D2", "M1_1", "M5_1"}
