import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinestrata.classify import admits_type_b, classify_model, verify_theorems
from affinestrata.exact import LinearMap2, Mat2, ShearMap
from affinestrata.law import pullback_type_a, pullback_type_b
from affinestrata.group_action import UndecidedError, solve_equivalence_b
from affinestrata.models import (
    CATALOG,
    CatalogError,
    TypeAModel,
    canonical_model,
    parse_model,
    serialize_model,
    type_a,
    type_b,
)
from affinestrata.strata import COEFF_FAMILIES, ConePointError, NotRank1Error
from affinestrata import sampling


def test_classify_flat_example():
    report = classify_model(canonical_model("M1_0"))
    assert report.flags["primary"] == "flat"
    assert report.orbit["id"] == "M1_0"
    assert report.errors == {}


def test_classify_alternating_example():
    report = classify_model(type_b(1, 0, 1, 0, 0, 1))
    assert report.flags["primary"] == "alternating_only"
    members = {m["family"]: m["params"] for m in report.stratum["members"]}
    assert members["D2"] == ["1", "0", "0"]


def test_classify_cone_point():
    report = classify_model(canonical_model("M0_0"))
    assert report.flags["primary"] == "cone_point"
    assert report.stratum["kind"] == "cone_point"
    assert report.orbit["id"] == "M0_0"


def test_classify_rank1_and_rank2():
    report = classify_model(canonical_model("M2_1", [F(-1, 2)]))
    assert report.flags["primary"] == "rank1_negative"
    assert report.orbit["id"] == "M2_1"
    assert report.admits_type_b is True
    report = classify_model(canonical_model("M5_1", [2]))
    assert report.admits_type_b is False
    report = classify_model(type_a(0, 1, 0, 0, 1, 0))
    assert report.stratum["kind"] == "rank2"
    assert report.admits_type_b is None


def test_classify_type_b_flat():
    report = classify_model(type_b(2, -2, 1, -1, 1, -1))
    assert report.stratum["kind"] == "flat_families"
    assert report.stratum["members"] == [{"family": "B1", "params": ["1", "1"]}]
    report = classify_model(type_b(0, 0, 0, 0, 0, 0))
    assert report.flags["primary"] == "cone_point"


def test_classify_embeds_chart_errors():
    # flat model whose chart needs an irrational circle point
    report = classify_model(canonical_model("M2_0"))
    assert "flat_chart" in report.errors
    assert report.orbit["id"] == "M2_0"  # orbit matching still succeeds


def test_classify_invariant_under_reserialization():
    rng = random.Random(139)
    for _ in range(20):
        m = sampling.rand_model_a(rng)
        again = parse_model(json.dumps(serialize_model(m)))
        assert classify_model(m).to_dict() == classify_model(again).to_dict()


def test_admits_type_b():
    assert admits_type_b(canonical_model("M2_1", [F(-1, 2)])) is True
    assert admits_type_b(canonical_model("M4_1", [0])) is True
    assert admits_type_b(canonical_model("M5_1", [1])) is False
    with pytest.raises(NotRank1Error):
        admits_type_b(canonical_model("M1_0"))


def test_classify_rank1_reports_the_rejected_candidate():
    """The read-out names M5_1(0), whose frame scale sqrt(2/3) is irrational;
    the report carries the reason and no orbit."""
    report = classify_model(type_a("3/2", 0, 0, 0, 1, 0))
    assert report.stratum["kind"] == "rank1" and report.orbit is None
    assert report.errors == {
        "orbit": "candidate family M5_1 rejected: equivalent over the reals, but the "
        "frame scale is the irrational sqrt(2/3)"
    }
    with pytest.raises(UndecidedError):
        admits_type_b(type_a("3/2", 0, 0, 0, 1, 0))


def test_admits_type_b_after_pullback():
    rng = random.Random(149)
    for entry_id, params, expected in [
        ("M1_1", (), True),
        ("M3_1", (F(2),), True),
        ("M5_1", (F(-3),), False),
    ]:
        base = canonical_model(entry_id, params)
        for _ in range(10):
            t = sampling.rand_linear_map(rng)
            assert admits_type_b(pullback_type_a(base, t)) is expected


def test_negative_rank1_catalog_is_second_or_third_family():
    rng = random.Random(151)
    for _ in range(50):
        c1 = sampling.rand_rational(rng)
        if c1 in (0, -1):
            continue
        scale = c1 * (1 + c1)
        if scale < 0:
            assert -1 < c1 < 0


def test_verify_theorems_small_run_passes():
    report = verify_theorems(seed=3, samples=5)
    assert report.all_passed, [r.counterexample for r in report.results if not r.passed]
    assert len(report.results) == 9


def test_verify_theorems_deterministic():
    a = verify_theorems(seed=2, samples=4).to_dict()
    b = verify_theorems(seed=2, samples=4).to_dict()
    assert a == b
    c = verify_theorems(seed=5, samples=4).to_dict()
    assert c["all_passed"]


def test_verify_theorems_check_filter():
    report = verify_theorems(seed=1, samples=2, checks=["action_laws"])
    assert len(report.results) == 1
    assert report.results[0].check_id == "action_laws"
    with pytest.raises(ValueError):
        verify_theorems(seed=1, samples=2, checks=["nope"])
    with pytest.raises(ValueError):
        verify_theorems(seed=1, samples=0)


def test_verify_theorems_refuses_an_empty_selection():
    # an empty selection would report no checks and pass vacuously
    with pytest.raises(ValueError, match="no check ids"):
        verify_theorems(1, 5, [])


def test_verify_theorems_runs_each_selected_check_once():
    report = verify_theorems(1, 3, ["action_laws", "ricci_line_reduction", "action_laws"])
    assert [r.check_id for r in report.results] == ["action_laws", "ricci_line_reduction"]
    assert report == verify_theorems(1, 3, ["action_laws", "ricci_line_reduction"])


def test_verify_theorems_minimal_sampling():
    report = verify_theorems(seed=2, samples=1)
    assert report.all_passed


def test_verify_theorems_checks_are_order_independent():
    # per-check streams derive from (seed, check id), so a check run alone
    # reports exactly what it reports inside the full suite
    full = {r.check_id: r.to_dict() for r in verify_theorems(seed=4, samples=3).results}
    alone = verify_theorems(seed=4, samples=3, checks=["orbit_recovery"]).results[0]
    assert alone.to_dict() == full["orbit_recovery"]


def _scalars(height):
    return st.one_of(
        st.just(F(0)),
        st.integers(-height, height).map(F),
        st.builds(F, st.integers(-height, height), st.integers(1, height)),
    )


def _entry_model(entry, params):
    try:
        return entry.model(params)
    except (CatalogError, ConePointError):
        assume(False)


def _type_a_models(height):
    """The zero model, catalog models (every flat orbit and rank-one family),
    flat chart points, reduced models (b = d = 0) and random models, each
    also pulled back once."""
    entries = [e for e in CATALOG.values() if e.model_type == "A"] + [COEFF_FAMILIES["flat_a"]]
    entry_models = st.sampled_from(entries).flatmap(
        lambda e: st.lists(_scalars(height), min_size=e.arity, max_size=e.arity).map(
            lambda params, e=e: _entry_model(e, params)
        )
    )
    sextuples = st.lists(_scalars(height), min_size=6, max_size=6)
    base = st.one_of(
        st.just(type_a(0, 0, 0, 0, 0, 0)),
        entry_models,
        sextuples.map(lambda v: TypeAModel(v[0], 0, v[2], 0, v[4], v[5])),
        sextuples.map(lambda v: TypeAModel(*v)),
    )
    return st.one_of(base, st.tuples(base, _maps(height)).map(lambda pair: pullback_type_a(*pair)))


def _maps(height):
    random_maps = st.lists(_scalars(height), min_size=4, max_size=4).filter(
        lambda t: t[0] * t[3] != t[1] * t[2]
    ).map(lambda t: LinearMap2(Mat2(((t[0], t[1]), (t[2], t[3])))))
    return st.one_of(st.just(LinearMap2.identity()), random_maps)


@pytest.mark.parametrize("height", [12, 10**6])
def test_classification_is_invariant_under_pullback(height):
    """classify_model(pullback_type_a(m, T)) reports the flags, rank and
    signature, stratum kind, and orbit id and parameters of
    classify_model(m): each is an orbit invariant, and a rational witness
    to a canonical model exists for m exactly when one exists for its
    pullback."""
    kinds = set()

    @settings(max_examples=150, deadline=None)
    @given(_type_a_models(height), _maps(height))
    def check(m, t):
        before, after = classify_model(m), classify_model(pullback_type_a(m, t))
        assert after.flags == before.flags
        assert after.rank_data == before.rank_data
        assert after.stratum["kind"] == before.stratum["kind"]
        assert (after.orbit is None) == (before.orbit is None)
        if before.orbit is not None:
            assert (after.orbit["id"], after.orbit["params"]) == (before.orbit["id"], before.orbit["params"])
        kinds.add(before.stratum["kind"])

    check()
    assert kinds == {"cone_point", "flat_chart", "rank1", "rank2"}


def _draw(rng, height, nonzero=False):
    while True:
        x = F(rng.randint(-height, height), rng.randint(1, height))
        if x != 0 or not nonzero:
            return x


def _entry_points(rng, entry, height, count=3):
    """``count`` models of a catalog or family entry at random parameters
    that meet its constraint."""
    points = []
    while len(points) < count:
        try:
            points.append(entry.model([_draw(rng, height) for _ in range(entry.arity)]))
        except (CatalogError, ConePointError):
            pass
    return points


def _invertible(rng, height):
    while True:
        rows = [[_draw(rng, height) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
            return LinearMap2(Mat2(rows))


@pytest.mark.parametrize("height", [12, 10**6])
def test_classify_and_the_shear_solver_make_no_fraction(height, fractions_made, monkeypatch):
    """``classify_model`` and its document, on pullbacks of every flat orbit
    and rank-one family and on points of every Type B family, and
    ``solve_equivalence_b`` on pairs built equivalent, construct no
    Fraction: the split's alternating entry, the flat chart and the shears
    are integer forms, and every answer is written from integers."""
    rng = random.Random(27)
    type_a_entries = [e for e in CATALOG.values() if e.model_type == "A"]
    type_b_entries = [e for e in [*CATALOG.values(), *COEFF_FAMILIES.values()] if e.model_type == "B"]
    flat_orbits, rank1_families = {f"M{k}_0" for k in range(6)}, {f"M{k}_1" for k in range(1, 6)}
    assert {e.entry_id for e in type_a_entries} == flat_orbits | rank1_families
    bases = [m for e in type_a_entries for m in _entry_points(rng, e, height)]
    models = [pullback_type_a(m, _invertible(rng, height)) for m in bases]
    # flat chart points with r = 0, whose circle point is read off the double angle
    flat_a = COEFF_FAMILIES["flat_a"]
    for _ in range(3):
        models.append(flat_a.model([_draw(rng, height), 0, _draw(rng, height, True), _draw(rng, height, True)]))
    b_models = [m for e in type_b_entries for m in _entry_points(rng, e, height)]
    shears = [ShearMap(_draw(rng, height, True), _draw(rng, height)) for _ in b_models]
    pairs = [(m, pullback_type_b(m, s)) for m, s in zip(b_models, shears)]
    fractions_made.clear()
    documents = [json.dumps(classify_model(m).to_dict()) for m in models + b_models]
    answers = [solve_equivalence_b(*pair).to_dict() for pair in pairs]
    assert fractions_made == []
    monkeypatch.undo()
    kinds = {json.loads(doc)["stratum"]["kind"] for doc in documents}
    assert {"flat_chart", "rank1"} <= kinds and len(kinds) >= 4
    assert all(answer["status"] == "equivalent" for answer in answers) and len(answers) == 3 * len(type_b_entries)
