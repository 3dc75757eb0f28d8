from fractions import Fraction

import pytest
import affinestrata
from affinestrata import classify, group_action, models, strata

from spans import Tracer


def _span(tracer, name, start, end, parent):
    tracer.name.append(tracer._id(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    _span(tracer, "outer", 0, 100, -1)
    _span(tracer, "mid", 10, 40, 0)
    _span(tracer, "leaf", 20, 30, 1)
    _span(tracer, "leaf", 50, 70, 0)
    _span(tracer, "outer", 200, 210, -1)
    assert tracer.self_times() == {"outer": (2, 100 - 30 - 20 + 10), "mid": (1, 20), "leaf": (2, 30)}
    assert sum(ns for _, ns in tracer.self_times().values()) == 100 + 10


def test_installed_wraps_every_binding_and_restores():
    tracer = Tracer()
    tracer.bind(affinestrata)
    original = group_action.transform_coeffs
    with tracer.installed():
        assert group_action.transform_coeffs is not original
        # strata imports ricci_type_a by name; that binding is wrapped too
        assert strata.ricci_type_a is affinestrata.curvature.ricci_type_a
        report = classify.classify_model(models.parse_model('{"type": "A", "coeffs": ["0", "0", "1", "0", "0", "2"]}'))
    assert group_action.transform_coeffs is original
    assert report.orbit["id"] == "M4_1"
    calls = {name: calls for name, (calls, _) in tracer.self_times().items()}
    assert calls["classify.classify_model"] == 1
    assert calls["models.parse_model"] == 1
    assert calls["strata.match_rank1_family"] == 1
    assert calls["curvature.ricci_type_a"] >= 2
    assert calls["group_action.solve_equivalence_a.rank2"] == 0
    # every span nests inside the single top-level call
    tops = [i for i, parent in enumerate(tracer.parent) if parent < 0]
    assert len(tops) == 2  # parse_model, then classify_model
    total = sum(tracer.end[i] - tracer.start[i] for i in tops)
    assert sum(ns for _, ns in tracer.self_times().values()) == total


def test_solve_equivalence_a_spans_split_by_stratum():
    tracer = Tracer()
    tracer.bind(affinestrata)
    flat = models.canonical_model("M1_0")
    with tracer.installed():
        group_action.solve_equivalence_a(flat, flat)
    calls = {name: calls for name, (calls, _) in tracer.self_times().items()}
    assert calls["group_action.solve_equivalence_a.flat"] == 1
    assert calls["group_action.solve_equivalence_a.rank1"] == 0


def test_error_counter_counts_raised_spans():
    tracer = Tracer()
    tracer.bind(affinestrata)
    # a flat model in the real orbit of M5_0 with no rational witness
    m = models.type_a(*(Fraction(x) for x in ("5040/2197", "-6048/2197", "36/13", "2520/2197", "-15/13", "7134/2197")))
    with tracer.installed():
        with pytest.raises(strata.UnmatchedOrbitError):
            strata.match_flat_a_orbit(m)
        strata.match_flat_a_orbit(models.canonical_model("M4_0"))
    metrics = tracer.metrics()
    assert metrics["strata.match_flat_a_orbit.calls"][0] == 2
    assert metrics["strata.match_flat_a_orbit.unmatched"][0] == 1
