"""Each check of ``verify_theorems`` can fail: with the engine call it
exercises broken, the check reports a counterexample that names its case.

A fault replaces one name as ``affinestrata.classify`` binds it, so only the
harness sees the broken call.  One fault per check id, and one per row of
each table a check reads (the isotropy cases, the flat Type B families and
curves, the alternating families, the rank-one families and the two
actions), so a row that the harness silently skipped would pass its check
and fail here.
"""

import pytest

from affinestrata import classify
from affinestrata.classify import CHECKS, verify_theorems
from affinestrata.curvature import Ricci2, ricci_type_b
from affinestrata.exact import LinearMap2, Mat2
from affinestrata.group_action import IsotropyGroup
from affinestrata.models import TypeAModel, TypeBModel, canonical_model
from affinestrata.strata import TypeBMembership


def _drop_last_membership(real):
    def faulty(m):
        cls = real(m)
        return TypeBMembership(cls.members[:-1], cls.intersections)

    return faulty


def _drop_finite_element(real):
    def faulty(m):
        group = real(m)
        return IsotropyGroup(group.finite_elements[:-1], group.families)

    return faulty


def _swap_ricci_diagonal(real):
    def faulty(m):
        r = real(m)
        (n11, n12, n21, n22), den = r.integer_form
        return Ricci2.of_integers((n22, n12, n21, n11), den, r.cleared)

    return faulty


def _doubled_model(real):
    def faulty(*point):
        nums, den = real(*point).integer_form
        return TypeAModel.of_integers([2 * n for n in nums], den)

    return faulty


def _identity_witness(real):
    return lambda m: (real(m)[0], LinearMap2(Mat2.identity()))


#: check id -> (the name faulted in classify, the fault, text the counterexample must hold)
FAULTS = {
    "flat_a_parametrization": ("is_flat_a", lambda real: lambda m: False, "sample 0: parametrized model is not flat"),
    "flat_b_strata": ("classify_flat_b", _drop_last_membership, "U1 sample 0"),
    "alt_b_strata": ("classify_alt_b", _drop_last_membership, "V1 sample 0"),
    "ricci_line_reduction": ("ricci_type_a", _swap_ricci_diagonal, "reduced sample 0"),
    "isotropy_catalog": ("isotropy_type_a", _drop_finite_element, "M1_0(None): finite elements"),
    "rank1_families": ("admits_type_b", lambda real: lambda m: True, "M5_1("),
    "rank1_chart_identity": ("rank1_chart_forward", _doubled_model, "chart identity failed at sample"),
    "orbit_recovery": ("match_flat_a_orbit", _identity_witness, "M1_0 sample 0: witness failed"),
    "action_laws": ("negate_model", lambda real: lambda m: m, "A negation law failed at sample 0"),
}


def test_every_check_has_a_fault():
    assert set(FAULTS) == set(CHECKS)


def _failing_result(check_id, samples=10):
    (result,) = verify_theorems(1, samples, [check_id]).results
    assert result.passed is False and result.samples_used == 0
    return result.counterexample


@pytest.mark.parametrize("check_id", sorted(FAULTS))
def test_each_check_reports_its_fault(check_id, monkeypatch):
    name, fault, names_case = FAULTS[check_id]
    monkeypatch.setattr(classify, name, fault(getattr(classify, name)))
    assert names_case in _failing_result(check_id)


def test_a_repeated_finite_element_fails(monkeypatch):
    real = classify.isotropy_type_a

    def repeated(m):
        group = real(m)
        return IsotropyGroup(group.finite_elements + group.finite_elements[-1:], group.families)

    monkeypatch.setattr(classify, "isotropy_type_a", repeated)
    assert _failing_result("isotropy_catalog").startswith("M1_0(None): finite elements")


def test_the_isotropy_table_holds_the_described_cases():
    # "the 6 flat and 8 rank-one catalog cases" of the check's description
    ids = [case[0] for case in classify._ISOTROPY_CASES]
    assert len(ids) == 14 and sum(entry_id.endswith("_0") for entry_id in ids) == 6


@pytest.mark.parametrize("case", classify._ISOTROPY_CASES, ids=lambda case: f"{case[0]}({case[1]})")
def test_each_isotropy_case_is_checked(case, monkeypatch):
    entry_id, param = case[:2]
    target = canonical_model(entry_id, () if param is None else (param,))
    real = classify.orbit_dimension_a
    monkeypatch.setattr(classify, "orbit_dimension_a", lambda m: -1 if m == target else real(m))
    assert _failing_result("isotropy_catalog", 1).startswith(f"{entry_id}({param}): orbit dimension")


@pytest.mark.parametrize("moved, says", [(False, "not flat"), (True, "recovery returned")])
@pytest.mark.parametrize("family", ["U1", "U2", "U3", "U1_closure"])
def test_each_flat_b_family_is_checked(family, moved, says, monkeypatch):
    """One family at a time builds a curved model, or a point of the family
    moved off the membership its parameters expect."""
    curved = TypeBModel(1, 0, 0, 0, 0, 1)
    assert not ricci_type_b(curved).is_zero()
    real = classify.flat_b_param

    def faulty(fam, params):
        if fam != family:
            return real(fam, params)
        return real(fam, (params[0], params[1] + 1)) if moved else curved

    monkeypatch.setattr(classify, "flat_b_param", faulty)
    counterexample = _failing_result("flat_b_strata")
    assert counterexample.startswith(f"{family} sample ") and says in counterexample


@pytest.mark.parametrize("curve", ["B2&B3", "B1~&B2", "B1~&B3"])
def test_each_intersection_curve_is_checked(curve, monkeypatch):
    real = classify.classify_flat_b

    def faulty(m):
        cls = real(m)
        return TypeBMembership(cls.members, tuple(label for label in cls.intersections if label != curve))

    monkeypatch.setattr(classify, "classify_flat_b", faulty)
    assert _failing_result("flat_b_strata").startswith(f"curve {curve} sample 0 misclassified")


@pytest.mark.parametrize("family", ["V1", "V2"])
def test_each_alternating_family_is_checked(family, monkeypatch):
    real = classify.alt_b_param

    def faulty(fam, params):  # doubles the leading parameter, which the alternating part must equal
        return real(fam, (2 * params[0], *params[1:]) if fam == family else params)

    monkeypatch.setattr(classify, "alt_b_param", faulty)
    assert _failing_result("alt_b_strata").startswith(f"{family} sample 0: split is")


@pytest.mark.parametrize("entry_id", ["M1_1", "M2_1", "M3_1", "M4_1", "M5_1"])
def test_each_rank1_family_is_checked(entry_id, monkeypatch):
    real = classify.canonical_model
    doubled = _doubled_model(real)
    faulty = lambda eid, params=(): (doubled if eid == entry_id else real)(eid, params)
    monkeypatch.setattr(classify, "canonical_model", faulty)
    assert _failing_result("rank1_families").startswith(f"{entry_id}(")


@pytest.mark.parametrize("kind", ["A", "B"])
def test_each_action_is_checked(kind, monkeypatch):
    name = f"ricci_type_{kind.lower()}"
    monkeypatch.setattr(classify, name, _swap_ricci_diagonal(getattr(classify, name)))
    assert _failing_result("action_laws").startswith(f"{kind} Ricci naturality failed")
