"""The catalog and family builds against their plain forms.

Every :class:`~affinestrata.models.CatalogEntry` builds its model from the
parameters' numerators over one denominator, and ``flat_a_param`` from the
numerators of its circle point and of (r, s, t).  Each is checked here
against the plain ring expression in the parameters themselves
(``references.FAMILY_BUILDS``, ``references.flat_a_coeffs``) and the plain
constraint (``references.FAMILY_CHECKS``), model for model and error text
for error text, at heights 1, 12 and 10^6 and at the constraint boundaries.
The builds, and the circle point of a slope with its half-turn and its
rotation, also make no ``Fraction`` from ``Fraction`` or int inputs.
"""

import random
from fractions import Fraction as F

import pytest

from affinestrata.exact import CirclePoint, circle_from_slope, rational
from affinestrata.models import CATALOG, CatalogError, TypeAModel, TypeBModel, canonical_model
from affinestrata.strata import (
    COEFF_FAMILIES,
    ConePointError,
    alt_b_param,
    flat_a_param,
    flat_b_param,
    rank1_chart_forward,
)
import references

ENTRIES = [*CATALOG.values(), *COEFF_FAMILIES.values()]
HEIGHTS = (1, 12, 10**6)


def _outcome(build):
    """The model ``build()`` returns, or the type and text of its error."""
    try:
        return build()
    except (CatalogError, ConePointError) as exc:
        return (type(exc).__name__, str(exc))


def _plain(entry, params):
    """The outcome of the plain build of ``entry`` at ``params``."""
    check = references.FAMILY_CHECKS.get(entry.entry_id)
    violation = None if check is None else check(*params)
    if violation is not None:
        return ("CatalogError", f"{entry.entry_id}: {violation}")
    cls = TypeAModel if entry.model_type == "A" else TypeBModel
    return _outcome(lambda: cls(*references.FAMILY_BUILDS[entry.entry_id](params)))


def test_every_entry_has_a_plain_build():
    assert set(references.FAMILY_BUILDS) == {e.entry_id for e in ENTRIES}
    assert set(references.FAMILY_CHECKS) <= set(references.FAMILY_BUILDS)


@pytest.mark.parametrize("height", HEIGHTS)
def test_builds_equal_the_plain_builds(height):
    """Random parameters, given as Fractions, as rational strings and (when
    integral) as ints, build the model of the plain form or raise its
    error."""
    rng = random.Random(height)
    for entry in ENTRIES:
        for _ in range(60):
            params = [references.rand_rational(rng, height) for _ in range(entry.arity)]
            expected = _plain(entry, params)
            assert _outcome(lambda: entry.model(params)) == expected, (entry.entry_id, params)
            assert _outcome(lambda: entry.model([str(p) for p in params])) == expected
            mixed = [int(p) if p.denominator == 1 else p for p in params]
            assert _outcome(lambda: entry.model(mixed)) == expected


#: parameters on and beside each constraint's boundary, and the flat chart's
#: cone point
BOUNDARIES = {
    "M2_1": [0, -1, "-1", F(-3, 3), F(-1, 10**6), F(-999999, 10**6), F(-1000001, 10**6), "2/4"],
    "M3_1": [0, -1, F(0, 7), F(1, 10**6), F(-1, 2)],
    "N6_0": [0, -1, "-2/2", F(-1, 3), 10**6],
    "N2_0": [0, "0/5", F(1, 10**6), -1],
    "N2_alt+": [0, F(-1, 10**6), F(1, 10**6), -1, 1],
    "N2_alt-": [0, "-1/1000000", F(1, 10**6), 7],
}


def test_constraint_boundaries():
    for entry_id, values in BOUNDARIES.items():
        entry = CATALOG[entry_id]
        for value in values:
            assert _outcome(lambda: entry.model([value])) == _plain(entry, [rational(value)]), (
                entry_id,
                value,
            )
    for family in ("V1", "V2"):
        entry = COEFF_FAMILIES[family]
        for point in ([0, 1, 2], [F(0, 3), F(1, 2), -1], [F(1, 10**6), 0, 0], [-1, 0, 0]):
            assert _outcome(lambda: entry.model(point)) == _plain(entry, [F(p) for p in point])
    assert _outcome(lambda: CATALOG["M2_1"].model([-1])) == ("CatalogError", "M2_1: parameter must avoid 0 and -1")
    assert _outcome(lambda: CATALOG["N2_alt+"].model([0])) == ("CatalogError", "N2_alt+: parameter must be positive")
    assert _outcome(lambda: COEFF_FAMILIES["V2"].model([0, 1, 1])) == (
        "CatalogError",
        "V2: zero leading parameter lands in the flat stratum",
    )
    assert _outcome(lambda: CATALOG["M5_1"].model([1, 2])) == ("CatalogError", "M5_1 takes 1 parameter(s), got 2")
    flat_a = COEFF_FAMILIES["flat_a"]
    cone = ("ConePointError", "the chart is singular at (r, s, t) = 0")
    assert _outcome(lambda: flat_a.model([F(2, 3), 0, 0, 0])) == cone == _plain(flat_a, [F(2, 3), 0, 0, 0])


@pytest.mark.parametrize("height", HEIGHTS)
def test_flat_a_param_equals_the_plain_chart(height):
    rng = random.Random(height + 1)
    for _ in range(200):
        theta = references.rand_circle(rng, height)
        r, s, t = (references.rand_rational(rng, height) for _ in range(3))
        expected = _outcome(lambda: TypeAModel(*references.flat_a_coeffs(theta.c, theta.s, r, s, t)))
        assert _outcome(lambda: flat_a_param(theta, r, s, t)) == expected, (theta, r, s, t)
        assert _outcome(lambda: flat_a_param(theta, str(r), str(s), str(t))) == expected


def _antipodal_chart(slope, r, s, t):
    """The flat chart at the half-turn of a slope's circle point."""
    return flat_a_param(circle_from_slope(slope).antipode(), r, s, t)


def _build_calls():
    """One call of each family builder, and of the circle point of a slope
    with its half-turn and its rotation, on Fraction and on int inputs, as
    (builder, arguments), with every argument built here."""
    theta = CirclePoint(F(-5, 13), F(12, 13))
    calls = []
    for entry in CATALOG.values():
        calls.append((canonical_model, (entry.entry_id, [F(3, 7)] * entry.arity)))
        calls.append((canonical_model, (entry.entry_id, [2] * entry.arity)))
    for family in ("U1", "U2", "U3", "U1_closure"):
        calls.append((flat_b_param, (family, (F(-5, 4), F(2, 9)))))
        calls.append((flat_b_param, (family, (3, -1))))
    for family in ("V1", "V2"):
        calls.append((alt_b_param, (family, (F(1, 2), F(-3, 5), F(7, 11)))))
        calls.append((alt_b_param, (family, (2, 0, -3))))
    calls.append((rank1_chart_forward, (F(1, 2), F(-2, 3), F(3, 4), F(5, 6))))
    calls.append((rank1_chart_forward, (1, 2, 3, 4)))
    calls.append((flat_a_param, (theta, F(1, 3), F(-2, 5), F(3, 7))))
    calls.append((flat_a_param, (theta, 1, 0, -2)))
    for slope in (F(-2, 3), 5):
        calls.append((circle_from_slope, (slope,)))
        calls.append((lambda x: circle_from_slope(x).rotation(), (slope,)))
        calls.append((_antipodal_chart, (slope, F(1, 3), -2, F(3, 7))))
    return calls


def test_builds_make_no_fraction(fractions_made):
    """The builders read their Fraction and int inputs as integers and build
    the model with one gcd: no Fraction is constructed on the way
    (``fractions_made``)."""
    calls = _build_calls()
    fractions_made.clear()
    models = [build(*args) for build, args in calls]
    assert fractions_made == []
    assert len(models) == len(calls) == 2 * len(CATALOG) + 22
