"""The seeded corpus: golden digests of classification and equivalence
answers, and checks that each operation computes a model's curvature once
and builds a pullback only where it needs the transformed model.

The corpus is drawn here, with its own generator, so it does not move when
the library's sampling helpers change: catalog pullbacks of every flat orbit
and rank-one family, points of the flat and alternating Type B families,
shear pullbacks of the Type B catalog, and random Type A and Type B models,
at heights 3, 12 and 10^6; and equivalence pairs built equivalent by a
random map or drawn independently.  Each digest is the sha256 of the JSON
answers, one line per input.  To re-pin after a deliberate output change,
print ``_digest(...)`` for both corpora.

The "once" checks put counting wrappers in place of a function in every
``affinestrata`` module namespace that binds it, so calls through any import
are counted, the calls a module makes to its own functions included.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from affinestrata.classify import classify_model
from affinestrata.curvature import curvature_of
from affinestrata.exact import LinearMap2, Mat2, ShearMap
from affinestrata.law import pullback_type_a, pullback_type_b
from affinestrata.group_action import UndecidedError, isotropy_type_a, solve_equivalence_a, solve_equivalence_b
from affinestrata.models import TypeAModel, TypeBModel, canonical_model, parse_model, serialize_model, type_a, type_b
from affinestrata.strata import alt_b_param, flat_b_param

HEIGHTS = (3, 12, 10**6)

FLAT_A = ("M0_0", "M1_0", "M2_0", "M3_0", "M4_0", "M5_0")
RANK1_A = ("M1_1", "M2_1", "M3_1", "M4_1", "M5_1")
CATALOG_B = ("N0_0", "N1_0+", "N1_0-", "N2_0", "N3_0", "N4_0", "N5_0", "N6_0",
             "N1_alt", "N2_alt+", "N2_alt-")
FAMILIES_B = (("U1", 2, flat_b_param), ("U2", 2, flat_b_param), ("U3", 2, flat_b_param),
              ("U1_closure", 2, flat_b_param), ("V1", 3, alt_b_param), ("V2", 3, alt_b_param))

# sha256 of the answers, recorded before the curvature of each model was
# computed once per operation
CLASSIFY_DIGEST = "510c369e298faccd0e0ead8cb00fa6e6a99971611b2ea279375e09b6af9e9941"
EQUIV_DIGEST = "f209a440f1177ebcdcd7696c9bb1472d694ec79de9c6d6a3eab291fa54a4e498"


def _rational(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def _nonzero(rng, height):
    while True:
        x = _rational(rng, height)
        if x != 0:
            return x


def _linear_map(rng, height):
    while True:
        rows = tuple(tuple(_rational(rng, height) for _ in range(2)) for _ in range(2))
        if Mat2(rows).det() != 0:
            return LinearMap2(Mat2(rows))


def _shear(rng, height):
    return ShearMap(_nonzero(rng, height), _rational(rng, height))


def _catalog_params(rng, entry_id, height):
    """Parameters inside the catalog constraints of ``entry_id``."""
    if entry_id in ("M2_1", "M3_1", "N6_0"):
        while True:
            p = _rational(rng, height)
            if p not in (0, -1):
                return (p,)
    if entry_id == "N2_0":
        return (_nonzero(rng, height),)
    if entry_id in ("N2_alt+", "N2_alt-"):
        return (abs(_nonzero(rng, height)),)
    if entry_id in ("M4_1", "M5_1", "N1_alt"):
        return (_rational(rng, height),)
    return ()


def _family_point(rng, name, arity, build, height):
    params = [_rational(rng, height) for _ in range(arity)]
    if build is alt_b_param:
        params[0] = _nonzero(rng, height)
    return build(name, params)


def classify_corpus():
    rng = random.Random("affinestrata golden corpus: classify")
    models = []
    for height in HEIGHTS:
        for entry_id in FLAT_A + RANK1_A:
            for _ in range(4):
                base = canonical_model(entry_id, _catalog_params(rng, entry_id, height))
                models.append(pullback_type_a(base, _linear_map(rng, height)))
        for entry_id in CATALOG_B * 2:
            base = canonical_model(entry_id, _catalog_params(rng, entry_id, height))
            models.append(pullback_type_b(base, _shear(rng, height)))
        for name, arity, build in FAMILIES_B:
            for _ in range(4):
                models.append(_family_point(rng, name, arity, build, height))
        for _ in range(12):
            models.append(TypeAModel(*(_rational(rng, height) for _ in range(6))))
            models.append(TypeBModel(*(_rational(rng, height) for _ in range(6))))
    return models


def equiv_corpus():
    """(kind, m1, m2) triples: each catalog entry pulled back once and paired
    with its source, and with an independent draw from the same entry; the
    same for random models, paired with a pullback and with a second random
    model; and three pairs whose witness scale is forced irrational."""
    rng = random.Random("affinestrata golden corpus: equiv")
    pairs = []
    for height in HEIGHTS:
        for entry_id in (FLAT_A + RANK1_A) * 2:
            base = canonical_model(entry_id, _catalog_params(rng, entry_id, height))
            other = canonical_model(entry_id, _catalog_params(rng, entry_id, height))
            pulled = pullback_type_a(base, _linear_map(rng, height))
            pairs.append(("A", base, pulled))
            pairs.append(("A", pullback_type_a(other, _linear_map(rng, height)), pulled))
        for entry_id in CATALOG_B:
            base = canonical_model(entry_id, _catalog_params(rng, entry_id, height))
            other = canonical_model(entry_id, _catalog_params(rng, entry_id, height))
            pulled = pullback_type_b(base, _shear(rng, height))
            pairs.append(("B", base, pulled))
            pairs.append(("B", pullback_type_b(other, _shear(rng, height)), pulled))
        for _ in range(8):
            m = TypeAModel(*(_rational(rng, height) for _ in range(6)))
            pairs.append(("A", m, pullback_type_a(m, _linear_map(rng, height))))
            pairs.append(("A", m, TypeAModel(*(_rational(rng, height) for _ in range(6)))))
            mb = TypeBModel(*(_rational(rng, height) for _ in range(6)))
            pairs.append(("B", mb, pullback_type_b(mb, _shear(rng, height))))
            pairs.append(("B", mb, TypeBModel(*(_rational(rng, height) for _ in range(6)))))
    # forced irrational scales: undecided, and refuted in Q(sqrt 2)
    pairs.append(("A", type_a(1, 0, 0, 0, 1, 0), type_a(1, 0, 0, 0, 2, 0)))
    pairs.append(("B", type_b(0, 0, 0, 0, 1, 0), type_b(0, 0, 0, 0, 2, 0)))
    pairs.append(("B", type_b(0, 0, 1, 0, 1, 0), type_b(0, 0, 1, 0, 2, 0)))
    return pairs


def _digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc).encode())
        h.update(b"\n")
    return h.hexdigest()


def classify_docs():
    return [classify_model(m).to_dict() for m in classify_corpus()]


def equiv_docs():
    solve = {"A": solve_equivalence_a, "B": solve_equivalence_b}
    return [solve[kind](m1, m2).to_dict() for kind, m1, m2 in equiv_corpus()]


def test_classify_corpus_digest():
    assert _digest(classify_docs()) == CLASSIFY_DIGEST


def test_equiv_corpus_digest():
    assert _digest(equiv_docs()) == EQUIV_DIGEST


# functions whose calls the "once" checks count, as module.function
COUNTED = (
    "curvature.ricci_type_a",
    "curvature.ricci_type_b",
    "curvature.split_ricci",
    "curvature.rank_signature",
    "exact.clear_denominators",
    "frames.rank1_frame",
    "frames._rank1_frame",
    "group_action._isotropy_reduced",
    "law._law",
    "law.orbit_dimension_a",
    "models.canonical_model",
    "polys.binary_cubic_pattern",
)


@pytest.fixture
def counts(monkeypatch):
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "affinestrata"]
    for qualified in COUNTED:
        module_name, fn_name = qualified.split(".")
        original = getattr(sys.modules[f"affinestrata.{module_name}"], fn_name)

        def counted(*args, _original=original, _name=qualified, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_classify_model_computes_curvature_once(counts):
    strata = Counter()
    for m in classify_corpus():
        counts.clear()
        report = classify_model(m)
        ricci = "curvature.ricci_type_a" if m.kind == "A" else "curvature.ricci_type_b"
        assert counts[ricci] == 1, (m, counts)
        assert counts["curvature.split_ricci"] == counts["curvature.rank_signature"] == 1, (m, counts)
        rank1 = report.stratum["kind"] == "rank1"
        assert counts["frames._rank1_frame"] == rank1, (m, counts)
        assert counts["frames.rank1_frame"] == 0, (m, counts)
        # one pullback reduces an unreduced rank-one model; every witness is
        # checked without building a model
        unreduced = rank1 and (m.b != 0 or m.d != 0)
        assert counts["law._law"] == unreduced, (m, counts)
        strata[report.stratum["kind"]] += 1
    assert set(strata) == {
        "cone_point", "flat_chart", "rank1", "rank2",
        "flat_families", "alternating_families", "unstratified",
    }


def test_solve_equivalence_a_computes_curvature_once(counts):
    base = type_a(0, 1, -2, 0, 0, 0)  # degenerate frame: v and its Ricci-normal force T
    t = Mat2(((Fraction(1), Fraction(-2)), (Fraction(3), Fraction(1, 2))))
    swept = pullback_type_a(base, LinearMap2(t))
    pairs = [(m1, m2) for kind, m1, m2 in equiv_corpus() if kind == "A"]
    statuses = Counter()
    rank1_pulls = Counter()
    for m1, m2 in pairs + [(base, swept)]:
        counts.clear()
        statuses[solve_equivalence_a(m1, m2).status] += 1
        assert counts["curvature.ricci_type_a"] == 2, (m1, m2, counts)
        assert counts["curvature.rank_signature"] == 2, (m1, m2, counts)
        assert counts["frames._rank1_frame"] in (0, 2), (m1, m2, counts)
        if counts["frames._rank1_frame"] == 2:
            # one pullback per unreduced frame, none for the witness check
            unreduced = sum(m.b != 0 or m.d != 0 for m in (m1, m2))
            assert counts["law._law"] == unreduced, (m1, m2, counts)
            rank1_pulls[unreduced] += 1
        elif curvature_of(m1).flags.is_flat:
            assert counts["law._law"] == 0, (m1, m2, counts)
    assert set(statuses) == {"equivalent", "not_equivalent", "undecided"}
    assert rank1_pulls[2] > 0


def test_screen_reads_orbit_dimensions_off_normal_forms(counts):
    """The equivalence screen takes no rank: the orbit dimension comes from
    the normal form each stratum's solver computes, and a flat pair computes
    each model's cubic pattern once, for the screen and the matcher both."""
    flat_pairs = 0
    for kind, m1, m2 in equiv_corpus():
        if kind != "A":
            continue
        fl1, fl2 = curvature_of(m1).flags, curvature_of(m2).flags
        counts.clear()
        solve_equivalence_a(m1, m2)
        assert counts["law.orbit_dimension_a"] == 0, (m1, m2)
        both_flat = fl1.is_flat and fl1.primary == fl2.primary
        assert counts["polys.binary_cubic_pattern"] == 2 * both_flat, (m1, m2, counts)
        flat_pairs += both_flat
    assert flat_pairs > 0


def test_matchers_build_no_catalog_model(counts):
    """The orbit matchers check witnesses against catalog coefficients read
    once from the registry, not against a catalog model built per call."""
    models = classify_corpus()
    pairs = [(m1, m2) for kind, m1, m2 in equiv_corpus() if kind == "A"]
    counts.clear()
    for m in models:
        classify_model(m)
    for m1, m2 in pairs:
        solve_equivalence_a(m1, m2)
    assert counts["models.canonical_model"] == 0


def test_pullbacks_per_operation(counts):
    """classify_model reduces an unreduced rank-one model with one pullback
    and builds none for a flat one; a rank-one equivalence pair builds one
    per frame."""
    def map_of(*entries):
        return LinearMap2(Mat2.of(*(Fraction(x) for x in entries)))

    rank1 = pullback_type_a(canonical_model("M2_1", (3,)), map_of(1, 2, -1, 3))
    flat = pullback_type_a(canonical_model("M2_0"), map_of(2, 1, 1, 1))
    for m, pulls in ((rank1, 1), (flat, 0)):
        counts.clear()
        assert classify_model(m).orbit is not None
        assert counts["law._law"] == pulls
    other = pullback_type_a(rank1, map_of(0, 1, 1, 5))
    counts.clear()
    assert solve_equivalence_a(rank1, other).is_equivalent
    assert counts["law._law"] == 2


@pytest.mark.parametrize(
    "entry_id, params",
    [("M0_0", ()), ("M2_0", ()), ("M5_0", ()), ("M4_1", (3,)), ("M5_1", (0,))],
)
def test_isotropy_computes_curvature_at_most_once(counts, entry_id, params):
    isotropy_type_a(canonical_model(entry_id, params))
    assert counts["curvature.ricci_type_a"] <= 1


def test_isotropy_rank2_computes_curvature_once(counts):
    isotropy_type_a(type_a(1, 2, 0, 1, 1, 3))
    assert counts["curvature.ricci_type_a"] == 1
    counts.clear()
    # an unreduced rank-one model: the frame reuses the Ricci tensor
    isotropy_type_a(type_a(Fraction(2, 5), 0, Fraction(1, 5), Fraction(1, 5), 0, Fraction(2, 5)))
    assert counts["curvature.ricci_type_a"] == 1
    counts.clear()
    with pytest.raises(UndecidedError):
        isotropy_type_a(type_a(0, 1, 0, 0, 1, 0))
    assert counts["curvature.ricci_type_a"] == 1


#: exact.clear_denominators calls to parse a model document and classify it,
#: on a matched model, by stratum.  Parsing reads each literal as integers
#: straight into the model's integer form, and pullbacks, frames, triangular
#: maps, witnesses and the rank-one chart point are built from integers, so
#: nothing is cleared on any stratum.
CLEARS_PER_CLASSIFY = {
    "cone_point": 0,
    "flat_chart": 0,
    "rank1": 0,
    "rank1_unreduced": 0,
    "rank2": 0,
    "flat_families": 0,
    "alternating_families": 0,
    "unstratified": 0,
}


def test_classify_model_clears_each_model_once(counts):
    """No kernel on the classify path clears a model's coefficients again:
    the count per report is fixed by the stratum."""
    seen = set()
    for m in classify_corpus():
        doc = serialize_model(m)
        counts.clear()
        report = classify_model(parse_model(doc))
        kind = report.stratum["kind"]
        if kind == "rank1" and (m.b != 0 or m.d != 0):
            kind = "rank1_unreduced"
        assert report.orbit is not None or kind not in ("flat_chart", "rank1", "rank1_unreduced"), m
        assert counts["exact.clear_denominators"] == CLEARS_PER_CLASSIFY[kind], (m, kind, counts)
        seen.add(kind)
    assert seen == set(CLEARS_PER_CLASSIFY)


def test_solve_equivalence_a_builds_no_isotropy_group(counts):
    """The screen reads a rank-one orbit dimension off the integer case split
    of the reduced numerators; no isotropy group is built for it."""
    rank1_pairs = 0
    for kind, m1, m2 in equiv_corpus():
        if kind != "A":
            continue
        counts.clear()
        solve_equivalence_a(m1, m2)
        assert counts["group_action._isotropy_reduced"] == 0, (m1, m2)
        rank1_pairs += counts["frames._rank1_frame"] == 2
    assert rank1_pairs > 0
