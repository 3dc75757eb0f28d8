"""The small-height censuses: every model with coefficients in {-1, 0, 1}.

The flat census takes the flat Type A models and every unordered pair of
them through ``solve_equivalence_a``.  The verdict counts are pinned, so a
change that moves an answer moves a number here on purpose.  The answers
are also checked against each other, with no second solver: the
``equivalent`` pairs are joined into classes (union-find), no
``not_equivalent`` or ``undecided`` pair may lie inside a class, and every
witness must carry its first model onto its second.

The full census takes all 729 models of each type, every unordered pair
through the equivalence solver and every model through ``classify_model``,
and pins the verdict counts, the Type A orbit coverage, and a sha256 over
every answer document (``to_dict()``, dumped with sorted keys, one per
line), so any change to any answer's bytes fails here.
"""

import hashlib
import itertools
import json
from collections import Counter

import pytest

from affinestrata.classify import classify_model
from affinestrata.curvature import ricci_type_a
from affinestrata.law import carries
from affinestrata.group_action import solve_equivalence_a, solve_equivalence_b
from affinestrata.models import TypeAModel, TypeBModel


def _flat_census():
    models = (TypeAModel.of_integers(coeffs, 1) for coeffs in itertools.product((-1, 0, 1), repeat=6))
    return [m for m in models if ricci_type_a(m).is_zero()]


@pytest.fixture(scope="module")
def census():
    models = _flat_census()
    pairs = list(itertools.combinations(range(len(models)), 2))
    return models, {(i, j): solve_equivalence_a(models[i], models[j]) for i, j in pairs}


def _classes(size, answers):
    """The root of each model's class under the ``equivalent`` pairs."""
    parent = list(range(size))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j), res in answers.items():
        if res.status == "equivalent":
            parent[root(i)] = root(j)
    return [root(i) for i in range(size)]


def test_flat_census_counts(census):
    models, answers = census
    assert len(models) == 89 and len(answers) == 3916
    statuses = Counter(res.status for res in answers.values())
    assert statuses == {"not_equivalent": 3080, "equivalent": 518, "undecided": 318}
    screened = [res for res in answers.values() if (res.obstruction or "").startswith("cubic root patterns differ")]
    assert len(screened) == 352
    assert {res.obstruction.split(": ")[1] for res in screened} == {"one_real vs three_simple", "three_simple vs one_real"}


def test_flat_census_is_consistent(census):
    models, answers = census
    classes = _classes(len(models), answers)
    inside = [(i, j, res.status) for (i, j), res in answers.items() if res.status != "equivalent" and classes[i] == classes[j]]
    assert inside == []
    for (i, j), res in answers.items():
        if res.status == "equivalent":
            assert res.maps and all(carries(models[i], w.matrix, models[j]) for w in res.maps), (models[i], models[j])


#: per type: the solver, the verdict counts, the number of models whose
#: ``orbit`` is named, and the sha256 of the equivalence and classify documents
FULL_CENSUS = {
    "A": (
        TypeAModel, solve_equivalence_a,
        {"not_equivalent": 259352, "equivalent": 4566, "undecided": 1438},
        145,
        "dc97b7438de9bf0d136bb47b8e28c84d6133f7c2fd298273b44f9467f0f79385",
        "c24fc03a86948549573b74aa1d8fcb3106a92f365c920131c4216a8f089ee906",
    ),
    "B": (
        TypeBModel, solve_equivalence_b,
        {"not_equivalent": 264741, "equivalent": 615},
        0,
        "19b26cb33b5ffecf5130533f60c76e3a173e31acfbab9dd49acce418b1eb70ca",
        "dac3fd0965ab4e2f38915d0c5b570136618966c44fbd265bffbece781f12bd05",
    ),
}


def _digest(docs):
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(FULL_CENSUS))
def test_full_census_answers(kind):
    cls, solve, counts, named, equiv_digest, classify_digest = FULL_CENSUS[kind]
    models = [cls.of_integers(coeffs, 1) for coeffs in itertools.product((-1, 0, 1), repeat=6)]
    statuses = Counter()

    def answers():
        for m1, m2 in itertools.combinations(models, 2):
            res = solve(m1, m2)
            statuses[res.status] += 1
            yield res.to_dict()

    digest = _digest(answers())
    assert statuses == counts  # the verdicts first, then their documents
    assert digest == equiv_digest
    reports = [classify_model(m).to_dict() for m in models]
    assert sum(doc["orbit"] is not None for doc in reports) == named
    assert _digest(reports) == classify_digest
