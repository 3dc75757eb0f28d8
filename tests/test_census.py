"""The flat census: every flat Type A model with coefficients in {-1, 0, 1},
and every unordered pair of them through ``solve_equivalence_a``.

The verdict counts are pinned, so a change that moves an answer moves a
number here on purpose.  The answers are also checked against each other,
with no second solver: the ``equivalent`` pairs are joined into classes
(union-find), no ``not_equivalent`` or ``undecided`` pair may lie inside a
class, and every witness must carry its first model onto its second.
"""

import itertools
from collections import Counter

import pytest

from affinestrata.curvature import ricci_type_a
from affinestrata.group_action import carries, solve_equivalence_a
from affinestrata.models import TypeAModel


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
