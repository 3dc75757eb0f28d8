"""The three workloads: one operation each, and the benchmark's own check of
every answer.

A check raises ``WrongAnswer`` when the program's answer contradicts the
generator's label or fails exact re-verification; that ends the run as
incorrect.  ``undecided`` answers and unmatched orbits are honest answers:
they are counted, and count as failures when the input has a known rational
answer (constructed pairs, catalog pullbacks).

Operations call through module attributes (``group_action.solve_...``) so
that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import gen
import oracle

class WrongAnswer(Exception):
    # operations attempted and raised when the run stopped
    attempted = 1
    failed = 0


class Tally:
    """Answer counts and the input mix of one pass."""

    def __init__(self):
        self.mix: Counter = Counter()
        self.answers: Counter = Counter()
        self.undecided = 0
        self.known_unanswered = 0  # undecided / unmatched with a known answer

    def summary(self, attempted: int, failed: int) -> dict:
        """The input mix, the answers, and the undecided and failed shares
        of the operations attempted; an operation fails when it raised or
        left an input with a known answer undecided or unmatched."""
        return {
            "mix": dict(sorted(self.mix.items())),
            "answers": dict(sorted(self.answers.items())),
            "undecided_share": self.undecided / attempted,
            "fail_share": (failed + self.known_unanswered) / attempted,
        }


def _rows(matrix) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in matrix)


class Verify:
    name = "verify"

    def __init__(self, package):
        self.classify = package.classify

    def round(self, seed: int):
        return gen.verify_round(seed)

    def run(self, item):
        return self.classify.verify_theorems(item, gen.VERIFY_SAMPLES)

    def check(self, item, report, tally: Tally) -> int:
        tally.mix[f"samples={gen.VERIFY_SAMPLES}"] += 1
        failed = [r.check_id for r in report.results if not r.passed]
        tally.answers["all_passed" if not failed else "failed"] += 1
        if failed or len(report.results) != 9:
            raise WrongAnswer(f"verify {item}: checks failed: {failed}")
        return sum(r.samples_used for r in report.results)


class EquivMix:
    name = "equiv_mix"

    def __init__(self, package):
        self.models = package.models
        self.group_action = package.group_action

    def round(self, seed: int):
        return gen.equiv_round(seed)

    def run(self, item):
        cls = self.models.TypeAModel if item["kind"] == "A" else self.models.TypeBModel
        m1, m2 = cls(*item["m1"]), cls(*item["m2"])
        if item["kind"] == "A":
            return self.group_action.solve_equivalence_a(m1, m2)
        return self.group_action.solve_equivalence_b(m1, m2)

    def check(self, item, result, tally: Tally) -> int:
        label = f"{item['stratum']}/h{item['height']}/{item['pair']}"
        tally.mix[label] += 1
        doc = result.to_dict()
        status, expect = doc["status"], item["expect"]
        tally.answers[f"{label}:{status}"] += 1
        if status == "equivalent":
            if expect == "not_equivalent" or not doc["witnesses"]:
                raise WrongAnswer(f"{label}: equivalent against label {expect}")
            for w in doc["witnesses"]:
                t = _rows(w["matrix"] if item["kind"] == "B" else w)
                if item["kind"] == "B" and (t[0] != (1, 0) or t[1][1] == 0):
                    raise WrongAnswer(f"{label}: witness {w} is not a shear")
                if oracle.pullback(item["m1"], t) != tuple(item["m2"]):
                    raise WrongAnswer(f"{label}: witness {w} fails exact pullback")
        elif status == "not_equivalent":
            if expect == "equivalent":
                raise WrongAnswer(f"{label}: not_equivalent on an equivalent pair ({doc['obstruction']})")
        elif status == "undecided":
            tally.undecided += 1
            if expect is not None:
                tally.known_unanswered += 1
        else:
            raise WrongAnswer(f"{label}: unknown status {status!r}")
        return 1


class ClassifyStream:
    name = "classify_stream"

    def __init__(self, package):
        self.models = package.models
        self.classify = package.classify

    def round(self, seed: int):
        return gen.classify_round(seed)

    def run(self, item):
        report = self.classify.classify_model(self.models.parse_model(item["text"]))
        return json.dumps(report.to_dict())

    def check(self, item, out, tally: Tally) -> int:
        label = f"{item['source']}/h{item['height']}"
        tally.mix[label] += 1
        doc = json.loads(out)
        expect = item["expect"]
        if doc["model"] != json.loads(item["text"]):
            raise WrongAnswer(f"{label}: model does not round-trip: {doc['model']}")
        kind = doc["stratum"]["kind"]
        tally.answers[f"{label}:{kind}"] += 1
        if kind != expect["stratum"]:
            raise WrongAnswer(f"{label}: stratum {kind}, expected {expect['stratum']}")
        orbit = doc["orbit"]
        if orbit is not None:
            params = tuple(Fraction(p) for p in orbit["params"])
            canon = oracle.catalog_model(orbit["id"], params)
            if oracle.pullback(canon, _rows(orbit["witness"])) != tuple(item["coeffs"]):
                raise WrongAnswer(f"{label}: orbit witness fails exact pullback")
        if "orbit" in expect:
            orbit_id, key = expect["orbit"]
            if orbit is None:
                if "orbit" not in doc["errors"]:
                    raise WrongAnswer(f"{label}: no orbit and no orbit error")
                tally.known_unanswered += 1
                tally.answers[f"{label}:unmatched"] += 1
            elif (orbit["id"], params) != (orbit_id, tuple(key)):
                raise WrongAnswer(f"{label}: orbit {orbit['id']}{orbit['params']}, expected {orbit_id}{key}")
        if "member" in expect:
            family, params = expect["member"]
            members = [(m["family"], tuple(Fraction(p) for p in m["params"])) for m in doc["stratum"]["members"]]
            if (family, tuple(params)) not in members:
                raise WrongAnswer(f"{label}: membership {family}{params} missing from {members}")
        return 1


WORKLOADS = {w.name: w for w in (Verify, EquivMix, ClassifyStream)}
