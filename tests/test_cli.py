import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affinestrata import cli
from affinestrata.cli import run_cli
from affinestrata.exact import LinearMap2, Mat2, ShearMap
from affinestrata.group_action import pullback_type_a, pullback_type_b
from affinestrata.models import CATALOG, canonical_model, serialize_model, type_a
from affinestrata.sampling import rand_model_b
from affinestrata.strata import COEFF_FAMILIES, alt_b_param


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(args)
    return code, out.getvalue(), err.getvalue()


M1_0 = '{"type":"A","coeffs":["1","0","0","1","0","0"]}'
M5_1_POS = '{"type":"A","coeffs":["1","0","0","0","2","2"]}'
M5_1_NEG = '{"type":"A","coeffs":["1","0","0","0","2","-2"]}'


def test_classify_command():
    code, out, _ = run(["classify", M1_0])
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit"]["id"] == "M1_0"
    assert doc["flags"]["primary"] == "flat"


def test_classify_parse_error_exit_2():
    code, out, err = run(["classify", '{"type":"A","coeffs":["1","0"]}'])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "usage"


def test_ricci_command():
    code, out, _ = run(["ricci", '{"type":"B","coeffs":["0","3","1","0","0","1"]}'])
    assert code == 0
    doc = json.loads(out)
    assert doc["cleared"] is True
    assert doc["ricci"] == [["0", "1"], ["-1", "0"]]
    assert doc["alternating"] == "1"


def test_equiv_command():
    code, out, _ = run(["equiv", M5_1_POS, M5_1_NEG])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "equivalent"
    assert [["1", "0"], ["0", "-1"]] in doc["witnesses"]
    code, out, _ = run(["equiv", M1_0, '{"type":"A","coeffs":["0","0","0","0","0","0"]}'])
    assert code == 1
    assert json.loads(out)["status"] == "not_equivalent"


def test_equiv_mixed_types_is_usage_error():
    code, _, err = run(["equiv", M1_0, '{"type":"B","coeffs":["0","0","0","0","0","0"]}'])
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_isotropy_command():
    code, out, _ = run(["isotropy", '{"type":"A","coeffs":["0","0","0","0","1","0"]}'])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["families"][0]["template"] == "[[a^2, b], [0, a]]"
    # rank two with v = rho^-1 omega = 0 is honestly undecided
    code, out, _ = run(["isotropy", '{"type":"A","coeffs":["0","1","0","0","1","0"]}'])
    assert code == 1
    assert json.loads(out)["status"] == "undecided"
    # rank two with a nondegenerate covariant frame has trivial isotropy
    code, out, _ = run(["isotropy", '{"type":"A","coeffs":["1","2","0","1","1","3"]}'])
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["dimension"], doc["families"]) == ("solved", 0, [])
    assert doc["elements"] == [[["1", "0"], ["0", "1"]]]
    # an unreduced rank-one model: M4_1(0) pulled back by [[1, 2], [-1, 3]]
    code, out, _ = run(["isotropy", '{"type":"A","coeffs":["2/5","0","1/5","1/5","0","2/5"]}'])
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["dimension"]) == ("solved", 2)
    assert doc["families"][0]["template"].startswith("W @ [[1/v, -w/v], [0, 1]] @ W^-1")


def test_isotropy_unmatched_flat_is_undecided():
    """A flat model with no rational witness to its canonical orbit prints
    status undecided with the matcher's reason, not a domain error."""
    code, out, _ = run(["isotropy", '{"type":"A","coeffs":["0","-2","1","1","-1/2","1/2"]}'])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "undecided" and "error" not in doc
    assert doc["reason"] == (
        "flat orbit matcher failed: no rational witness to a canonical flat model; screening "
        "(cubic root pattern 'one_real') places it in the real orbit of M5_0, but no rational "
        "witness exists"
    )


@pytest.mark.parametrize(
    "fault",
    [
        AssertionError("equivalence witness failed exact verification"),
        OverflowError("integer too large to convert to float"),
    ],
)
def test_internal_fault_is_a_json_diagnostic(monkeypatch, fault):
    def solver(*_models):
        raise fault

    monkeypatch.setattr(cli, "solve_equivalence_a", solver)
    code, out, err = run(["equiv", M5_1_POS, M5_1_NEG])
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "internal"
    assert str(fault) in doc["detail"]


def test_param_command():
    code, out, _ = run(["param", "M2_1", "-1/2"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["-1", "0", "-1/2", "0", "0", "0"]
    code, out, _ = run(["param", "V1", "1", "0", "3"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "3", "1", "0", "0", "1"]
    code, out, _ = run(["param", "flat_a", "0", "1", "1", "0"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["2", "0", "0", "2", "1", "0"]
    code, _, err = run(["param", "M2_1", "0"])
    assert code == 2  # constraint violation reported as usage
    code, _, err = run(["param", "NOPE"])
    assert code == 2


@pytest.mark.parametrize("literal", ["1e5000", "1e1000000", "1.5", "2E3", "1_0", "1/0"])
def test_literals_outside_the_grammar_are_usage_errors(literal):
    """Only n and n/d are rational literals: exponents and decimals end as
    usage errors (exit 2) before any arithmetic, with no traceback."""
    model = json.dumps({"type": "A", "coeffs": [literal, "0", "0", "0", "0", "0"]})
    for args in (["classify", model], ["ricci", model], ["param", "M4_1", literal]):
        code, out, err = run(args)
        assert (code, out) == (2, ""), args
        doc = json.loads(err)
        assert doc["error"] == "usage" and "not a rational literal" in doc["detail"]
        assert "int_max_str_digits" not in doc["detail"]


def test_long_json_integer_is_a_usage_error():
    """A coefficient past int()'s digit limit is a usage error whether it is
    written as a JSON integer or as a string, with no interpreter hint."""
    digits = "9" * 5000
    for coeff in (digits, json.dumps(digits)):
        model = '{"type":"A","coeffs":[%s,0,0,0,0,0]}' % coeff
        code, out, err = run(["classify", model])
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert "int_max_str_digits" not in doc["detail"]


def test_param_and_catalog_read_the_registry():
    """Every catalog and parametrization id builds a model of its entry's
    type, `catalog` lists each id once, and the library-only aliases stay
    unknown to the command line."""
    for entry in [*CATALOG.values(), *COEFF_FAMILIES.values()]:
        code, out, err = run(["param", entry.entry_id, *["2"] * entry.arity])
        assert code == 0, (entry.entry_id, err)
        assert json.loads(out)["type"] == entry.model_type
    code, out, _ = run(["catalog"])
    doc = json.loads(out)
    listed = [e["id"] for e in doc["catalog"] + doc["parametrizations"]]
    assert sorted(listed) == sorted([*CATALOG, *COEFF_FAMILIES])
    assert len(set(listed)) == len(listed)
    for args in (["param", "1", "2", "3"], ["param", "closure", "0", "1"]):
        code, out, err = run(args)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"


def test_catalog_command():
    code, out, _ = run(["catalog"])
    assert code == 0
    doc = json.loads(out)
    ids = {e["id"] for e in doc["catalog"]}
    assert {"M0_0", "M5_1", "N2_0", "N1_alt", "N2_alt+"} <= ids
    entry = next(e for e in doc["catalog"] if e["id"] == "M2_1")
    assert entry["arity"] == 1 and entry["constraints"]


def test_verify_command_deterministic():
    code1, out1, _ = run(["verify", "--seed", "1", "--samples", "3"])
    code2, out2, _ = run(["verify", "--seed", "1", "--samples", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True


def test_verify_check_filter():
    code, out, _ = run(["verify", "--seed", "1", "--samples", "2", "--check", "action_laws"])
    assert code == 0
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"]] == ["action_laws"]


def test_verify_runs_a_repeated_check_once():
    args = ["verify", "--seed", "1", "--samples", "2", "--check", "action_laws"]
    code, out, _ = run([*args, "--check", "action_laws"])
    assert code == 0
    assert [c["id"] for c in json.loads(out)["checks"]] == ["action_laws"]
    assert out == run(args)[1]


@pytest.mark.parametrize(
    "args",
    [["--check", "bogus"], ["--check", "action_laws", "--check", "bogus"], ["--samples", "0"]],
)
def test_verify_bad_arguments_are_usage_errors(args):
    code, out, err = run(["verify", "--seed", "1", *args])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


def test_stdin_input(monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(M1_0))
    code, out, _ = run(["ricci", "-"])
    assert code == 0
    assert json.loads(out)["ricci"] == [["0", "0"], ["0", "0"]]


def test_file_input(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(M1_0, encoding="utf-8")
    code, out, _ = run(["classify", f"@{path}"])
    assert code == 0
    assert json.loads(out)["orbit"]["id"] == "M1_0"
    code, _, err = run(["classify", "@/nonexistent/path.json"])
    assert code == 2


def test_closed_stdout_exits_1_without_traceback():
    """A reader that closes stdout before the CLI writes gets exit 1 and no
    traceback, also none from the flush at interpreter exit."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for _ in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-m", "affinestrata.cli", "verify", "--samples", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err, err


def _tall_model(model, seed, height=10**250):
    """``model`` pulled back by a random map (a shear for a Type B model)
    with entries n / d of height 10^6 and then by one of height ``height``:
    at 10^250 each input integer of a catalog model has about 2,500 digits,
    under the parser's limit, and an answer's values have more."""
    rng = random.Random(seed)

    def entry(height):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def pull(m, height):
        while True:
            if m.kind == "B":
                a, b = entry(height), entry(height)
                if a != 0:
                    return pullback_type_b(m, ShearMap(a, b))
            else:
                t = Mat2(tuple(tuple(entry(height) for _ in "xy") for _ in "xy"))
                if not t.is_singular():
                    return pullback_type_a(m, LinearMap2(t))

    return pull(pull(model, 10**6), height)


@pytest.mark.parametrize(
    "entry_id, params",
    [("M1_0", ()), ("M2_0", ()), ("M2_1", (Fraction(999983, 1000003),)), ("M5_1", (Fraction(999983, 1000003),))],
)
def test_answers_past_the_integer_string_limit(entry_id, params):
    """Every command answers on flat and rank-one inputs whose answers hold
    integers past ``int()``'s 4,300-digit string limit, which the parser
    keeps: a JSON document on stdout, nothing on stderr.  (The classify
    report of a flat model names its irrational chart radius among its
    errors, and exits 1.)"""
    limit = sys.get_int_max_str_digits()
    canonical = canonical_model(entry_id, params)
    tall = _tall_model(canonical, 3)
    doc = json.dumps(serialize_model(tall))
    assert all(len(part) < limit for text in json.loads(doc)["coeffs"] for part in text.lstrip("-").split("/"))
    longest = 0
    for args in (["classify", doc], ["isotropy", doc], ["equiv", doc, json.dumps(serialize_model(canonical))]):
        code, out, err = run(args)
        answer = json.loads(out)
        assert err == "" and "error" not in answer, (args[0], err[:200])
        assert code == (1 if args[0] == "classify" and answer["errors"] else 0)
        assert answer.get("status") in ("solved", "equivalent", None)
        longest = max([longest, *map(len, re.findall(r"[0-9]+", out))])
    assert longest > limit


#: one model per stratum, the height of its second map, and the commands run
#: on it: Type A maps of height 10^400 and Type B shears of height 10^650
#: give inputs of about 4,000 digits (omega = 0 is left out: its equivalence
#: is far slower at that height)
HEIGHT_LADDER = {
    "flat": (canonical_model("M2_0"), 10**400, ("classify", "equiv", "isotropy")),
    "rank1": (canonical_model("M5_1", (Fraction(999983, 1000003),)), 10**400, ("classify", "equiv", "isotropy")),
    "rank2_frame": (type_a(1, 2, 0, 1, 1, 3), 10**400, ("classify", "equiv", "isotropy")),
    "rank2_forced": (type_a(0, 1, -2, 0, 0, 0), 10**400, ("classify", "equiv", "isotropy")),
    "alt_b": (alt_b_param("V2", (1, 2, 3)), 10**650, ("classify", "equiv")),
    "random_b": (rand_model_b(random.Random(7)), 10**650, ("classify", "equiv")),
}


@pytest.mark.parametrize("stratum", sorted(HEIGHT_LADDER))
def test_height_ladder(stratum):
    """Each stratum answers at about 4,000-digit inputs, under the parser's
    limit: every command prints a JSON answer with no error and nothing on
    stderr, and exits as it does at ordinary heights."""
    model, height, commands = HEIGHT_LADDER[stratum]
    limit = sys.get_int_max_str_digits()
    doc = json.dumps(serialize_model(_tall_model(model, 5, height)))
    parts = [part for text in json.loads(doc)["coeffs"] for part in text.lstrip("-").split("/")]
    assert 3500 < max(map(len, parts)) < limit
    for command in commands:
        args = [command, doc] + ([json.dumps(serialize_model(model))] if command == "equiv" else [])
        code, out, err = run(args)
        answer = json.loads(out)
        assert err == "" and "error" not in answer, (command, err[:200])
        assert code == (1 if command == "classify" and answer["errors"] else 0), (command, out[:200])
        assert answer.get("status") in ("solved", "equivalent", None), (command, out[:200])
