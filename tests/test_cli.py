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

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from affinestrata import cli
from affinestrata.classify import CHECKS
from affinestrata.cli import run_cli
from affinestrata.exact import LinearMap2, Mat2, ShearMap
from affinestrata.law import pullback_type_a, pullback_type_b
from affinestrata.models import CATALOG, TypeAModel, TypeBModel, canonical_model, serialize_model, type_a
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


def test_file_input_that_is_not_utf8_is_a_usage_error(tmp_path):
    """An ``@file`` whose bytes are not UTF-8 is an input error: exit 2 and
    a ``usage`` diagnostic naming the file, with no traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe" + M1_0.encode("utf-16-le"))
    code, out, err = run(["classify", f"@{path}"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "usage"
    assert doc["detail"].startswith(f"cannot read {path}: ")


#: a model document nested 1,000 deep, past the interpreter's recursion limit
DEEP = "[" * 1000 + "]" * 1000


def test_deeply_nested_document_is_a_usage_error(tmp_path, monkeypatch):
    """A document nested past the recursion limit is an input error, inline,
    through ``@file``, through ``-`` and as either of ``equiv``'s models:
    exit 2 and one ``usage`` diagnostic, with no traceback."""
    path = tmp_path / "deep.json"
    path.write_text(DEEP, encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP))
    calls = [
        ["classify", DEEP], ["classify", f"@{path}"], ["classify", "-"], ["equiv", DEEP, M1_0], ["equiv", M1_0, DEEP]
    ]
    for args in calls:
        code, out, err = run(args)
        assert (code, out) == (2, ""), args
        assert "Traceback" not in err
        assert json.loads(err) == {"error": "usage", "detail": "model document is nested too deeply"}


def test_long_literal_diagnostic_is_short():
    """A 5,000-digit coefficient, in the grammar or not, is a usage error
    whose diagnostic echoes a prefix and the length, not every digit; the
    one in the grammar names int()'s digit limit."""
    details = []
    for literal in ("9" * 5000, "1.5" + "9" * 5000):
        model = json.dumps({"type": "A", "coeffs": [literal, "0", "0", "0", "0", "0"]})
        code, out, err = run(["classify", model])
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        doc = json.loads(err)
        assert doc["error"] == "usage" and f"({len(literal)} characters)" in doc["detail"]
        details.append(doc["detail"])
    assert details[0].endswith(f"an integer past int()'s limit of {sys.get_int_max_str_digits()} digits")
    assert details[1] == "not a rational literal: '1.5%s'... (5003 characters)" % ("9" * 17)


def test_wrong_type_diagnostics_are_short():
    """A coefficient or a ``type`` of the wrong JSON type is echoed as the
    first 20 characters of its repr and the length, as a long literal is,
    not whole; a short one keeps its whole repr."""
    cases = [
        ({"type": "A", "coeffs": [[0] * 10000, 0, 0, 0, 0, 0]},
         "coefficient [0, 0, 0, 0, 0, 0, 0... (30000 characters) is not an exact rational literal"),
        ({"type": ["A"] * 10000, "coeffs": [0] * 6},
         "model type must be 'A' or 'B', got ['A', 'A', 'A', 'A',... (50000 characters)"),
        ({"type": "A" * 10000, "coeffs": [0] * 6},
         "model type must be 'A' or 'B', got 'AAAAAAAAAAAAAAAAAAAA'... (10000 characters)"),
        ({"type": "A", "coeffs": [{"n": 1}, 0, 0, 0, 0, 0]}, "coefficient {'n': 1} is not an exact rational literal"),
        ({"type": ["A"], "coeffs": [0] * 6}, "model type must be 'A' or 'B', got ['A']"),
    ]
    for doc, detail in cases:
        code, out, err = run(["classify", json.dumps(doc)])
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert json.loads(err) == {"error": "usage", "detail": detail}


@pytest.mark.parametrize(
    "args", [["bogus"], [], ["classify"], ["verify", "--samples", "x"], ["ricci", "--bogus", M1_0]]
)
def test_argument_errors_are_usage_diagnostics(args):
    """A bad command line is an input error like any other: exit 2 and one
    ``usage`` diagnostic naming the fault, not argparse's usage text."""
    code, out, err = run(args)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "usage" and doc["detail"].startswith("affinestrata")


def test_closed_stdin_is_a_usage_error(monkeypatch):
    """A process started with standard input closed has ``sys.stdin`` None;
    reading a model from ``-`` is then a usage error, not a traceback."""
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(["classify", "-"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "cannot read standard input: it is closed"}


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


# ---------------------------------------------------------------------------
# The command line under fuzzed input

#: the longest one fuzzed call may take, in seconds
FUZZ_CALL_SECONDS = 10

_numbers = st.integers(-(10**1000), 10**1000)
_odd_literals = st.one_of(
    st.text(alphabet="0123456789+-/ .eE_xn\t", max_size=12),
    st.text(alphabet=st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=4),  # non-ASCII digits too
    _numbers.map(str),
    st.tuples(_numbers, _numbers).map(lambda p: f"{p[0]}/{p[1]}"),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _models(draw):
    """A model document at a height up to 10^1000.  Type A models with
    omega = 0 are left out until the omega = 0 rule stops bisecting, which
    is slow at these heights."""
    kind = draw(st.sampled_from("AB"))
    nums = draw(st.lists(_numbers, min_size=6, max_size=6))
    den = draw(st.integers(1, 10**1000))
    if kind == "A" and nums[0] + nums[3] == 0 and nums[2] + nums[5] == 0:
        nums[0] += 1
    model = (TypeAModel if kind == "A" else TypeBModel).of_integers(nums, den)
    return json.dumps(serialize_model(model))


def _nested(depth):
    return "[" * depth + "]" * depth


#: nesting depths up to 2,000, the interpreter's recursion limit of 1,000 among them
_depths = st.one_of(st.sampled_from([995, 1000, 1001, 2000]), st.integers(1, 2000))
_documents = st.one_of(
    _models(),
    _models(),
    _depths.map(_nested),
    _depths.map(lambda n: '{"type": "A", "coeffs": [%s, 0, 0, 0, 0, 0]}' % _nested(n)),
    st.builds(lambda kind, coeffs: json.dumps({"type": kind, "coeffs": coeffs}), _json_values, _json_values),
    st.builds(
        lambda kind, coeffs: json.dumps({"type": kind, "coeffs": coeffs}),
        st.sampled_from("AB"),
        st.lists(st.one_of(_odd_literals, st.integers(-10, 10)), min_size=6, max_size=6),
    ),
    _json_values.map(json.dumps),
)
#: a model source: the document inline, in a file (as UTF-8 with or without
#: a BOM, as UTF-16, or as arbitrary bytes) or on standard input
_sources = st.one_of(
    st.tuples(st.just("inline"), _models()),
    st.tuples(st.just("inline"), _documents),
    st.tuples(st.just("inline"), _documents.map(lambda doc: "\ufeff" + doc)),
    st.tuples(
        st.just("file"),
        st.one_of(
            _documents.map(str.encode),
            _documents.map(lambda doc: doc.encode("utf-8-sig")),
            _documents.map(lambda doc: doc.encode("utf-16")),
            st.binary(max_size=40),
            _documents.map(lambda doc: b"\xff" + doc.encode()),
        ),
    ),
    st.tuples(st.just("stdin"), _documents),
)


@st.composite
def _command_lines(draw):
    """A command with its model sources and options, good or bad, and a
    trailing unknown flag now and then."""
    command = draw(st.sampled_from(["classify", "ricci", "isotropy", "equiv", "param", "catalog", "verify", "bogus"]))
    if command in ("classify", "ricci", "isotropy", "equiv"):
        count = 2 if command == "equiv" else 1
        rest = draw(st.lists(_sources, min_size=count, max_size=count))
    elif command == "param":
        entry = draw(st.sampled_from([*CATALOG, *COEFF_FAMILIES, "NOPE"]))
        rest = [entry, *draw(st.lists(_odd_literals, max_size=4))]
    elif command == "verify":
        rest = ["--seed", str(draw(st.integers(0, 99))), "--samples", str(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            rest += ["--check", draw(st.sampled_from([*CHECKS, "bogus"]))]
    elif command == "bogus":
        rest = draw(st.lists(st.text(max_size=5), max_size=2))
    else:
        rest = []
    if draw(st.integers(0, 3)) == 3:
        rest.append(draw(st.sampled_from(["--bogus", "-x", "--seed", "--samples", "-h"])))
    return [command, *rest]


def test_fuzzed_command_lines_never_print_a_traceback(tmp_path, monkeypatch):
    """On drawn command lines and documents, every call returns 0, 1 or 2,
    writes nothing or one JSON object to stderr, prints no traceback and
    finishes within :data:`FUZZ_CALL_SECONDS`."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(_command_lines())
    @example(["classify", ("inline", _nested(2000))])
    @example(["equiv", ("file", DEEP.encode()), ("stdin", M1_0)])
    @example(["ricci", ("file", b"\xef\xbb\xbf" + M1_0.encode())])
    def check(argv):
        args, stdin = [], ""
        for i, arg in enumerate(argv):
            if not isinstance(arg, tuple):
                args.append(arg)
            elif arg[0] == "inline":
                args.append(arg[1])
            elif arg[0] == "file":
                path = tmp_path / f"model{i}.json"
                path.write_bytes(arg[1])
                args.append(f"@{path}")
            else:
                args.append("-")
                stdin = arg[1]
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        start = time.perf_counter()
        code, out, err = run(args)
        assert time.perf_counter() - start < FUZZ_CALL_SECONDS, args
        assert code in (0, 1, 2), args
        assert "Traceback" not in out + err
        assert err == "" or (isinstance(json.loads(err), dict) and err.count("\n") == 1), err

    check()
