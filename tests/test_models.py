import json
from fractions import Fraction as F

import pytest

from affinestrata.classify import classify_model
from affinestrata.exact import rational
from affinestrata.group_action import solve_equivalence_a, solve_equivalence_b
from affinestrata.models import (
    CATALOG,
    CatalogError,
    ModelParseError,
    TypeAModel,
    TypeBModel,
    canonical_model,
    negate_model,
    parse_model,
    serialize_model,
    type_a,
    type_b,
)
from affinestrata.curvature import rank_signature, ricci, ricci_type_a, split_ricci


def test_canonical_model_examples():
    assert canonical_model("M1_0") == type_a(1, 0, 0, 1, 0, 0)
    assert canonical_model("N1_alt", [3]) == type_b(0, 3, 1, 0, 0, 1)
    assert canonical_model("N2_alt+", [1]) == type_b(0, 1, 0, -1, 1, 2)
    assert canonical_model("M2_1", [F(1, 2)]) == type_a(-1, 0, F(1, 2), 0, 0, 2)


def test_canonical_model_errors():
    with pytest.raises(CatalogError):
        canonical_model("M9_9")
    with pytest.raises(CatalogError):
        canonical_model("M2_1", [0])
    with pytest.raises(CatalogError):
        canonical_model("M2_1", [-1])
    with pytest.raises(CatalogError):
        canonical_model("N6_0", [-1])
    with pytest.raises(CatalogError):
        canonical_model("N2_alt+", [F(-2)])
    with pytest.raises(CatalogError):
        canonical_model("M1_0", [1])


def test_parse_model_examples():
    assert parse_model('{"type":"A","coeffs":["1","0","0","1","0","0"]}') == canonical_model("M1_0")
    assert parse_model('{"type":"B","coeffs":["0","0","0","0","0","0"]}') == canonical_model("N0_0")
    m = parse_model('{"type":"A","coeffs":["1/2","0","0","0","0","0"]}')
    assert m == type_a(F(1, 2), 0, 0, 0, 0, 0)


def test_parse_model_errors():
    with pytest.raises(ModelParseError):
        parse_model("{not json")
    with pytest.raises(ModelParseError):
        parse_model('{"type":"A","coeffs":["1","0"]}')
    with pytest.raises(ModelParseError):
        parse_model('{"type":"C","coeffs":["0","0","0","0","0","0"]}')
    with pytest.raises(ModelParseError):
        parse_model('{"type":"A","coeffs":["1","0","0","x","0","0"]}')
    with pytest.raises(ModelParseError):
        parse_model('{"type":"A","coeffs":[1.5,"0","0","0","0","0"]}')


def test_parse_model_tells_undecodable_bytes_from_a_long_integer():
    """Bytes that decode as no JSON text and an integer past the digit limit
    are both ``ModelParseError``s, each under its own message."""
    with pytest.raises(ModelParseError) as info:
        parse_model(b"\x80abc")
    assert str(info.value) == "model document is not valid utf-8 text: invalid start byte at byte 0"
    with pytest.raises(ModelParseError) as info:
        parse_model(b'{"type": "A", "coeffs": [%s, 0, 0, 0, 0, 0]}' % (b"9" * 5000))
    assert str(info.value) == "a JSON integer coefficient is too long to be a rational literal"


def test_parse_model_refuses_a_document_nested_past_the_recursion_limit():
    """A document nested 1,000 deep (2 KB), as text, as bytes or inside the
    coefficient list, is a ``ModelParseError``, not a RecursionError."""
    deep = "[" * 1000 + "]" * 1000
    for doc in (deep, deep.encode(), '{"type": "A", "coeffs": [%s, 0, 0, 0, 0, 0]}' % deep):
        with pytest.raises(ModelParseError) as info:
            parse_model(doc)
        assert str(info.value) == "model document is nested too deeply"


def test_parse_model_keeps_the_last_of_a_repeated_key_and_ignores_unknown_keys():
    """As ``json.loads`` builds the mapping, a key given twice keeps its last
    value, and the keys other than ``type`` and ``coeffs`` are not read."""
    last_type = '{"type": "B", "coeffs": ["1", "0", "0", "1", "0", "0"], "type": "A"}'
    assert parse_model(last_type) == type_a(1, 0, 0, 1, 0, 0)
    last_coeffs = '{"type": "A", "coeffs": ["9", "9", "9", "9", "9", "9"], "coeffs": ["0", "1/2", 0, 0, 0, 0]}'
    assert parse_model(last_coeffs) == type_a(0, F(1, 2), 0, 0, 0, 0)
    with pytest.raises(ModelParseError, match="got 'C'"):  # the last one decides, even when it is wrong
        parse_model('{"type": "A", "type": "C", "coeffs": ["0", "0", "0", "0", "0", "0"]}')
    extra = {"type": "B", "coeffs": ["0", "0", "0", "0", "0", "1"], "comment": [1.5, None], "Type": "A", "version": 2}
    assert parse_model(json.dumps(extra)) == parse_model(extra) == type_b(0, 0, 0, 0, 0, 1)


def test_serialize_round_trip():
    models = [
        canonical_model("M5_1", [F(-3, 7)]),
        canonical_model("N2_0", [F(5, 3)]),
        type_b(F(1, 2), F(-2, 3), 0, 4, F(7, 5), -1),
    ]
    for m in models:
        assert parse_model(json.dumps(serialize_model(m))) == m


def test_negate_model():
    assert negate_model(canonical_model("M0_0")) == canonical_model("M0_0")
    assert negate_model(type_a(1, 0, 0, 1, 0, 0)) == type_a(-1, 0, 0, -1, 0, 0)
    m51 = canonical_model("M5_1", [1])
    assert m51 == type_a(1, 0, 0, 0, 2, 2)
    assert negate_model(m51) == type_a(-1, 0, 0, 0, -2, -2)


def test_flat_catalog_models_are_flat():
    for entry_id in ["M0_0", "M1_0", "M2_0", "M3_0", "M4_0", "M5_0"]:
        assert ricci_type_a(canonical_model(entry_id)).is_zero()
    for entry_id in ["N0_0", "N1_0+", "N1_0-", "N3_0", "N4_0", "N5_0"]:
        assert ricci(canonical_model(entry_id)).is_zero()
    for c in [F(1), F(-3), F(2, 7)]:
        assert ricci(canonical_model("N2_0", [c])).is_zero()
    for c in [F(1), F(5), F(1, 3)]:
        assert ricci(canonical_model("N6_0", [c])).is_zero()


def test_rank1_catalog_models_have_rank_one_ricci():
    cases = [
        ("M1_1", ()),
        ("M2_1", (F(3),)),
        ("M2_1", (F(-1, 2),)),
        ("M3_1", (F(-1, 3),)),
        ("M4_1", (F(0),)),
        ("M5_1", (F(-5),)),
    ]
    for entry_id, params in cases:
        r = ricci_type_a(canonical_model(entry_id, params))
        sig = rank_signature(r)
        assert sig.rank == 1
        assert r.rows[0] == (0, 0)


def test_alternating_catalog_models():
    for entry_id, params in [("N1_alt", (F(7),)), ("N2_alt+", (F(2),)), ("N2_alt-", (F(1, 2),))]:
        m = canonical_model(entry_id, params)
        split = split_ricci(ricci(m))
        assert split.sym_is_zero()
        assert split.alt != 0


def test_m2_1_ricci_scale():
    for c1 in [F(1, 3), F(-1, 2), F(4)]:
        r = ricci_type_a(canonical_model("M2_1", [c1]))
        assert r.rows[1][1] == c1 * (1 + c1)


def test_catalog_listing_is_complete():
    ids = set(CATALOG)
    assert {"M0_0", "M5_0", "M1_1", "M5_1", "N0_0", "N6_0", "N1_alt", "N2_alt+", "N2_alt-"} <= ids
    for entry in CATALOG.values():
        desc = entry.describe()
        assert desc["arity"] == len(desc["params"])


def test_models_from_plain_ints_hold_fractions():
    m = TypeAModel(1, 0, 0, 0, 1, 0)
    assert all(type(x) is F for x in m.coeffs)
    assert m == type_a(1, 0, 0, 0, 1, 0)
    assert all(type(x) is F for x in TypeBModel(0, F(1, 2), 3, 0, 0, -1).coeffs)
    exact = type_a(F(1, 2), 0, 0, 0, 0, 0)
    assert TypeAModel(*exact.coeffs) == exact and TypeAModel(*exact.coeffs).a == exact.a == F(1, 2)
    with pytest.raises(TypeError):
        TypeAModel(1.5, 0, 0, 0, 0, 0)
    with pytest.raises(TypeError):
        TypeBModel(0, 0, 0, 0, 0, 0.0)


def test_solvers_accept_models_from_plain_ints():
    """The same JSON as for models built with type_a / type_b; these used to
    divide ints into floats."""
    a1, a2 = (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 2, 0)
    got = solve_equivalence_a(TypeAModel(*a1), TypeAModel(*a2)).to_dict()
    assert got == solve_equivalence_a(type_a(*a1), type_a(*a2)).to_dict()
    assert got["status"] == "undecided"
    for coeffs in (a1, (-1, 0, 1, 0, 0, 2), (1, 2, 0, 1, 1, 3), (1, 0, 0, 1, 0, 0)):
        got = json.dumps(classify_model(TypeAModel(*coeffs)).to_dict())
        assert got == json.dumps(classify_model(type_a(*coeffs)).to_dict())
    b1, b2 = (0, 0, 1, 0, 1, 0), (0, 0, 1, 0, 4, 0)
    got = solve_equivalence_b(TypeBModel(*b1), TypeBModel(*b2)).to_dict()
    assert got == solve_equivalence_b(type_b(*b1), type_b(*b2)).to_dict()


@pytest.mark.parametrize(
    "text, value",
    [("3", F(3)), ("-3/5", F(-3, 5)), ("+4/6", F(2, 3)), (" 7/2\n", F(7, 2)), ("007", F(7)), ("0/5", F(0))],
)
def test_rational_literal_grammar_accepts(text, value):
    assert rational(text) == value and type(rational(text)) is F


@pytest.mark.parametrize(
    "text",
    ["1e5", "1e1000000", "1E-2", "1.5", ".5", "1_000", "0x10", "1/0", "1/-2", "- 1", "+-1", "1/2/3",
     "", " ", "inf", "nan", "\u0661", "\uff11/2", "1 /2", pytest.param("9" * 5000, id="5000_digits")],
)
def test_rational_literal_grammar_rejects(text):
    """Exponents such as the 11-byte "1e1000000", which used to build a
    10^1000000 integer, are rejected before any arithmetic; a digit string
    past int()'s limit is a literal error too."""
    with pytest.raises(ValueError, match="not a rational literal"):
        rational(text)
    doc = json.dumps({"type": "A", "coeffs": [text, "0", "0", "0", "0", "0"]})
    with pytest.raises(ModelParseError):
        parse_model(doc)
