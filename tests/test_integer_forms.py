"""Integer forms: models, Ricci tensors, rational matrices and rank-one
chart points are held as integer numerators over their least common
denominator, on one base, and the kernels that compute on them are checked
against their Fraction forms.

Models come from every way one is made: parsed JSON, the constructors, Type
A and Type B pullbacks, catalog and family builds, and the zero model, at
heights 12 and 10^6; maps include the identity and maps with det < 0.  Each
kernel is compared with a Fraction-arithmetic reference kept here (the
bodies the integer kernels replaced): the coefficient law, the model's
equality, hash, repr, coefficients and fields, the Ricci tensors with their
split, zero test, strings and signature, the flat chart with both of its
NonRationalCirclePointError messages, the rank-one chart with its scale and
sign, the cubic root pattern, the Type B memberships, and the 2 x 2
product, determinant, singular test, inverse and unit-circle check.  A parsed
model is read straight into its integer form and equals the model built
from Fractions; the rank-one chart point holds its integer form as well.
The four integer-form types keep their equality, hash and repr, survive
copies and pickles, never equal a value of another of them (a Ricci tensor
and a matrix with the same entries, a Type A and a Type B model), and a
matrix takes rational entries only.  Every record type keeps the repr, hash and equality of a frozen dataclass
with its fields (checked against one made here) and is built alike by position
and by keyword, with its class's defaults; the signatures and stratum
flags of :func:`curvature_of` are shared values equal to a reference.
"""

import copy
import dataclasses
import json
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinestrata.classify import CheckResult, ClassificationReport, VerificationReport, classify_model
from affinestrata.curvature import (
    PRIMARY_FLAGS,
    RANK1_NEG,
    RANK1_POS,
    RANK2_INDEF,
    RANK2_NEG,
    RANK2_POS,
    RANK_SIGS,
    RANK_ZERO,
    Curvature,
    NotSymmetricError,
    RankSig,
    Ricci2,
    RicciSplit,
    StratumFlags,
    curvature_of,
    rank_signature,
    ricci,
    ricci_type_b,
    split_ricci,
    stratum_flags,
)
from affinestrata.exact import (
    ONE,
    ZERO,
    CirclePoint,
    FrozenInstanceError,
    LinearMap2,
    Mat2,
    ShearMap,
    circle_from_slope,
    clear_denominators,
    mat2_of_integers,
    rational,
    sqrt_rational,
)
from affinestrata.law import pullback_type_a, pullback_type_b
from affinestrata.frames import rank1_frame
from affinestrata.matchers import _cubic_pattern
from affinestrata.group_action import EquivalenceWitnesses, IsotropyFamily, IsotropyGroup, solve_equivalence_a
from affinestrata.models import (
    CATALOG,
    CatalogEntry,
    CatalogError,
    ModelParseError,
    TypeAModel,
    TypeBModel,
    _no_constraint,
    canonical_model,
    parse_model,
    serialize_model,
    type_a,
    type_b,
)
from affinestrata.strata import (
    COEFF_FAMILIES,
    ConePointError,
    FamilyMembership,
    FlatAChart,
    NonRationalCirclePointError,
    NotFlatError,
    NotInStratumError,
    Rank1Chart,
    Rank1Reduction,
    TypeBMembership,
    _classify_alt_b,
    _classify_flat_b,
    _flat_a_coords,
    alt_b_param,
    classify_alt_b,
    flat_a_coords,
    flat_a_param,
    rank1_chart_inverse,
    rank1_reduce,
)
from references import FAMILY_BUILDS, QuadExt, binary_cubic, cleared_coefficients, mat2_from_cols

HEIGHTS = (12, 10**6)


def scalars(height):
    return st.one_of(
        st.just(F(0)),
        st.integers(-height, height).map(F),
        st.builds(F, st.integers(-height, height), st.integers(1, height)),
    )


def sextuples(height):
    return st.lists(scalars(height), min_size=6, max_size=6)


def maps(height):
    """Random invertible maps, half of them with det < 0, the identity and
    the swap."""
    random = st.lists(scalars(height), min_size=4, max_size=4).filter(
        lambda t: t[0] * t[3] != t[1] * t[2]
    ).map(lambda t: LinearMap2(Mat2(((t[0], t[1]), (t[2], t[3])))))
    swap = LinearMap2(Mat2(((ZERO, ONE), (ONE, ZERO))))
    return st.one_of(st.just(LinearMap2.identity()), st.just(swap), random)


def shears(height):
    nonzero = scalars(height).filter(lambda x: x != 0)
    return st.one_of(st.just(ShearMap.identity()), st.builds(ShearMap, nonzero, scalars(height)))


def _catalog_model(entry, params):
    try:
        return entry.model(params)
    except (CatalogError, ConePointError):
        assume(False)


def models(kind, height):
    """Models of one type from every source: constructors, parsed JSON,
    pullbacks, catalog and family builds, and the zero model."""
    cls, build, pullback, maps_of = (
        (TypeAModel, type_a, pullback_type_a, maps) if kind == "A" else (TypeBModel, type_b, pullback_type_b, shears)
    )
    entries = [e for e in [*CATALOG.values(), *COEFF_FAMILIES.values()] if e.model_type == kind]
    catalog = st.sampled_from(entries).flatmap(
        lambda e: st.lists(scalars(height), min_size=e.arity, max_size=e.arity).map(
            lambda params, e=e: _catalog_model(e, params)
        )
    )
    parsed = sextuples(height).map(
        lambda cs: parse_model(json.dumps({"type": kind, "coeffs": [str(x) for x in cs]}))
    )
    return st.one_of(
        st.just(cls(0, 0, 0, 0, 0, 0)),
        sextuples(height).map(lambda cs: cls(*cs)),
        sextuples(height).map(lambda cs: build(*cs)),
        parsed,
        catalog,
        st.tuples(st.one_of(catalog, sextuples(height).map(lambda cs: cls(*cs))), maps_of(height)).map(
            lambda pair: pullback(*pair)
        ),
    )


def outcome(fn, *args):
    """The value of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("kind", ["A", "B"])
def test_integer_form_is_the_cleared_coefficients(kind, height):
    @settings(max_examples=150, deadline=None)
    @given(models(kind, height))
    def check(m):
        nums, den = m.integer_form
        assert (list(nums), den) == clear_denominators(m.coeffs)
        assert den > 0 and math.gcd(*nums, den) == 1
        assert m.integer_form is m.integer_form  # cached
        assert m.is_zero() == all(x == 0 for x in m.coeffs)

    check()


def test_integer_form_stays_out_of_equality_hash_and_repr():
    m = type_a(1, F(1, 2), 0, 3, F(-2, 3), 5)
    fresh = type_a(1, F(1, 2), 0, 3, F(-2, 3), 5)
    assert m.integer_form == ((6, 3, 0, 18, -4, 30), 6)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert "integer_form" not in repr(m)
    assert repr(m) == "M(1, 1/2, 0, 3, -2/3, 5)"
    # ints, strings and Fractions give one model; the types never meet
    assert type_a("1", "1/2", "0", "3", "-4/6", "5") == m == TypeAModel(*m.coeffs)
    assert type_b(*m.coeffs) != m and hash(type_b(*m.coeffs)) == hash(m)
    with pytest.raises(TypeError):
        type_a(1.0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Models from the law: the integer form is the stored representation

#: (k, i, j) of G^k_ij for each coefficient slot a, b, c, d, e, f
SLOTS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def fraction_law(coeffs, rows):
    """Reference: G'^m_ab = T^m_k G^k_ij S^i_a S^j_b on Fractions, with
    S = T^-1, for y = T x."""
    (t11, t12), (t21, t22) = [[F(x) for x in row] for row in rows]
    det = t11 * t22 - t12 * t21
    t = ((t11, t12), (t21, t22))
    s = ((t22 / det, -t12 / det), (-t21 / det, t11 / det))
    a, b, c, d, e, f = (F(x) for x in coeffs)
    g = (((a, c), (c, e)), ((b, d), (d, f)))  # g[k][i][j] = G^k_ij
    return tuple(
        sum(t[k][p] * g[p][u][v] * s[u][i] * s[v][j] for p in (0, 1) for u in (0, 1) for v in (0, 1))
        for k, i, j in SLOTS
    )


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("kind", ["A", "B"])
def test_pullback_model_equals_fraction_law(kind, height):
    """A pullback builds its model from the law's integers; it is the model
    built from the Fraction law in every observable: its canonical integer
    form, ==, hash, repr, coefficients, fields and serialization."""
    cls, pullback, maps_of = (
        (TypeAModel, pullback_type_a, maps) if kind == "A" else (TypeBModel, pullback_type_b, shears)
    )

    @settings(max_examples=200, deadline=None)
    @given(models(kind, height), maps_of(height))
    def check(m, t):
        got = pullback(m, t)
        values = fraction_law(m.coeffs, t.matrix.rows)
        want = cls(*values)
        nums, den = got.integer_form
        assert den > 0 and math.gcd(*nums, den) == 1
        assert (list(nums), den) == clear_denominators(values)
        assert got == want and not got != want and hash(got) == hash(want)
        assert (got == m) == (values == m.coeffs)
        # the same numerators over twice the denominator are another model
        assert (cls(*(v / 2 for v in values)) == got) == got.is_zero()
        assert repr(got) == "%s(%s)" % (cls.letter, ", ".join(str(x) for x in values))
        assert got.coeffs == values and all(type(x) is F for x in got.coeffs)
        assert (got.a, got.b, got.c, got.d, got.e, got.f) == values
        assert serialize_model(got) == {"type": kind, "coeffs": [str(x) for x in values]}
        assert got.is_zero() == (not any(values))

    check()


# ---------------------------------------------------------------------------
# Ricci tensors from integers against Ricci2 of Fraction rows


def fraction_ricci_rows(m):
    """Reference: the Ricci tensor (Type A) or its cleared form (Type B) on
    the Fraction coefficients."""
    a, b, c, d, e, f = m.coeffs
    if m.kind == "A":
        r12 = c * d - b * e
        return (((a - d) * d + b * (f - c), r12), (r12, c * (f - c) + (a - d) * e))
    return (
        ((a - d + 1) * d + b * (f - c), c * d - b * e + f),
        (c * (d - 1) - b * e, -c * c + f * c + (a - d - 1) * e),
    )


def fraction_signature(sym):
    """Reference: rank and label of a symmetric Fraction matrix."""
    (s11, s12), (s21, s22) = sym
    if s12 != s21:
        raise NotSymmetricError("rank_signature expects a symmetric matrix")
    if s11 == s12 == s22 == 0:
        return RankSig(0, RANK_ZERO)
    det = s11 * s22 - s12 * s12
    if det == 0:
        diag = s11 if s11 != 0 else s22
        return RankSig(1, RANK1_POS if diag > 0 else RANK1_NEG)
    if det < 0:
        return RankSig(2, RANK2_INDEF)
    return RankSig(2, RANK2_POS if s11 > 0 else RANK2_NEG)


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("kind", ["A", "B"])
def test_ricci_from_integers_equals_ricci_of_rows(kind, height):
    """The tensor a model's integers give equals Ricci2 of the Fraction rows
    in rows, ==, hash, strings, the zero test, the split and the
    signature."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models(kind, height), type_b_points(height) if kind == "B" else flat_models(height)))
    def check(m):
        r = ricci(m)
        rows = fraction_ricci_rows(m)
        ref = Ricci2(rows, cleared=kind == "B")
        assert r.rows == ref.rows == rows and all(type(x) is F for row in r.rows for x in row)
        assert r == ref and hash(r) == hash(ref)
        assert r != Ricci2(rows, cleared=kind == "A")
        assert r != Mat2(rows) and r.integer_form == Mat2(rows).integer_form
        assert r.to_strings() == ref.to_strings() == [[str(x) for x in row] for row in rows]
        assert r.is_zero() == ref.is_zero() == all(x == 0 for row in rows for x in row)
        (r11, r12), (r21, r22) = rows
        off, alt = (r12 + r21) / 2, (r12 - r21) / 2
        split = split_ricci(r)
        assert split == split_ricci(ref)
        assert split.sym == ((r11, off), (off, r22)) and split.alt == alt
        assert split.symmetric.cleared == r.cleared
        assert split.sym_is_zero() == (r11 == off == r22 == 0)
        sig = fraction_signature(split.sym)
        assert rank_signature(split.symmetric) == rank_signature(split.sym) == sig
        assert outcome(rank_signature, r) == outcome(fraction_signature, rows)

    check()


# ---------------------------------------------------------------------------
# Immutability and copies


def test_models_tensors_and_matrices_are_immutable(fractions_made):
    m = pullback_type_a(type_a(1, F(1, 2), 0, 3, F(-2, 3), 5), LinearMap2(Mat2(((ONE, F(2)), (F(3), F(4))))))
    before = repr(m)
    r = ricci(m)
    mat = mat2_of_integers((1, 2, 3, 4), 6)
    chart = Rank1Chart.of_integers((2, -4, 6, 0), 8)
    for obj, names in (
        (m, ("a", "f", "coeffs", "integer_form", "kind")),
        (r, ("rows", "integer_form", "cleared")),
        (mat, ("rows", "integer_form")),
        (chart, ("p", "coords", "integer_form")),
    ):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 0
    assert repr(m) == before == "M(-7, -23/2, 4, 13/2, -5/3, -5/2)"
    assert m.integer_form == ((-42, -69, 24, 39, -10, -15), 6)
    for obj in (m, r, mat, chart, type_b(0, 1, 2, 3, 4, 5), Ricci2(((1, F(1, 2)), (0, 3)), cleared=True)):
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj) and clone == obj and hash(clone) == hash(obj)
            assert repr(clone) == repr(obj) and clone.integer_form == obj.integer_form
    # the integer-form types keep their hash, repr and equality: within one
    # class, on the lowest-terms form (and the flag of a Ricci tensor)
    assert hash(m) == hash(m.integer_form) and hash(mat) == hash(((1, 2, 3, 4), 6))
    assert hash(chart) == hash(((1, -2, 3, 0), 4)) and hash(r) == hash((r.integer_form, False))
    assert repr(mat) == (
        "Mat2(rows=((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3))))"
    )
    # rows are built from the form, so a matrix built from ints prints its
    # Fractions, as every equal matrix does
    assert repr(Mat2(((1, 0), (F(1, 2), 2)))) == (
        "Mat2(rows=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(2, 1))))"
    )
    assert repr(Ricci2(((1, F(1, 2)), (0, 3)), cleared=True)) == (
        "Ricci2(rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(3, 1))), cleared=True)"
    )
    assert repr(Mat2(((1, 0), (0, 1)))) == repr(Mat2.identity())
    assert repr(Ricci2.of_integers((2, 1, 0, 6), 2, False)) == (
        "Ricci2(rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(3, 1))), cleared=False)"
    )
    assert repr(type_b(0, F(1, 2), 2, 3, 4, 5)) == "N(0, 1/2, 2, 3, 4, 5)"
    same = Ricci2(mat.rows)
    assert same.integer_form == mat.integer_form and same.to_strings() == mat.to_strings()
    assert mat != same and same != mat and not mat == same and same != Ricci2(mat.rows, cleared=True)
    assert Ricci2(mat.rows) == Ricci2.of_integers((2, 4, 6, 8), 12, False)
    assert type_a(*m.coeffs) == m and type_b(*m.coeffs) != m and m != type_b(*m.coeffs)
    point = Rank1Chart(*mat.rows[0], *mat.rows[1])
    assert point.integer_form == mat.integer_form and point != mat and mat != point
    # a matrix holds rationals only
    with pytest.raises(TypeError, match="cannot interpret QuadExt as a rational"):
        Mat2(((ONE, ZERO), (ZERO, QuadExt(0, 1, F(2)))))
    with pytest.raises(TypeError):
        Mat2(((1.0, 0), (0, 1)))
    with pytest.raises(TypeError):
        Ricci2(((ONE, ZERO), (ZERO, QuadExt(0, 1, F(2)))))
    # every record: the repr, hash and equality of the frozen dataclass it
    # replaced, frozen fields, and copies through its constructor
    assert issubclass(FrozenInstanceError, AttributeError)
    records = _records()
    assert [type(rec) for rec in records] == list(DATACLASS_FIELDS)
    for rec in records:
        names = DATACLASS_FIELDS[type(rec)]
        ref = dataclasses.make_dataclass(type(rec).__name__, names, frozen=True)(*[getattr(rec, n) for n in names])
        assert repr(rec) == repr(ref)
        try:
            expected = hash(ref)
        except TypeError:  # a report holds dicts, so neither is hashable
            expected = None
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == expected
        assert rec == rec and rec != ref and not rec == ref
        for name in rec.__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 0
        for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(clone) is type(rec) and clone == rec and repr(clone) == repr(rec)
            assert expected is None or hash(clone) == expected
    # a field that differs breaks equality; the shear's matrix is derived
    shear = ShearMap(F(2), F(-1, 3))
    assert shear != ShearMap(F(2), F(1, 3)) and shear != ShearMap(F(-2), F(-1, 3))
    assert shear.matrix == Mat2(((ONE, ZERO), (F(-1, 3), F(2)))) and "matrix" not in repr(shear)
    assert shear.matrix.integer_form == ((3, 0, -1, 6), 3)
    scale, offset = F(2), F(-1, 3)
    fractions_made.clear()
    ShearMap(scale, offset)
    assert fractions_made == []  # the matrix is built from the integers of a and b
    assert EquivalenceWitnesses("undecided", reason="x") != EquivalenceWitnesses("undecided", reason="y")


#: each record type with its fields, in their order: those of the frozen
#: dataclass it replaced, less any field the others fix (StratumFlags keeps
#: its primary stratum alone, IsotropyFamily its parameter names and not
#: their count, CheckResult its counterexample and not whether it passed);
#: ShearMap's third field, the matrix, was out of the repr and of equality
DATACLASS_FIELDS = {
    LinearMap2: ("matrix",),
    ShearMap: ("a", "b"),
    CirclePoint: ("c", "s"),
    CatalogEntry: ("entry_id", "model_type", "param_names", "constraints", "build", "check", "aliases"),
    RicciSplit: ("symmetric", "alt"),
    RankSig: ("rank", "label"),
    StratumFlags: ("primary",),
    Curvature: ("ricci", "split", "sig", "flags"),
    IsotropyFamily: ("param_names", "constraints", "template", "build"),
    IsotropyGroup: ("finite_elements", "families"),
    EquivalenceWitnesses: ("status", "maps", "obstruction", "reason"),
    FlatAChart: ("theta", "r", "s", "t"),
    Rank1Reduction: ("rotation", "normalized", "scale"),
    FamilyMembership: ("family", "params"),
    TypeBMembership: ("members", "intersections"),
    ClassificationReport: (
        "model", "flags", "ricci_data", "rank_data", "stratum", "orbit", "admits_type_b", "errors"
    ),
    CheckResult: ("check_id", "description", "samples_used", "counterexample"),
    VerificationReport: ("seed", "samples", "results"),
}


def _records():
    """One instance of each record type, in the order of
    :data:`DATACLASS_FIELDS`, each with fields that pickle."""
    rotation = LinearMap2(CirclePoint(F(3, 5), F(4, 5)).rotation())
    a = pullback_type_a(canonical_model("M4_1", (2,)), rotation)
    b = alt_b_param("V2", (1, 2, 3))
    family = IsotropyFamily(("x", "y"), ("x, y independent",), "[x | y]", mat2_from_cols)
    check = CheckResult("action_laws", "the law is an action", 3, "sample 0")
    return [
        LinearMap2(Mat2(((ONE, F(2)), (F(3), F(4))))),
        ShearMap(F(2), F(-1, 3)),
        CirclePoint(F(3, 5), F(4, 5)),
        COEFF_FAMILIES["V1"],
        split_ricci(ricci(b)),
        rank_signature(ricci(a)),
        stratum_flags(b),
        curvature_of(b),
        family,
        IsotropyGroup((LinearMap2.identity(), rotation), (family,)),
        solve_equivalence_a(a, pullback_type_a(a, rotation)),
        flat_a_coords(flat_a_param(circle_from_slope(F(1, 2)), 1, 2, 3)),
        rank1_reduce(a),
        classify_alt_b(b).members[0],
        classify_alt_b(b),
        classify_model(a),
        check,
        VerificationReport(1, 3, (check,)),
    ]


def test_records_are_built_by_the_base_constructor():
    """Every record is built alike from its fields by position and by
    keyword, a bad call raises TypeError as a Python signature would, and
    the two records with defaults fill in the fields a call leaves out."""
    for rec in _records():
        cls, names = type(rec), DATACLASS_FIELDS[type(rec)]
        values = [getattr(rec, name) for name in names]
        named = dict(zip(names, values))
        built = cls(**named)
        assert built == cls(*values) == rec and repr(built) == repr(rec)
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(**named, extra=None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError, match="missing"):
            cls(**{name: value for name, value in named.items() if name != names[0]})
    undecided = EquivalenceWitnesses("undecided", reason="x")
    assert undecided.maps == () and undecided.obstruction is None
    assert undecided == EquivalenceWitnesses("undecided", (), None, "x")
    entry = CatalogEntry("X", "A", (), "", lambda p: (0, 0, 0, 0, 0, 0))
    assert entry.check is _no_constraint and entry.aliases == ()


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("kind", ["A", "B"])
def test_curvature_returns_the_shared_signature_and_flags(kind, height):
    """rank_signature and curvature_of return the values built once in
    RANK_SIGS and PRIMARY_FLAGS, equal to the flags the reference below
    computes from the Fraction rows."""
    assert all(sig.label == label for label, sig in RANK_SIGS.items())
    assert all(flags.primary == primary for primary, flags in PRIMARY_FLAGS.items())

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(models(kind, height), type_b_points(height) if kind == "B" else flat_models(height)))
    def check(m):
        cv = curvature_of(m)
        assert cv.sig is RANK_SIGS[cv.sig.label] and cv.flags is PRIMARY_FLAGS[cv.flags.primary]
        assert stratum_flags(m) is cv.flags and rank_signature(cv.split.symmetric) is cv.sig
        rows = fraction_ricci_rows(m)
        (r11, r12), (r21, r22) = rows
        off, alt = (r12 + r21) / 2, (r12 - r21) / 2
        sig = fraction_signature(((r11, off), (off, r22)))
        flat = r11 == r12 == r21 == r22 == 0
        alt_only = r11 == off == r22 == 0 and alt != 0
        rank1 = not flat and not alt_only and sig.rank == 1
        assert cv.sig == sig
        fl = cv.flags
        assert (fl.is_cone_point, fl.is_flat, fl.is_rank1_pos, fl.is_rank1_neg, fl.is_alt_only, fl.is_rank2) == (
            m.is_zero(), flat, rank1 and sig.label == RANK1_POS, rank1 and sig.label == RANK1_NEG,
            alt_only, not flat and sig.rank == 2,
        )

    check()


# ---------------------------------------------------------------------------
# The flat chart


def fraction_flat_a_coords(m):
    """Reference: the chart inverse on the Fraction coefficients."""
    q = m.a / 2
    w = m.c
    s = m.d - m.a / 2
    v = m.e
    p = (m.b + m.f) / 2
    t = (m.b - m.f) / 2
    if v != 0 or w != 0:
        r2 = v * v + w * w
        r = sqrt_rational(r2)
        if r is None:
            raise NonRationalCirclePointError(
                f"the radius must satisfy x^2 = {r2}, which has no rational root"
            )
        return FlatAChart(CirclePoint(v / r, w / r), r, s, t)
    den = s * s + t * t
    if den == 0:
        raise ConePointError("degenerate chart data")
    if p * p + q * q != den:
        raise NotFlatError("chart residual is nonzero")
    cos2 = (s * q - t * p) / den
    sin2 = (s * p + t * q) / den
    if cos2 == -1:
        theta = CirclePoint(ZERO, ONE)
    else:
        c = sqrt_rational((1 + cos2) / 2)
        if c is None:
            raise NonRationalCirclePointError(
                f"the cosine must satisfy x^2 = {(1 + cos2) / 2}, which has no rational root"
            )
        theta = CirclePoint(c, sin2 / (2 * c))
    if not theta.is_lex_positive():
        theta = theta.antipode()
    return FlatAChart(theta, ZERO, s, t)


def double_angle_model(double, s, t):
    """The flat chart model at r = 0, written with the double angle
    (cos 2theta, sin 2theta) = ``double``: rational even when theta is not."""
    p = s * double.s - t * double.c
    q = s * double.c + t * double.s
    return TypeAModel(2 * q, p + t, 0, q + s, 0, p - t)


def flat_models(height):
    flat_catalog = [CATALOG[i].model() for i in ("M1_0", "M2_0", "M3_0", "M4_0", "M5_0")]
    chart = st.lists(scalars(height), min_size=4, max_size=4).map(
        lambda point: _catalog_model(COEFF_FAMILIES["flat_a"], point)
    )
    doubled = st.builds(double_angle_model, scalars(height).map(circle_from_slope), scalars(height), scalars(height))
    pulled = st.tuples(st.sampled_from(flat_catalog), maps(height)).map(lambda pair: pullback_type_a(*pair))
    return st.one_of(chart, doubled, pulled, st.tuples(st.one_of(chart, doubled), maps(height)).map(
        lambda pair: pullback_type_a(*pair)
    ))


@pytest.mark.parametrize("height", HEIGHTS)
def test_flat_chart_equals_fraction_reference(height):
    @settings(max_examples=300, deadline=None)
    @given(flat_models(height))
    def check(m):
        assume(not m.is_zero())
        assert outcome(_flat_a_coords, m) == outcome(fraction_flat_a_coords, m)

    check()


def test_flat_chart_error_messages_byte_for_byte():
    """Both NonRationalCirclePointError messages, on a pullback with an
    irrational radius and on an r = 0 model with an irrational half angle."""
    radius = pullback_type_a(CATALOG["M3_0"].model(), LinearMap2(Mat2(((ONE, F(2)), (F(-1, 3), F(5))))))
    cosine = double_angle_model(circle_from_slope(F(1, 3)), F(2), F(-1, 5))
    messages = []
    for m in (radius, cosine):
        with pytest.raises(NonRationalCirclePointError) as got:
            _flat_a_coords(m)
        with pytest.raises(NonRationalCirclePointError) as want:
            fraction_flat_a_coords(m)
        assert str(got.value) == str(want.value)
        messages.append(str(got.value).split(" ")[1])
    assert messages == ["radius", "cosine"]


# ---------------------------------------------------------------------------
# The rank-one chart and the cubic pattern


def reduced_models(height):
    random_reduced = st.lists(scalars(height), min_size=4, max_size=4).map(
        lambda v: TypeAModel(v[0], 0, v[1], 0, v[2], v[3])
    )
    rank1 = [e for e in CATALOG.values() if e.entry_id.endswith("_1")]
    catalog = st.sampled_from(rank1).flatmap(
        lambda e: st.lists(scalars(height), min_size=e.arity, max_size=e.arity).map(
            lambda params, e=e: _catalog_model(e, params)
        )
    )
    framed = st.tuples(catalog, maps(height)).map(lambda pair: rank1_frame(pullback_type_a(*pair))[1])
    return st.one_of(random_reduced, catalog, framed)


@pytest.mark.parametrize("height", HEIGHTS)
def test_rank1_chart_equals_fraction_reference(height):
    @settings(max_examples=200, deadline=None)
    @given(reduced_models(height))
    def check(m):
        chart = rank1_chart_inverse(m)
        assert chart == Rank1Chart(m.f / 2, (m.a + m.e) / 2, m.c - m.f / 2, (m.a - m.e) / 2)
        p, q, u, v = chart.p, chart.q, chart.u, chart.v
        scale = p * p + q * q - u * u - v * v
        assert chart.scale == scale and type(chart.scale) is F
        assert chart.sign == ("+" if scale > 0 else "-" if scale < 0 else "0")
        assert chart.to_dict()["sign"] == chart.sign

    check()


def fraction_cubic_pattern(cubic):
    """Reference: the closed-form pattern on the cleared Fraction cubic."""
    (a, b, c, d), _ = clear_denominators(cubic)
    if a == b == c == d == 0:
        return "zero"
    disc = b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    if disc != 0:
        return "three_simple" if disc > 0 else "one_real"
    if b * b == 3 * a * c and b * c == 9 * a * d and c * c == 3 * b * d:
        return "triple"
    return "double_simple"


@pytest.mark.parametrize("height", HEIGHTS)
def test_cubic_pattern_equals_fraction_reference(height):
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(models("A", height), flat_models(height)))
    def check(m):
        assert _cubic_pattern(m) == fraction_cubic_pattern(binary_cubic(m))

    check()


# ---------------------------------------------------------------------------
# Type B: the memberships and the Ricci split


def fraction_classify_flat_b(m):
    """Reference: regenerate the first family on Fractions."""
    a, b, c, d, e, f = m.coeffs
    members, labels = [], []
    if e != 0:
        r, s = e, c / e
        if tuple(FAMILY_BUILDS["U1"]([r, s])) != m.coeffs:
            raise NotInStratumError("flat model with e != 0 escapes the first family")
        return TypeBMembership((FamilyMembership("B1", (r, s)),), ())
    if c != 0 or f != 0 or d * (1 + a - d) != 0:
        raise NotInStratumError("flat model escapes the coordinate families")
    if d == 0:
        members.append(FamilyMembership("B2", (a, b)))
    if d == 1 + a:
        members.append(FamilyMembership("B3", (a, b)))
    if d == 0 and d == 1 + a:
        labels.append("B2&B3")
    if d == 0 and a == 1:
        labels.append("B1~&B2")
    if d == 1 + a and a == 0:
        members.append(FamilyMembership("B1closure", (ZERO, b / 2)))
        labels.append("B1~&B3")
    if not members:
        raise NotInStratumError("flat model escapes all three families")
    return TypeBMembership(tuple(members), tuple(labels))


def fraction_classify_alt_b(m):
    """Reference: regenerate the second alternating family on Fractions."""
    a, b, c, d, e, f = m.coeffs
    members = []
    if d == 0 and e == 0 and c == f:
        members.append(FamilyMembership("D1", (c, a, b)))
    u = (c + f) / 2
    v = e
    if u != 0:
        w = (f - u) / v if v != 0 else (1 - a) / (2 * u)
        if tuple(FAMILY_BUILDS["V2"]([u, v, w])) == m.coeffs:
            members.append(FamilyMembership("D2", (u, v, w)))
    if not members:
        raise NotInStratumError("alternating model escapes both families")
    return TypeBMembership(tuple(members), ("D1&D2",) if len(members) == 2 else ())


def type_b_points(height):
    """Points of the flat and alternating families, points on their
    intersection curves, and shear pullbacks of both."""
    families = [COEFF_FAMILIES[i] for i in ("U1", "U2", "U3", "U1_closure", "V1", "V2")]
    point = st.sampled_from(families).flatmap(
        lambda e: st.lists(scalars(height), min_size=e.arity, max_size=e.arity).map(
            lambda params, e=e: _catalog_model(e, params)
        )
    )
    curve = st.tuples(st.sampled_from([(-1, 0), (1, 0), (0, 1)]), scalars(height)).map(
        lambda ad_b: TypeBModel(ad_b[0][0], ad_b[1], 0, ad_b[0][1], 0, 0)
    )
    on_both = st.tuples(scalars(height).filter(lambda u: u != 0), scalars(height)).map(
        lambda uw: COEFF_FAMILIES["V2"].model((uw[0], 0, uw[1]))
    )
    known = st.one_of(point, curve, on_both)
    return st.one_of(known, st.tuples(known, shears(height)).map(lambda pair: pullback_type_b(*pair)))


@pytest.mark.parametrize("height", HEIGHTS)
def test_type_b_memberships_equal_fraction_reference(height):
    """On family points, their intersection curves, their shear pullbacks
    and any other Type B model, where both the membership and its refusal
    are compared."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(type_b_points(height), models("B", height)))
    def check(m):
        assert outcome(_classify_flat_b, m) == outcome(fraction_classify_flat_b, m)
        assert outcome(_classify_alt_b, m) == outcome(fraction_classify_alt_b, m)
        (r11, r12), (r21, r22) = ricci_type_b(m).rows
        off, alt = (r12 + r21) / 2, (r12 - r21) / 2
        split = split_ricci(ricci_type_b(m))
        assert split.alt == alt and split.sym == ((r11, off), (off, r22))

    check()


# ---------------------------------------------------------------------------
# 2 x 2 matrices and the unit circle


def matrices(height):
    entries = st.one_of(scalars(height), st.integers(-height, height))
    general = st.lists(entries, min_size=4, max_size=4)
    # a zero row, a zero column, or dependent rows
    singular = st.tuples(entries, entries, entries).flatmap(
        lambda xyk: st.sampled_from([
            [xyk[0], xyk[1], xyk[2] * xyk[0], xyk[2] * xyk[1]],
            [xyk[0], xyk[2] * xyk[0], xyk[1], xyk[2] * xyk[1]],
            [0, 0, xyk[0], xyk[1]],
        ])
    )
    return st.one_of(general, singular).map(lambda e: Mat2(((e[0], e[1]), (e[2], e[3]))))


@pytest.mark.parametrize("height", HEIGHTS)
def test_mat2_det_and_singular_test_equal_fraction_reference(height):
    @settings(max_examples=300, deadline=None)
    @given(matrices(height))
    def check(mat):
        (a, b), (c, d) = ((F(x) for x in row) for row in mat.rows)
        det = a * d - b * c
        assert mat.det() == det and type(mat.det()) is F
        assert mat.is_singular() == (det == 0)
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                mat.inverse()
            with pytest.raises(ValueError):
                LinearMap2(mat)
        else:
            inverse = ((d / det, -b / det), (-c / det, a / det))
            assert mat.inverse() == Mat2(inverse) and mat.inverse().rows == inverse
            assert mat @ mat.inverse() == Mat2.identity()

    check()


@pytest.mark.parametrize("height", HEIGHTS)
def test_mat2_product_and_forms_equal_fraction_reference(height):
    """The product, transpose and strings read the cached integer forms; a
    matrix handed its form (in any scaling, either sign) equals the one
    cleared from its rows, in ==, hash and rows."""

    @settings(max_examples=300, deadline=None)
    @given(matrices(height), matrices(height), st.integers(-5, 5).filter(lambda k: k != 0))
    def check(x, y, k):
        (a, b), (c, d) = ((F(v) for v in row) for row in x.rows)
        (e, f), (g, h) = ((F(v) for v in row) for row in y.rows)
        product = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        got = x @ y
        assert got.rows == product and got == Mat2(product) and hash(got) == hash(Mat2(product))
        assert got.to_strings() == [[str(v) for v in row] for row in product]
        assert x.transpose().rows == ((a, c), (b, d))
        p, den = x.integer_form
        assert den > 0 and math.gcd(*p, den) == 1 and list(p) == clear_denominators((a, b, c, d))[0]
        handed = mat2_of_integers([k * v for v in p], k * den)
        assert handed.integer_form == (p, den)
        assert handed == x and hash(handed) == hash(x) and handed.rows == ((a, b), (c, d))
        assert (mat2_of_integers(p, 2 * den) == x) == (not any(p))
        assert all(type(v) is F for row in handed.rows for v in row)
        # a Ricci tensor with the same entries shares the form, never the value
        tensor = Ricci2(x.rows)
        assert tensor.integer_form == x.integer_form and tensor.to_strings() == x.to_strings()
        assert tensor != x and x != tensor and tensor.det() == x.det()

    check()


@pytest.mark.parametrize("height", HEIGHTS)
def test_circle_check_equals_fraction_reference(height):
    @settings(max_examples=200, deadline=None)
    @given(scalars(height), scalars(height), st.booleans())
    def check(slope, nudge, on_circle):
        point = circle_from_slope(slope)
        t = F(slope)
        assert (point.c, point.s) == ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        c, s = (point.c, point.s) if on_circle else (point.c + nudge, point.s)
        if c * c + s * s == 1:
            assert CirclePoint(c, s) == CirclePoint(c, s)
        else:
            with pytest.raises(ValueError, match="is not on the unit circle"):
                CirclePoint(c, s)

    check()


# ---------------------------------------------------------------------------
# Parsing straight into the integer form


def literals(height):
    """A coefficient as a JSON value: an int, or a literal ``n`` or ``n/d``
    that need not be in lowest terms, signed or not, padded or not."""
    num = st.integers(-height, height)
    den = st.integers(1, height)
    text = st.one_of(
        num.map(str),
        st.tuples(num, den).map(lambda p: f"{p[0]}/{p[1]}"),
        st.tuples(st.integers(0, height), den).map(lambda p: f"+{p[0]}/{p[1]}"),
    )
    return st.one_of(num, text, text.map(lambda t: f" {t}\t"))


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("kind", ["A", "B"])
def test_parse_model_equals_fraction_built_model(kind, height, fractions_made):
    @settings(max_examples=150, deadline=None)
    @given(st.lists(literals(height), min_size=6, max_size=6))
    def check(items):
        doc = json.dumps({"type": kind, "coeffs": items})
        values = [rational(x) for x in items]
        fractions_made.clear()
        m = parse_model(doc)
        built = (TypeAModel if kind == "A" else TypeBModel)(*values)
        assert fractions_made == []  # neither keeps a Fraction view, nor builds one
        assert m == built and type(m) is type(built) and m.integer_form == built.integer_form
        assert m.coeffs == built.coeffs and serialize_model(m) == serialize_model(built)
        assert len(fractions_made) == 12  # each read of the six coefficients builds them

    check()


# ---------------------------------------------------------------------------
# The one-pass model constructor and the shear built from integers


#: the heights of the constructor's property tests, past a machine word
CONSTRUCTOR_HEIGHTS = (12, 10**6, 10**40)


def any_scalars(height):
    """A coefficient of each type a model takes: an int, a bool, a Fraction,
    or a rational literal, padded or not and not always in lowest terms."""
    return st.one_of(
        literals(height),
        st.booleans(),
        st.builds(F, st.integers(-height, height), st.integers(1, height)),
    )


@pytest.mark.parametrize("height", CONSTRUCTOR_HEIGHTS)
@pytest.mark.parametrize("cls", [TypeAModel, TypeBModel])
def test_constructor_equals_the_clearing_path(cls, height):
    """The constructor's one pass through the gate's table makes the form
    the clearing path makes (``references.cleared_coefficients``), and a
    float or a Decimal anywhere raises that path's TypeError, word for word."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(any_scalars(height), min_size=6, max_size=6))
    def same_form(values):
        m = cls(*values)
        assert m.integer_form == cleared_coefficients(values)
        assert m.coeffs == tuple(F(x) for x in values)

    refused = st.one_of(st.floats(allow_nan=False), st.decimals(allow_nan=False, allow_infinity=False))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(any_scalars(height), min_size=6, max_size=6), st.integers(0, 5), refused)
    def same_refusal(values, k, bad):
        values[k] = bad
        with pytest.raises(TypeError) as new:
            cls(*values)
        with pytest.raises(TypeError) as old:
            cleared_coefficients(values)
        assert str(new.value) == str(old.value) == f"cannot interpret {type(bad).__name__} as a rational"

    same_form()
    same_refusal()
    with pytest.raises(TypeError, match="^cannot interpret Decimal as a rational$"):
        cls(0, 0, Decimal(1), 0, 0, 0)


@pytest.mark.parametrize("height", CONSTRUCTOR_HEIGHTS)
def test_shear_from_integers_equals_shear_from_fractions(height, fractions_made):
    """``ShearMap.of_integers(an, bn, den)`` is ``ShearMap(an / den, bn / den)``
    in equality, repr, hash and JSON, and builds no Fraction; the inverse and
    the composite, computed on the integer forms, are the Fraction ones."""
    nonzero = st.integers(-height, height).filter(bool)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nonzero, st.integers(-height, height), nonzero, nonzero, st.integers(-height, height), nonzero)
    def check(an, bn, den, an1, bn1, den1):
        fractions_made.clear()
        built, other = ShearMap.of_integers(an, bn, den), ShearMap.of_integers(an1, bn1, den1)
        assert fractions_made == []
        a, b, a1, b1 = F(an, den), F(bn, den), F(an1, den1), F(bn1, den1)
        ref = ShearMap(a, b)
        assert built == ref and built.matrix == ref.matrix and (built.a, built.b) == (a, b)
        assert repr(built) == repr(ref) and hash(built) == hash(ref) and built.to_json() == ref.to_json()
        assert built.inverse() == ShearMap(1 / a, -b / a)
        assert built.compose(other) == ShearMap(a * a1, b + a * b1)

    check()
    for zero_scale in (lambda: ShearMap.of_integers(0, 1, 2), lambda: ShearMap(F(0), F(1, 2))):
        with pytest.raises(ValueError, match="shear scale must be nonzero"):
            zero_scale()


#: the end of the message for a literal whose integer int() refuses
PAST_LIMIT = f"an integer past int()'s limit of {sys.get_int_max_str_digits()} digits"

#: malformed coefficients and the ModelParseError text each one raises; a
#: long literal is echoed as its first 20 characters and its length
MALFORMED = [
    ("1.5", "coefficient 1.5 is not an exact rational literal"),
    ("true", "coefficient True is not an exact rational literal"),
    ("null", "coefficient None is not an exact rational literal"),
    ("[1]", "coefficient [1] is not an exact rational literal"),
    ('{"n": 1}', "coefficient {'n': 1} is not an exact rational literal"),
    ('"1/0"', "not a rational literal: '1/0'"),
    ('"-0/0"', "not a rational literal: '-0/0'"),
    ('"1e3"', "not a rational literal: '1e3'"),
    ('"0.5"', "not a rational literal: '0.5'"),
    ('" 1 / 2 "', "not a rational literal: ' 1 / 2 '"),
    ('"1/-2"', "not a rational literal: '1/-2'"),
    ('"--1"', "not a rational literal: '--1'"),
    ('""', "not a rational literal: ''"),
    ('"%s"' % ("9" * 5000), "not a rational literal: '%s'... (5000 characters), %s" % ("9" * 20, PAST_LIMIT)),
    ('"1/%s"' % ("9" * 5000), "not a rational literal: '1/%s'... (5002 characters), %s" % ("9" * 18, PAST_LIMIT)),
    ("9" * 5000, "a JSON integer coefficient is too long to be a rational literal"),
]


@pytest.mark.parametrize("item, message", MALFORMED, ids=[m[:30] for m, _ in MALFORMED])
def test_parse_model_rejects_malformed_literals_with_todays_text(item, message):
    doc = '{"type": "A", "coeffs": [0, "1/2", %s, 0, 0, 0]}' % item
    with pytest.raises(ModelParseError) as info:
        parse_model(doc)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The rank-one chart point


def test_rank1_chart_holds_its_integer_form(fractions_made):
    fractions_made.clear()
    chart = Rank1Chart.of_integers((2, -4, 6, 0), 8)
    assert chart.integer_form == ((1, -2, 3, 0), 4)
    assert fractions_made == []  # the coordinates are built when read, at each read
    assert all(type(x) is F for x in chart.coords) and len(fractions_made) == 4
    assert chart.coords == chart.coords and len(fractions_made) == 12
    assert (chart.p, chart.q, chart.u, chart.v) == (F(1, 4), F(-1, 2), F(3, 4), ZERO)
    same = Rank1Chart(F(1, 4), F(-2, 4), F(3, 4), 0)
    assert chart == same and hash(chart) == hash(same) and chart.integer_form == same.integer_form
    assert chart != Rank1Chart(F(1, 4), F(-1, 2), F(3, 4), F(1, 9))
    assert chart != (F(1, 4), F(-1, 2), F(3, 4), ZERO)
    assert chart.scale == F(1, 16) + F(1, 4) - F(9, 16) and chart.sign == "-"
    assert chart.to_dict() == {"p": "1/4", "q": "-1/2", "u": "3/4", "v": "0", "sign": "-"}
    assert repr(chart) == "Rank1Chart(p=Fraction(1, 4), q=Fraction(-1, 2), u=Fraction(3, 4), v=Fraction(0, 1))"
    assert pickle.loads(pickle.dumps(chart)) == chart and copy.deepcopy(chart) == chart
    assert Rank1Chart.of_integers((3, 0, 0, 0), -3) == Rank1Chart(-1, 0, 0, 0)  # the sign goes to the numerators
    for name in ("p", "integer_form", "coords"):
        with pytest.raises((FrozenInstanceError, AttributeError)):
            setattr(chart, name, ZERO)
    with pytest.raises(FrozenInstanceError):
        chart.integer_form = ((0, 0, 0, 0), 1)
