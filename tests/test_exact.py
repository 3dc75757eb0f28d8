import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from affinestrata.exact import (
    CirclePoint,
    Mat2,
    ShearMap,
    circle_from_slope,
    jacobian,
    lowest_terms,
    mat_rank,
    primitive_covector,
    rational,
    rational_str,
    solve_3x2,
    solve_integer,
    solve_linear,
    sqrt_rational,
)
from affinestrata.law import carries, transform_coeffs
from affinestrata.group_action import isotropy_type_a
from affinestrata.models import type_a
from affinestrata.polys import rational_roots
from affinestrata.strata import Rank1Chart
from references import QuadExt

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_rational_parsing_and_formatting():
    assert rational("3/5") == F(3, 5)
    assert rational("-7") == F(-7)
    assert rational(4) == F(4)
    assert rational_str(F(3, 5)) == "3/5"
    assert rational_str(F(-3, 5)) == "-3/5"
    assert rational_str(F(8, 4)) == "2"
    with pytest.raises(ValueError):
        rational("x")
    with pytest.raises(ValueError):
        rational("1/0")


def test_sqrt_rational():
    assert sqrt_rational(F(9, 4)) == F(3, 2)
    assert sqrt_rational(F(0)) == 0
    assert sqrt_rational(F(2)) is None
    assert sqrt_rational(F(-1)) is None


def test_primitive_covector():
    assert primitive_covector((F(2, 3), F(-4, 3))) == (1, -2)
    assert primitive_covector((F(0), F(-5))) == (0, 1)
    with pytest.raises(ValueError):
        primitive_covector((F(0), F(0)))


def test_circle_from_slope_examples():
    assert circle_from_slope(F(0)) == CirclePoint(F(1), F(0))
    assert circle_from_slope(F(1)) == CirclePoint(F(0), F(1))
    # direct substitution into the half-angle formulas
    assert circle_from_slope(F(1, 2)) == CirclePoint(F(3, 5), F(4, 5))


@given(rationals)
def test_circle_from_slope_is_on_circle(t):
    p = circle_from_slope(t)
    assert p.c * p.c + p.s * p.s == 1


def test_circle_point_validation():
    with pytest.raises(ValueError):
        CirclePoint(F(1, 2), F(1, 2))


def test_mat2_basics():
    m = Mat2.of(F(1), F(2), F(3), F(4))
    assert m.det() == -2
    assert (m @ m.inverse()) == Mat2.identity()
    assert m.transpose().rows == ((F(1), F(3)), (F(2), F(4)))
    singular = Mat2.of(F(1), F(2), F(2), F(4))
    with pytest.raises(ZeroDivisionError):
        singular.inverse()
    with pytest.raises(ZeroDivisionError):
        Mat2.of(1, 2, 2, 4).inverse()


def test_mat2_inverse_of_int_entries_is_exact():
    inv = Mat2.of(2, 0, 0, 1).inverse()
    assert inv == Mat2.of(F(1, 2), F(0), F(0), F(1))
    assert all(type(x) is F for row in inv.rows for x in row)
    assert Mat2.of(1, 2, 3, 4).inverse() == Mat2.of(F(1), F(2), F(3), F(4)).inverse()


def test_shear_inverse_of_int_fields_is_exact():
    """Dividing int fields gives Fractions, not floats the gate refuses."""
    phi = ShearMap(2, 1)
    assert phi.inverse() == ShearMap(F(1, 2), F(-1, 2))
    assert phi.inverse().to_json() == {"a": "1/2", "b": "-1/2", "matrix": [["1", "0"], ["-1/2", "1/2"]]}
    assert phi.compose(phi.inverse()).matrix == Mat2.identity()


def test_jacobian_linear_maps():
    fn = lambda v: (v[0], v[1], 0, 0, 0, 0)
    rows = jacobian(fn, [F(2), F(7)])
    assert mat_rank(rows) == 2
    fn2 = lambda v: (v[0], v[1], 0, 1 + v[0], 0, 0)
    rows2 = jacobian(fn2, [F(-1), F(0)])
    # columns are the partials with respect to each input
    assert [r[0] for r in rows2] == [F(1), F(0), F(0), F(1), F(0), F(0)]
    assert [r[1] for r in rows2] == [F(0), F(1), F(0), F(0), F(0), F(0)]


@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_jacobian_chain_rule(point, shift):
    f = lambda v: (v[0] * v[1], v[0] + v[1] * v[1], v[1])
    g = lambda w: (w[0] - w[2] * w[1] + shift[0], w[1] * w[0] + shift[1])
    comp = lambda v: g(f(v))
    jf = jacobian(f, point)
    jg = jacobian(g, list(f([F(p) for p in point])))
    jc = jacobian(comp, point)
    # chain rule: J(g o f) = J(g) @ J(f), exactly
    product = [
        [sum(jg[i][k] * jf[k][j] for k in range(len(jf))) for j in range(len(jf[0]))]
        for i in range(len(jg))
    ]
    assert jc == product


def test_solve_linear():
    sol = solve_linear([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol is not None
    particular, kernel = sol
    assert particular == [F(2), F(1)]
    assert kernel == []
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    particular, kernel = solve_linear([[F(1), F(1)]], [F(2)])
    assert len(kernel) == 1


def _system(rng, rank, height):
    """Three integer rows in two unknowns of the given rank, with a right
    side that is consistent (the rows at a rational point, cleared) or drawn
    at random; rank one includes multiples of (0, b) and zero rows."""
    draw = lambda: rng.randint(-height, height)
    if rank == 2:
        rows = [[draw(), draw()] for _ in range(3)]
    elif rank == 1:
        base = [draw() or 1, draw()] if rng.random() < 0.6 else [0, draw() or 1]
        rows = [[k * x for x in base] for k in (draw(), draw(), draw())]
    else:
        rows = [[0, 0] for _ in range(3)]
    if rng.random() < 0.5:
        x = [F(draw(), rng.randint(1, height)) for _ in range(2)]
        rhs = [row[0] * x[0] + row[1] * x[1] for row in rows]
        den = math.lcm(*[v.denominator for v in rhs])
        return [[a * den, b * den] for a, b in rows], [int(v * den) for v in rhs]
    return rows, [draw() for _ in range(3)]


@pytest.mark.parametrize("height", [1, 12, 10**6])
def test_closed_form_solve_equals_solve_integer(height):
    """The flat matchers' closed-form solve against the general fraction-free
    solver: the same verdict, the same rational particular solution y / q
    with q > 0, and kernel vectors that are positive multiples of the same
    basis vectors, on systems of every rank, consistent and inconsistent."""
    rng = random.Random(height)
    seen = set()
    for _ in range(3000):
        rows, rhs = _system(rng, rng.choice((0, 1, 2)), height)
        got, want = solve_3x2(rows, rhs), solve_integer(rows, rhs)
        rank = mat_rank(rows)
        seen.add((rank, want is not None))
        if want is None:
            assert got is None, (rows, rhs)
            continue
        (y, q, kernel), (y_ref, q_ref, kernel_ref) = got, want
        assert q > 0 and [F(n, q) for n in y] == [F(n, q_ref) for n in y_ref], (rows, rhs)
        assert len(kernel) == len(kernel_ref) == 2 - rank
        for (k1, k2), (r1, r2) in zip(kernel, kernel_ref):
            assert k1 * r2 == k2 * r1 and k1 * r1 + k2 * r2 > 0, (rows, rhs)
    assert seen == {(r, c) for r in (0, 1, 2) for c in (True, False)}


def test_lowest_terms_pins():
    """The form of every IntegerForm: divided by the gcd taken with the
    sign of the denominator, as a tuple, for six, four and other counts."""
    assert lowest_terms([3, -5, 7, 0, 11, 13], 2) == ((3, -5, 7, 0, 11, 13), 2)
    assert lowest_terms((2, 4, -6, 8, 0, 12), 14) == ((1, 2, -3, 4, 0, 6), 7)
    assert lowest_terms((2, -4, 6, 8), -10) == ((-1, 2, -3, -4), 5)
    assert lowest_terms([1, 2, 3, 4], -1) == ((-1, -2, -3, -4), 1)
    assert lowest_terms((0, 0, 0, 0, 0, 0), -7) == ((0, 0, 0, 0, 0, 0), 1)
    assert lowest_terms([6, -9], 12) == ((2, -3), 4)
    assert lowest_terms([5, 10, 15], -5) == ((-1, -2, -3), 1)
    assert all(type(lowest_terms(nums, 3)[0]) is tuple for nums in ([1, 2], [3, 6, 9, 12], [1] * 6))


def test_mat_rank():
    assert mat_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert mat_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert mat_rank([[F(1), F(0), F(3)], [F(0), F(1), F(0)]]) == 2


#: the isotropy family [[a^2, b], [0, a]] of M(0, 0, 0, 0, 1, 0)
_FAMILY = isotropy_type_a(type_a(0, 0, 0, 0, 1, 0)).families[0]

#: each scalar entry point of the package, called on the scalars q(n, d),
#: and its answer when q builds Fractions
GATE_CASES = {
    "transform_coeffs": (
        lambda q: transform_coeffs([q(1, 2), 0, 0, 0, q(1, 10), 0], ((1, 1), (0, 2))),
        (F(1, 2), F(0), F(-1, 4), F(0), F(3, 20), F(0)),
    ),
    "carries": (
        lambda q: carries(
            [q(1, 2), 0, 0, 0, q(1, 10), 0], ((1, 1), (0, 2)), (F(1, 2), 0, F(-1, 4), 0, F(3, 20), 0)
        ),
        True,
    ),
    "Rank1Chart": (
        lambda q: Rank1Chart(q(1, 2), 0, q(3, 4), 1).to_dict(),
        {"p": "1/2", "q": "0", "u": "3/4", "v": "1", "sign": "-"},
    ),
    "ShearMap": (
        lambda q: ShearMap(q(1, 2), q(3, 4)).to_json(),
        {"a": "1/2", "b": "3/4", "matrix": [["1", "0"], ["3/4", "1/2"]]},
    ),
    "CirclePoint": (lambda q: CirclePoint(q(3, 5), q(-4, 5)), CirclePoint(F(3, 5), F(-4, 5))),
    "circle_from_slope": (lambda q: circle_from_slope(q(1, 10)), CirclePoint(F(99, 101), F(20, 101))),
    "primitive_covector": (lambda q: primitive_covector((q(1, 2), q(-3, 4))), (2, -3)),
    "mat_rank": (lambda q: mat_rank([[q(1, 2), 1], [1, 2]]), 1),
    "solve_linear": (lambda q: solve_linear([[q(1, 2), 1]], [q(1, 4)]), ([F(1, 2), F(0)], [[F(-2), F(1)]])),
    "QuadExt": (lambda q: QuadExt(q(1, 2), q(3, 4), F(2)) * QuadExt(1, 1, F(2)), QuadExt(2, F(5, 4), F(2))),
    "jacobian": (lambda q: jacobian(lambda x: [x[0] * x[1]], [q(1, 2), 2]), [[F(2), F(1, 2)]]),
    "rational_roots": (lambda q: rational_roots([q(-1, 2), 0, 2]), [(F(1, 2), 1), (F(-1, 2), 1)]),
    "IsotropyFamily.instantiate": (
        lambda q: _FAMILY.instantiate([q(1, 10), q(1, 4)]).to_json(),
        [["1/100", "1/4"], ["0", "1/10"]],
    ),
    "sqrt_rational": (lambda q: sqrt_rational(q(9, 4)), F(3, 2)),
}

#: the foreign scalars q(n, d), with the error each must raise
FOREIGN = {
    "float": (lambda n, d: n / d, TypeError, "cannot interpret float as a rational"),
    "QuadExt": (lambda n, d: QuadExt(F(n, d), 0, F(2)), TypeError, "cannot interpret QuadExt as a rational"),
    "decimal": (lambda n, d: str(n / d), ValueError, "not a rational literal: '0.1'"),
}


@pytest.mark.parametrize(
    "name, kind",
    [(name, "float") for name in GATE_CASES]
    + [
        ("transform_coeffs", "QuadExt"),
        ("circle_from_slope", "decimal"),
        ("IsotropyFamily.instantiate", "decimal"),
    ],
)
def test_every_scalar_passes_one_gate(name, kind):
    """A float, a field element or a decimal literal at any scalar entry
    point is refused by the one gate (or by the literal grammar), where a
    float's binary value used to be taken silently; the same scalars as
    Fractions give the same answers as before."""
    call, expected = GATE_CASES[name]
    scalar, error, message = FOREIGN[kind]
    with pytest.raises(error, match=re.escape(message)):
        call(scalar)
    assert call(F) == expected
