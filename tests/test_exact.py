from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from affinestrata.exact import (
    CirclePoint,
    Mat2,
    circle_from_slope,
    jacobian,
    mat_rank,
    primitive_covector,
    rational,
    rational_str,
    solve_linear,
    sqrt_rational,
)

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


def test_mat_rank():
    assert mat_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert mat_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert mat_rank([[F(1), F(0), F(3)], [F(0), F(1), F(0)]]) == 2
