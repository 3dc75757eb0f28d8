"""An independent oracle for the polynomial kernel, sympy's exact root
finding, for the cubic law of the rank-two equivalence rule, and for the
Ricci tensors and the coefficient law, derived here from the connection by
symbolic differentiation, where sympy is installed.  The package itself does
not depend on sympy; without it these tests are skipped."""

import random
from types import SimpleNamespace
from fractions import Fraction as F

import pytest

from affinestrata.curvature import ricci_type_a, ricci_type_b
from affinestrata.exact import Mat2, ShearMap
from affinestrata.group_action import pullback_type_b, transform_coeffs
from affinestrata.polys import binary_cubic_pattern, pmul, rational_roots
from affinestrata.sampling import rand_linear_map, rand_model_a, rand_model_b, rand_nonzero, rand_rational
from references import binary_cubic, ring_law

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("x y")


def to_sympy(p):
    """An ascending Fraction coefficient list as a sympy polynomial in x."""
    return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator) for c in p])), X)


def random_poly(rng):
    """A product of random linear and quadratic factors (so rational,
    repeated and irrational roots all occur), or a dense random polynomial."""
    if rng.random() < 0.3:
        return [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(rng.randint(2, 7))]
    p = [F(rng.randint(1, 9), rng.randint(1, 9))]
    for _ in range(rng.randint(1, 4)):
        degree = rng.choice((1, 1, 2))
        factor = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(degree)] + [F(rng.randint(1, 12))]
        p = pmul(p, factor)
    return p


#: edge inputs of the 1/L lattice rule: adjacent lattice roots 1/13 and 1/12
#: (L = 156), the same mirrored under a negative leading coefficient, roots
#: 1/2 and -3 at bisection midpoints, the midpoint root -1/2 with an
#: irrational root less than 1/L to its right, the root 2 next to the lattice
#: point 3, and zero beside the adjacent roots 1/3 and 1/2 (L = 6)
LATTICE_EDGES = [
    pmul([F(-1), F(12)], [F(-1), F(13)]),
    pmul([F(1), F(12)], [F(-3), F(-39)]),
    [F(-3), F(5), F(2)],
    pmul([F(1), F(2)], [F(-4), F(-9), F(1)]),
    pmul([F(-2), F(1)], [F(-6), F(-9), F(1)]),
    pmul([F(0), F(0), F(1)], [F(1), F(-5), F(6)]),
]

#: zero of multiplicity 1, 2 and 3 beside the roots -1/12 and 12 (double)
#: and the irrational pair of x^2 - 2
ZERO_ROOTS = [
    pmul([F(0)] * k + [F(1)], pmul(pmul([F(1), F(12)], [F(-12), F(1)]), pmul([F(-12), F(1)], [F(-2), F(0), F(1)])))
    for k in (1, 2, 3)
]


def test_rational_roots_against_sympy():
    rng = random.Random(101)
    for p in [random_poly(rng) for _ in range(300)] + LATTICE_EDGES + ZERO_ROOTS:
        if not any(p):
            continue
        expected = {F(int(r.p), int(r.q)): m for r, m in to_sympy(p).ground_roots().items()}
        got = rational_roots(p)
        assert dict(got) == expected, p
        assert len(got) == len(expected)


def test_binary_cubic_pattern_against_sympy():
    """Real root directions of the cubic, counted with multiplicity, and the
    number of distinct ones, from sympy's factorization over the rationals
    and its real-root count of each factor."""
    rng = random.Random(103)

    def pattern(k3, k2, k1, k0):
        form = sympy.Poly(k3 * X**3 + k2 * X**2 * Y + k1 * X * Y**2 + k0 * Y**3, X, Y)
        if form.is_zero:
            return "zero"
        mults = []  # multiplicity of each distinct real direction
        for factor, mult in form.factor_list()[1]:
            if factor.degree(X) == 0:  # a power of Y: the direction (0:1)
                mults.append(factor.degree(Y) * mult)
                continue
            real = sympy.Poly(factor.as_expr().subs(Y, 1), X).count_roots()
            mults += [mult] * real
        if sum(mults) < 3:
            return "one_real"
        return {1: "triple", 2: "double_simple", 3: "three_simple"}[len(mults)]

    for _ in range(300):
        if rng.random() < 0.5:
            cubic = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        else:  # a linear form times a quadratic one: repeated directions often
            p, q, r, s, t = (F(rng.randint(-3, 3)) for _ in range(5))
            cubic = [p * r, p * s + q * r, p * t + q * s, q * t]
        k = [sympy.Rational(c.numerator, c.denominator) for c in cubic]
        assert binary_cubic_pattern(tuple(cubic)) == pattern(*k), cubic


def test_binary_cubic_law():
    """f(pullback(m, T))(y) = det T f(T^-1 y) for the binary cubic
    f(x) = det(x, G(x, x)), with symbolic coefficients, map and point."""
    g = sympy.symbols("a b c d e f")
    t11, t12, t21, t22 = sympy.symbols("t11 t12 t21 t22")
    y = (X, Y)

    def cubic_at(coeffs, x):
        k3, k2, k1, k0 = binary_cubic(SimpleNamespace(coeffs=coeffs))
        return k3 * x[0] ** 3 + k2 * x[0] ** 2 * x[1] + k1 * x[0] * x[1] ** 2 + k0 * x[1] ** 3

    det = t11 * t22 - t12 * t21
    pulled = ring_law(g, ((t11, t12), (t21, t22)))
    s_y = ((t22 * X - t12 * Y) / det, (-t21 * X + t11 * Y) / det)
    assert sympy.cancel(cubic_at(pulled, y) - det * cubic_at(g, s_y)) == 0


#: (k, i, j) of G^k_ij for each coefficient slot a, b, c, d, e, f
SLOTS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
X1, X2 = sympy.symbols("x1 x2", positive=True)
Y1, Y2 = sympy.symbols("y1 y2", positive=True)


def exact(q):
    return sympy.Rational(q.numerator, q.denominator)


def connection(coeffs, profile=1):
    """G^k_ij as gamma[k][i][j], each coefficient times ``profile``."""
    gamma = [[[None, None], [None, None]] for _ in range(2)]
    for value, (k, i, j) in zip(coeffs, SLOTS):
        gamma[k][i][j] = gamma[k][j][i] = value * profile
    return gamma


def ricci_from_connection(gamma, xs):
    """rho_jl = R^i_lij for R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj
    - G^i_lm G^m_kj, as a matrix with rows j."""

    def riemann(i, j, k, l):
        return (
            sympy.diff(gamma[i][l][j], xs[k]) - sympy.diff(gamma[i][k][j], xs[l])
            + sum(gamma[i][k][m] * gamma[m][l][j] - gamma[i][l][m] * gamma[m][k][j] for m in range(2))
        )

    return sympy.Matrix(2, 2, lambda j, l: sum(riemann(i, l, i, j) for i in range(2)))


def chain_rule(gamma, x_of_y, ys=(Y1, Y2)):
    """The six coefficients in coordinates y for x = x(y), by the chain rule
    G'(y) = dy/dx (G(dx/dy, dx/dy) + d^2x/dy^2)."""
    jac = sympy.Matrix(2, 2, lambda a, i: sympy.diff(x_of_y[a], ys[i]))
    inv = jac.inv()
    at = dict(zip((X1, X2), x_of_y))
    out = []
    for k, i, j in SLOTS:
        out.append(sympy.simplify(sum(
            inv[k, a] * (
                sum(gamma[a][b][c].subs(at) * jac[b, i] * jac[c, j] for b in range(2) for c in range(2))
                + sympy.diff(x_of_y[a], ys[i], ys[j])
            )
            for a in range(2)
        )))
    return out


def test_ricci_tensors_from_the_connection():
    """Both Ricci kernels equal the contraction of the curvature tensor of
    the connection: constant G for Type A, and G = C / x1 for Type B, whose
    Ricci tensor times x1^2 is the stored cleared form."""
    rng = random.Random(107)
    for _ in range(8):
        m = rand_model_a(rng)
        rho = ricci_from_connection(connection([exact(q) for q in m.coeffs]), (X1, X2))
        assert rho == sympy.Matrix([[exact(q) for q in row] for row in ricci_type_a(m).rows]), m
        n = rand_model_b(rng)
        rho = ricci_from_connection(connection([exact(q) for q in n.coeffs], 1 / X1), (X1, X2))
        cleared = (rho * X1**2).applyfunc(sympy.simplify)
        assert cleared == sympy.Matrix([[exact(q) for q in row] for row in ricci_type_b(n).rows]), n


def test_coefficient_law_by_the_chain_rule():
    """The law G' = T G(S., S.) with S = T^-1, the pullback to y = T x, is
    the chain rule at x = S y: symbolically for symbolic coefficients and
    map (against the tests' law over any field), and on random rational
    models and maps against ``transform_coeffs``."""
    g = sympy.symbols("a b c d e f")
    t = sympy.Matrix(2, 2, sympy.symbols("t11 t12 t21 t22"))
    x_of_y = list(t.inv() * sympy.Matrix([Y1, Y2]))
    pulled = chain_rule(connection(g), x_of_y)
    law = ring_law(g, ((t[0, 0], t[0, 1]), (t[1, 0], t[1, 1])))
    assert all(sympy.cancel(p - q) == 0 for p, q in zip(pulled, law))
    rng = random.Random(109)
    for _ in range(8):
        m, rows = rand_model_a(rng), rand_linear_map(rng).matrix.rows
        at = dict(zip(g, map(exact, m.coeffs))) | dict(zip(t, map(exact, rows[0] + rows[1])))
        assert [p.subs(at) for p in pulled] == [exact(q) for q in transform_coeffs(m, rows)], (m, rows)


def test_shear_law_by_the_chain_rule():
    """A shear y = (x1, a x2 + b x1) keeps the 1/x1 profile of a Type B
    connection, and the chain rule gives ``pullback_type_b``."""
    rng = random.Random(113)
    for _ in range(8):
        n, phi = rand_model_b(rng), ShearMap(rand_nonzero(rng, 12), rand_rational(rng, 12))
        a, b = exact(phi.a), exact(phi.b)
        pulled = chain_rule(connection([exact(q) for q in n.coeffs], 1 / X1), [Y1, (Y2 - b * Y1) / a])
        profile = [sympy.simplify(p * Y1) for p in pulled]
        assert all(not p.free_symbols for p in profile), (n, phi)
        assert profile == [exact(q) for q in pullback_type_b(n, phi).coeffs], (n, phi)
