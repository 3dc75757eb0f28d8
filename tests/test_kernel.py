"""The exact kernel: the integer pullback against the ring law, the
cross-multiplied witness check against a built pullback, the integer Ricci
tensors against their plain polynomial formulas, the closed-form orbit
dimension against the rank of the derivative over the dual numbers, the
orbit dimension the equivalence screen reads off each stratum's normal form
against both ranks, the fraction-free linear algebra against Gauss-Jordan
over Fractions, the reference quadratic extension (the dual numbers at
k = 0) against its (u, v) pair rules and the package's integer dual numbers
against it, and the rank-one frame, the integer reduced
solver and the signature against their Fraction forms, and the flat orbit
dispatch that runs one matcher per model."""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinestrata import sampling
from affinestrata.curvature import (
    RankSig,
    curvature_of,
    rank_signature,
    ricci_type_a,
    ricci_type_b,
)
from affinestrata.exact import (
    ONE,
    ZERO,
    LinearMap2,
    Mat2,
    QuadInt,
    _Dual,
    clear_denominators,
    mat_rank,
    solve_linear,
    sqrt_rational,
)
from affinestrata.law import _adjugate_law, carries, orbit_dimension_a, pullback_type_a, transform_coeffs
from affinestrata.frames import _frame_inverse, _rank1_frame, _solve_reduced_pair
from affinestrata.matchers import (
    _PATTERN_ORBIT,
    UnmatchedOrbitError,
    _match_m1,
    _match_m2,
    _match_m5,
    _match_tensor_line,
    match_flat_a_orbit,
)
from affinestrata.group_action import _stratum_normal_form
from affinestrata.models import CATALOG, TypeAModel, TypeBModel, canonical_model, type_a
from affinestrata.polys import binary_cubic_pattern
from affinestrata.strata import COEFF_FAMILIES
import references
from references import QuadExt, binary_cubic, gamma_law, ring_law


def scalars(height):
    """Rationals n/d with |n|, d <= height, mixed with zeros, integer-valued
    Fractions and plain ints."""
    return st.one_of(
        st.just(F(0)),
        st.integers(-height, height),
        st.integers(-height, height).map(F),
        st.builds(F, st.integers(-height, height), st.integers(1, height)),
    )


def sextuples(height):
    return st.lists(scalars(height), min_size=6, max_size=6)


def quadruples(height):
    return st.lists(scalars(height), min_size=4, max_size=4)


def as_fractions(values):
    return [F(x) for x in values]


@pytest.mark.parametrize("height", [12, 10**6])
def test_integer_pullback_equals_ring_pullback(height):
    @settings(max_examples=200, deadline=None)
    @given(sextuples(height), quadruples(height))
    def check(coeffs, t):
        assume(t[0] * t[3] - t[1] * t[2] != 0)
        rows = ((t[0], t[1]), (t[2], t[3]))
        got = transform_coeffs(coeffs, rows)
        # the model a pullback builds from the law's integers
        assert got == pullback_type_a(TypeAModel(*coeffs), LinearMap2(Mat2(rows))).coeffs
        assert got == ring_law(as_fractions(coeffs), (as_fractions(t[:2]), as_fractions(t[2:])))
        assert all(type(x) is F for x in got)

    check()


@pytest.mark.parametrize("height", [12, 10**6])
def test_carries_equals_built_pullback(height):
    """The cross-multiplied check against comparing a built pullback, on the
    true image and on the image changed in one entry (by a small step, or
    to an arbitrary value)."""

    @settings(max_examples=200, deadline=None)
    @given(sextuples(height), quadruples(height), st.integers(0, 5), scalars(height), st.booleans())
    def check(coeffs, t, slot, value, nudge):
        assume(t[0] * t[3] - t[1] * t[2] != 0)
        rows = ((t[0], t[1]), (t[2], t[3]))
        image = transform_coeffs(coeffs, rows)
        assert carries(coeffs, rows, image)
        assert carries(coeffs, rows, list(image))
        changed = list(image)
        changed[slot] = image[slot] + F(1, height) if nudge else value
        assert carries(coeffs, rows, changed) == (image == tuple(changed))

    check()


@settings(max_examples=100, deadline=None)
@given(sextuples(12), st.lists(scalars(12), min_size=2, max_size=2), scalars(12), st.booleans())
def test_singular_map_raises(coeffs, row, k, by_columns):
    """T with dependent rows (or a zero row), on every path."""
    if by_columns:
        t = ((row[0], k * row[0]), (row[1], k * row[1]))
    else:
        t = ((row[0], row[1]), (k * row[0], k * row[1]))
    with pytest.raises(ZeroDivisionError):
        transform_coeffs(coeffs, t)
    with pytest.raises(ZeroDivisionError):
        carries(coeffs, t, coeffs)
    with pytest.raises(ZeroDivisionError):
        ring_law(as_fractions(coeffs), (as_fractions(t[0]), as_fractions(t[1])))
    quad = tuple(tuple(QuadExt(x, 0, 2) for x in row) for row in t)
    with pytest.raises(ZeroDivisionError):
        ring_law(as_fractions(coeffs), quad)
    with pytest.raises(TypeError):  # the package's law takes rational maps only
        transform_coeffs(as_fractions(coeffs), quad)


def test_ring_path_serves_quadratic_scales():
    """Irrational scales go through the law over Q(sqrt(2)) and stay exact."""
    r = F(2)
    alpha = QuadExt(0, 1, r)  # sqrt(2)
    t = ((QuadExt(1, 0, r), QuadExt(0, 0, r)), (QuadExt(F(1, 3), 0, r), alpha))
    coeffs = (F(1), F(0), F(0), F(3), F(2), F(0))
    out = ring_law(coeffs, t)
    assert all(isinstance(x, QuadExt) for x in out)
    back = (
        (QuadExt(1, 0, r), QuadExt(0, 0, r)),
        (-t[1][0] / alpha, 1 / alpha),
    )
    assert ring_law(out, back) == tuple(QuadExt(x, 0, r) for x in coeffs)


@pytest.mark.parametrize("height", [1, 12, 10**6])
def test_straight_line_law_equals_the_gamma_form(height):
    """The one law, written straight-line, against its ``gamma_coeffs`` form
    on integer numerators and on entries in Z[sqrt(K)], all of them or mixed
    with ints as the forced irrational scales run it; a singular P raises in
    both."""
    rng = random.Random(height)
    draw = lambda: rng.randint(-height, height)
    singular = 0
    for _ in range(400):
        g = [draw() for _ in range(6)]
        k = rng.choice((-1, 2, 3, 12))
        for p in (
            [draw() for _ in range(4)],
            [QuadInt(draw(), draw(), k) for _ in range(4)],
            [draw(), 0, QuadInt(draw(), draw(), k), QuadInt(0, draw(), k)],
            [g[0], g[1], 2 * g[0], 2 * g[1]],
        ):
            try:
                want = gamma_law(g, *p)
            except ZeroDivisionError:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    _adjugate_law(g, *p)
                continue
            assert _adjugate_law(g, *p) == want, (g, p)
    assert 400 <= singular < 1600


@settings(max_examples=200, deadline=None)
@given(st.one_of(sextuples(12), sextuples(10**6)))
def test_integer_ricci_equals_polynomial_formulas(coeffs):
    a, b, c, d, e, f = as_fractions(coeffs)
    ra = ricci_type_a(TypeAModel(*coeffs)).rows
    assert ra == (
        ((a - d) * d + b * (f - c), c * d - b * e),
        (c * d - b * e, c * (f - c) + (a - d) * e),
    )
    rb = ricci_type_b(TypeBModel(*coeffs)).rows
    assert rb == (
        ((a - d + 1) * d + b * (f - c), c * d - b * e + f),
        (c * (d - 1) - b * e, -c * c + f * c + (a - d - 1) * e),
    )
    assert all(type(x) is F for row in ra + rb for x in row)


def jet_orbit_dimension(m) -> int:
    """Reference: the rank of the derivative at the identity of
    T -> pullback(m, T), one direction E_pq per evaluation of the ring law
    at T = I + eps E_pq over the dual numbers."""
    columns = []
    for k in range(4):
        t = [QuadExt(int(i in (0, 3)), int(i == k), 0) for i in range(4)]
        out = ring_law(m.coeffs, ((t[0], t[1]), (t[2], t[3])))
        columns.append([o.v for o in out])
    return mat_rank(columns)


def type_a_catalog():
    params = (F(2), F(-3), F(1, 2), F(7, 5))
    models = []
    for entry in CATALOG.values():
        if entry.model_type != "A":
            continue
        if entry.arity == 0:
            models.append(canonical_model(entry.entry_id))
        else:
            models.extend(canonical_model(entry.entry_id, [p]) for p in params)
    return models


def test_orbit_dimension_equals_jet_rank():
    rng = random.Random(83)
    models = type_a_catalog()
    models += [
        pullback_type_a(m, references.rand_linear_map(rng, h))
        for m in type_a_catalog() for h in (3, 12, 10**6)
    ]
    rank2 = 0
    while rank2 < 60:
        m = references.rand_model_a(rng, rng.choice((3, 12, 10**6)))
        if rank_signature(ricci_type_a(m)).rank == 2:
            models.append(m)
            rank2 += 1
    seen = set()
    for m in models:
        dim = orbit_dimension_a(m)
        assert dim == jet_orbit_dimension(m), m
        seen.add(dim)
    assert seen == {0, 2, 3, 4}


def reduced_rank1_forms(rng):
    """Reduced rank-one models (A, 0, C, 0, E, F), a few in each branch of
    the reduced isotropy: a != 0 with f = 0 or not, and a = 0 (so c != 0 and
    f != c) with e = 0 or not and f = 2c or not."""
    def nonzero():
        return sampling.rand_nonzero(rng)

    forms = []
    for _ in range(6):
        a, c = nonzero(), nonzero()
        forms.append((a, 0, c, 0, (c * c + 1) / a, 0))  # lambda = 1
        forms.append((a, 0, c, 0, nonzero(), nonzero()))
        for e in (0, nonzero()):
            forms.append((0, 0, c, 0, e, 2 * c))
            forms.append((0, 0, c, 0, e, c + nonzero()))
    models = [type_a(*form) for form in forms]
    return [m for m in models if rank_signature(ricci_type_a(m)).rank == 1]


def test_stratum_dimension_equals_rank():
    """The orbit dimension the equivalence screen reads off each stratum's
    normal form equals the rank of the infinitesimal action and its
    dual-number reference: on catalog pullbacks, on flat chart points with
    and without a rational witness, on reduced rank-one forms in every
    isotropy branch, and on rank-two models with omega = 0 and without."""
    rng = random.Random(89)
    models = [
        pullback_type_a(m, references.rand_linear_map(rng, h))
        for m in type_a_catalog() for h in (3, 12, 10**6)
    ]
    unmatched = 0
    while len(models) < 300 or unmatched < 20:
        point = [sampling.rand_rational(rng) for _ in range(4)]
        if point[1:] == [0, 0, 0]:
            continue
        m = COEFF_FAMILIES["flat_a"].model(point)
        try:
            match_flat_a_orbit(m)
        except UnmatchedOrbitError:
            unmatched += 1
        models.append(m)
    reduced = reduced_rank1_forms(rng)
    assert len(reduced) == 36
    models += reduced
    omega_zero = 0
    for h in (3, 12, 10**6):
        for _ in range(40):
            a, b, c, e = (references.rand_rational(rng, h) for _ in range(4))
            for m in (type_a(a, b, c, -a, e, -c), references.rand_model_a(rng, h)):
                if rank_signature(ricci_type_a(m)).rank == 2:
                    omega_zero += m.d == -m.a and m.f == -m.c
                    models.append(m)
    assert omega_zero > 60
    seen = set()
    for m in models:
        dim, _ = _stratum_normal_form(m, curvature_of(m))
        assert dim == orbit_dimension_a(m) == jet_orbit_dimension(m), m
        seen.add(dim)
    assert seen == {0, 2, 3, 4}


def fraction_rank(rows) -> int:
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    m = [[F(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def matrices(n_rows, n_cols, height):
    return st.lists(
        st.lists(scalars(height), min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 6), st.data())
def test_fraction_free_rank_equals_fraction_rank(n_rows, n_cols, inner, data):
    """Products of an n x k and a k x m matrix, so deficient ranks occur."""
    left = data.draw(matrices(n_rows, inner, 10**6))
    right = data.draw(matrices(inner, n_cols, 12))
    rows = [
        [sum((F(row[k]) * right[k][j] for k in range(inner)), F(0)) for j in range(n_cols)]
        for row in left
    ]
    assert mat_rank(rows) == fraction_rank(rows)


def fraction_solve(rows, rhs):
    """Reference: Gauss-Jordan over Fractions, pivot rows scaled to 1."""
    n_var = len(rows[0])
    aug = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(n_var):
        pivot = next((r for r in range(len(pivots), len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        rank = len(pivots)
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        aug[rank] = [x / aug[rank][col] for x in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
    if any(row[n_var] != 0 for row in aug[len(pivots):]):
        return None
    particular = [F(0)] * n_var
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n_var]
    kernel = []
    for free in (c for c in range(n_var) if c not in pivots):
        vec = [F(0)] * n_var
        vec[free] = F(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free]
        kernel.append(vec)
    return particular, kernel


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.booleans(), st.data())
def test_fraction_free_solve_equals_fraction_solve(n_rows, n_cols, inner, consistent, data):
    """Deficient products as in the rank test; the right-hand side is either
    in the column space or drawn freely."""
    left = data.draw(matrices(n_rows, inner, 10**6))
    right = data.draw(matrices(inner, n_cols, 12))
    rows = [
        [sum((F(row[k]) * right[k][j] for k in range(inner)), F(0)) for j in range(n_cols)]
        for row in left
    ]
    if consistent:
        x = data.draw(st.lists(scalars(12), min_size=n_cols, max_size=n_cols))
        rhs = [sum((row[j] * x[j] for j in range(n_cols)), F(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(scalars(12), min_size=n_rows, max_size=n_rows))
    got = solve_linear(rows, rhs)
    assert got == fraction_solve(rows, rhs)
    if got is not None:
        assert all(type(x) is F for x in got[0] + [y for v in got[1] for y in v])


@settings(max_examples=200, deadline=None)
@given(quadruples(12), scalars(12), st.sampled_from([2, F(3, 5), F(7, 12), F(-3, 2), 5, 0, F(0)]))
def test_quadratic_extension_matches_pair_arithmetic(xs, c, k):
    """u + v sqrt(k) against the plain rules on (u, v) pairs; at k = 0 these
    are the dual numbers, where v eps has no inverse."""
    u1, v1, u2, v2 = as_fractions(xs)
    x, y = QuadExt(u1, v1, k), QuadExt(u2, v2, k)

    def pair(q):
        return (q.u, q.v)

    assert pair(x + y) == (u1 + u2, v1 + v2)
    assert pair(x - y) == (u1 - u2, v1 - v2)
    assert pair(c - x) == (c - u1, -v1)
    assert pair(x * y) == (u1 * u2 + k * v1 * v2, u1 * v2 + v1 * u2)
    assert pair(c * x) == (c * u1, c * v1)
    norm = u2 * u2 - k * v2 * v2
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert pair(x / y) == ((u1 * u2 - k * v1 * v2) / norm, (v1 * u2 - u1 * v2) / norm)
    assert (x == y) == ((u1, v1) == (u2, v2))
    assert (QuadExt(c, 0, k) == c) and repr(x) == f"QuadExt({u1} + {v1}*sqrt({k}))"


@settings(max_examples=200, deadline=None)
@given(quadruples(10**6), scalars(10**6))
def test_dual_numbers_match_the_quadratic_field_at_zero(xs, c):
    """The package's integer dual numbers, which the Jacobian runs on,
    against the reference field ``QuadExt`` at k = 0, operation for
    operation, with a scalar on either side."""
    u1, v1, u2, v2 = as_fractions(xs)
    x, y = _Dual(*_dual_form(u1, v1)), _Dual(*_dual_form(u2, v2))
    rx, ry = QuadExt(u1, v1, 0), QuadExt(u2, v2, 0)

    def same(dual, ref):
        return (dual.p, dual.q, dual.d) == (ref.p, ref.q, ref.d)

    assert same(x + y, rx + ry) and same(c + x, c + rx) and same(x + c, rx + c)
    assert same(x - y, rx - ry) and same(c - x, c - rx) and same(-x, -rx)
    assert same(x * y, rx * ry) and same(c * x, c * rx) and same(x * c, rx * c)
    if u2 == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert same(x / y, rx / ry) and same(c / y, c / ry)
    assert (x == y) == (rx == ry) and (_Dual(*_dual_form(c, 0)) == c)


def test_dual_numbers_take_scalars_through_the_gate():
    """A scalar that meets a dual number passes the scalar gate, so a float
    inside a differentiated map is refused, not taken at its binary value."""
    x = _Dual(1, 1, 2)
    assert x * F(1, 3) == _Dual(1, 1, 6) and 2 - x == _Dual(3, -1, 2)
    for op in (lambda: x * 0.5, lambda: 0.5 + x, lambda: x / 0.5, lambda: x == 0.5):
        with pytest.raises(TypeError, match="cannot interpret float as a rational"):
            op()


def _dual_form(u, v):
    """(p, q, d) of u + v eps over one denominator d."""
    (p, q), d = clear_denominators([u, v])
    return p, q, d


def test_rank_two_flat_matchers_try_the_orbit_first():
    """The root pattern of the binary cubic names the orbit of a rank-two
    flat model in the pattern table, and that orbit's matcher recovers the
    witness of a rational pullback."""
    rng = random.Random(29)
    for orbit in ("M1_0", "M2_0", "M5_0"):
        for h in (3, 12, 10**6):
            m = pullback_type_a(canonical_model(orbit), references.rand_linear_map(rng, h))
            orbit_id, matcher = _PATTERN_ORBIT[binary_cubic_pattern(binary_cubic(m))]
            found = matcher(m)
            assert orbit_id == orbit and found is not None and found[0] == orbit
            assert pullback_type_a(canonical_model(orbit), found[1]) == m


COUNTED = {
    f.__code__: f.__name__
    for f in (_match_m1, _match_m2, _match_m5, _match_tensor_line, binary_cubic_pattern)
}


def matcher_calls(m):
    """The orbit matchers and cubic patterns one flat match runs, in order,
    and its answer (or the UnmatchedOrbitError)."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in COUNTED:
            calls.append(COUNTED[frame.f_code])

    sys.setprofile(profile)
    try:
        found = match_flat_a_orbit(m)
    except UnmatchedOrbitError as exc:
        found = exc
    finally:
        sys.setprofile(None)
    return calls, found


def test_flat_match_runs_one_matcher():
    # a flat model in the real orbit of M5_0 with no rational witness
    unmatched = type_a(*(F(x) for x in ("5040/2197", "-6048/2197", "36/13", "2520/2197", "-15/13", "7134/2197")))
    calls, found = matcher_calls(unmatched)
    assert calls == ["binary_cubic_pattern", "_match_m5"]
    assert isinstance(found, UnmatchedOrbitError) and "real orbit of M5_0" in str(found)
    rng = random.Random(37)
    for orbit, expected in (("M1_0", "_match_m1"), ("M2_0", "_match_m2"), ("M5_0", "_match_m5")):
        m = pullback_type_a(canonical_model(orbit), sampling.rand_linear_map(rng))
        calls, found = matcher_calls(m)
        assert calls == ["binary_cubic_pattern", expected] and found[0] == orbit
    # the pattern comes first, since the equivalence screen reads the orbit
    # dimension off it; a matched coefficient-rank-one model then runs only
    # the tensor-line matcher
    for orbit in ("M3_0", "M4_0"):
        m = pullback_type_a(canonical_model(orbit), sampling.rand_linear_map(rng))
        calls, found = matcher_calls(m)
        assert calls == ["binary_cubic_pattern", "_match_tensor_line"] and found[0] == orbit


# ---------------------------------------------------------------------------
# The rank-one layer


def rank1_models(rng):
    """Rank-one catalog models pulled back by random maps at every height,
    plus the catalog models themselves (already reduced)."""
    models = []
    for entry_id, params in (("M1_1", ()), ("M2_1", (F(3),)), ("M3_1", (F(-1, 2),)),
                             ("M4_1", (F(0),)), ("M4_1", (F(2),)), ("M5_1", (F(1, 3),))):
        base = canonical_model(entry_id, params)
        models.append(base)
        for h in (3, 12, 10**6):
            models.append(pullback_type_a(base, references.rand_linear_map(rng, h)))
    return models


def test_closed_form_frame_inverts_without_division():
    """T = [[-u1, u0], [w0, w1]] has det -1 and S = -adj(T) is its inverse;
    the identity frame is its own inverse."""
    identity = Mat2.identity()
    seen_reduced = seen_unreduced = False
    for m in rank1_models(random.Random(61)):
        frame, reduced = _rank1_frame(m, ricci_type_a(m))
        s = _frame_inverse(frame)
        assert frame.matrix @ s == identity and s @ frame.matrix == identity
        if m.b == 0 and m.d == 0:
            assert frame.matrix == identity
            seen_reduced = True
        else:
            assert frame.matrix.det() == -1
            assert (reduced.b, reduced.d) == (0, 0)
            seen_unreduced = True
    assert seen_reduced and seen_unreduced


def fraction_solve_reduced_pair(n1, n2):
    """Reference: the reduced-pair case analysis written on Fractions, one
    rational operation at a time."""
    a1, _, c1, _, e1, f1 = n1.coeffs
    a2, _, c2, _, e2, f2 = n2.coeffs
    lam1 = -c1 * c1 + a1 * e1 + c1 * f1
    lam2 = -c2 * c2 + a2 * e2 + c2 * f2
    if lam1 * lam2 < 0:
        return ("not_equivalent", [], "Ricci signs differ")
    sols = []
    if (a1 == 0) != (a2 == 0):
        return ("not_equivalent", [], "vanishing of G_11^1 differs between reduced frames")
    if a1 != 0:
        alpha = a1 / a2
        if (f1 == 0) != (f2 == 0):
            return ("not_equivalent", [], "vanishing of G_22^2 differs between reduced frames")
        if f1 != 0:
            delta = f1 / f2
            if delta * delta * lam2 != lam1:
                return ("not_equivalent", [], "Ricci scale incompatible with the G_22^2 ratio")
            sols.append((alpha, alpha * (c1 - delta * c2) / a1, delta))
        else:
            ratio = lam1 / lam2
            root = sqrt_rational(ratio)
            if root is None:
                return (
                    "undecided",
                    [],
                    f"equivalent over the reals, but the frame scale is the irrational sqrt({ratio})",
                )
            for delta in (root, -root):
                sols.append((alpha, alpha * (c1 - delta * c2) / a1, delta))
    else:
        delta = c1 / c2
        if f1 != delta * f2:
            return ("not_equivalent", [], "the invariant ratio f/c differs")
        rhs = delta * delta * e2
        coef = f1 - 2 * c1
        if e1 != 0:
            if coef != 0:
                alpha, beta = rhs / e1, ZERO
                if alpha == 0:
                    beta = ONE
                    alpha = (rhs - coef) / e1
                sols.append((alpha, beta, delta))
            else:
                if e2 == 0:
                    return ("not_equivalent", [], "vanishing of G_22^1 differs on the f = 2c subfamily")
                sols.append((rhs / e1, ZERO, delta))
        else:
            if coef != 0:
                sols.append((ONE, rhs / coef, delta))
            else:
                if e2 != 0:
                    return ("not_equivalent", [], "vanishing of G_22^1 differs on the f = 2c subfamily")
                sols.append((ONE, ZERO, delta))
    mats = [Mat2(((alpha, beta), (ZERO, delta))) for alpha, beta, delta in sols if alpha != 0 and delta != 0]
    if not mats:
        return ("not_equivalent", [], "triangular system has no invertible solution")
    return ("equivalent", mats, None)


def reduced_scale(n):
    a, _, c, _, e, f = n.coeffs
    return -c * c + a * e + c * f


def reduced_models(height):
    """Reduced models (a, 0, c, 0, e, f); a and f are zero often enough to
    reach every branch."""
    entry = st.one_of(st.just(F(0)), scalars(height))
    return st.builds(
        lambda a, c, e, f: TypeAModel(a, 0, c, 0, e, f), entry, scalars(height), scalars(height), entry
    )


@pytest.mark.parametrize("height", [12, 10**6])
def test_integer_reduced_solver_equals_fraction_solver(height):
    """On valid reduced pairs (both Ricci scales nonzero): drawn
    independently, built equivalent by an upper-triangular map, sharing the
    first model's zero pattern, or both on the f = 2c subfamily."""

    modes = st.sampled_from(("free", "triangular", "pattern", "f=2c"))

    @settings(max_examples=400, deadline=None)
    @given(reduced_models(height), reduced_models(height), quadruples(height), modes)
    def check(n1, other, t, mode):
        if mode == "triangular":
            assume(t[0] != 0 and t[3] != 0)
            n2 = pullback_type_a(n1, LinearMap2(Mat2(((t[0], t[1]), (ZERO, t[3])))))
        elif mode == "pattern":
            a, _, c, _, e, f = other.coeffs
            n2 = TypeAModel(a if n1.a != 0 else 0, 0, c, 0, e, f if n1.f != 0 else 0)
        elif mode == "f=2c":
            n1 = TypeAModel(0, 0, n1.c, 0, n1.e, 2 * n1.c)
            n2 = TypeAModel(0, 0, other.c, 0, other.e, 2 * other.c)
        else:
            n2 = other
        lam1, lam2 = reduced_scale(n1), reduced_scale(n2)
        assume(lam1 != 0 and lam2 != 0)
        got = _solve_reduced_pair(n1, n2)
        assert got == fraction_solve_reduced_pair(n1, n2)
        assert all(type(x) is F for mat in got[1] for row in mat.rows for x in row)
        for mat in got[1]:
            assert carries(n1.coeffs, mat.rows, n2.coeffs)
        if mode == "triangular":
            assert got[0] != "not_equivalent"

    check()


def fraction_signature(s11, s12, s22):
    """Reference: the determinant in Fractions."""
    s11, s12, s22 = F(s11), F(s12), F(s22)
    if s11 == 0 and s12 == 0 and s22 == 0:
        return RankSig(0, "zero")
    det = s11 * s22 - s12 * s12
    if det == 0:
        diag = s11 if s11 != 0 else s22
        return RankSig(1, "positive_semidefinite" if diag > 0 else "negative_semidefinite")
    if det < 0:
        return RankSig(2, "indefinite")
    return RankSig(2, "positive_definite" if s11 > 0 else "negative_definite")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([12, 10**6]), st.data())
def test_signature_equals_fraction_signature(height, data):
    """Random symmetric matrices, and rank-one ones k (x, y)^T (x, y), whose
    determinant vanishes only after the cross-multiplication."""
    x, y, k = (data.draw(scalars(height)) for _ in range(3))
    if data.draw(st.booleans()):
        s11, s12, s22 = k * x * x, k * x * y, k * y * y
    else:
        s11, s12, s22 = (data.draw(scalars(height)) for _ in range(3))
    assert rank_signature(((s11, s12), (s12, s22))) == fraction_signature(s11, s12, s22)
