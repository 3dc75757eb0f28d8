"""The equivalence solvers on integer forms: the forced irrational scales of
the Type B solver, of the degenerate rank-two rule and of the reduced
rank-one analysis are decided or checked in Z[sqrt(K)] (``exact.QuadInt``),
and the rank-two covariant frame is built from the Ricci numerators.

Each is compared with a Fraction and ``QuadExt`` reference (the bodies the
integer kernels replaced, with the ring law of ``references``), at heights
12 and 10^6.  The pairs that reach a forced irrational scale are built both
ways: related by an irrational map, so the equations hold and the answer is
``undecided``, and with one coefficient of the image moved, so they fail and
the answer is ``not_equivalent``.  No benchmark pair is ``undecided``, so these tests are
what covers that branch.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinestrata.curvature import covariant_frame, rank_signature, ricci_type_a, stratum_flags
from affinestrata.exact import ONE, ZERO, LinearMap2, Mat2, QuadInt, ShearMap, sqrt_rational
from affinestrata import frames
from affinestrata.law import pullback_type_a, pullback_type_b
from affinestrata.frames import _solve_reduced
from affinestrata.group_action import _solve_rank2_forced, solve_equivalence_a, solve_equivalence_b
from affinestrata.models import type_a, type_b
from references import QuadExt, gamma_pair, mat2_from_cols, ricci_trace_vector, ring_law, ring_product

HEIGHTS = (12, 10**6)


def scalars(height):
    return st.builds(F, st.integers(-height, height), st.integers(1, height))


def nonzero(height):
    return scalars(height).filter(lambda x: x != 0)


def non_squares(height):
    """Positive rationals that are not rational squares."""
    return st.builds(F, st.integers(1, height), st.integers(1, height)).filter(lambda k: sqrt_rational(k) is None)


def linear_maps(height):
    return st.lists(scalars(height), min_size=4, max_size=4).filter(
        lambda t: t[0] * t[3] != t[1] * t[2]
    ).map(lambda t: LinearMap2(Mat2(((t[0], t[1]), (t[2], t[3])))))


def shears(height):
    return st.builds(ShearMap, nonzero(height), scalars(height))


# ---------------------------------------------------------------------------
# Z[sqrt(K)]


def test_quad_int_ring_laws():
    x = QuadInt(0, 1, 2)  # sqrt(2)
    assert x * x == 2 and (1 + x) * (1 - x) == -1
    assert 3 * x - x == QuadInt(0, 2, 2) and -x + 5 == QuadInt(5, -1, 2)
    assert (x - 1) * (x + 1) == QuadInt(1, 0, 2) and x != 0 and x * 0 == 0
    assert (QuadInt(3, 4, 7) * QuadInt(-2, 5, 7)).x == 3 * -2 + 7 * 4 * 5


# ---------------------------------------------------------------------------
# Type B: the forced scale sqrt(e1 / e2)


def quad_ext_shear_holds(m1, m2) -> bool:
    """Reference: the shear with the forced scale alpha = sqrt(e1 / e2) and
    beta = (c1 alpha - c2 alpha^2) / e1, pushed through the ring law in
    Q(sqrt(e1 / e2))."""
    ratio = m1.e / m2.e
    alpha = QuadExt(0, 1, ratio)
    beta = (m1.c * alpha - m2.c * alpha * alpha) / m1.e
    rows = ((QuadExt(1, 0, ratio), QuadExt(0, 0, ratio)), (beta, alpha))
    return all(o == QuadExt(g, 0, ratio) for o, g in zip(ring_law(m1.coeffs, rows), m2.coeffs))


def type_b_pairs(height):
    """(m1, m2, related): m1 = (a, 0, 0, d, e, 0) and m2 its image under the
    irrational shear diag(1, sqrt(k)), which scales G_22^1 by 1 / k and
    fixes G_11^1 and G_12^2, each moved by a rational shear; with
    ``related`` false one coefficient of m2 is moved first."""
    return st.tuples(
        st.tuples(scalars(height), scalars(height), nonzero(height)),
        non_squares(height),
        shears(height),
        shears(height),
        st.one_of(st.just(None), st.tuples(st.sampled_from((0, 1, 2, 3, 5)), nonzero(height))),
    ).map(_type_b_pair)


def _type_b_pair(args):
    (a, d, e), k, phi1, phi2, moved = args
    image = [a, ZERO, ZERO, d, e / k, ZERO]
    if moved is not None:
        slot, by = moved
        image[slot] += by
    return pullback_type_b(type_b(a, 0, 0, d, e, 0), phi1), pullback_type_b(type_b(*image), phi2), moved is None


@pytest.mark.parametrize("height", HEIGHTS)
def test_type_b_forced_scale_matches_quad_ext_reference(height):
    seen = set()

    @settings(max_examples=120, deadline=None)
    @given(type_b_pairs(height))
    def check(pair):
        m1, m2, related = pair
        assume(stratum_flags(m1).primary == stratum_flags(m2).primary)
        holds = quad_ext_shear_holds(m1, m2)
        if related:
            assert holds
        res = solve_equivalence_b(m1, m2)
        assert res.status == ("undecided" if holds else "not_equivalent"), (m1, m2)
        if holds:
            assert res.reason.endswith(f"has the irrational scale sqrt({m1.e / m2.e})")
        seen.add(holds)

    check()
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Rank two: the forced scale of the Ricci-normal of v


def forced_model(a, d, c, e):
    """A rank-two candidate with v = rho^-1 omega on the x1 axis and parallel
    to G(v, v): b = 0 and f = 2cd / (a - d); rho(v, v) = (a + d)^2 / ((a - d) d)
    does not depend on c or e."""
    return type_a(a, 0, c, d, e, 2 * c * d / (a - d))


def quad_ext_forced_holds(m1, target, m2) -> bool:
    """Reference: T = N2 diag(1, delta) N1^-1 with delta = sqrt(det rho1 /
    det rho2) in Q(delta), N_i the frame of v_i and its Ricci-normal for the
    models m_i, all on Fraction rows, pushed through the ring law and
    compared with ``target``."""
    r1, r2 = ricci_type_a(m1), ricci_type_a(m2)

    def normal_frame(r, x):
        (r11, r12), (_, r22) = r.rows
        return mat2_from_cols(x, (-(r12 * x[0] + r22 * x[1]), r11 * x[0] + r12 * x[1]))

    ratio = Mat2(r1.rows).det() / Mat2(r2.rows).det()
    n2 = normal_frame(r2, ricci_trace_vector(m2, r2))
    n1_inv = normal_frame(r1, ricci_trace_vector(m1, r1)).inverse()
    t = ring_product(ring_product(n2.rows, ((ONE, ZERO), (ZERO, QuadExt(0, 1, ratio)))), n1_inv.rows)
    return all(o == g for o, g in zip(ring_law(m1.coeffs, t), target.coeffs))


def forced_pairs(height):
    """(m1, m2, target): m1 = forced_model(a, d, c, e) and m2 its image
    under diag(1, sqrt(k)), with c = 0 so that the image is rational, each
    moved by a rational map; ``target`` is m2, or m2 with one coefficient
    moved."""
    return st.tuples(
        st.tuples(nonzero(height), nonzero(height), nonzero(height)),
        non_squares(height),
        linear_maps(height),
        linear_maps(height),
        st.one_of(st.just(None), st.tuples(st.integers(0, 5), nonzero(height))),
    ).map(_forced_pair)


def _forced_pair(args):
    (a, d, e), k, p, q, moved = args
    assume(a != d and a != -d)
    m1 = pullback_type_a(forced_model(a, d, ZERO, e), p)
    m2 = pullback_type_a(forced_model(a, d, ZERO, e / k), q)
    target = list(m2.coeffs)
    if moved is not None:
        slot, by = moved
        target[slot] += by
    return m1, m2, type_a(*target)


@pytest.mark.parametrize("height", HEIGHTS)
def test_rank2_forced_scale_matches_quad_ext_reference(height):
    """Every pair of the forced stratum with equal rho(v, v) and signature is
    real-equivalent (its models mod the maps fixing the line of v form one
    parameter, rho(v, v)), so the rule's check is also run against a moved
    target, with the covariants of the unmoved one."""
    seen = set()

    @settings(max_examples=120, deadline=None)
    @given(forced_pairs(height))
    def check(pair):
        m1, m2, target = pair
        r1, r2 = ricci_type_a(m1), ricci_type_a(m2)
        assume(rank_signature(r1).rank == 2)
        (frame1, v1), (frame2, v2) = covariant_frame(m1, r1), covariant_frame(m2, r2)
        assert frame1 is None and frame2 is None
        ratio = Mat2(r1.rows).det() / Mat2(r2.rows).det()
        holds = quad_ext_forced_holds(m1, target, m2)
        assert holds == (target == m2)
        res = _solve_rank2_forced(m1, target, r1, r2, v1, v2)
        if holds:
            assert res.status == "undecided", (m1, target)
            assert res.reason.endswith(f"Ricci-normal of v is the irrational sqrt({ratio})")
            assert solve_equivalence_a(m1, m2).reason == res.reason
        else:
            assert res.status == "not_equivalent", (m1, target)
            assert res.obstruction == (
                f"the equations fail at the forced scale sqrt({ratio}) of the Ricci-normal of v"
            )
        seen.add(holds)

    check()
    assert seen == {True, False}


@pytest.mark.parametrize("height", HEIGHTS)
def test_rank2_forced_rational_scale_lists_both_signs(height):
    """With delta rational the two candidates come in the order delta, -delta,
    each kept when it carries one model onto the other."""

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(nonzero(height), nonzero(height), nonzero(height)), nonzero(height), linear_maps(height))
    def check(params, delta, p):
        a, d, e = params
        assume(a != d and a != -d)
        m1 = forced_model(a, d, ZERO, e)
        assume(rank_signature(ricci_type_a(m1)).rank == 2)
        m2 = pullback_type_a(m1, p)
        scaled = pullback_type_a(m1, LinearMap2(Mat2.of(ONE, ZERO, ZERO, delta)))
        for target, witness in ((m2, p), (scaled, None)):
            res = solve_equivalence_a(m1, target)
            assert res.is_equivalent and all(pullback_type_a(m1, w) == target for w in res.maps)
            assert witness is None or witness in res.maps
        # the reflection x2 -> -x2 fixes m1, so both signs of delta carry it
        maps = solve_equivalence_a(m1, scaled).maps
        assert [w.matrix for w in maps] == [Mat2.of(ONE, ZERO, ZERO, s) for s in (abs(delta), -abs(delta))]

    check()


# ---------------------------------------------------------------------------
# Rank one: the forced frame scale of the reduced analysis


def test_rank1_irrational_frame_scale_is_checked(monkeypatch):
    """Reduced rank-one pairs (a, 0, c, 0, e, 0) with a != 0 and Ricci scales
    R1 R2 a positive non-square are equivalent over the reals only: each
    answers ``undecided`` after the forced map T = [[alpha, beta], [0,
    delta]] at delta = sqrt(R1 R2) / |R2| has passed the law in Z[sqrt(R1
    R2)], one check per pair."""
    checks = []
    law_check = frames._carries

    def counting(source, p, den, target):
        checks.append(any(isinstance(x, QuadInt) for x in p))
        return law_check(source, p, den, target)

    monkeypatch.setattr(frames, "_carries", counting)
    rng = random.Random(5)

    def reduced():
        a, c, e = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3), rng.randint(-3, 3)
        return (a, c, e, 0, 1, a * e - c * c)

    undecided = 0
    for _ in range(3000):
        red1, red2 = reduced(), reduced()
        k = red1[5] * red2[5]
        status, mats, note = _solve_reduced(red1, red2)
        if k > 0 and math.isqrt(k) ** 2 != k:
            assert (status, mats) == ("undecided", []) and note.startswith("equivalent over the reals"), (red1, red2)
            undecided += 1
        else:
            assert status != "undecided"
    assert undecided == 1476 and checks == [True] * undecided
    # a Ricci scale that does not fit the model forces a map the law refuses
    with pytest.raises(AssertionError, match="irrational frame scale"):
        _solve_reduced((1, 0, 1, 0, 1, 1), (1, 0, 2, 0, 1, 3))


# ---------------------------------------------------------------------------
# The covariant frame (v, G(v, v))


def frame_models(height):
    """Rank-two candidates: random models, models with omega = 0, and the
    forced family, whose frames are degenerate, each moved by a map."""
    random = st.lists(scalars(height), min_size=6, max_size=6).map(lambda cs: type_a(*cs))
    omega_zero = st.tuples(*(scalars(height) for _ in range(4))).map(
        lambda t: type_a(t[0], t[1], t[2], -t[0], t[3], -t[2])
    )
    forced = st.tuples(nonzero(height), nonzero(height), scalars(height), scalars(height)).filter(
        lambda t: t[0] != t[1]
    ).map(lambda t: forced_model(*t))
    return st.tuples(st.one_of(random, omega_zero, forced), linear_maps(height)).map(
        lambda pair: pullback_type_a(*pair)
    )


@pytest.mark.parametrize("height", HEIGHTS)
def test_covariant_frame_equals_fraction_reference(height):
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(frame_models(height))
    def check(m):
        r = ricci_type_a(m)
        assume(rank_signature(r).rank == 2)
        frame, (x, q) = covariant_frame(m, r)
        v = ricci_trace_vector(m, r)
        assert (F(x[0], q), F(x[1], q)) == v
        reference = mat2_from_cols(v, gamma_pair(m, v, v))
        assert frame == (None if reference.is_singular() else reference)
        seen.add((frame is None, v == (0, 0)))

    check()
    assert seen == {(False, False), (True, False), (True, True)}
