"""Top-level classification pipeline and the verification harness.

``classify_model`` aggregates the curvature, stratum, chart, and orbit data
for one model into a single report whose every claim can be re-checked by
re-running the cited operations.  Each model's curvature (Ricci tensor,
split, signature, flags) and rank-one frame are computed once per report.
``verify_theorems`` runs the seeded property suite; it is deterministic in
(seed, samples) and each check draws from its own named stream, so checks
can run in any order or concurrently without changing the report.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ONE, ZERO, Frozen, LinearMap2, Mat2, clear_denominators, mat2_of_integers, rational_str
from .curvature import (
    Curvature,
    curvature_of,
    is_flat_a,
    ricci_type_a,
    ricci_type_b,
    split_ricci,
)
from .law import carries, orbit_dimension_a, pullback_type_a, pullback_type_b
from .frames import _rank1_frame
from .matchers import (
    UnmatchedOrbitError,
    _cubic_pattern,
    _match_flat_a_orbit,
    _match_rank1_reduced,
    match_flat_a_orbit,
    match_rank1_family,
)
from .group_action import UndecidedError, isotropy_type_a, solve_equivalence_a
from .models import (
    CATALOG,
    CatalogError,
    FamilyMembership,
    Model,
    TypeAModel,
    TypeBModel,
    canonical_model,
    negate_model,
    serialize_model,
)
from .strata import (
    NonRationalCirclePointError,
    NotRank1Error,
    _classify_alt_b,
    _classify_flat_b,
    _flat_a_coords,
    alt_b_param,
    classify_alt_b,
    classify_flat_b,
    flat_a_coords,
    flat_a_param,
    flat_b_param,
    rank1_chart_forward,
    rank1_chart_inverse,
    rank1_reduce,
    tangent_sum_rank,
)
from . import sampling


# ---------------------------------------------------------------------------
# Classification reports


class ClassificationReport(Frozen):
    """Everything :func:`classify_model` finds about one model, in the
    sections of its JSON document."""

    __slots__ = ("model", "flags", "ricci_data", "rank_data", "stratum", "orbit", "admits_type_b", "errors")

    def to_dict(self) -> dict:
        return {
            "model": serialize_model(self.model),
            "flags": self.flags,
            "ricci": self.ricci_data,
            "rank_signature": self.rank_data,
            "stratum": self.stratum,
            "orbit": self.orbit,
            "admits_type_b": self.admits_type_b,
            "errors": self.errors,
        }


def _ricci_payload(cv: Curvature) -> tuple[dict, dict]:
    r, split, sig = cv.ricci, cv.split, cv.sig
    matrix = r.to_strings()
    if split.symmetric is r:  # a symmetric tensor is its own symmetric part
        symmetric = [row[:] for row in matrix]
    else:
        symmetric = split.symmetric.to_strings()
    payload = {
        "cleared": r.cleared,
        "matrix": matrix,
        "symmetric": symmetric,
        "alternating": rational_str(split.alt),
    }
    return payload, {"rank": sig.rank, "label": sig.label}


def classify_model(m: Model) -> ClassificationReport:
    """Full stratum report for one model; sub-operation failures are embedded
    as structured error fields, never fabricated results."""
    cv = curvature_of(m)
    flags = cv.flags
    ricci_data, rank_data = _ricci_payload(cv)
    errors: dict = {}
    orbit = None
    admits = None
    if m.kind == "A":
        if flags.is_flat:
            if flags.is_cone_point:
                stratum = {"kind": "cone_point"}
            else:
                stratum = {"kind": "flat_chart"}
                try:
                    stratum.update(_flat_a_coords(m).to_dict())
                except NonRationalCirclePointError as exc:
                    errors["flat_chart"] = str(exc)
            try:
                orbit_id, witness = _match_flat_a_orbit(m, _cubic_pattern(m))
                orbit = {"id": orbit_id, "params": [], "witness": witness.to_json()}
            except UnmatchedOrbitError as exc:
                errors["orbit"] = str(exc)
        elif cv.sig.rank == 1:
            frame, reduced = _rank1_frame(m, cv.ricci)
            chart = rank1_chart_inverse(reduced)
            stratum = {
                "kind": "rank1",
                "frame": frame.to_json(),
                "reduced": serialize_model(reduced)["coeffs"],
                "chart": chart.to_dict(),
            }
            try:
                member, witness = _match_rank1_reduced(m, frame, reduced)
                orbit = {"id": member.family, "params": member.to_dict()["params"], "witness": witness.to_json()}
                admits = _admits_type_b(member.family)
            except UnmatchedOrbitError as exc:
                errors["orbit"] = str(exc)
        else:
            stratum = {"kind": "rank2"}
    else:
        if flags.is_flat:
            stratum = {"kind": "flat_families"}
            stratum.update(_classify_flat_b(m).to_dict())
        elif flags.is_alt_only:
            stratum = {"kind": "alternating_families"}
            stratum.update(_classify_alt_b(m).to_dict())
        else:
            stratum = {
                "kind": "unstratified",
                "symmetric_rank": rank_data["rank"],
                "symmetric_label": rank_data["label"],
            }
    return ClassificationReport(m, flags.to_dict(), ricci_data, rank_data, stratum, orbit, admits, errors)


def admits_type_b(m: TypeAModel) -> bool:
    """Whether a rank-one Type A model also carries a Type B structure.

    True exactly for models in the first four rank-one families; the fifth
    family does not admit one.  Raises UndecidedError when family matching
    fails, and NotRank1Error off the rank-one stratum.
    """
    cv = curvature_of(m)
    if cv.sig.rank != 1:
        raise NotRank1Error("admits_type_b requires a rank-one Ricci tensor")
    try:
        member, _ = _match_rank1_reduced(m, *_rank1_frame(m, cv.ricci))
    except UnmatchedOrbitError as exc:
        raise UndecidedError(f"family matching failed: {exc}") from exc
    return _admits_type_b(member.family)


def _admits_type_b(family: str) -> bool:
    """Whether a rank-one family's models carry a Type B structure."""
    return family != "M5_1"


# ---------------------------------------------------------------------------
# Verification harness


class CheckResult(Frozen):
    """The outcome of one check of :func:`verify_theorems`: passed when it has no counterexample."""

    __slots__ = ("check_id", "description", "samples_used", "counterexample")
    passed = property(lambda self: self.counterexample is None)

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "samples": self.samples_used,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


class VerificationReport(Frozen):
    """The seed, the sample count and the check results of one
    :func:`verify_theorems` run."""

    __slots__ = ("seed", "samples", "results")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "all_passed": self.all_passed,
            "checks": [r.to_dict() for r in self.results],
        }


class _Failure(Exception):
    pass


def _fail(msg: str):
    raise _Failure(msg)


def _check_flat_a_parametrization(rng, samples: int) -> int:
    used = 0
    for i in range(samples):
        theta = sampling.rand_circle(rng)
        while True:
            r, s, t = (sampling.rand_rational(rng) for _ in range(3))
            if (r, s, t) != (0, 0, 0):
                break
        m = flat_a_param(theta, r, s, t)
        if not is_flat_a(m):
            _fail(f"sample {i}: parametrized model is not flat: {m!r}")
        if flat_a_param(theta.antipode(), -r, s, t) != m:
            _fail(f"sample {i}: half-turn identity violated at {theta}, r={r}")
        if r > 0:
            chart = flat_a_coords(m)
            if (chart.theta, chart.r, chart.s, chart.t) != (theta, r, s, t):
                _fail(f"sample {i}: chart round trip failed for r={r}")
        used += 1
    return used


def _check_flat_b_strata(rng, samples: int) -> int:
    used = 0
    for i in range(samples):
        r, s = sampling.rand_nonzero(rng), sampling.rand_rational(rng)
        m = flat_b_param("U1", (r, s))
        if not ricci_type_b(m).is_zero():
            _fail(f"U1 sample {i} not flat")
        cls = classify_flat_b(m)
        if list(cls.members) != [FamilyMembership("B1", (r, s))]:
            _fail(f"U1 sample {i}: recovery returned {cls.members}")
        u, v = sampling.rand_rational(rng), sampling.rand_rational(rng)
        m2 = flat_b_param("U2", (u, v))
        if not ricci_type_b(m2).is_zero():
            _fail(f"U2 sample {i} not flat")
        if FamilyMembership("B2", (u, v)) not in classify_flat_b(m2).members:
            _fail(f"U2 sample {i}: membership missing")
        m3 = flat_b_param("U3", (u, v))
        if not ricci_type_b(m3).is_zero():
            _fail(f"U3 sample {i} not flat")
        if FamilyMembership("B3", (u, v)) not in classify_flat_b(m3).members:
            _fail(f"U3 sample {i}: membership missing")
        t, w = sampling.rand_rational(rng), sampling.rand_rational(rng)
        mc = flat_b_param("U1_closure", (t, w))
        if not ricci_type_b(mc).is_zero():
            _fail(f"closure sample {i} not flat")
        if t != 0:
            if FamilyMembership("B1", (-t * t, 1 / t + w)) not in classify_flat_b(mc).members:
                _fail(f"closure sample {i}: interior membership missing")
        used += 4
    curve_samples = max(1, samples // 10)
    for i in range(curve_samples):
        v = sampling.rand_rational(rng)
        cls = classify_flat_b(TypeBModel(-ONE, v, ZERO, ZERO, ZERO, ZERO))
        fams = sorted(mb.family for mb in cls.members)
        if fams != ["B2", "B3"] or "B2&B3" not in cls.intersections:
            _fail(f"curve B2&B3 sample {i} misclassified: {cls}")
        cls = classify_flat_b(TypeBModel(ONE, v, ZERO, ZERO, ZERO, ZERO))
        if "B1~&B2" not in cls.intersections:
            _fail(f"curve B1~&B2 sample {i} misclassified: {cls}")
        w = sampling.rand_rational(rng)
        cls = classify_flat_b(TypeBModel(ZERO, 2 * w, ZERO, ONE, ZERO, ZERO))
        fams = sorted(mb.family for mb in cls.members)
        if "B1~&B3" not in cls.intersections or fams != ["B1closure", "B3"]:
            _fail(f"curve B1~&B3 sample {i} misclassified: {cls}")
        used += 3
    rank_samples = max(1, samples // 50)
    for i in range(rank_samples):
        v = sampling.rand_rational(rng)
        w = sampling.rand_rational(rng)
        for combo in (
            [("U2", (-ONE, v)), ("U3", (-ONE, v))],
            [("U1", (ZERO, -v)), ("U2", (ONE, v))],
            [("U1_closure", (ZERO, w)), ("U3", (ZERO, 2 * w))],
        ):
            rank = tangent_sum_rank(combo)
            if rank != 3:
                _fail(f"tangent rank {rank} != 3 on curve sample {i}: {combo}")
        used += 3
    return used


def _check_alt_b_strata(rng, samples: int) -> int:
    used = 0
    for i in range(samples):
        r = sampling.rand_nonzero(rng)
        s, t = sampling.rand_rational(rng), sampling.rand_rational(rng)
        m = alt_b_param("V1", (r, s, t))
        split = split_ricci(ricci_type_b(m))
        if not split.sym_is_zero() or split.alt != r:
            _fail(f"V1 sample {i}: split is ({split.sym}, {split.alt})")
        if FamilyMembership("D1", (r, s, t)) not in classify_alt_b(m).members:
            _fail(f"V1 sample {i}: membership missing")
        u = sampling.rand_nonzero(rng)
        v, w = sampling.rand_rational(rng), sampling.rand_rational(rng)
        m2 = alt_b_param("V2", (u, v, w))
        split2 = split_ricci(ricci_type_b(m2))
        if not split2.sym_is_zero() or split2.alt != u:
            _fail(f"V2 sample {i}: split is ({split2.sym}, {split2.alt})")
        if FamilyMembership("D2", (u, v, w)) not in classify_alt_b(m2).members:
            _fail(f"V2 sample {i}: recovery failed")
        used += 2
    for i in range(max(1, samples // 10)):
        u, w = sampling.rand_nonzero(rng), sampling.rand_rational(rng)
        cls = classify_alt_b(alt_b_param("V2", (u, ZERO, w)))
        fams = sorted(mb.family for mb in cls.members)
        if fams != ["D1", "D2"] or "D1&D2" not in cls.intersections:
            _fail(f"v=0 sample {i}: expected both families, got {cls}")
        used += 1
    return used


def _check_ricci_diag(rng, samples: int) -> int:
    used = 0
    for i in range(samples):
        while True:
            a, c, e, f = (sampling.rand_rational(rng) for _ in range(4))
            m = TypeAModel(a, ZERO, c, ZERO, e, f)
            r = ricci_type_a(m)
            if not r.is_zero():
                break
        (r11, r12, _, r22), rd = r.integer_form
        if r11 != 0 or r12 != 0:
            _fail(f"reduced sample {i}: Ricci not a multiple of dx2 (x) dx2")
        (a, _, c, _, e, f), den = m.integer_form
        if r22 * den * den != (-c * c + a * e + c * f) * rd:
            _fail(f"reduced sample {i}: scale formula mismatch")
        used += 1
    for i in range(10 * samples):
        m = sampling.rand_model_a(rng)
        (_, b, _, d, _, _), _ = m.integer_form
        if b == 0 and d == 0:
            continue
        (r11, r12, _, r22), _ = ricci_type_a(m).integer_form
        if r11 == 0 and r12 == 0 and r22 != 0:
            _fail(f"scan sample {i}: nonflat dx2-line model with (b, d) != 0: {m!r}")
        used += 1
    return used


# Expected isotropy tables, written out independently of the solver: each
# case is (finite elements, family builder or None, family dimension).

_SWAP = Mat2(((ZERO, -ONE), (-ONE, ZERO)))
_FLIP = Mat2(((ONE, ZERO), (ZERO, -ONE)))
_EYE = Mat2.identity()


def _expected_isotropy(entry_id: str, param):
    one_param_shear = lambda w: Mat2(((ONE, -w), (ZERO, ONE)))
    scale_first = lambda v: Mat2(((1 / v, ZERO), (ZERO, ONE)))
    table = {
        "M0_0": ([], lambda p, q, r, s: Mat2(((p, q), (r, s))), 4),
        "M1_0": ([_EYE], lambda a: Mat2(((ONE, ZERO), (ZERO, a))), 1),
        "M2_0": ([_EYE, _SWAP], None, 0),
        "M3_0": ([_EYE], lambda a: Mat2(((a, ZERO), (ZERO, ONE))), 1),
        "M4_0": ([_EYE], lambda a, b: Mat2(((a * a, b), (ZERO, a))), 2),
        "M5_0": ([_EYE, _FLIP], None, 0),
        "M1_1": ([_EYE], None, 0),
        "M3_1": ([_EYE], scale_first, 1),
    }
    if entry_id in table:
        return table[entry_id]
    if entry_id == "M2_1":
        if param == Fraction(-1, 2):
            return ([_EYE, Mat2(((ONE, ONE), (ZERO, -ONE)))], None, 0)
        return ([_EYE], None, 0)
    if entry_id == "M4_1":
        if param == 0:
            return ([_EYE], lambda v, w: Mat2(((1 / v, -w / v), (ZERO, ONE))), 2)
        return ([_EYE], one_param_shear, 1)
    if entry_id == "M5_1":
        if param == 0:
            return ([_EYE, _FLIP], None, 0)
        return ([_EYE], None, 0)
    raise ValueError(entry_id)


_FLAT_ORBIT_DIMS = {"M0_0": 0, "M1_0": 3, "M2_0": 4, "M3_0": 3, "M4_0": 2, "M5_0": 4}


def _check_one_isotropy(rng, entry_id, param, m, inst_samples) -> int:
    exp_elems, exp_builder, exp_dim = _expected_isotropy(entry_id, param)
    group = isotropy_type_a(m)
    if group.dimension != exp_dim:
        _fail(f"{entry_id}({param}): isotropy dimension {group.dimension} != {exp_dim}")
    got = {el.matrix for el in group.finite_elements}
    if got != set(exp_elems):
        _fail(f"{entry_id}({param}): finite elements differ from the stored table")
    if (len(group.families) == 0) != (exp_builder is None):
        _fail(f"{entry_id}({param}): family count differs from the stored table")
    used = 0
    for fam in group.families:
        for _ in range(inst_samples):
            params = [sampling.rand_nonzero(rng) for _ in range(fam.dimension)]
            try:
                el = fam.instantiate(params)
                expected = exp_builder(*params)
            except (ValueError, ZeroDivisionError):
                continue
            if el.matrix != expected:
                _fail(f"{entry_id}({param}): family member differs from the stored table at {params}")
            if not carries(m, el.matrix, m):
                _fail(f"{entry_id}({param}): family member at {params} does not fix the model")
            used += 1
    if orbit_dimension_a(m) != 4 - group.dimension:
        _fail(f"{entry_id}({param}): orbit dimension inconsistent with isotropy dimension")
    return used + 1


def _check_isotropy(rng, samples: int) -> int:
    used = 0
    inst_samples = max(1, samples // 10)
    for orbit_id in ("M0_0", "M1_0", "M2_0", "M3_0", "M4_0", "M5_0"):
        m = canonical_model(orbit_id)
        used += _check_one_isotropy(rng, orbit_id, None, m, inst_samples)
        dim = orbit_dimension_a(m)
        if dim != _FLAT_ORBIT_DIMS[orbit_id]:
            _fail(f"{orbit_id}: orbit dimension {dim} != {_FLAT_ORBIT_DIMS[orbit_id]}")
    rank1_cases = [
        ("M1_1", None),
        ("M2_1", Fraction(2)),
        ("M2_1", Fraction(-1, 2)),
        ("M3_1", Fraction(3)),
        ("M4_1", Fraction(5)),
        ("M4_1", Fraction(0)),
        ("M5_1", Fraction(2)),
        ("M5_1", Fraction(0)),
    ]
    for entry_id, param in rank1_cases:
        m = canonical_model(entry_id, () if param is None else (param,))
        used += _check_one_isotropy(rng, entry_id, param, m, inst_samples)
    return used


def _check_rank1_families(rng, samples: int) -> int:
    used = 0
    formula_samples = max(1, samples // 10)
    for i in range(formula_samples):
        c1 = sampling.rand_rational(rng)
        nums, den = clear_denominators([c1])
        if any(CATALOG[entry_id].check(nums, den) is not None for entry_id in ("M2_1", "M3_1")):
            c1 = Fraction(1, 2)  # a value both constraints admit
        c = sampling.rand_rational(rng)
        expected = [
            ("M1_1", (), ONE),
            ("M2_1", (c1,), c1 * (1 + c1)),
            ("M3_1", (c1,), c1 * (1 + c1)),
            ("M4_1", (c,), ONE),
            ("M5_1", (c,), 1 + c * c),
        ]
        for entry_id, params, scale in expected:
            r = ricci_type_a(canonical_model(entry_id, params))
            if r.rows != ((ZERO, ZERO), (ZERO, scale)):
                _fail(f"{entry_id}{params}: Ricci is {r.rows}, expected diag(0, {scale})")
            used += 1
        if c1 * (1 + c1) < 0 and not (-1 < c1 < 0):
            _fail(f"negative scale outside (-1, 0): c1 = {c1}")
        for entry_id, params in (
            ("M1_1", ()),
            ("M2_1", (c1,)),
            ("M3_1", (c1,)),
            ("M4_1", (c,)),
        ):
            if admits_type_b(canonical_model(entry_id, params)) is not True:
                _fail(f"{entry_id}{params}: should admit the 1/x1 profile")
        if admits_type_b(canonical_model("M5_1", (c,))) is not False:
            _fail(f"M5_1({c}): must not admit the 1/x1 profile")
        used += 5
    for i in range(max(1, samples // 50)):
        c = sampling.rand_nonzero(rng)
        res = solve_equivalence_a(
            canonical_model("M5_1", (c,)), canonical_model("M5_1", (-c,))
        )
        if not res.is_equivalent:
            _fail(f"M5_1({c}) vs M5_1({-c}): {res.status}")
        if not any(w.matrix == _FLIP for w in res.maps):
            _fail(f"M5_1({c}): expected the (x1, -x2) witness, got {[w.to_json() for w in res.maps]}")
        used += 1
    return used


def _check_rank1_chart(rng, samples: int) -> int:
    used = 0
    for i in range(samples):
        point = [sampling.rand_rational(rng) for _ in range(4)]
        (p, q, u, v), pd = clear_denominators(point)
        (a, _, c, _, e, f), den = rank1_chart_forward(*point).integer_form
        if (-c * c + a * e + c * f) * pd * pd != (p * p + q * q - u * u - v * v) * den * den:
            _fail(f"chart identity failed at sample {i}")
        used += 1
    for i in range(max(1, samples // 5)):
        while True:
            point = [sampling.rand_rational(rng) for _ in range(4)]
            (p, q, u, v), pd = clear_denominators(point)
            scale = p * p + q * q - u * u - v * v  # over pd^2
            if scale != 0:
                break
        m0 = rank1_chart_forward(*point)
        rotation = LinearMap2(sampling.rand_circle(rng).rotation())
        m1 = pullback_type_a(m0, rotation)
        red = rank1_reduce(m1)
        (_, b, _, d, _, _), _ = red.normalized.integer_form
        if b != 0 or d != 0:
            _fail(f"reduction sample {i}: b, d not cleared")
        if red.scale.numerator * pd * pd != scale * red.scale.denominator:
            _fail(f"reduction sample {i}: scale {red.scale} != {Fraction(scale, pd * pd)}")
        used += 1
    return used


def _check_orbit_recovery(rng, samples: int) -> int:
    used = 0
    flat_ids = ["M0_0", "M1_0", "M2_0", "M3_0", "M4_0", "M5_0"]
    for orbit_id in flat_ids:
        base = canonical_model(orbit_id)
        for i in range(samples):
            t = sampling.rand_linear_map(rng)
            m = pullback_type_a(base, t)
            got_id, witness = match_flat_a_orbit(m)
            if got_id != orbit_id:
                _fail(f"{orbit_id} sample {i}: matched {got_id}")
            if not carries(base, witness.matrix, m):
                _fail(f"{orbit_id} sample {i}: witness failed")
            used += 1
    for entry_id in ("M1_1", "M2_1", "M3_1", "M4_1", "M5_1"):
        arity = CATALOG[entry_id].arity
        for i in range(samples):
            while True:  # drawn again while the family's constraint rejects them
                params = tuple([sampling.rand_rational(rng) for _ in range(arity)])
                try:
                    base = canonical_model(entry_id, params)
                    break
                except CatalogError:
                    pass
            t = sampling.rand_linear_map(rng)
            m = pullback_type_a(base, t)
            family, rec_params, witness = match_rank1_family(m)
            if family != entry_id:
                _fail(f"{entry_id}{params} sample {i}: matched {family}")
            target = base if rec_params == params else canonical_model(family, rec_params)
            if not carries(target, witness.matrix, m):
                _fail(f"{entry_id} sample {i}: witness failed")
            used += 1
    return used


def _check_action_laws(rng, samples: int) -> int:
    used = 0
    neg_identity = LinearMap2(Mat2(((-ONE, ZERO), (ZERO, -ONE))))
    for i in range(samples):
        m = sampling.rand_model_a(rng)
        t1 = sampling.rand_linear_map(rng)
        t2 = sampling.rand_linear_map(rng)
        m1 = pullback_type_a(m, t1)
        if pullback_type_a(m1, t2) != pullback_type_a(m, t2.compose(t1)):
            _fail(f"A functoriality failed at sample {i}")
        r = ricci_type_a(m)
        s = t1.matrix.inverse()
        transported = s.transpose() @ mat2_of_integers(*r.integer_form) @ s
        if mat2_of_integers(*ricci_type_a(m1).integer_form) != transported:
            _fail(f"A Ricci naturality failed at sample {i}")
        if pullback_type_a(m, neg_identity) != negate_model(m):
            _fail(f"negation law failed at sample {i}")
        mb = sampling.rand_model_b(rng)
        p1 = sampling.rand_shear(rng)
        p2 = sampling.rand_shear(rng)
        mb1 = pullback_type_b(mb, p1)
        if pullback_type_b(mb1, p2) != pullback_type_b(mb, p2.compose(p1)):
            _fail(f"B functoriality failed at sample {i}")
        rb = ricci_type_b(mb)
        sb = p1.matrix.inverse()
        transported_b = sb.transpose() @ mat2_of_integers(*rb.integer_form) @ sb
        if mat2_of_integers(*ricci_type_b(mb1).integer_form) != transported_b:
            _fail(f"B Ricci naturality failed at sample {i}")
        used += 1
    return used


CHECKS = {
    "flat_a_parametrization": (
        "flat chart soundness: parametrized models are flat, the half-turn "
        "identity holds, and canonical chart points round-trip (samples draws)",
        _check_flat_a_parametrization,
    ),
    "flat_b_strata": (
        "flat 1/x1-profile stratum: family soundness and exact recovery "
        "(samples per family), intersection curves flagged (samples/10 each), "
        "tangent rank 3 along curves (samples/50 points each)",
        _check_flat_b_strata,
    ),
    "alt_b_strata": (
        "alternating stratum: sym = 0 with alt equal to the leading parameter, "
        "exact recovery (samples per family), dual membership on the v = 0 "
        "surface (samples/10)",
        _check_alt_b_strata,
    ),
    "ricci_line_reduction": (
        "reduced models have Ricci on the dx2 line (samples draws); among "
        "10*samples random models none with (b, d) != 0 lies on that line "
        "without being flat",
        _check_ricci_diag,
    ),
    "isotropy_catalog": (
        "isotropy groups of the 6 flat and 8 rank-one catalog cases match the "
        "stored tables, every family member fixes its model (samples/10 "
        "instantiations), and orbit dimensions equal 4 - isotropy dimension",
        _check_isotropy,
    ),
    "rank1_families": (
        "rank-one catalog Ricci formulas at random parameters (samples/10), "
        "admits_type_b false exactly on the fifth family, and the sign-flip "
        "witness between mirrored fifth-family models (samples/50 pairs)",
        _check_rank1_families,
    ),
    "rank1_chart_identity": (
        "the chart scale identity -c^2 + ae + cf = p^2 + q^2 - u^2 - v^2 "
        "(samples points) and rotation reduction restoring b = d = 0 with the "
        "same scale (samples/5 draws)",
        _check_rank1_chart,
    ),
    "orbit_recovery": (
        "generate-and-recover: random pullbacks of every canonical flat model "
        "and rank-one family match back to the correct orbit with verified "
        "witnesses (samples per family, zero unmatched)",
        _check_orbit_recovery,
    ),
    "action_laws": (
        "composition functoriality, Ricci naturality, and the -identity/"
        "negation law on random model-map pairs for both actions (samples "
        "pairs)",
        _check_action_laws,
    ),
}


def verify_theorems(seed: int = 1, samples: int = 100, checks=None) -> VerificationReport:
    """Run the seeded property suite; deterministic in (seed, samples).

    ``checks`` optionally restricts to a nonempty subset of check ids; each
    selected check runs once, in the order first named.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    selected = list(CHECKS) if checks is None else list(dict.fromkeys(checks))
    if not selected:
        raise ValueError("no check ids selected")
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {unknown}")
    results = []
    for check_id in selected:
        description, fn = CHECKS[check_id]
        rng = sampling.stream(seed, check_id)
        try:
            used = fn(rng, samples)
            results.append(CheckResult(check_id, description, used, None))
        except _Failure as exc:
            results.append(CheckResult(check_id, description, 0, str(exc)))
    return VerificationReport(seed, samples, tuple(results))
