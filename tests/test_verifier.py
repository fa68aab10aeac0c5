"""Certificates and the full replay, including the falsifiability controls."""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from hirzcoh import cohomology as coh
from hirzcoh import primes
from hirzcoh import verifier as v
from hirzcoh.hirzebruch import C, F, DivisorClass, SurfaceContext
from hirzcoh.p1 import DegreeForm, SplittingType
from hirzcoh.verifier import (
    BETA,
    ELL,
    H,
    SymbolicUnsupported,
    Tower,
    almost_nef_evidence,
    base_row_certificate,
    build_extension,
    direct_not_psef_certificate,
    frobenius_certificate,
    nonsplit_restriction_certificate,
    peeling_vanishing_certificate,
    quotient_zero_conclusion,
    run_full_replay,
    split_control_datum,
)

CTX2 = SurfaceContext(2)


# -- extension datum ---------------------------------------------------------


def test_build_extension():
    datum = build_extension(CTX2)
    assert datum.ext_dim == 1 and datum.nonsplit
    assert datum.sub == C and datum.quot == DivisorClass(0, 0)
    assert build_extension(SurfaceContext(3)).ext_dim == 2
    with pytest.raises(ValueError, match="no nonsplit extension"):
        build_extension(SurfaceContext(1))
    with pytest.raises(ValueError, match="no nonsplit extension"):
        build_extension(SurfaceContext(0))


def test_restriction_certificate():
    rec = nonsplit_restriction_certificate(CTX2, build_extension(CTX2))
    assert rec.passed
    assert rec.details["h1_structure_sheaf"] == 0
    assert rec.details["h1_O_C_of_C"] == 1
    assert rec.details["E_restricted_to_C"] == "[-1,-1]"
    assert rec.details["E_restricted_to_fiber"] == "[0,1]"


def test_restriction_certificate_split_control():
    rec = nonsplit_restriction_certificate(CTX2, split_control_datum(CTX2))
    assert rec.details["E_restricted_to_C"] == "[-2,0]"


def test_restriction_certificate_ambiguous_for_steeper_twist():
    ctx = SurfaceContext(3)
    rec = nonsplit_restriction_certificate(ctx, build_extension(ctx))
    assert not rec.passed
    assert "ambiguous" in rec.witness["error"]


# -- restriction of towers ---------------------------------------------------


def _claim3_tower(datum):
    return Tower(datum, sym=4, a=ELL, b=BETA.scale(15))


def test_restrict_numeric_claim3_degrees():
    datum = build_extension(CTX2)
    for beta, ell in [(1, 0), (1, 3), (2, 0), (3, 7)]:
        st, slope = v._restrict_numeric(CTX2, _claim3_tower(datum), beta)
        assert st.twist(slope * ell).pairs == ((-beta - 2 * ell, comb(4 * beta + 4, 4)),)


def test_restrict_numeric_frobenius_degrees():
    datum = build_extension(CTX2)
    tower = Tower(datum, frob=4, a=ELL, b=BETA.scale(15))
    for beta, ell in [(1, 0), (2, 5)]:
        st, slope = v._restrict_numeric(CTX2, tower, beta)
        assert st.twist(slope * ell).pairs == (((15 - 16) * beta - 2 * ell, comb(4 * beta + 1, 1)),)


def _spec(certificate, *args, **kwargs):
    """The VanishingSpec a certificate hands to ``_certify``."""
    seen = []
    real = v._certify
    v._certify = lambda ctx, spec, mode, beta_max: seen.append(spec)
    try:
        certificate(CTX2, *args, **kwargs)
    finally:
        v._certify = real
    return seen[0]


def _grid(beta_max):
    return [(beta, ell) for beta in range(1, beta_max + 1) for ell in range(5 * beta + 1)]


# (certificate, positional args, keyword args, rank of the tower at b)
_TOWERS = {
    "claim3": (peeling_vanishing_certificate, (), {}, lambda b: comb(4 * b + 4, 4)),
    "claim4_m15": (base_row_certificate, (), {}, lambda b: comb(4 * b + 4, 4)),
    "claim4_m16": (base_row_certificate, (), {"fiber_multiple": 16}, lambda b: comb(4 * b + 4, 4)),
    **{
        f"charp_p{p}": (frobenius_certificate, (p,), {}, lambda b: 4 * b + 1)
        for p in (2, 3, 5, 7)
    },
    "remark_t": (direct_not_psef_certificate, (), {}, lambda b: 4 * b + 1),
}


# towers no certificate builds, on the nonsplit datum: (Tower fields, rank at b)
_UNBUILT_TOWERS = {
    "sym2_frob3": ({"sym": 2, "frob": 3, "a": ELL, "b": BETA}, lambda b: comb(4 * b + 2, 2)),
    "sym3_frob4": ({"sym": 3, "frob": 4, "b": BETA.scale(15)}, lambda b: comb(4 * b + 3, 3)),
    "sym2": ({"sym": 2, "a": ELL, "b": BETA.scale(7)}, lambda b: comb(4 * b + 2, 2)),
    "sym3": ({"sym": 3, "b": DegreeForm(5, -2, 1)}, lambda b: comb(4 * b + 3, 3)),
    "a_minus_ell": ({"sym": 4, "a": ELL.scale(-1), "b": BETA}, lambda b: comb(4 * b + 4, 4)),
    "b_minus_ell": ({"frob": 2, "b": DegreeForm(1, 3, -1)}, lambda b: 4 * b + 1),
}


def _tower(name):
    """(tower, rank at b) of a ``_TOWERS`` certificate or an unbuilt tower."""
    if name in _UNBUILT_TOWERS:
        fields, rank = _UNBUILT_TOWERS[name]
        return Tower(build_extension(CTX2), **fields), rank
    certificate, args, kwargs, rank = _TOWERS[name]
    return _spec(certificate, *args, **kwargs).tower, rank


@pytest.mark.parametrize("name", [*_TOWERS, *_UNBUILT_TOWERS])
def test_restrict_numeric_matches_degree_form(name):
    tower, rank = _tower(name)
    form, _ = v._restrict_symbolic(CTX2, tower)
    for beta in range(1, 7):
        st, slope = v._restrict_numeric(CTX2, tower, beta)
        for ell in range(5 * beta + 1):
            expected = SplittingType.from_pairs([(form(beta, ell), rank(beta))])
            assert st.twist(slope * ell) == expected, (beta, ell)


def _brute_sym(degrees, m):
    return [sum(c) for c in combinations_with_replacement(degrees, m)]


def test_restrict_numeric_split_control_brute_force():
    # E|_C = O(-2) + O for the split sum: every tower is unbalanced, so no
    # degree form exists and the monomials are enumerated here instead
    split = split_control_datum(CTX2)
    towers = {
        "claim3": lambda b: _brute_sym(_brute_sym([-2, 0], 4), 4 * b),
        "charp_p3": lambda b: _brute_sym([-18, 0], 4 * b),
        "remark_t": lambda b: _brute_sym([-2, 0], 4 * b),
    }
    specs = {
        "claim3": _spec(peeling_vanishing_certificate, split),
        "charp_p3": _spec(frobenius_certificate, 3, split),
        "remark_t": _spec(direct_not_psef_certificate, split),
    }
    for name, spec in specs.items():
        tower = spec.tower
        for beta, ell in _grid(2):
            st, slope = v._restrict_numeric(CTX2, tower, beta)
            shift = CTX2.intersect(DivisorClass(tower.a(beta, ell), tower.b(beta, ell)), C)
            expected = SplittingType(d + shift for d in towers[name](beta))
            assert st.twist(slope * ell) == expected, (name, beta, ell)


@pytest.mark.parametrize("name", ["claim3", "claim4_m15", "charp_p3", "remark_t"])
def test_sweep_builds_each_tower_once_per_beta(name, monkeypatch):
    certificate, args, kwargs, _ = _TOWERS[name]
    beta_max = 7
    spec = _spec(certificate, *args, **kwargs)
    top_level = []
    real = v._restrict_numeric

    def counting(ctx, tower, beta):
        assert tower == spec.tower
        top_level.append(beta)
        return real(ctx, tower, beta)

    monkeypatch.setattr(v, "_restrict_numeric", counting)
    rec = certificate(CTX2, *args, mode="sweep", beta_max=beta_max, **kwargs)
    assert rec.passed
    assert top_level == list(range(1, beta_max + 1))
    assert rec.details["evaluations"] == sum(5 * b + 1 for b in range(1, beta_max + 1))


def test_restrict_fiber():
    datum = build_extension(CTX2)
    assert v._leaf_restriction(CTX2, datum, F) == SplittingType((0, 1))


def test_restrict_symbolic_forms():
    datum = build_extension(CTX2)
    assert v._restrict_symbolic(CTX2, _claim3_tower(datum)) == (
        DegreeForm(0, -1, -2),
        "C(4b + 4, 4)",
    )
    charp = Tower(datum, frob=9, a=ELL, b=BETA.scale(15))
    assert v._restrict_symbolic(CTX2, charp) == (DegreeForm(0, 15 - 36, -2), "C(4b + 1, 1)")
    base = Tower(datum, sym=4, b=BETA.scale(15))
    assert v._restrict_symbolic(CTX2, base)[0] == DegreeForm(0, -1, 0)


def test_restrict_symbolic_refuses_unbalanced():
    with pytest.raises(SymbolicUnsupported, match="numeric sweep"):
        v._restrict_symbolic(CTX2, Tower(split_control_datum(CTX2)))
    with pytest.raises(SymbolicUnsupported):
        v._restrict_symbolic(CTX2, _claim3_tower(split_control_datum(CTX2)))


def test_restrict_symbolic_builds_no_splitting_type(monkeypatch):
    # the symbolic route shares no formula with the sweep: with the numeric
    # constructions broken it still gives the same answer for every tower
    towers = {name: _tower(name)[0] for name in [*_TOWERS, *_UNBUILT_TOWERS]}
    answers = {name: v._restrict_symbolic(CTX2, t) for name, t in towers.items()}

    def broken(*args):
        raise AssertionError("numeric construction called")

    for name in ("sym_power", "frobenius_pullback", "twist"):
        monkeypatch.setattr(SplittingType, name, broken)
    with pytest.raises(AssertionError, match="numeric construction"):
        v._restrict_numeric(CTX2, towers["claim3"], 1)
    for name, tower in towers.items():
        assert v._restrict_symbolic(CTX2, tower) == answers[name], name


def test_restricted_twist_degree_matches_intersection():
    rng = random.Random(8642)
    for _ in range(200):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        d = DivisorClass(a, b)
        for e in range(4):
            ctx = SurfaceContext(e)
            got = v.restricted_twist_degree(ctx, DegreeForm(a), DegreeForm(b))
            assert got(1, 0) == ctx.intersect(d, C) == -e * a + b


# -- individual certificates --------------------------------------------------


def test_peeling_certificate_symbolic():
    rec = peeling_vanishing_certificate(CTX2)
    assert rec.passed and rec.mode == "symbolic"
    assert rec.degree_form == DegreeForm(0, -1, -2)
    assert rec.details["polarization_identity_holds"]
    assert rec.details["rank"] == "C(4b + 4, 4)"


def test_peeling_certificate_sweep():
    rec = peeling_vanishing_certificate(CTX2, mode="sweep", beta_max=12)
    assert rec.passed
    assert rec.details["evaluations"] == sum(5 * b + 1 for b in range(1, 13))


def test_peeling_split_control_fails_with_witness():
    rec = peeling_vanishing_certificate(
        CTX2, split_control_datum(CTX2), mode="sweep", beta_max=10
    )
    assert not rec.passed
    assert rec.witness["beta"] == 1 and rec.witness["ell"] == 0
    # independent recomputation of the witness value
    sym4 = [sum(c) for c in combinations_with_replacement((-2, 0), 4)]
    tower = [sum(c) + 15 for c in combinations_with_replacement(sym4, 4)]
    assert rec.witness["h0"] == sum(d + 1 for d in tower if d >= 0) == 196


def test_base_row_certificate_symbolic():
    rec = base_row_certificate(CTX2)
    assert rec.passed
    assert rec.degree_form == DegreeForm(0, -1, 0)
    assert rec.details["base_row"]["holds"]


def test_base_row_certificate_sweep():
    rec = base_row_certificate(CTX2, mode="sweep", beta_max=9)
    assert rec.passed
    assert rec.details["base_row"]["checked_betas"] == list(range(1, 10))


def test_base_row_identity_both_routes():
    # h0(O(15b F)) on the surface vs h0(O(15b)) on P^1 vs the lattice oracle
    for beta in (1, 2, 5):
        cls = DivisorClass(0, 15 * beta)
        assert coh.h0(CTX2, cls) == 15 * beta + 1
        assert SplittingType((15 * beta,)).h0() == 15 * beta + 1
        assert coh.brute_force_h0(CTX2, cls) == 15 * beta + 1


def test_inflated_twist_control_fails():
    rec = base_row_certificate(CTX2, fiber_multiple=16)
    assert not rec.passed
    assert rec.degree_form == DegreeForm(0, 0, 0)
    assert rec.witness["beta"] == 1 and rec.witness["ell"] == 0
    assert rec.witness["h0"] == comb(8, 4)  # every summand has degree 0
    sweep = base_row_certificate(CTX2, mode="sweep", beta_max=5, fiber_multiple=16)
    assert not sweep.passed and sweep.witness["h0"] > 0


def test_quotient_zero_conclusion_gate():
    peel = peeling_vanishing_certificate(CTX2)
    base = base_row_certificate(CTX2)
    rec = quotient_zero_conclusion(CTX2, peel, base)
    assert rec.passed
    assert rec.details["quantifier"] == "all b >= 1"
    assert "evaluation map cannot be generically surjective" in rec.details["ggg_argument"]
    bad = peeling_vanishing_certificate(
        CTX2, split_control_datum(CTX2), mode="sweep", beta_max=3
    )
    gated = quotient_zero_conclusion(CTX2, bad, base, mode="sweep", beta_max=3)
    assert not gated.passed
    assert "no conclusion emitted" in gated.headline
    assert "quantifier" not in gated.details


def test_quotient_zero_finite_evidence_label():
    peel = peeling_vanishing_certificate(CTX2, mode="sweep", beta_max=7)
    base = base_row_certificate(CTX2, mode="sweep", beta_max=7)
    rec = quotient_zero_conclusion(CTX2, peel, base, mode="sweep", beta_max=7)
    assert rec.passed
    assert rec.details["quantifier"] == "1 <= b <= 7 (finite evidence)"


@pytest.mark.parametrize(
    "p,exponent,boundary",
    [(2, 2, -1), (3, 2, -21), (5, 1, -5), (7, 1, -13), (11, 1, -29)],
)
def test_frobenius_certificate(p, exponent, boundary):
    rec = frobenius_certificate(CTX2, p)
    assert rec.passed
    assert rec.details["frobenius_exponent"] == exponent
    assert rec.details["boundary_value"] == boundary
    assert rec.details["boundary_attained"] == (p == 2)
    assert rec.details["sub_is_big"] and rec.details["quot_is_ample"]
    assert rec.degree_form == DegreeForm(0, boundary, -2)


def test_frobenius_certificate_rejects_composites():
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(ValueError, match="prime"):
            frobenius_certificate(CTX2, bad)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(100_000) if v.is_prime(n)] == [
        n for n in range(100_000) if _trial_division(n)
    ]


def test_is_prime_large():
    assert not v.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not v.is_prime(10**18 + 1)
    assert v.is_prime(10**18 + 3)
    assert v.is_prime(2**61 - 1)
    assert not v.is_prime(1_000_003 * 1_000_000_007)
    # psi_12, the least strong pseudoprime to the bases 2..37
    assert not v.is_prime(318665857834031151167461)
    assert 318665857834031151167461 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="too large"):
        v.is_prime(5 * 10**24 + 1)


def test_is_prime_decides_up_to_the_bound():
    # psi_13 = 1287836182261 * 2575672364521 would pass all thirteen bases,
    # so the bound itself is refused; the largest prime below it is decided.
    bound = primes._MR_BOUND
    assert bound == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="too large"):
        v.is_prime(bound)
    assert v.is_prime(bound - 168)
    assert not any(v.is_prime(n) for n in range(bound - 167, bound))
    # the verifier's name is the primes module's function, not a copy
    assert v.is_prime is primes.is_prime


def test_frobenius_certificate_sweep():
    rec = frobenius_certificate(CTX2, 3, mode="sweep", beta_max=8)
    assert rec.passed and rec.details["evaluations"] == sum(5 * b + 1 for b in range(1, 9))


def test_direct_certificate():
    rec = direct_not_psef_certificate(CTX2)
    assert rec.passed
    assert rec.degree_form == DegreeForm(0, -1, -2)
    assert rec.details["polarization_identity"] == "H = C + 3F"
    assert "E itself is not pseudo-effective" in rec.headline
    assert coh.h0(CTX2, DivisorClass(0, 6)) == 7  # base row at b = 2
    assert coh.brute_force_h0(CTX2, DivisorClass(0, 6)) == 7


def test_premises_are_checked_before_any_h0(monkeypatch):
    real_identity = v._base_row_identity

    def broken_base_row(ctx, fiber_multiple, beta_max):
        _, info = real_identity(ctx, fiber_multiple, beta_max)
        return False, {**info, "holds": False}

    monkeypatch.setattr(v, "_base_row_identity", broken_base_row)
    for mode, beta_max in (("symbolic", None), ("sweep", 4)):
        for rec in (
            base_row_certificate(CTX2, mode=mode, beta_max=beta_max),
            frobenius_certificate(CTX2, 3, mode=mode, beta_max=beta_max),
            direct_not_psef_certificate(CTX2, mode=mode, beta_max=beta_max),
        ):
            assert not rec.passed
            assert rec.witness == {"error": "base-row identity failed"}
            assert rec.headline == "premise failed: base-row identity; no h^0 computed"
            assert "evaluations" not in rec.details and rec.degree_form is None
    monkeypatch.undo()

    monkeypatch.setattr(v, "H", C + 4 * F)
    name = "polarization identity 5H = 5C + 15F"
    for mode, beta_max in (("symbolic", None), ("sweep", 4)):
        for rec in (
            peeling_vanishing_certificate(CTX2, mode=mode, beta_max=beta_max),
            frobenius_certificate(CTX2, 5, mode=mode, beta_max=beta_max),
        ):
            assert not rec.passed
            assert rec.witness == {"error": f"{name} failed"}
            assert rec.headline == f"premise failed: {name}; no h^0 computed"
            assert "evaluations" not in rec.details


def test_almost_nef_evidence():
    rec = almost_nef_evidence(CTX2)
    assert rec.passed
    rows = {row["curve"]: row for row in rec.details["restrictions"]}
    assert rows["fiber"]["type"] == "[0,1]" and rows["fiber"]["nef"]
    assert rows["C"]["type"] == "[-1,-1]" and not rows["C"]["nef"]
    assert rows["C (split control)"]["type"] == "[-2,0]"
    assert not rows["C (split control)"]["nef"]
    assert rec.details["label"] == "evidence, not proof"


def test_almost_nef_evidence_ambiguous_restriction():
    # on F_3 the degree gap on C is -3, so the nonsplit restriction is not
    # determined; the replay stops at "restriction" and no golden reaches here
    error = (
        "ambiguous splitting type: a nonsplit extension of O(0) by O(-3) is "
        "not determined by nonsplitness alone (degree gap -3)"
    )
    assert almost_nef_evidence(SurfaceContext(3)).to_json_dict() == {
        "id": "almost_nef",
        "title": "nefness evidence by restriction",
        "mode": "exact",
        "status": "FAIL",
        "headline": f"restriction type undetermined: {error}",
        "degree_form": None,
        "details": {},
        "witness": {"error": error},
    }


# -- bookkeeping invariants ---------------------------------------------------


def test_twist_bookkeeping_identities():
    assert 4 * H + 1 * H == 5 * H
    assert 5 * H == 5 * C + 15 * F
    assert H == C + 3 * F
    for rec in (
        peeling_vanishing_certificate(CTX2),
        direct_not_psef_certificate(CTX2),
        frobenius_certificate(CTX2, 2),
    ):
        assert rec.details["polarization_identity_holds"]


# -- full replay --------------------------------------------------------------


def test_full_replay_char0_symbolic():
    rep = run_full_replay(CTX2, 0, "symbolic")
    assert rep.overall == "PASS"
    assert rep.conclusion == "not pseudo-effective"
    assert [r.claim_id for r in rep.records] == [
        "extension",
        "restriction",
        "claim3",
        "claim4",
        "sigma",
        "remark_t",
        "almost_nef",
    ]
    assert rep.vanishing_claim_count() == 4
    assert all(r.passed for r in rep.records)


def test_full_replay_char_p():
    rep = run_full_replay(CTX2, 7, "symbolic")
    assert rep.overall == "PASS"
    assert rep.record("charp").details["frobenius_exponent"] == 1
    assert rep.record("claim3") is None
    assert any("characteristic > 0" in note for note in rep.notes)
    assert [r.claim_id for r in rep.records] == [
        "extension",
        "restriction",
        "charp",
        "remark_t",
        "almost_nef",
    ]


def test_full_replay_fails_at_build_for_small_twist():
    rep = run_full_replay(SurfaceContext(1), 0, "symbolic")
    assert rep.overall == "FAIL"
    assert rep.conclusion == "not certified"
    assert rep.first_failure().claim_id == "extension"


def test_full_replay_fails_at_restriction_for_steep_twist():
    rep = run_full_replay(SurfaceContext(3), 0, "symbolic")
    assert rep.overall == "FAIL"
    assert rep.first_failure().claim_id == "restriction"
    assert rep.record("claim3") is None  # dependent certificates not attempted


def test_gate_integrity():
    for characteristic in (0, 5):
        for e in (1, 2, 3):
            rep = run_full_replay(SurfaceContext(e), characteristic, "symbolic")
            assert (rep.overall == "PASS") == all(r.passed for r in rep.records)
            assert (rep.conclusion == "not pseudo-effective") == (rep.overall == "PASS")


def test_status_follows_witness():
    assert v.ClaimRecord("x", "t", "exact").status == "PASS"
    assert v.ClaimRecord("x", "t", "exact", witness={"error": "e"}).status == "FAIL"
    records = [
        peeling_vanishing_certificate(CTX2, split_control_datum(CTX2), "sweep", 5),
        base_row_certificate(CTX2, fiber_multiple=16),
    ]
    for characteristic in (0, 5):
        for e in (1, 2, 3):
            for mode, beta_max in (("symbolic", None), ("sweep", 5)):
                rep = run_full_replay(SurfaceContext(e), characteristic, mode, beta_max)
                records += rep.records
    assert any(r.witness is None for r in records) and any(r.witness for r in records)
    for rec in records:
        assert (rec.status == "FAIL") == (rec.witness is not None), rec.claim_id


def test_symbolic_pass_implies_sweep_pass():
    symbolic = run_full_replay(CTX2, 0, "symbolic")
    sweep = run_full_replay(CTX2, 0, "sweep", beta_max=50)
    assert symbolic.overall == sweep.overall == "PASS"
    for rec in symbolic.records:
        other = sweep.record(rec.claim_id)
        assert other is not None and other.status == rec.status
    assert sweep.record("claim3").details["evaluations"] == sum(
        5 * b + 1 for b in range(1, 51)
    )


def test_replay_argument_validation():
    with pytest.raises(ValueError, match="prime"):
        run_full_replay(CTX2, 4, "symbolic")
    with pytest.raises(ValueError, match="beta_max"):
        run_full_replay(CTX2, 0, "sweep")
    with pytest.raises(ValueError, match="mode"):
        run_full_replay(CTX2, 0, "fast")
    with pytest.raises(ValueError, match="beta_max is only meaningful in sweep mode"):
        run_full_replay(CTX2, 0, "symbolic", 3)
    with pytest.raises(ValueError, match="beta_max <= 1000, got 1001"):
        run_full_replay(CTX2, 0, "sweep", 1001)
    v._check_mode("sweep", v.BETA_MAX_LIMIT)  # the limit itself is allowed


def test_report_json_shape():
    rep = run_full_replay(CTX2, 0, "symbolic")
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert list(d.keys()) == [
        "schema",
        "surface",
        "characteristic",
        "mode",
        "beta_max",
        "region",
        "setup",
        "claims",
        "overall",
        "conclusion",
        "notes",
    ]
    assert list(d["claims"].keys()) == ["claim3", "claim4", "sigma", "remark_t", "almost_nef"]
    assert list(d["setup"].keys()) == ["extension", "restriction"]
    assert d["surface"] == {
        "e": 2,
        "intersection": {"C.C": -2, "C.F": 1, "F.F": 0},
        "canonical_class": "-2C-4F",
        "polarization": "C+3F",
    }
    assert d["claims"]["claim3"]["degree_form"]["text"] == "0 - 1*b - 2*l"
    charp = run_full_replay(CTX2, 2, "symbolic").to_json_dict()
    assert list(charp["claims"].keys()) == ["charp", "remark_t", "almost_nef"]
