"""Certificates and the full replay, including the falsifiability controls."""

import inspect
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
    Tower,
    almost_nef_evidence,
    base_row_certificate,
    direct_not_psef_certificate,
    frobenius_certificate,
    nonsplit_restriction_certificate,
    peeling_vanishing_certificate,
    quotient_zero_conclusion,
    run_full_replay,
    split_control_datum,
)

CTX2 = SurfaceContext(2)


def _record(rep, claim_id):
    """The report's record with this claim id, or None."""
    return next((r for r in rep.records if r.claim_id == claim_id), None)


# -- extension datum ---------------------------------------------------------


def test_replay_datum_is_one_constant():
    assert v.ExtensionDatum._fields == ("sub", "quot", "nonsplit")
    assert v._REPLAY == v.ExtensionDatum(C, DivisorClass(0, 0), True)
    # the extension record hands the replay that constant wherever its class
    # exists, and none where it does not
    for e in (2, 3):
        datum, record = v._extension_record(SurfaceContext(e))
        assert datum is v._REPLAY and record.passed
        assert record.details["ext_dim"] == e - 1  # read from the surface
    for e in (0, 1):
        datum, record = v._extension_record(SurfaceContext(e))
        assert datum is None and not record.passed
        assert record.headline.startswith(f"no nonsplit extension exists on F_{e}: ")
    # every certificate that takes a datum defaults to it
    for certificate in [c for c, _ in _CERTIFICATES.values()] + [almost_nef_evidence]:
        default = inspect.signature(certificate).parameters["datum"].default
        assert default is v._REPLAY, certificate.__name__
    assert split_control_datum(CTX2) == v._REPLAY._replace(nonsplit=False)


def test_restriction_certificate_reads_ext_dim():
    # h^1(O(-C-4F)) = 0 on F_2, so no nonsplit extension of O by O(-C-4F)
    # exists, although its degree gap -2 on C alone would hold one
    empty = v.ExtensionDatum(-C - 4 * F, DivisorClass(0, 0), True)
    rec = nonsplit_restriction_certificate(CTX2, empty)
    assert not rec.passed
    assert rec.to_json_dict() == {
        "id": "restriction",
        "title": "restriction of the extension to C and to a fiber",
        "mode": "exact",
        "status": "FAIL",
        "headline": (
            "E|_C = [-1,-1] (nonsplit), E|_fiber = [-1,0] (splits); "
            "premises h^1(O_X) = 0, h^1(O_C(C)) = 1"
        ),
        "degree_form": None,
        "details": {
            "h1_structure_sheaf": 0,
            "restriction_of_ext_classes": "injective iff h^1(O_X) = 0",
            "O_C_of_C_degree": -2,
            "h1_O_C_of_C": 1,
            "E_restricted_to_C": "[-1,-1]",
            "E_restricted_to_fiber": "[-1,0]",
        },
        "witness": {"h1_structure_sheaf": 0, "h1_O_C_of_C": 1, "ext_dim": 0},
    }
    datum = v._REPLAY
    assert datum._replace(nonsplit=False) == split_control_datum(CTX2)
    for passing in (datum, split_control_datum(CTX2)):
        rec = nonsplit_restriction_certificate(CTX2, passing)
        assert rec.passed and "ext_dim" not in rec.details
    assert v._extension_record(SurfaceContext(3))[1].details["ext_dim"] == 2
    with pytest.raises(AttributeError):
        datum.nonsplit = False


def test_restriction_certificate_reads_sub_minus_quot():
    # sub - quot = -2C: the class group h^1(O(-2C)) = 3 is nonzero, but the
    # gap on C is -2C.C = +4, so the restricted class lands in h^1(O_C(4)) = 0
    rec = nonsplit_restriction_certificate(CTX2, v.ExtensionDatum(H, 2 * C + H, True))
    assert not rec.passed
    assert rec.witness == {"h1_structure_sheaf": 0, "h1_O_C_of_C": 0, "ext_dim": 3}
    assert rec.details["O_C_of_C_degree"] == 4


def _vanishing_records(datum, mode, beta_max):
    return (
        peeling_vanishing_certificate(CTX2, datum, mode, beta_max),
        base_row_certificate(CTX2, datum, mode, beta_max),
        frobenius_certificate(CTX2, 3, datum, mode, beta_max),
        direct_not_psef_certificate(CTX2, datum, mode, beta_max),
    )


@pytest.mark.parametrize("mode,beta_max", (("symbolic", None), ("sweep", 4)))
def test_vanishing_certificates_refuse_a_datum_without_a_class(monkeypatch, mode, beta_max):
    # called directly, without the restriction record's gate: h^1(O(-C-4F)) = 0
    name = "nonsplit class exists: h^1(O(sub - quot)) >= 1"
    empty = v.ExtensionDatum(-C - 4 * F, DivisorClass(0, 0), True)
    # h^1(O(-C)) = 0, though h^1(O(quot - sub)) = h^1(O(C)) = 1
    for datum in (empty, v.ExtensionDatum(DivisorClass(0, 0), C, True)):
        for rec in _vanishing_records(datum, mode, beta_max):
            assert not rec.passed, rec.claim_id
            assert rec.witness == {"error": f"{name} failed", "ext_dim": 0}, rec.claim_id
            assert rec.headline == f"premise failed: {name}; no h^0 computed"
            assert rec.degree_form is None and "evaluations" not in rec.details
    # the same pair split needs no class, and the replay's datum has one
    for datum in (empty._replace(nonsplit=False), v._REPLAY):
        for rec in _vanishing_records(datum, mode, beta_max):
            assert rec.witness is None or "ext_dim" not in rec.witness, rec.claim_id
    # it comes right after ampleness: first when H is ample but breaks the
    # polarization identities, second when H is not ample
    monkeypatch.setattr(v, "H", C + 4 * F)
    for rec in _vanishing_records(empty, mode, beta_max):
        assert rec.witness == {"error": f"{name} failed", "ext_dim": 0}, rec.claim_id
    monkeypatch.setattr(v, "H", C + 2 * F)
    for rec in _vanishing_records(empty, mode, beta_max):
        assert rec.witness == {"error": "polarization H ample on F_e failed"}, rec.claim_id


@pytest.mark.parametrize("mode,beta_max", (("symbolic", None), ("sweep", 3)))
def test_vanishing_certificates_fail_an_undetermined_type(mode, beta_max):
    # h^1(O(2C)) = 4 on F_2, so the class exists, but the gap 2C.C = -4 on C
    # leaves two nonsplit types: every vanishing row FAILs, none raises
    error = (
        "ambiguous splitting type: a nonsplit extension of O(0) by O(-4) is "
        "not determined by nonsplitness alone (degree gap -4)"
    )
    steep = v.ExtensionDatum(2 * C, DivisorClass(0, 0), True)
    assert coh.h1(CTX2, 2 * C) == 4
    records = _vanishing_records(steep, mode, beta_max)
    for rec in records:
        assert not rec.passed and rec.mode == mode, rec.claim_id
        assert rec.headline == f"restriction type undetermined: {error}", rec.claim_id
        assert rec.witness == {"error": error}, rec.claim_id
        assert rec.degree_form is None and "evaluations" not in rec.details, rec.claim_id
        assert "rank" not in rec.details, rec.claim_id
    base_row = {
        "identity": "h0(O(3b F)) = 3b + 1 = h0 on P^1",
        "reason": (
            "C is a section of the ruling, so sections pulled back from the base "
            "restrict bijectively to C"
        ),
    }
    if beta_max is None:
        base_row.update(fiber_degree="3b >= 0 on the region", holds=True)
    else:
        base_row.update(checked_betas=[1, 2, 3], holds=True)
    assert records[-1].to_json_dict() == {
        "id": "remark_t",
        "title": "E itself is not pseudo-effective",
        "mode": mode,
        "status": "FAIL",
        "headline": f"restriction type undetermined: {error}",
        "degree_form": None,
        "details": {
            "bundle": "S^{4b}(E)(lC + 3bF) restricted to C",
            "surjection": "S^{4b}(E)(bH) ->> O(bH), induced by E ->> O",
            "polarization_identity": "H = C + 3F",
            "polarization_identity_holds": True,
            "base_row": base_row,
        },
        "witness": {"error": error},
    }


def test_restriction_labels_follow_the_types():
    # each type is labelled by whether it is the split type {sub.X, quot.X}:
    # the gap +4 on C kills the class, so E|_C is the split [-3,1], while the
    # gap -2 on a fiber leaves the nonsplit [2,2]
    rec = nonsplit_restriction_certificate(CTX2, v.ExtensionDatum(H, 2 * C + H, True))
    assert rec.headline == (
        "E|_C = [-3,1] (splits), E|_fiber = [2,2] (nonsplit); "
        "premises h^1(O_X) = 0, h^1(O_C(C)) = 0"
    )
    # a nonsplit request with no class on C (gap +2) names the split type
    rec = nonsplit_restriction_certificate(CTX2, v.ExtensionDatum(DivisorClass(0, 0), C, True))
    assert rec.headline.startswith("E|_C = [-2,0] (splits), E|_fiber = [0,1] (splits); ")
    # the replay datum and the split control keep their labels
    rec = nonsplit_restriction_certificate(CTX2, v._REPLAY)
    assert rec.headline.startswith("E|_C = [-1,-1] (nonsplit), E|_fiber = [0,1] (splits); ")
    rec = nonsplit_restriction_certificate(CTX2, split_control_datum(CTX2))
    assert rec.headline.startswith("E|_C = [-2,0] (split (control)), E|_fiber = [0,1] (splits); ")


def test_restriction_certificate():
    rec = nonsplit_restriction_certificate(CTX2, v._REPLAY)
    assert rec.passed
    assert rec.details["h1_structure_sheaf"] == 0
    assert rec.details["h1_O_C_of_C"] == 1
    assert rec.details["E_restricted_to_C"] == "[-1,-1]"
    assert rec.details["E_restricted_to_fiber"] == "[0,1]"


def test_restriction_certificate_split_control():
    rec = nonsplit_restriction_certificate(CTX2, split_control_datum(CTX2))
    assert rec.details["E_restricted_to_C"] == "[-2,0]"


def test_restriction_certificate_determined_at_gap_minus_3():
    # on F_3 the degree gap on C is -3: the only nonsplit type is [-2,-1]
    ctx = SurfaceContext(3)
    rec = nonsplit_restriction_certificate(ctx, v._REPLAY)
    assert rec.passed
    assert rec.details["h1_O_C_of_C"] == 2
    assert rec.details["E_restricted_to_C"] == "[-2,-1]"
    assert rec.details["E_restricted_to_fiber"] == "[0,1]"


def test_restriction_certificate_ambiguous_for_steeper_twist():
    ctx = SurfaceContext(4)
    rec = nonsplit_restriction_certificate(ctx, v._REPLAY)
    assert not rec.passed
    error = (
        "ambiguous splitting type: a nonsplit extension of O(0) by O(-4) is not "
        "determined by nonsplitness alone (degree gap -4)"
    )
    assert rec.to_json_dict() == {
        "id": "restriction",
        "title": "restriction of the extension to C and to a fiber",
        "mode": "exact",
        "status": "FAIL",
        "headline": f"restriction type undetermined: {error}",
        "degree_form": None,
        "details": {
            "h1_structure_sheaf": 0,
            "restriction_of_ext_classes": "injective iff h^1(O_X) = 0",
            "O_C_of_C_degree": -4,
            "h1_O_C_of_C": 3,
        },
        "witness": {"error": error},
    }


# -- restriction of towers ---------------------------------------------------


def _claim3_tower(datum):
    return Tower(datum, sym=4, a=ELL, b=BETA.scale(15))


def test_restrict_numeric_claim3_degrees():
    datum = v._REPLAY
    for beta, ell in [(1, 0), (1, 3), (2, 0), (3, 7)]:
        st, slope = v._restrict_numeric(CTX2, _claim3_tower(datum), beta)
        assert st.twist(slope * ell).pairs == ((-beta - 2 * ell, comb(4 * beta + 4, 4)),)


def test_restrict_numeric_frobenius_degrees():
    datum = v._REPLAY
    tower = Tower(datum, frob=4, a=ELL, b=BETA.scale(15))
    for beta, ell in [(1, 0), (2, 5)]:
        st, slope = v._restrict_numeric(CTX2, tower, beta)
        assert st.twist(slope * ell).pairs == (((15 - 16) * beta - 2 * ell, comb(4 * beta + 1, 1)),)


def _spec(certificate, *args, **kwargs):
    """The Row a certificate hands to ``_certify``."""
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
        return Tower(v._REPLAY, **fields), rank
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
    # E|_C = O(-2) + O for the split sum: every tower is unbalanced, so its
    # degrees are enumerated here as monomials, and the largest of them is
    # the symbolic top form
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
            top, _ = v._restrict_symbolic(CTX2, tower)
            assert max(expected.degrees()) == top(beta, ell), (name, beta, ell)


@pytest.mark.parametrize("name", ["claim3", "claim4_m15", "charp_p3", "remark_t"])
def test_sweep_builds_each_tower_once_per_beta(name, monkeypatch):
    certificate, args, kwargs, _ = _TOWERS[name]
    beta_max = 7
    spec = _spec(certificate, *args, **kwargs)
    bases, top_level = [], []
    real_base, real_numeric = v._restrict_base, v._restrict_numeric

    def counting_base(ctx, tower):
        assert tower == spec.tower
        bases.append(real_base(ctx, tower))
        return bases[-1]

    def counting(ctx, tower, beta, base):
        assert tower == spec.tower and base is bases[0]
        top_level.append(beta)
        return real_numeric(ctx, tower, beta, base)

    monkeypatch.setattr(v, "_restrict_base", counting_base)
    monkeypatch.setattr(v, "_restrict_numeric", counting)
    rec = certificate(CTX2, *args, mode="sweep", beta_max=beta_max, **kwargs)
    assert rec.passed
    assert len(bases) == 1  # the b-independent base, once per certificate
    assert top_level == list(range(1, beta_max + 1))  # S^{4b} and the twist, once per b
    assert rec.details["evaluations"] == sum(5 * b + 1 for b in range(1, beta_max + 1))


@pytest.mark.parametrize("name", _TOWERS)
def test_sweep_builds_each_twist_form_once(name, monkeypatch):
    # b enters the twist a*C + b*F only as the form's argument, so a sweep
    # builds the form on C once per tower, not once per b
    tower = _tower(name)[0]
    calls, real = [], v.restricted_twist_degree

    def counting(ctx, a_form, b_form):
        calls.append((a_form, b_form))
        return real(ctx, a_form, b_form)

    monkeypatch.setattr(v, "restricted_twist_degree", counting)
    v._sweep_vanishing(CTX2, tower, 7)
    assert calls == [(tower.a, tower.b)]


def test_restrict_fiber():
    datum = v._REPLAY
    assert v._leaf_restriction(CTX2, datum, F) == SplittingType((0, 1))


def test_restrict_symbolic_forms():
    datum = v._REPLAY
    assert v._restrict_symbolic(CTX2, _claim3_tower(datum)) == (
        DegreeForm(0, -1, -2),
        "C(4b + 4, 4)",
    )
    charp = Tower(datum, frob=9, a=ELL, b=BETA.scale(15))
    assert v._restrict_symbolic(CTX2, charp) == (DegreeForm(0, 15 - 36, -2), "C(4b + 1, 1)")
    base = Tower(datum, sym=4, b=BETA.scale(15))
    assert v._restrict_symbolic(CTX2, base)[0] == DegreeForm(0, -1, 0)
    # the split E|_C = [-2,0]: the top summand comes from the leaf degree 0
    split = split_control_datum(CTX2)
    assert v._restrict_symbolic(CTX2, Tower(split)) == (DegreeForm(), "C(4b + 1, 1)")
    assert v._restrict_symbolic(CTX2, _claim3_tower(split)) == (
        DegreeForm(0, 15, -2),
        "C(4b + 4, 4)",
    )


# each falsifiability control: (certificate, positional args, keyword args)
_SPLIT = split_control_datum(CTX2)
_CONTROLS = {
    "split_claim3": (peeling_vanishing_certificate, (_SPLIT,), {}),
    "split_remark_t": (direct_not_psef_certificate, (_SPLIT,), {}),
    "split_charp3": (frobenius_certificate, (3, _SPLIT), {}),
    "inflated_claim4": (base_row_certificate, (), {"fiber_multiple": 16}),
}


@pytest.mark.parametrize("name", _CONTROLS)
def test_symbolic_and_sweep_agree_on_the_controls(name):
    certificate, args, kwargs = _CONTROLS[name]
    symbolic = certificate(CTX2, *args, **kwargs)
    sweep = certificate(CTX2, *args, mode="sweep", beta_max=3, **kwargs)
    assert not symbolic.passed and not sweep.passed
    point = ("beta", "ell", "h0")
    assert [symbolic.witness[k] for k in point] == [sweep.witness[k] for k in point]
    assert symbolic.degree_form == sweep.degree_form
    if name == "split_claim3":
        assert [sweep.witness[k] for k in point] == [1, 0, 196]


def _replay_outputs():
    """The JSON of the char 0 and 3 replays, symbolic and sweep to 6, and of the control sweeps."""
    replays = [
        run_full_replay(CTX2, char, mode, beta_max).to_json_dict()
        for char in (0, 3)
        for mode, beta_max in (("symbolic", None), ("sweep", 6))
    ]
    controls = [
        certificate(CTX2, *args, mode="sweep", beta_max=6, **kwargs).to_json_dict()
        for certificate, args, kwargs in _CONTROLS.values()
    ]
    return replays, controls


def _forbidden(*args, **kwargs):
    raise AssertionError("the replay called what the test forbids")


def test_replay_builds_no_counter(monkeypatch):
    # the replay's splitting types have one or two degrees each, and a
    # Counter per type cost more than the rest of the constructor
    expected = _replay_outputs()
    monkeypatch.setattr("hirzcoh.p1.Counter", _forbidden)
    assert _replay_outputs() == expected


def test_replay_builds_no_checked_type(monkeypatch):
    # every type the replay derives, the balanced S^{4b} of each sweep row
    # included, is canonical by construction and skips the checked entry point
    expected = _replay_outputs()
    monkeypatch.setattr(SplittingType, "from_pairs", _forbidden)
    assert _replay_outputs() == expected


def _sweep_point_by_point(tower, beta_max):
    """``_sweep_vanishing`` as a plain loop: h^0 from the pairs at each point."""
    evaluations = 0
    for beta in range(1, beta_max + 1):
        st, slope = v._restrict_numeric(CTX2, tower, beta)
        for ell in range(5 * beta + 1):
            t = slope * ell
            h0 = sum(r * (d + t + 1) for d, r in st.pairs if d + t >= 0)
            evaluations += 1
            if h0:
                return evaluations, {"beta": beta, "ell": ell, "h0": h0}
    return evaluations, None


# split towers no certificate builds, with unbalanced rows and the first
# witness (b, l) pinned.  The top degree -12 - 9b + 2l first reaches 0 at
# the last point of b <= 12, where the slope divides it exactly; the top
# degree -11 - 13b + 3l first reaches 0 at b = 6, where the slope 3 does
# not divide 89, so the witness is the rounded-up l = 30.
_LATE_FAILURES = {
    "late_failure": (Tower(_SPLIT, a=ELL.scale(-1), b=DegreeForm(-12, -9, 0)), (12, 60)),
    "rounded_failure": (Tower(_SPLIT, b=DegreeForm(-11, -13, 3)), (6, 30)),
}


@pytest.mark.parametrize(
    "name", [*_TOWERS, "split_claim3", "split_remark_t", "split_charp3", *_LATE_FAILURES]
)
def test_sweep_matches_point_by_point_h0(name):
    if name in _TOWERS:
        tower = _tower(name)[0]
    elif name in _CONTROLS:
        certificate, args, kwargs = _CONTROLS[name]
        tower = _spec(certificate, *args, **kwargs).tower
    else:
        tower, witness = _LATE_FAILURES[name]
    got = v._sweep_vanishing(CTX2, tower, 12)
    assert got == _sweep_point_by_point(tower, 12)
    if name in _LATE_FAILURES:
        assert (got[1]["beta"], got[1]["ell"]) == witness


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
    assert rec.details["base_row"]["fiber_degree"] == "15b >= 0 on the region"
    assert "checked_betas" not in rec.details["base_row"]


def test_base_row_certificate_sweep():
    rec = base_row_certificate(CTX2, mode="sweep", beta_max=9)
    assert rec.passed
    assert rec.details["base_row"]["checked_betas"] == list(range(1, 10))


def test_base_row_identity_both_routes():
    # h0(O(m b F)) on the surface vs h0(O(m b)) on P^1 vs the lattice oracle,
    # for every certificate's m (16: the control) up to the last b the oracle
    # reaches
    for e in range(4):
        ctx = SurfaceContext(e)
        for m in (3, 15, 16):
            for beta in (1, 2, coh.BRUTE_FORCE_BOUND // m):
                cls = DivisorClass(0, m * beta)
                assert coh.h0(ctx, cls) == m * beta + 1, (e, m, beta)
                assert SplittingType((m * beta,)).h0() == m * beta + 1
                assert coh.brute_force_h0(ctx, cls) == m * beta + 1, (e, m, beta)


def _refuse_oracle(ctx, d):
    raise AssertionError("the lattice-point oracle was evaluated")


def test_symbolic_base_row_is_a_form(monkeypatch):
    # a negative fiber multiple fails the premise by its form alone
    monkeypatch.setattr(coh, "brute_force_h0", _refuse_oracle)
    rec = base_row_certificate(CTX2, fiber_multiple=-1)
    assert not rec.passed
    assert rec.witness == {"error": "base-row identity failed"}
    assert rec.details["base_row"]["fiber_degree"] == "-1b >= 0 on the region"
    assert not rec.details["base_row"]["holds"]


def test_symbolic_base_row_agrees_with_sampled_routes():
    for e in range(4):
        ctx = SurfaceContext(e)
        for m in (-2, -1, 0, 3, 15, 16):
            symbolic = v._base_row_identity(ctx, m, None)["holds"]
            sampled = v._base_row_identity(ctx, m, 8)["holds"]
            assert symbolic == sampled == (m >= 0), (e, m)


def test_base_row_oracle_covers_beta_up_to_its_bound():
    # both routes check every listed beta, past the lattice oracle's bound too
    for name in ("claim4_m15", "claim4_m16", "charp_p3", "remark_t"):
        certificate, args, kwargs, _ = _TOWERS[name]
        m = _spec(certificate, *args, **kwargs).tower.b.cb
        info = v._base_row_identity(CTX2, m, 1000)
        assert info["holds"] and info["checked_betas"] == list(range(1, 1001))


@pytest.mark.parametrize("m", (3, 15))
def test_base_row_sweep_needs_both_routes(m, monkeypatch):
    # either route off by one at the last checked b alone breaks the
    # identity, so neither route is skipped or stops early
    last = 8 * m
    assert v._base_row_identity(CTX2, m, 8)["holds"]
    real_surface = coh.h0
    monkeypatch.setattr(
        coh, "h0", lambda ctx, d: real_surface(ctx, d) + (d == DivisorClass(0, last))
    )
    assert not v._base_row_identity(CTX2, m, 8)["holds"]
    monkeypatch.setattr(coh, "h0", real_surface)
    # the P^1 mutant keys on the bundle O(last), whichever type and twist
    # the route reads it from
    real_line = SplittingType.h0
    monkeypatch.setattr(
        SplittingType,
        "h0",
        lambda st, twist=0: real_line(st, twist) + (st.twist(twist).pairs == ((last, 1),)),
    )
    assert not v._base_row_identity(CTX2, m, 8)["holds"]


@pytest.mark.parametrize("beta_max", (8, 1000))
@pytest.mark.parametrize("m", (-2, 0, 3, 15))
def test_base_row_sweep_builds_one_splitting_type(m, beta_max, monkeypatch):
    # the P^1 route reads every b from one trivial type, and the surface
    # route is still evaluated at every b
    built, surface = [], []
    real_type, real_surface = v.SplittingType, coh.h0

    def counted_type(*args):
        built.append(args)
        return real_type(*args)

    def counted_surface(ctx, d):
        surface.append(d)
        return real_surface(ctx, d)

    monkeypatch.setattr(v, "SplittingType", counted_type)
    monkeypatch.setattr(coh, "h0", counted_surface)
    info = v._base_row_identity(CTX2, m, beta_max)
    assert len(built) == 1
    assert info["holds"] == (m >= 0)
    if m >= 0:
        assert surface == [DivisorClass(0, m * b) for b in range(1, beta_max + 1)]


def test_rows_agree_on_their_twist_numbers():
    # every base-row tower twists by a multiple m*b*F alone and its base-row
    # identity is read at that m, and claim3 and claim4 (so sigma) meet at
    # one multiple of F
    assert "fiber_multiple" not in v.Row._fields
    for name, (certificate, args, kwargs, _) in _TOWERS.items():
        spec = _spec(certificate, *args, **kwargs)
        if spec.base_row:
            m = spec.tower.b.cb
            assert spec.tower.b == BETA.scale(m), name
            identity = certificate(CTX2, *args, **kwargs).details["base_row"]["identity"]
            assert identity.startswith(f"h0(O({m}b F)) = {m}b + 1"), name
    claim3 = _spec(peeling_vanishing_certificate)
    assert claim3.tower.b == _spec(base_row_certificate).tower.b
    charp = _spec(frobenius_certificate, 2)
    assert claim3.details["polarization_identity"] == charp.details["polarization_identity"]


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
    assert rec.passed and rec.mode == "symbolic"
    assert rec.details["quantifier"] == "all b >= 1"
    assert "evaluation map cannot be generically surjective" in rec.details["ggg_argument"]
    bad = peeling_vanishing_certificate(
        CTX2, split_control_datum(CTX2), mode="sweep", beta_max=3
    )
    gated = quotient_zero_conclusion(CTX2, bad, base)
    assert not gated.passed
    assert "no conclusion emitted" in gated.headline
    assert "quantifier" not in gated.details
    assert gated.mode == "sweep"


def test_quotient_zero_finite_evidence_label():
    peel = peeling_vanishing_certificate(CTX2, mode="sweep", beta_max=7)
    base = base_row_certificate(CTX2, mode="sweep", beta_max=7)
    rec = quotient_zero_conclusion(CTX2, peel, base)
    assert rec.passed
    assert rec.details["quantifier"] == "1 <= b <= 7 (finite evidence)"
    # the quantifier follows the premises: swept only to b = 1, they cannot
    # support "for all b >= 1"
    peel = peeling_vanishing_certificate(CTX2, mode="sweep", beta_max=1)
    base = base_row_certificate(CTX2, mode="sweep", beta_max=1)
    rec = quotient_zero_conclusion(CTX2, peel, base)
    assert rec.passed and rec.mode == "sweep"
    assert rec.details["quantifier"] == "1 <= b <= 1 (finite evidence)"
    assert "for 1 <= b <= 1 (finite evidence);" in rec.headline
    # one symbolic premise: the sweep premise's bound is the evidence
    symbolic_peel = peeling_vanishing_certificate(CTX2)
    base3 = base_row_certificate(CTX2, mode="sweep", beta_max=3)
    mixed = quotient_zero_conclusion(CTX2, symbolic_peel, base3)
    assert mixed.passed and mixed.mode == "sweep"
    assert mixed.details["quantifier"] == "1 <= b <= 3 (finite evidence)"
    # two sweep premises with different bounds: the smaller one holds for both
    peel5 = peeling_vanishing_certificate(CTX2, mode="sweep", beta_max=5)
    uneven = quotient_zero_conclusion(CTX2, peel5, base3)
    assert uneven.details["quantifier"] == "1 <= b <= 3 (finite evidence)"


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


@pytest.mark.parametrize("characteristic", (1, 4, -3, 318665857834031151167461))
def test_replay_refuses_a_characteristic_that_is_not_0_or_prime(characteristic):
    # the same rule, and the same message, as the command line's --char
    with pytest.raises(ValueError) as exc:
        run_full_replay(CTX2, characteristic)
    assert str(exc.value) == f"characteristic must be 0 or a prime, got {characteristic}"
    assert v.check_characteristic is primes.check_characteristic


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
        return {**real_identity(ctx, fiber_multiple, beta_max), "holds": False}

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


@pytest.mark.parametrize("mode,beta_max", (("symbolic", None), ("sweep", 4)))
def test_premise_order_when_several_fail(monkeypatch, mode, beta_max):
    # ampleness first, then the certificate's own premises, then the base row
    def records():
        return {
            rec.claim_id: rec
            for rec in (
                peeling_vanishing_certificate(CTX2, mode=mode, beta_max=beta_max),
                base_row_certificate(CTX2, mode=mode, beta_max=beta_max),
                frobenius_certificate(CTX2, 3, mode=mode, beta_max=beta_max),
                direct_not_psef_certificate(CTX2, mode=mode, beta_max=beta_max),
            )
        }

    # C + 2F is not ample on F_2 and breaks both polarization identities
    monkeypatch.setattr(v, "H", C + 2 * F)
    for claim_id, rec in records().items():
        assert rec.witness == {"error": "polarization H ample on F_e failed"}, claim_id

    # C + 4F is ample but breaks both identities; a negative fiber multiple
    # breaks every base row too
    monkeypatch.setattr(v, "H", C + 4 * F)
    real_identity = v._base_row_identity
    monkeypatch.setattr(
        v, "_base_row_identity", lambda ctx, m, beta_max: real_identity(ctx, -1, beta_max)
    )
    first_failed = {
        "claim3": "polarization identity 5H = 5C + 15F",
        "claim4": "base-row identity",
        "charp": "polarization identity 5H = 5C + 15F",
        "remark_t": "polarization identity H = C + 3F",
    }
    for claim_id, rec in records().items():
        assert rec.witness == {"error": f"{first_failed[claim_id]} failed"}, claim_id
        assert rec.headline == f"premise failed: {first_failed[claim_id]}; no h^0 computed"
        if claim_id != "claim3":
            assert not rec.details["base_row"]["holds"], claim_id


def test_almost_nef_evidence():
    rec = almost_nef_evidence(CTX2)
    assert rec.passed
    rows = {row["curve"]: row for row in rec.details["restrictions"]}
    assert rows["fiber"]["type"] == "[0,1]" and rows["fiber"]["nef"]
    assert rows["C"]["type"] == "[-1,-1]" and not rows["C"]["nef"]
    assert rows["C (split control)"]["type"] == "[-2,0]"
    assert not rows["C (split control)"]["nef"]
    assert rec.details["label"] == "evidence, not proof"


def _almost_nef_dict(headline, types, witness):
    """The whole almost_nef record whose fiber, C and split-control types are ``types``."""
    rows = [
        {"curve": curve, "type": text, "nef": not text.startswith("[-")}
        for curve, text in zip(("fiber", "C", "C (split control)"), types)
    ]
    return {
        "id": "almost_nef",
        "title": "nefness evidence by restriction",
        "mode": "exact",
        "status": "FAIL",
        "headline": headline,
        "degree_form": None,
        "details": {
            "restrictions": rows,
            "label": "evidence, not proof",
            "exceptional_locus": "C",
            "caveat": (
                "almost nefness asks for nefness outside a countable family of "
                "subvarieties; only fibers and C are checked here, and stability "
                "of almost nefness under extension is not reproved"
            ),
        },
        "witness": {"restrictions": rows} if witness is None else witness,
    }


def test_almost_nef_headline_reads_its_rows():
    assert almost_nef_evidence(CTX2).headline == (
        "E|_fiber = [0,1] nef, E|_C = [-1,-1] not nef; C is the exceptional "
        "curve (evidence, not proof)"
    )
    # O(-C) + O is not nef on a fiber and is nef on C: the FAIL says so, and
    # names no exceptional curve
    rec = almost_nef_evidence(CTX2, v.ExtensionDatum(-C, DivisorClass(0, 0), False))
    assert rec.to_json_dict() == _almost_nef_dict(
        "E|_fiber = [-1,0] not nef, E|_C = [0,2] nef", ("[-1,0]", "[0,2]", "[0,2]"), None
    )


def test_almost_nef_needs_a_nonsplit_class():
    # h^1(O(-C)) = 0 on F_2: no nonsplit extension of O(C) by O exists, so
    # the record FAILs at the premise every vanishing row has, not at its types
    rec = almost_nef_evidence(CTX2, v.ExtensionDatum(DivisorClass(0, 0), C, True))
    name = "nonsplit class exists: h^1(O(sub - quot)) >= 1"
    assert rec.to_json_dict() == _almost_nef_dict(
        f"premise failed: {name}; no h^0 computed",
        ("[0,1]", "[-2,0]", "[-2,0]"),
        {"error": f"{name} failed", "ext_dim": 0},
    )


def test_almost_nef_evidence_at_gap_minus_3():
    rec = almost_nef_evidence(SurfaceContext(3))
    assert rec.passed
    rows = {row["curve"]: row for row in rec.details["restrictions"]}
    assert rows["C"]["type"] == "[-2,-1]" and not rows["C"]["nef"]
    assert rows["C (split control)"]["type"] == "[-3,0]"


def test_almost_nef_evidence_ambiguous_restriction():
    # on F_4 the degree gap on C is -4, which leaves two nonsplit candidates;
    # the replay stops at "restriction" and no golden reaches here
    error = (
        "ambiguous splitting type: a nonsplit extension of O(0) by O(-4) is "
        "not determined by nonsplitness alone (degree gap -4)"
    )
    assert almost_nef_evidence(SurfaceContext(4)).to_json_dict() == {
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


def test_full_replay_defaults_to_characteristic_0_symbolic():
    default = run_full_replay(CTX2).to_json_dict()
    assert default == run_full_replay(CTX2, 0, "symbolic").to_json_dict()


def test_full_replay_char_p():
    rep = run_full_replay(CTX2, 7, "symbolic")
    assert rep.overall == "PASS"
    assert _record(rep, "charp").details["frobenius_exponent"] == 1
    assert _record(rep, "claim3") is None
    assert any("characteristic > 0" in note for note in rep.notes)
    assert "notes" not in v.VerificationReport._fields
    assert run_full_replay(CTX2, 0, "symbolic").notes == []
    assert run_full_replay(SurfaceContext(1), 7, "symbolic").notes == []  # no charp record
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
    rep = run_full_replay(SurfaceContext(4), 0, "symbolic")
    assert rep.overall == "FAIL"
    assert rep.first_failure().claim_id == "restriction"
    assert _record(rep, "claim3") is None  # dependent certificates not attempted


def test_full_replay_on_f3_fails_at_the_ampleness_premise():
    # the restriction is determined on F_3, but H = C + 3F is not ample there
    for characteristic, first in ((0, "claim3"), (3, "charp")):
        rep = run_full_replay(SurfaceContext(3), characteristic, "symbolic")
        assert _record(rep, "restriction").passed
        assert _record(rep, "restriction").details["E_restricted_to_C"] == "[-2,-1]"
        assert (rep.overall, rep.conclusion) == ("FAIL", "not certified")
        assert rep.first_failure().claim_id == first
        assert rep.first_failure().witness == {"error": "polarization H ample on F_e failed"}


def test_gate_integrity():
    for characteristic in (0, 5):
        for e in (1, 2, 3):
            rep = run_full_replay(SurfaceContext(e), characteristic, "symbolic")
            assert (rep.overall == "PASS") == all(r.passed for r in rep.records)
            assert (rep.conclusion == "not pseudo-effective") == (rep.overall == "PASS")


@pytest.mark.parametrize("e", range(7))
def test_no_conclusion_without_ample_polarization(e):
    """Ampleness of H is the premise of the pseudo-effectivity definition refuted."""
    ctx = SurfaceContext(e)
    for characteristic in (0, 2, 3, 5, 7):
        for mode, beta_max in (("symbolic", None), ("sweep", 2)):
            rep = run_full_replay(ctx, characteristic, mode, beta_max)
            if rep.conclusion == "not pseudo-effective":
                assert ctx.is_ample(H), (characteristic, mode)
    if e >= 2:  # an extension exists; each certificate checks the premise first
        datum = v._REPLAY
        records = [
            peeling_vanishing_certificate(ctx, datum),
            base_row_certificate(ctx, datum),
            frobenius_certificate(ctx, 3, datum),
            direct_not_psef_certificate(ctx, datum),
        ]
        premise_failed = {"error": "polarization H ample on F_e failed"}
        for rec in records:
            assert (rec.witness == premise_failed) == (not ctx.is_ample(H)), rec.claim_id


def test_report_verdict_follows_records():
    rep = run_full_replay(CTX2, 0, "symbolic")
    assert (rep.overall, rep.conclusion) == ("PASS", "not pseudo-effective")
    _record(rep, "remark_t").witness = {"beta": 1, "ell": 0}
    assert (rep.overall, rep.conclusion) == ("FAIL", "not certified")
    assert rep.first_failure().claim_id == "remark_t"
    _record(rep, "remark_t").witness = None
    assert (rep.overall, rep.conclusion) == ("PASS", "not pseudo-effective")


@pytest.mark.parametrize("characteristic", (0, 2, 3, 5, 7))
def test_symbolic_replay_evaluates_no_oracle(monkeypatch, characteristic):
    monkeypatch.setattr(coh, "brute_force_h0", _refuse_oracle)
    assert run_full_replay(CTX2, characteristic, "symbolic").overall == "PASS"


@pytest.mark.parametrize("beta_max", (20, 1000))
def test_sweep_replay_evaluates_no_oracle(monkeypatch, beta_max):
    monkeypatch.setattr(coh, "brute_force_h0", _refuse_oracle)
    for characteristic in (0, 2, 3, 5, 7):
        assert run_full_replay(CTX2, characteristic, "sweep", beta_max).overall == "PASS"


@pytest.mark.parametrize(
    "mode,beta_max,evidence",
    (("symbolic", None, "restricted degrees "), ("sweep", 3, "h^0 = 0 at all ")),
)
def test_pass_headline_opens_with_mode_evidence(mode, beta_max, evidence):
    for characteristic in (0, 2, 3, 5, 7):
        rep = run_full_replay(CTX2, characteristic, mode, beta_max)
        vanishing = [
            r for r in rep.records if r.claim_id in ("claim3", "claim4", "charp", "remark_t")
        ]
        assert len(vanishing) == (3 if characteristic == 0 else 2)
        for rec in vanishing:
            assert rec.passed and rec.headline.startswith(evidence), rec.headline


def test_status_follows_witness():
    assert v.ClaimRecord("x", "t", "exact").status == "PASS"
    assert v.ClaimRecord("x", "t", "exact", witness={"error": "e"}).status == "FAIL"
    # assigning a status rewrites the witness instead of contradicting it
    rec = v.ClaimRecord("x", "t", "exact")
    rec.status = "FAIL"
    assert rec.witness and rec.status == "FAIL" and not rec.passed
    rec.status = "PASS"
    assert rec.witness is None and rec.passed
    records = [
        peeling_vanishing_certificate(CTX2, split_control_datum(CTX2), "sweep", 5),
        peeling_vanishing_certificate(CTX2, split_control_datum(CTX2)),
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
        other = _record(sweep, rec.claim_id)
        assert other is not None and other.status == rec.status
    assert _record(sweep, "claim3").details["evaluations"] == sum(
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
    # the command line's rule, and the same bound, not a copy
    assert v._check_mode is primes.check_mode
    assert v.BETA_MAX_LIMIT is primes.BETA_MAX_LIMIT


_CERTIFICATES = {
    "claim3": (peeling_vanishing_certificate, ()),
    "claim4": (base_row_certificate, ()),
    "charp": (frobenius_certificate, (2,)),
    "remark_t": (direct_not_psef_certificate, ()),
}


@pytest.mark.parametrize("name", _CERTIFICATES)
def test_certificate_refuses_bad_arguments(name):
    certificate, args = _CERTIFICATES[name]
    refusals = [
        ("fast", None, "mode must be"),
        ("sweep", None, "sweep mode needs beta_max >= 1"),
        ("sweep", 0, "sweep mode needs beta_max >= 1"),
        ("symbolic", 3, "beta_max is only meaningful"),
        ("sweep", 1001, "beta_max <= 1000, got 1001"),
    ]
    # F_1 has no nonsplit extension: the arguments are refused before any
    # premise is read
    for ctx in (CTX2, SurfaceContext(1)):
        for mode, beta_max, message in refusals:
            with pytest.raises(ValueError, match=message):
                certificate(ctx, *args, mode=mode, beta_max=beta_max)
    # on F_0 and F_1 the default datum holds no class: a FAIL, not a refusal
    name = "nonsplit class exists: h^1(O(sub - quot)) >= 1"
    for e in (0, 1):
        for rec in (certificate(SurfaceContext(e), *args), almost_nef_evidence(SurfaceContext(e))):
            assert rec.witness == {"error": f"{name} failed", "ext_dim": 0}, (e, rec.claim_id)
            assert rec.headline == f"premise failed: {name}; no h^0 computed"


def test_charp_refuses_a_composite_before_the_mode():
    with pytest.raises(ValueError, match="characteristic must be prime, got 4"):
        frobenius_certificate(CTX2, 4, mode="fast")


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
