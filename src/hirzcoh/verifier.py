"""Certified replay: a nonsplit extension on F_2 that is almost nef but
not pseudo-effective.

On X = F_2 write C for the (-2)-section, F for a fiber and H = C + 3F,
an ample class.  The extension group Ext^1(O, O(C)) = H^1(O(C)) is
one-dimensional, so up to scale there is a unique nonsplit extension

    0 -> O(C) -> E -> O -> 0.

Restricting to C keeps the sequence nonsplit and forces E|_C = O(-1)^2,
while on every fiber the extension group vanishes and E|_F = O + O(1):
the bundle is nef along the ruling and fails nefness exactly on C.

The certificates below reduce "E is not pseudo-effective" (and the same
for its Frobenius/symmetric-power twists) to exact integer checks.  Each
one restricts to C a tower of one shape, S^{4b}(X)(aC + bF) with X one
of E, S^4 E or a Frobenius pullback of E (``Tower``).  On C all summands
share one degree that is an affine form in the parameters (b, l);
negativity of that form on the whole region b >= 1, l >= 0 certifies
h^0 = 0 for every parameter value at once.  Sweep mode replays the same
h^0 computations numerically on a finite grid: it builds each tower once
per b as a splitting type, and since l enters only through the twist on
top, it reads h^0 at each l off the shifted pairs.  Deliberately
corrupted inputs (the split direct sum, an inflated twist) must make the
affected certificate FAIL; the test suite checks that they do.

Every record is a pure computation; the orchestrator merges them in a
fixed claim order, so concurrent evaluation would be deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from . import cohomology
from .hirzebruch import C, F, ZERO, DivisorClass, SurfaceContext, format_class
from .p1 import (
    AmbiguousExtensionError,
    DegreeForm,
    SplittingType,
    _sym_rank,
    classify_extension,
    format_splitting,
)
from .primes import is_prime

PASS = "PASS"
FAIL = "FAIL"

#: The ample polarization used throughout the replay.
H = DivisorClass(1, 3)

#: The exponent the paper refutes pseudo-effectivity at: every tower's
#: outer symmetric power is S^{ALPHA*b}.
ALPHA = 4

#: The two region parameters as degree forms.
BETA = DegreeForm(cb=1)
ELL = DegreeForm(cl=1)

#: Largest sweep grid bound.  A sweep's cost grows about quadratically in
#: its bound, so a bound far past this one would run for hours; it is
#: refused instead.
BETA_MAX_LIMIT = 1000

#: Records that set the replay up; every other record is a claim.
_SETUP_IDS = ("extension", "restriction")


class SymbolicUnsupported(ValueError):
    """The restriction is not balanced, so one degree form cannot carry it."""


# --------------------------------------------------------------------------
# extension datum and the tower over it
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionDatum:
    """A rank-2 extension of O(quot) by O(sub), plus its Ext-group size.

    It is the bundle E at the bottom of every ``Tower``.  ``ext_dim`` is
    dim Ext^1(O(quot), O(sub)) = h^1(O(sub - quot)) on the surface;
    ``nonsplit`` records whether a nonzero class was taken.
    """

    sub: DivisorClass
    quot: DivisorClass
    nonsplit: bool
    ext_dim: int

    def __post_init__(self) -> None:
        if self.nonsplit and self.ext_dim < 1:
            raise ValueError("a nonsplit extension needs ext_dim >= 1")


@dataclass(frozen=True)
class Tower:
    """S^{ALPHA*b}(S^sym(F^{frob*} E))(a*C + b*F), E the extension bundle.

    Every certificate restricts a tower of this shape to C.  ``frob`` is 1
    for no pullback, else the Frobenius power q >= 2; both twist
    coefficients are degree forms in (b, l).
    """

    datum: ExtensionDatum
    sym: int = 1
    frob: int = 1
    a: DegreeForm = DegreeForm()
    b: DegreeForm = DegreeForm()


def restricted_twist_degree(
    ctx: SurfaceContext, a_form: DegreeForm, b_form: DegreeForm
) -> DegreeForm:
    """Degree form of O(a*C + b*F) restricted to C."""
    return a_form.scale(-ctx.e) + b_form


def _leaf_restriction(
    ctx: SurfaceContext, datum: ExtensionDatum, curve: DivisorClass
) -> SplittingType:
    # The nonsplit flag transfers to the restriction to C on the strength
    # of the restriction certificate (injectivity of extension classes);
    # on a fiber F the extension group vanishes and classify forces a split.
    return classify_extension(
        ctx.intersect(datum.sub, curve), ctx.intersect(datum.quot, curve), datum.nonsplit
    )


def _restrict_numeric(
    ctx: SurfaceContext, tower: Tower, beta: int
) -> tuple[SplittingType, int]:
    """tower|_C at (beta, 0), and the slope one step of l adds to every degree.

    l enters only through the twist on top, so the restriction at
    (beta, ell) is the returned type twisted by ``slope * ell``.
    """
    st = _leaf_restriction(ctx, tower.datum, C)
    if tower.frob > 1:
        st = st.frobenius_pullback(tower.frob)
    if tower.sym != 1:  # S^1 is the identity
        st = st.sym_power(tower.sym)
    twist = restricted_twist_degree(ctx, tower.a, tower.b)
    return st.sym_power(ALPHA * beta).twist(twist(beta)), twist.cl


def _restrict_symbolic(ctx: SurfaceContext, tower: Tower) -> tuple[DegreeForm, str]:
    """tower|_C as one degree form over the whole region, when it is balanced.

    Returns the form every summand shares and the rank as text in b.
    """
    st = _leaf_restriction(ctx, tower.datum, C)
    if st.is_zero() or not st.is_balanced():
        raise SymbolicUnsupported(
            f"restriction {format_splitting(st)} is not balanced; "
            "symbolic mode unsupported; use a numeric sweep"
        )
    deg, rank = st.pairs[0]
    # S^sym has rank k + 1, so S^{ALPHA*b} of it has rank C(ALPHA*b + k, k)
    k = _sym_rank(rank, tower.sym) - 1
    degree = DegreeForm(cb=ALPHA * tower.sym * tower.frob * deg)
    return degree + restricted_twist_degree(ctx, tower.a, tower.b), f"C({ALPHA}b + {k}, {k})"


# --------------------------------------------------------------------------
# claim records
# --------------------------------------------------------------------------


@dataclass
class ClaimRecord:
    """One certified statement: what was checked, how, and the outcome.

    The status follows the witness: FAIL exactly when a witness is given.
    """

    claim_id: str
    title: str
    mode: str  # "symbolic" | "sweep" | "exact"
    status: str = field(init=False)
    headline: str = ""
    degree_form: DegreeForm | None = None
    details: dict = field(default_factory=dict)
    witness: dict | None = None

    def __post_init__(self) -> None:
        self.status = PASS if self.witness is None else FAIL

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        form = None
        if self.degree_form is not None:
            form = {
                "c0": self.degree_form.c0,
                "cb": self.degree_form.cb,
                "cl": self.degree_form.cl,
                "text": str(self.degree_form),
            }
        return {
            "id": self.claim_id,
            "title": self.title,
            "mode": self.mode,
            "status": self.status,
            "headline": self.headline,
            "degree_form": form,
            "details": self.details,
            "witness": self.witness,
        }


def _check_mode(mode: str, beta_max: int | None) -> None:
    if mode not in ("symbolic", "sweep"):
        raise ValueError(f"mode must be 'symbolic' or 'sweep', got {mode!r}")
    if mode == "sweep" and (beta_max is None or beta_max < 1):
        raise ValueError("sweep mode needs beta_max >= 1")
    if mode == "sweep" and beta_max > BETA_MAX_LIMIT:
        raise ValueError(f"sweep mode allows beta_max <= {BETA_MAX_LIMIT}, got {beta_max}")
    if mode == "symbolic" and beta_max is not None:
        raise ValueError("beta_max is only meaningful in sweep mode")


# --------------------------------------------------------------------------
# construction certificates
# --------------------------------------------------------------------------


def build_extension(ctx: SurfaceContext) -> ExtensionDatum:
    """The nonsplit extension of O by O(C), when one exists.

    The group Ext^1(O, O(C)) = H^1(O(C)) has dimension e - 1 (pushforward
    degrees {0, -e}), so e >= 2 is exactly the range with a nonzero class
    to choose.
    """
    ext_dim = cohomology.h1(ctx, C)
    if ext_dim == 0:
        raise ValueError(
            f"no nonsplit extension exists on F_{ctx.e}: "
            "Ext^1(O, O(C)) = H^1(O(C)) = 0"
        )
    return ExtensionDatum(sub=C, quot=ZERO, nonsplit=True, ext_dim=ext_dim)


def split_control_datum(ctx: SurfaceContext) -> ExtensionDatum:
    """The split direct sum O(C) + O: the negative control."""
    return ExtensionDatum(
        sub=C, quot=ZERO, nonsplit=False, ext_dim=cohomology.h1(ctx, C)
    )


def _extension_record(ctx: SurfaceContext) -> tuple[ExtensionDatum | None, ClaimRecord]:
    """The extension setup record, and the datum when one exists."""
    try:
        datum = build_extension(ctx)
    except ValueError as exc:
        datum, headline, details, witness = None, str(exc), {}, {"error": str(exc)}
    else:
        headline = (
            f"0 -> O(C) -> E -> O -> 0 with dim Ext^1(O, O(C)) = {datum.ext_dim}; "
            f"nonsplit class chosen"
        )
        details = {
            "sub": format_class(datum.sub),
            "quot": format_class(datum.quot),
            "ext_group": "Ext^1(O, O(C)) = H^1(O(C))",
            "ext_dim": datum.ext_dim,
            "nonsplit": datum.nonsplit,
        }
        witness = None
    title = "nonsplit extension of O by O(C)"
    return datum, ClaimRecord("extension", title, "exact", headline, None, details, witness)


def nonsplit_restriction_certificate(
    ctx: SurfaceContext, datum: ExtensionDatum
) -> ClaimRecord:
    """Certifies that the extension stays nonsplit when restricted to C.

    Premises: h^1(O_X) = 0 makes restriction of extension classes to C
    injective, and h^1 of O_C(C) on C is nonzero so the restricted class
    lands in a group that can hold it.  The record also carries both
    restriction types; on a fiber the extension group vanishes, so the
    restricted sequence splits no matter what.
    """
    h1_structure = cohomology.h1(ctx, ZERO)
    gap_on_c = ctx.intersect(datum.sub - datum.quot, C)  # -e for the replay datum
    target_h1 = SplittingType((gap_on_c,)).h1()
    details: dict = {
        "h1_structure_sheaf": h1_structure,
        "restriction_of_ext_classes": "injective iff h^1(O_X) = 0",
        "O_C_of_C_degree": gap_on_c,
        "h1_O_C_of_C": target_h1,
    }
    try:
        res_c = _leaf_restriction(ctx, datum, C)
        res_f = _leaf_restriction(ctx, datum, F)
    except AmbiguousExtensionError as exc:
        headline, witness = f"restriction type undetermined: {exc}", {"error": str(exc)}
    else:
        details["E_restricted_to_C"] = format_splitting(res_c)
        details["E_restricted_to_fiber"] = format_splitting(res_f)
        kind = "nonsplit" if datum.nonsplit else "split (control)"
        headline = (
            f"E|_C = {format_splitting(res_c)} ({kind}), "
            f"E|_fiber = {format_splitting(res_f)} (splits); "
            f"premises h^1(O_X) = {h1_structure}, h^1(O_C(C)) = {target_h1}"
        )
        ok = h1_structure == 0 and (not datum.nonsplit or target_h1 >= 1)
        witness = None if ok else {"h1_structure_sheaf": h1_structure, "h1_O_C_of_C": target_h1}
    title = "restriction of the extension to C and to a fiber"
    return ClaimRecord("restriction", title, "exact", headline, None, details, witness)


# --------------------------------------------------------------------------
# vanishing machinery shared by the h^0 = 0 certificates
# --------------------------------------------------------------------------


#: A premise of a vanishing certificate: (name, holds, FAIL witness).
Premise = tuple[str, bool, dict]


def _premise(name: str, holds: bool, **facts) -> Premise:
    return (name, holds, {"error": f"{name} failed", **facts})


@dataclass
class VanishingSpec:
    """One h^0(C, tower|_C) = 0 certificate, as data for ``_certify``.

    ``details`` is the record's details dict, which the evaluator extends.
    A PASS headline is "<evidence>; <conclusion>", where the evidence is the
    mode's own (degree form or grid count) unless ``pass_evidence`` builds
    it from the degree form.
    """

    claim_id: str
    title: str
    tower: Tower
    details: dict
    premises: tuple[Premise, ...]
    conclusion: str
    pass_evidence: Callable[[DegreeForm | None], str] | None = None


def _sweep_vanishing(
    ctx: SurfaceContext, tower: Tower, beta_max: int
) -> tuple[int, dict | None]:
    """Check h^0 = 0 over 1 <= b <= beta_max, 0 <= l <= 5b; first failure wins.

    The tower is built once per b as a splitting type; each l then reads
    h^0 off its pairs shifted by ``slope * l``.  Every grid point is still
    computed from the splitting type, never from the degree form.
    """
    evaluations = 0
    for beta in range(1, beta_max + 1):
        st, slope = _restrict_numeric(ctx, tower, beta)
        for ell in range(0, 5 * beta + 1):
            evaluations += 1
            value = st.h0(slope * ell)
            if value:
                return evaluations, {"beta": beta, "ell": ell, "h0": value}
    return evaluations, None


def _certify(
    ctx: SurfaceContext, spec: VanishingSpec, mode: str, beta_max: int | None
) -> ClaimRecord:
    """Evaluate a vanishing certificate with one rule.

    The premises are checked first, in order; the first that fails is the
    FAIL witness and no h^0 is computed.  Otherwise the degree form of the
    restriction decides (symbolic mode) or the grid sweep does (sweep mode).
    """
    details = spec.details
    for name, holds, witness in spec.premises:
        if not holds:
            headline = f"premise failed: {name}; no h^0 computed"
            return ClaimRecord(spec.claim_id, spec.title, mode, headline, None, details, witness)
    form: DegreeForm | None = None
    try:
        form, rank = _restrict_symbolic(ctx, spec.tower)
        details["rank"] = str(rank)
    except SymbolicUnsupported:
        if mode == "symbolic":
            raise
    details["region"] = "b >= 1, l >= 0"

    if mode == "symbolic":
        witness = None
        evidence = f"restricted degrees {form.compact()} < 0 on the region"
        if not form.is_negative_on_region():
            beta, ell = form.nonnegative_witness()
            st, slope = _restrict_numeric(ctx, spec.tower, beta)
            value = st.h0(slope * ell)
            witness = {"beta": beta, "ell": ell, "degree": form(beta, ell), "h0": value}
            headline = (
                f"degree form {form.compact()} is not negative on the region: "
                f"value {form(beta, ell)} at (b, l) = ({beta}, {ell}), h^0 = {value}"
            )
    else:
        evaluations, witness = _sweep_vanishing(ctx, spec.tower, beta_max)
        details.update(beta_max=beta_max, ell_range="0..5b", evaluations=evaluations)
        evidence = (
            f"h^0 = 0 at all {evaluations} grid points with 1 <= b <= {beta_max}, 0 <= l <= 5b"
        )
        if witness is not None:
            headline = (
                f"h^0 = {witness['h0']} > 0 at (b, l) = ({witness['beta']}, {witness['ell']})"
            )
    if witness is None:
        if spec.pass_evidence is not None:
            evidence = spec.pass_evidence(form)
        headline = f"{evidence}; {spec.conclusion}"
    return ClaimRecord(spec.claim_id, spec.title, mode, headline, form, details, witness)


def _base_row_identity(
    ctx: SurfaceContext, fiber_multiple: int, beta_max: int | None
) -> tuple[bool, dict]:
    """Check h^0(O(m*b*F)) = m*b + 1 = h^0(O(m*b)) on P^1 by three routes.

    The routes are the closed-form row sum ``cohomology.h0``, h^0 of the
    line bundle O(m*b) on P^1, and the lattice-point oracle, which is
    skipped past its enumeration bound.

    Sections of a bundle pulled back from the base restrict bijectively to
    C because C is a section of the ruling; the dimension identity is the
    checkable shadow of that bijection.  Symbolic mode samples b = 1..8.
    """
    checked = list(range(1, (beta_max or 8) + 1))
    ok = all(
        cohomology.h0(ctx, cls) == SplittingType((cls.b,)).h0() == cls.b + 1
        and (
            abs(cls.b) > cohomology.BRUTE_FORCE_BOUND
            or cohomology.brute_force_h0(ctx, cls) == cls.b + 1
        )
        for cls in (DivisorClass(0, fiber_multiple * beta) for beta in checked)
    )
    info = {
        "identity": f"h0(O({fiber_multiple}b F)) = {fiber_multiple}b + 1 = h0 on P^1",
        "reason": (
            "C is a section of the ruling, so sections pulled back from the "
            "base restrict bijectively to C"
        ),
        "checked_betas": checked,
        "holds": ok,
    }
    return ok, info


# --------------------------------------------------------------------------
# the named certificates
# --------------------------------------------------------------------------


def peeling_vanishing_certificate(
    ctx: SurfaceContext,
    datum: ExtensionDatum | None = None,
    mode: str = "symbolic",
    beta_max: int | None = None,
) -> ClaimRecord:
    """Claim id "claim3": sections of every peeled column vanish on C.

    For each l >= 0 the restriction to C of S^{4b}(S^4 E)(l*C + 15b*F) is
    a sum of line bundles of one common degree -b - 2l < 0, so it has no
    sections.  Peeling the 5b copies of C off the polarization twist one
    at a time (the twist identity 5H = 5C + 15F makes 5b*H = 5b*C + 15b*F)
    then identifies H^0 at the 15b*F twist with H^0 at the 5b*H twist.
    """
    _check_mode(mode, beta_max)
    if datum is None:
        datum = build_extension(ctx)
    identity_holds = 5 * H == 5 * C + 15 * F  # divisor arithmetic is checked, not assumed
    spec = VanishingSpec(
        "claim3",
        "vanishing on C of the peeled symmetric-power columns",
        Tower(datum, sym=4, a=ELL, b=BETA.scale(15)),
        details={
            "bundle": "S^{4b}(S^4 E)(lC + 15bF) restricted to C",
            "polarization_identity": "5H = 5C + 15F",
            "polarization_identity_holds": identity_holds,
            "peeling": "l = 1..5b: vanishing on C makes each column inclusion bijective on H^0",
        },
        premises=(_premise("polarization identity 5H = 5C + 15F", identity_holds),),
        conclusion="every column inclusion is bijective on H^0",
    )
    return _certify(ctx, spec, mode, beta_max)


def base_row_certificate(
    ctx: SurfaceContext,
    datum: ExtensionDatum | None = None,
    mode: str = "symbolic",
    beta_max: int | None = None,
    fiber_multiple: int = 15,
) -> ClaimRecord:
    """Claim id "claim4": the map onto the base-pulled-back twist kills H^0.

    Two ingredients: (i) the restriction to C of S^{4b}(S^4 E)(m*b*F)
    (m = 15) has common degree (m - 16)b < 0, so its sections vanish on C;
    (ii) sections of O(m*b*F) restrict bijectively to C.  A global section
    of the big bundle therefore restricts to zero on C, and the bijection
    forces its image section of O(m*b*F) to be zero.

    ``fiber_multiple`` exists for the falsifiability control: m = 16 makes
    the degree form vanish identically and the certificate must FAIL.
    """
    _check_mode(mode, beta_max)
    if datum is None:
        datum = build_extension(ctx)
    m = fiber_multiple
    row_ok, row_info = _base_row_identity(ctx, m, beta_max)
    spec = VanishingSpec(
        "claim4",
        "zero map on global sections into the base-pulled-back twist",
        Tower(datum, sym=4, b=BETA.scale(m)),
        details={"bundle": f"S^{{4b}}(S^4 E)({m}bF) restricted to C", "base_row": row_info},
        premises=(_premise("base-row identity", row_ok),),
        conclusion=(
            f"H^0 into O({m}bF) is the zero map; "
            f"base row h^0(O({m}bF)) = {m}b + 1 restricts bijectively to C"
        ),
    )
    return _certify(ctx, spec, mode, beta_max)


def quotient_zero_conclusion(
    ctx: SurfaceContext,
    peeling: ClaimRecord,
    base_row: ClaimRecord,
    mode: str = "symbolic",
    beta_max: int | None = None,
) -> ClaimRecord:
    """Claim id "sigma": the quotient surjection is zero on global sections.

    Gate: the peeling and base-row certificates must both PASS.  Then every
    global section of S^{4b}(S^4 E)(5b*H) comes from the 15b*F twist
    (peeling) and dies in O(15b*F) (base row), so the induced map to
    H^0(O(5b*H)) is zero.  A sheaf all of whose global maps to a quotient
    line bundle vanish cannot be generically globally generated, and this
    failure at the single exponent alpha = 4 (for every b) already refutes
    pseudo-effectivity of S^4(E)(H), which demands generic global
    generation for every alpha at some b.
    """
    _check_mode(mode, beta_max)
    gate = peeling.passed and base_row.passed
    details: dict = {
        "gate": {"claim3": peeling.status, "claim4": base_row.status},
        "surjection": "S^{4b}(S^4 E)(5bH) ->> O(5bH), induced by E ->> O",
    }
    if gate:
        quantifier = (
            "all b >= 1"
            if mode == "symbolic"
            else f"1 <= b <= {beta_max} (finite evidence)"
        )
        details["quantifier"] = quantifier
        details["ggg_argument"] = (
            "if all global maps to the quotient line bundle vanish, "
            "the evaluation map cannot be generically surjective"
        )
        details["alpha_quantifier"] = (
            "pseudo-effectivity requires, for every alpha, some b with "
            "S^{alpha b}(.)(bH) generically globally generated; alpha = 4 fails "
            "for every b, which refutes it"
        )
        details["bridge"] = (
            "not verified here: S^4 of the headline ample-by-big extension bundle "
            "is the pullback of S^4(E)(H) along a finite cover that trivializes "
            "the polarization twist; pseudo-effectivity would descend along that "
            "cover, so this certificate refutes it upstream too"
        )
        headline = (
            f"H^0(S^{{4b}}(S^4 E)(5bH) ->> O(5bH)) = 0 for {quantifier}; "
            "S^4(E)(H) is not pseudo-effective"
        )
        witness = None
    else:
        headline = "no conclusion emitted: a premise certificate failed"
        witness = {"gate": details["gate"]}
    title = "zero map on global sections of the quotient surjection"
    return ClaimRecord("sigma", title, mode, headline, None, details, witness)


def frobenius_certificate(
    ctx: SurfaceContext,
    p: int,
    datum: ExtensionDatum | None = None,
    mode: str = "symbolic",
    beta_max: int | None = None,
) -> ClaimRecord:
    """Claim id "charp": the positive-characteristic route via Frobenius.

    The exponent rule is k = 1 for p >= 5 and k = 2 for p < 5, so the
    degree multiplier q = p^k is always >= 4.  Twisting the Frobenius
    pullback of the extension by H gives an extension of the ample O(H) by
    the big O(qC + H); the vanishing analogous to the peeling certificate
    has common restricted degree (15 - 4q)b - 2l, with boundary value
    15 - 4q <= -1 attained exactly at q = 4.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    _check_mode(mode, beta_max)
    if datum is None:
        datum = build_extension(ctx)
    k = 1 if p >= 5 else 2
    q = p**k
    boundary = 15 - 4 * q
    sub_twisted = q * C + H
    identity_holds = 5 * H == 5 * C + 15 * F
    row_ok, row_info = _base_row_identity(ctx, 15, beta_max)
    spec = VanishingSpec(
        "charp",
        f"Frobenius-pullback vanishing in characteristic {p}",
        Tower(datum, frob=q, a=ELL, b=BETA.scale(15)),
        details={
            "p": p,
            "frobenius_exponent": k,
            "degree_multiplier": q,
            "boundary_value": boundary,
            "boundary_bound": -1,
            "boundary_attained": boundary == -1,
            "polarization_identity": "5H = 5C + 15F",
            "polarization_identity_holds": identity_holds,
            "twisted_extension": (
                f"0 -> O({format_class(sub_twisted)}) -> (F^{k}* E)(H) -> "
                f"O({format_class(H)}) -> 0"
            ),
            "sub_is_big": ctx.is_big(sub_twisted),
            "quot_is_ample": ctx.is_ample(H),
            "base_row": row_info,
        },
        premises=(
            _premise("boundary 15 - 4q <= -1", boundary <= -1, boundary_value=boundary),
            _premise("polarization identity 5H = 5C + 15F", identity_holds),
            _premise("base-row identity", row_ok),
        ),
        conclusion=f"(F^{k}* E)(H) is not pseudo-effective",
        pass_evidence=lambda form: (
            f"p = {p}: exponent {k}, multiplier q = {q}; "
            f"degrees {form.compact()} < 0 on the region (boundary 15 - 4q = {boundary})"
        ),
    )
    return _certify(ctx, spec, mode, beta_max)


def direct_not_psef_certificate(
    ctx: SurfaceContext,
    datum: ExtensionDatum | None = None,
    mode: str = "symbolic",
    beta_max: int | None = None,
) -> ClaimRecord:
    """Claim id "remark_t": E itself is not pseudo-effective.

    Same mechanism one level down: S^{4b}(E)(b*H) surjects onto O(b*H),
    the restriction to C of S^{4b}(E)(l*C + 3b*F) has common degree
    -b - 2l < 0 (twist identity H = C + 3F), and sections of O(3b*F)
    restrict bijectively to C.
    """
    _check_mode(mode, beta_max)
    if datum is None:
        datum = build_extension(ctx)
    identity_holds = H == C + 3 * F
    row_ok, row_info = _base_row_identity(ctx, 3, beta_max)
    spec = VanishingSpec(
        "remark_t",
        "E itself is not pseudo-effective",
        Tower(datum, a=ELL, b=BETA.scale(3)),
        details={
            "bundle": "S^{4b}(E)(lC + 3bF) restricted to C",
            "surjection": "S^{4b}(E)(bH) ->> O(bH), induced by E ->> O",
            "polarization_identity": "H = C + 3F",
            "polarization_identity_holds": identity_holds,
            "base_row": row_info,
        },
        premises=(
            _premise("polarization identity H = C + 3F", identity_holds),
            _premise("base-row identity", row_ok),
        ),
        conclusion="E itself is not pseudo-effective",
    )
    return _certify(ctx, spec, mode, beta_max)


def almost_nef_evidence(
    ctx: SurfaceContext, datum: ExtensionDatum | None = None
) -> ClaimRecord:
    """Claim id "almost_nef": nef along the ruling, not nef exactly on C.

    Restriction to every fiber is O + O(1) (the extension group on a fiber
    vanishes, so the restricted sequence splits), which is nef; the
    restriction to C is O(-1)^2, which is not.  That exhibits C as the
    candidate exceptional locus.  This is evidence for almost nefness, not
    a proof: no other curves are controlled here.
    """
    if datum is None:
        datum = build_extension(ctx)
    try:
        fiber_type = _leaf_restriction(ctx, datum, F)
        c_type = _leaf_restriction(ctx, datum, C)
    except AmbiguousExtensionError as exc:
        headline, details = f"restriction type undetermined: {exc}", {}
        witness = {"error": str(exc)}
    else:
        split_on_c = _leaf_restriction(ctx, replace(datum, nonsplit=False), C)
        rows = [
            {"curve": curve, "type": format_splitting(st), "nef": st.is_nef()}
            for curve, st in (
                ("fiber", fiber_type),
                ("C", c_type),
                ("C (split control)", split_on_c),
            )
        ]
        headline = (
            f"E|_fiber = {format_splitting(fiber_type)} nef, "
            f"E|_C = {format_splitting(c_type)} not nef; C is the exceptional "
            "curve (evidence, not proof)"
        )
        details = {
            "restrictions": rows,
            "label": "evidence, not proof",
            "exceptional_locus": "C",
            "caveat": (
                "almost nefness asks for nefness outside a countable family "
                "of subvarieties; only fibers and C are checked here, and "
                "stability of almost nefness under extension is not reproved"
            ),
        }
        ok = fiber_type.is_nef() and not c_type.is_nef()
        witness = None if ok else {"restrictions": rows}
    title = "nefness evidence by restriction"
    return ClaimRecord("almost_nef", title, "exact", headline, None, details, witness)


# --------------------------------------------------------------------------
# the orchestrator
# --------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """All records of one replay, merged in canonical claim order."""

    e: int
    characteristic: int
    mode: str
    beta_max: int | None
    records: list[ClaimRecord]
    overall: str
    conclusion: str
    notes: list[str]

    def record(self, claim_id: str) -> ClaimRecord | None:
        for rec in self.records:
            if rec.claim_id == claim_id:
                return rec
        return None

    def claims(self) -> list[ClaimRecord]:
        return [r for r in self.records if r.claim_id not in _SETUP_IDS]

    def vanishing_claim_count(self) -> int:
        """Claims that certify an H^0 statement (everything but the evidence)."""
        return sum(1 for r in self.claims() if r.claim_id != "almost_nef")

    def first_failure(self) -> ClaimRecord | None:
        for rec in self.records:
            if not rec.passed:
                return rec
        return None

    def to_json_dict(self) -> dict:
        setup = {
            r.claim_id: r.to_json_dict() for r in self.records if r.claim_id in _SETUP_IDS
        }
        claims = {r.claim_id: r.to_json_dict() for r in self.claims()}
        return {
            "schema": 1,
            "surface": {
                "e": self.e,
                "intersection": {"C.C": -self.e, "C.F": 1, "F.F": 0},
                "canonical_class": format_class(SurfaceContext(self.e).canonical_class),
                "polarization": format_class(H),
            },
            "characteristic": self.characteristic,
            "mode": self.mode,
            "beta_max": self.beta_max,
            "region": {"b": ">= 1", "l": ">= 0"},
            "setup": setup,
            "claims": claims,
            "overall": self.overall,
            "conclusion": self.conclusion,
            "notes": self.notes,
        }


def run_full_replay(
    ctx: SurfaceContext,
    characteristic: int = 0,
    mode: str = "symbolic",
    beta_max: int | None = None,
) -> VerificationReport:
    """Compose every certificate for the chosen characteristic.

    Overall status is PASS exactly when every constituent record passes;
    the conclusion line is "not pseudo-effective" only in that case.  A
    failed premise stops the dependent certificates, so the first failure
    is the report's witness.
    """
    _check_mode(mode, beta_max)
    if characteristic != 0 and not is_prime(characteristic):
        raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")
    notes: list[str] = []
    datum, extension = _extension_record(ctx)
    records = [extension]
    if datum is not None:
        records.append(nonsplit_restriction_certificate(ctx, datum))
    if records[-1].passed:  # the extension exists and stays nonsplit on C
        if characteristic == 0:
            peeling = peeling_vanishing_certificate(ctx, datum, mode, beta_max)
            base_row = base_row_certificate(ctx, datum, mode, beta_max)
            sigma = quotient_zero_conclusion(ctx, peeling, base_row, mode, beta_max)
            records += [peeling, base_row, sigma]
        else:
            records.append(frobenius_certificate(ctx, characteristic, datum, mode, beta_max))
            notes.append(
                "characteristic > 0: whether pseudo-effectivity of E passes to "
                "its symmetric powers is unknown, so the conclusion for the "
                "twisted bundle goes through the Frobenius pullback instead"
            )
        records.append(direct_not_psef_certificate(ctx, datum, mode, beta_max))
        records.append(almost_nef_evidence(ctx, datum))
    overall = PASS if all(r.passed for r in records) else FAIL
    conclusion = "not pseudo-effective" if overall == PASS else "not certified"
    return VerificationReport(
        ctx.e, characteristic, mode, beta_max, records, overall, conclusion, notes
    )
