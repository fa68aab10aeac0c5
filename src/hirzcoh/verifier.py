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
of E, S^4 E or a Frobenius pullback of E (``Tower``).  On C the largest
restricted degree is an affine form in the parameters (b, l), and it is
every summand's degree when the restriction is balanced.  A bundle on P^1
has no sections exactly when its largest degree is negative, so
negativity of that form on the whole region b >= 1, l >= 0 certifies
h^0 = 0 for every parameter value at once, and a point where it is not
negative is a witness, balanced or not.  Sweep mode replays the same
question numerically on a finite grid: it builds the b-independent base of
each tower once (the restricted S^sym(F^{frob*} E) and the degree form of
the twist on C) and the tower once per b as a splitting type.  Since l
enters only through the twist on top, that type's top degree moves
monotonically along the row of b, so the two ends of the row decide every
l of it, and the first l with sections, if any, is the witness.
Deliberately corrupted inputs (the split direct sum, an inflated twist)
must make the affected certificate FAIL; the test suite checks that they do.

Every record is a pure computation: each certificate builds a ``Row`` of
premises and a conclusion (or a tower to decide), and one evaluator,
``_certify``, turns any row into its record.  The orchestrator merges the
records in a fixed claim order.
"""

from __future__ import annotations

from typing import NamedTuple

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
from .primes import BETA_MAX_LIMIT, check_characteristic, check_mode as _check_mode, is_prime

PASS = "PASS"
FAIL = "FAIL"

#: The ample polarization used throughout the replay.
H = DivisorClass(1, 3)

#: The exponent the paper refutes pseudo-effectivity at: every tower's
#: outer symmetric power is S^{ALPHA*b}.
ALPHA = 4

#: (n, m) of the twist identity n*H = n*C + m*F that claim3 and charp peel
#: along; claim4's default fiber multiple is its m, and a sweep covers the
#: n*b columns claim3 peels, 0 <= l <= n*b.
_PEEL = (5, 15)

#: The two region parameters as degree forms.
BETA = DegreeForm(cb=1)
ELL = DegreeForm(cl=1)

#: Records that set the replay up; every other record is a claim.
_SETUP_IDS = ("extension", "restriction")

#: The report's note whenever it holds a charp record.
_CHARP_NOTE = (
    "characteristic > 0: whether pseudo-effectivity of E passes to "
    "its symmetric powers is unknown, so the conclusion for the "
    "twisted bundle goes through the Frobenius pullback instead"
)


# --------------------------------------------------------------------------
# extension datum and the tower over it
# --------------------------------------------------------------------------


class ExtensionDatum(NamedTuple):
    """A rank-2 extension of O(quot) by O(sub): the bundle E at the bottom
    of every ``Tower``.

    ``nonsplit`` records whether a nonzero class of Ext^1(O(quot), O(sub))
    = H^1(O(sub - quot)) was taken.  The group's dimension is read from the
    surface where it is needed, never stored; the restriction certificate
    and every h^0 = 0 certificate FAIL a nonsplit datum whose group is 0.
    """

    sub: DivisorClass
    quot: DivisorClass
    nonsplit: bool


class Tower(NamedTuple):
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
    # of the restriction certificate (injectivity of extension classes); on
    # a fiber F the extension group vanishes only when (sub - quot).F >= -1,
    # and there classify forces a split.
    return classify_extension(
        ctx.intersect(datum.sub, curve), ctx.intersect(datum.quot, curve), datum.nonsplit
    )


def _restrict_base(ctx: SurfaceContext, tower: Tower) -> tuple[SplittingType, DegreeForm]:
    """The part of tower|_C that b does not enter.

    That is S^sym(F^{frob*} E)|_C and the degree form on C of the twist
    a*C + b*F, which b and l enter only as its arguments.
    """
    st = _leaf_restriction(ctx, tower.datum, C)
    if tower.frob > 1:
        st = st.frobenius_pullback(tower.frob)
    return st.sym_power(tower.sym), restricted_twist_degree(ctx, tower.a, tower.b)


def _restrict_numeric(
    ctx: SurfaceContext, tower: Tower, beta: int, base: tuple | None = None
) -> tuple[SplittingType, int]:
    """tower|_C at (beta, 0), and the slope one step of l adds to every degree.

    ``base`` is ``_restrict_base(ctx, tower)``; a sweep builds it once and
    passes it in, so only S^{ALPHA*beta} of the base type and its twist by
    the form at beta are built per beta.  l enters only through the twist
    on top, so the restriction at (beta, ell) is the returned type twisted
    by ``slope * ell``, the form's l coefficient.
    """
    st, twist = base or _restrict_base(ctx, tower)
    return st.sym_power(ALPHA * beta).twist(twist(beta)), twist.cl


def _restrict_symbolic(ctx: SurfaceContext, tower: Tower) -> tuple[DegreeForm, str]:
    """tower|_C as the degree form of its top summand over the whole region.

    Every stage of the tower preserves the order of degrees, so the largest
    restricted degree comes from the leaf's largest degree; when the
    restriction is balanced it is every summand's degree.  Returns that
    form and the rank as text in b.
    """
    leaf = _leaf_restriction(ctx, tower.datum, C)
    # S^sym has rank k + 1, so S^{ALPHA*b} of it has rank C(ALPHA*b + k, k)
    k = _sym_rank(leaf.rank, tower.sym) - 1
    top = DegreeForm(cb=ALPHA * tower.sym * tower.frob * leaf.pairs[-1][0])
    return top + restricted_twist_degree(ctx, tower.a, tower.b), f"C({ALPHA}b + {k}, {k})"


# --------------------------------------------------------------------------
# claim records
# --------------------------------------------------------------------------


class ClaimRecord:
    """One certified statement: what was checked, how, and the outcome.

    ``mode`` is "symbolic", "sweep" or "exact".  ``status`` is derived from
    the witness: FAIL exactly when there is one.  ``degree_form`` is the
    top restricted degree of a vanishing claim's tower, which is every
    summand's degree when the bundle is balanced.
    """

    def __init__(
        self,
        claim_id: str,
        title: str,
        mode: str,
        headline: str = "",
        degree_form: DegreeForm | None = None,
        details: dict | None = None,
        witness: dict | None = None,
    ) -> None:
        self.claim_id, self.title, self.mode, self.headline = claim_id, title, mode, headline
        self.degree_form, self.details, self.witness = degree_form, details or {}, witness

    @property
    def status(self) -> str:
        return PASS if self.witness is None else FAIL

    @status.setter
    def status(self, value: str) -> None:
        # assigning a status rewrites the witness, so the two never disagree
        self.witness = None if value == PASS else self.witness or {"status": value}

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


#: A premise of a row: (headline if it fails, holds, FAIL witness).
Premise = tuple[str, bool, dict]


def _premise(name: str, holds: bool, **facts) -> Premise:
    return (f"premise failed: {name}; no h^0 computed", holds, {"error": f"{name} failed", **facts})


def _undetermined(exc: AmbiguousExtensionError) -> Premise:
    """The premise that a restriction type is determined, failed at ``exc``."""
    return (f"restriction type undetermined: {exc}", False, {"error": str(exc)})


def _polarization_identity(n: int, m: int) -> dict:
    """The twist identity n*H = n*C + m*F as details; ``_certify`` checks it."""
    c = "" if n == 1 else n
    return {
        "polarization_identity": f"{c}H = {c}C + {m}F",
        "polarization_identity_holds": n * H == n * C + m * F,  # checked, not assumed
    }


class Row(NamedTuple):
    """One record as data for ``_certify``: every certificate builds one.

    An exact row (``tower`` None) passes with ``conclusion`` as its headline
    when all its ``premises`` hold.  A vanishing row certifies
    h^0(C, tower|_C) = 0 and its PASS headline is "<mode evidence>;
    <conclusion>"; a tower whose datum is None gets ``build_extension(ctx)``.
    ``details`` is the record's details dict, which the evaluator extends; a
    row that rests on a twist identity n*H = n*C + m*F places
    ``_polarization_identity(n, m)`` in it.  ``base_row`` adds the base-row
    identity h^0(O(m*b*F)) = m*b + 1, with m read from the tower's twist
    m*b*F.  Each (n, m) is written once: ``_PEEL`` for claim3 and charp, and
    in remark_t's row.
    """

    claim_id: str
    title: str
    tower: Tower | None
    details: dict
    conclusion: str
    premises: tuple[Premise, ...] = ()
    base_row: bool = False


def _certify(
    ctx: SurfaceContext, row: Row, mode: str = "exact", beta_max: int | None = None
) -> ClaimRecord:
    """Turn a row into its record with one rule.

    The first premise that fails gives the headline and the FAIL witness,
    and nothing after it is computed.  Otherwise an exact row passes with
    its conclusion; its ``mode`` is "exact", or for sigma the mode of its
    premise records.  A vanishing row first checks the mode and ``beta_max``
    and fills in a missing datum; its premises are, in this order: the
    ampleness of H, a nonzero extension class for a nonsplit datum
    (h^1(O(sub - quot)) >= 1, with ``ext_dim`` in its FAIL witness), the
    row's own, its polarization identity, then the base-row identity at the
    tower's F-twist m when the row sets ``base_row`` (its evidence goes to
    ``details["base_row"]`` whatever the outcome).  When they hold, the top
    degree form of the restriction decides (symbolic mode) or the grid sweep
    over 0 <= l <= n*b, n from ``_PEEL``, does (sweep mode).
    """
    tower, premises, details = row.tower, row.premises, row.details
    if tower is not None:
        _check_mode(mode, beta_max)
        if tower.datum is None:
            tower = tower._replace(datum=build_extension(ctx))
        datum = tower.datum
        ext_dim = cohomology.h1(ctx, datum.sub - datum.quot)
        premises = [
            _premise("polarization H ample on F_e", ctx.is_ample(H)),
            _premise(
                "nonsplit class exists: h^1(O(sub - quot)) >= 1",
                not datum.nonsplit or ext_dim >= 1,
                ext_dim=ext_dim,
            ),
            *premises,
        ]
        if "polarization_identity" in details:
            name = f"polarization identity {details['polarization_identity']}"
            premises.append(_premise(name, details["polarization_identity_holds"]))
        if row.base_row:
            details["base_row"] = _base_row_identity(ctx, tower.b.cb, beta_max)
            premises.append(_premise("base-row identity", details["base_row"]["holds"]))
    for headline, holds, witness in premises:
        if not holds:
            return ClaimRecord(row.claim_id, row.title, mode, headline, None, details, witness)
    if tower is None:
        return ClaimRecord(row.claim_id, row.title, mode, row.conclusion, None, details)
    form, rank = _restrict_symbolic(ctx, tower)
    details.update(rank=rank, region="b >= 1, l >= 0")

    if mode == "symbolic":
        witness = None
        evidence = f"restricted degrees {form.compact()} < 0 on the region"
        point = form.nonnegative_witness()
        if point is not None:
            beta, ell = point
            st, slope = _restrict_numeric(ctx, tower, beta)
            value = st.h0(slope * ell)
            witness = {"beta": beta, "ell": ell, "degree": form(beta, ell), "h0": value}
            headline = (
                f"degree form {form.compact()} is not negative on the region: "
                f"value {form(beta, ell)} at (b, l) = ({beta}, {ell}), h^0 = {value}"
            )
    else:
        evaluations, witness = _sweep_vanishing(ctx, tower, beta_max)
        n = _PEEL[0]
        details.update(beta_max=beta_max, ell_range=f"0..{n}b", evaluations=evaluations)
        evidence = (
            f"h^0 = 0 at all {evaluations} grid points with 1 <= b <= {beta_max}, 0 <= l <= {n}b"
        )
        if witness is not None:
            headline = (
                f"h^0 = {witness['h0']} > 0 at (b, l) = ({witness['beta']}, {witness['ell']})"
            )
    if witness is None:
        headline = f"{evidence}; {row.conclusion}"
    return ClaimRecord(row.claim_id, row.title, mode, headline, form, details, witness)


# --------------------------------------------------------------------------
# construction certificates
# --------------------------------------------------------------------------


def _extension_record(ctx: SurfaceContext) -> tuple[ExtensionDatum | None, ClaimRecord]:
    """The extension setup record, and the datum when one exists.

    The group Ext^1(O, O(C)) = H^1(O(C)) has dimension e - 1 (pushforward
    degrees {0, -e}), so e >= 2 is exactly the range with a nonzero class
    to choose.
    """
    datum = ExtensionDatum(sub=C, quot=ZERO, nonsplit=True)
    ext_dim = cohomology.h1(ctx, C)
    error = f"no nonsplit extension exists on F_{ctx.e}: Ext^1(O, O(C)) = H^1(O(C)) = 0"
    details = {
        "sub": format_class(datum.sub),
        "quot": format_class(datum.quot),
        "ext_group": "Ext^1(O, O(C)) = H^1(O(C))",
        "ext_dim": ext_dim,
        "nonsplit": datum.nonsplit,
    }
    row = Row(
        "extension",
        "nonsplit extension of O by O(C)",
        None,
        details if ext_dim else {},
        f"0 -> O(C) -> E -> O -> 0 with dim Ext^1(O, O(C)) = {ext_dim}; nonsplit class chosen",
        ((error, ext_dim >= 1, {"error": error}),),
    )
    record = _certify(ctx, row)
    return (datum if record.passed else None), record


def build_extension(ctx: SurfaceContext) -> ExtensionDatum:
    """The nonsplit extension of O by O(C), when one exists.

    It is read from the extension record; without a nonzero class this
    raises ValueError with the record's headline.
    """
    datum, record = _extension_record(ctx)
    if datum is None:
        raise ValueError(record.headline)
    return datum


def split_control_datum(ctx: SurfaceContext) -> ExtensionDatum:
    """The split direct sum O(C) + O: the negative control.

    It is the same on every surface; ``ctx`` stays for its callers.
    """
    return ExtensionDatum(sub=C, quot=ZERO, nonsplit=False)


def nonsplit_restriction_certificate(
    ctx: SurfaceContext, datum: ExtensionDatum
) -> ClaimRecord:
    """Certifies that the extension stays nonsplit when restricted to C.

    Premises: a nonsplit datum needs a nonzero class, so its group
    Ext^1 = H^1(O(sub - quot)) on the surface is nonzero (``ext_dim`` in a
    FAIL witness); h^1(O_X) = 0 makes restriction of extension classes to C
    injective; and h^1 of O_C(C) on C is nonzero so the restricted class
    lands in a group that can hold it.  The record also carries both
    restriction types, each labelled by whether it is the split type
    {sub.X, quot.X}.  On a fiber the extension group H^1(O((sub - quot).F))
    vanishes exactly when (sub - quot).F >= -1, as for the replay datum, and
    then the restricted sequence splits.
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
    title = "restriction of the extension to C and to a fiber"
    try:
        res_c, res_f = _leaf_restriction(ctx, datum, C), _leaf_restriction(ctx, datum, F)
    except AmbiguousExtensionError as exc:
        return _certify(ctx, Row("restriction", title, None, details, "", (_undetermined(exc),)))
    details["E_restricted_to_C"] = format_splitting(res_c)
    details["E_restricted_to_fiber"] = format_splitting(res_f)
    kinds = []
    for st, curve in ((res_c, C), (res_f, F)):
        split = sorted((ctx.intersect(datum.sub, curve), ctx.intersect(datum.quot, curve)))
        kinds.append("splits" if list(st.degrees()) == split else "nonsplit")
    kind_c, kind_f = kinds
    headline = (
        f"E|_C = {format_splitting(res_c)} ({kind_c if datum.nonsplit else 'split (control)'}), "
        f"E|_fiber = {format_splitting(res_f)} ({kind_f}); "
        f"premises h^1(O_X) = {h1_structure}, h^1(O_C(C)) = {target_h1}"
    )
    ext_dim = cohomology.h1(ctx, datum.sub - datum.quot)
    ok = h1_structure == 0 and (not datum.nonsplit or min(ext_dim, target_h1) >= 1)
    witness = {"h1_structure_sheaf": h1_structure, "h1_O_C_of_C": target_h1, "ext_dim": ext_dim}
    stays_nonsplit = (headline, ok, witness)  # a FAIL keeps the headline with both types
    return _certify(ctx, Row("restriction", title, None, details, headline, (stays_nonsplit,)))


# --------------------------------------------------------------------------
# vanishing machinery shared by the h^0 = 0 certificates
# --------------------------------------------------------------------------


def _sweep_vanishing(
    ctx: SurfaceContext, tower: Tower, beta_max: int
) -> tuple[int, dict | None]:
    """Check h^0 = 0 over 1 <= b <= beta_max, 0 <= l <= n*b; first failure wins.

    The tower's b-independent base, its type and its twist form, is built
    once, and the tower once per b as a splitting type; ``first_section``
    then decides every l of that b, twisted by ``slope * l``, from the
    type's top degree at the two ends of the row.
    The splitting type decides each row, never the degree form.  Returns
    the grid points decided up to and including the witness, and the
    witness with its h^0.  n is ``_PEEL``'s.
    """
    base, evaluations = _restrict_base(ctx, tower), 0
    for beta in range(1, beta_max + 1):
        st, slope = _restrict_numeric(ctx, tower, beta, base)
        ell = st.first_section(slope, _PEEL[0] * beta)
        if ell is not None:
            return evaluations + ell + 1, {"beta": beta, "ell": ell, "h0": st.h0(slope * ell)}
        evaluations += _PEEL[0] * beta + 1
    return evaluations, None


def _base_row_identity(
    ctx: SurfaceContext, fiber_multiple: int, beta_max: int | None
) -> dict:
    """The base-row identity h^0(O(m*b*F)) = m*b + 1 = h^0(O(m*b)) on P^1.

    Sections of a bundle pulled back from the base restrict bijectively to
    C because C is a section of the ruling; the dimension identity is the
    checkable shadow of that bijection.

    Symbolic mode (``beta_max`` None) decides it by its form, for every
    b >= 1 at once: for a = 0 the section polygon is the single row
    0 <= u <= m*b, and h^0(O(n)) = n + 1 on P^1 for n >= 0, so the identity
    holds on the whole region exactly when the fiber degree m*b >= 0 there,
    i.e. m >= 0 (m < 0 breaks it at b = 2).  No h^0 is evaluated.  Sweep
    mode checks every b = 1..beta_max by two routes that share no formula:
    the surface's arithmetic series ``cohomology.h0``, and the pushforward
    f_* O(m*b*F) = O(m*b) on P^1, read as the twist of the one trivial type
    O by O(m*b) through ``SplittingType.h0(twist)``, so the row builds one
    splitting type whatever beta_max is.  Returns the evidence, whose
    ``holds`` is the verdict.
    """
    info: dict = {
        "identity": f"h0(O({fiber_multiple}b F)) = {fiber_multiple}b + 1 = h0 on P^1",
        "reason": (
            "C is a section of the ruling, so sections pulled back from the "
            "base restrict bijectively to C"
        ),
    }
    if beta_max is None:
        info["fiber_degree"] = f"{fiber_multiple}b >= 0 on the region"
        info["holds"] = fiber_multiple >= 0
    else:
        checked = list(range(1, beta_max + 1))
        info["checked_betas"] = checked
        trivial = SplittingType((0,))
        info["holds"] = all(
            cohomology.h0(ctx, DivisorClass(0, n)) == trivial.h0(n) == n + 1
            for n in (fiber_multiple * b for b in checked)
        )
    return info


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
    n, m = _PEEL
    row = Row(
        "claim3",
        "vanishing on C of the peeled symmetric-power columns",
        Tower(datum, sym=4, a=ELL, b=BETA.scale(m)),
        details={
            "bundle": f"S^{{4b}}(S^4 E)(lC + {m}bF) restricted to C",
            **_polarization_identity(n, m),
            "peeling": f"l = 1..{n}b: vanishing on C makes each column inclusion bijective on H^0",
        },
        conclusion="every column inclusion is bijective on H^0",
    )
    return _certify(ctx, row, mode, beta_max)


def base_row_certificate(
    ctx: SurfaceContext,
    datum: ExtensionDatum | None = None,
    mode: str = "symbolic",
    beta_max: int | None = None,
    fiber_multiple: int = _PEEL[1],
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
    m = fiber_multiple
    row = Row(
        "claim4",
        "zero map on global sections into the base-pulled-back twist",
        Tower(datum, sym=4, b=BETA.scale(m)),
        details={"bundle": f"S^{{4b}}(S^4 E)({m}bF) restricted to C"},
        conclusion=(
            f"H^0 into O({m}bF) is the zero map; "
            f"base row h^0(O({m}bF)) = {m}b + 1 restricts bijectively to C"
        ),
        base_row=True,
    )
    return _certify(ctx, row, mode, beta_max)


def quotient_zero_conclusion(
    ctx: SurfaceContext, peeling: ClaimRecord, base_row: ClaimRecord
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

    The quantifier comes from the premises' evidence: "all b >= 1" when
    both are symbolic, else the smallest grid bound a sweep premise reached.
    """
    bounds = [r.details.get("beta_max") for r in (peeling, base_row) if r.mode == "sweep"]
    gate = {"claim3": peeling.status, "claim4": base_row.status}
    details: dict = {
        "gate": gate,
        "surjection": "S^{4b}(S^4 E)(5bH) ->> O(5bH), induced by E ->> O",
    }
    holds, conclusion = peeling.passed and base_row.passed, ""
    if holds:  # only then has every sweep premise its beta_max
        quantifier = f"1 <= b <= {min(bounds)} (finite evidence)" if bounds else "all b >= 1"
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
        conclusion = (
            f"H^0(S^{{4b}}(S^4 E)(5bH) ->> O(5bH)) = 0 for {quantifier}; "
            "S^4(E)(H) is not pseudo-effective"
        )
    gated = ("no conclusion emitted: a premise certificate failed", holds, {"gate": gate})
    title = "zero map on global sections of the quotient surjection"
    row = Row("sigma", title, None, details, conclusion, (gated,))
    return _certify(ctx, row, "sweep" if bounds else "symbolic")


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
    15 - 4q <= -1 attained exactly at q = 4.  Like every vanishing
    certificate, a PASS headline opens with its mode's evidence; p, k, q and
    the boundary follow in the conclusion.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    n, m = _PEEL
    k = 1 if p >= 5 else 2
    q = p**k
    boundary = m - ALPHA * q
    sub_twisted = q * C + H
    row = Row(
        "charp",
        f"Frobenius-pullback vanishing in characteristic {p}",
        Tower(datum, frob=q, a=ELL, b=BETA.scale(m)),
        details={
            "p": p,
            "frobenius_exponent": k,
            "degree_multiplier": q,
            "boundary_value": boundary,
            "boundary_bound": -1,
            "boundary_attained": boundary == -1,
            **_polarization_identity(n, m),
            "twisted_extension": (
                f"0 -> O({format_class(sub_twisted)}) -> (F^{k}* E)(H) -> "
                f"O({format_class(H)}) -> 0"
            ),
            "sub_is_big": ctx.is_big(sub_twisted),
            "quot_is_ample": ctx.is_ample(H),
        },
        conclusion=(
            f"p = {p}: exponent {k}, multiplier q = {q}, boundary {m} - {ALPHA}q = {boundary}; "
            f"(F^{k}* E)(H) is not pseudo-effective"
        ),
        premises=(
            _premise(f"boundary {m} - {ALPHA}q <= -1", boundary <= -1, boundary_value=boundary),
        ),
        base_row=True,
    )
    return _certify(ctx, row, mode, beta_max)


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
    n, m = 1, 3
    row = Row(
        "remark_t",
        "E itself is not pseudo-effective",
        Tower(datum, a=ELL, b=BETA.scale(m)),
        details={
            "bundle": f"S^{{4b}}(E)(lC + {m}bF) restricted to C",
            "surjection": "S^{4b}(E)(bH) ->> O(bH), induced by E ->> O",
            **_polarization_identity(n, m),
        },
        conclusion="E itself is not pseudo-effective",
        base_row=True,
    )
    return _certify(ctx, row, mode, beta_max)


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
    title = "nefness evidence by restriction"
    try:
        c_type, fiber_type = _leaf_restriction(ctx, datum, C), _leaf_restriction(ctx, datum, F)
    except AmbiguousExtensionError as exc:
        return _certify(ctx, Row("almost_nef", title, None, {}, "", (_undetermined(exc),)))
    split_on_c = _leaf_restriction(ctx, datum._replace(nonsplit=False), C)
    rows = [
        {"curve": curve, "type": format_splitting(st), "nef": st.is_nef()}
        for curve, st in (
            ("fiber", fiber_type),
            ("C", c_type),
            ("C (split control)", split_on_c),
        )
    ]
    headline = ", ".join(
        f"E|_{row['curve']} = {row['type']} {'nef' if row['nef'] else 'not nef'}"
        for row in rows[:2]
    ) + "; C is the exceptional curve (evidence, not proof)"
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
    nef_outside_c = (headline, fiber_type.is_nef() and not c_type.is_nef(), {"restrictions": rows})
    return _certify(ctx, Row("almost_nef", title, None, details, headline, (nef_outside_c,)))


# --------------------------------------------------------------------------
# the orchestrator
# --------------------------------------------------------------------------


class VerificationReport(NamedTuple):
    """All records of one replay, merged in canonical claim order.

    The verdict is derived from the records, never stored: ``overall`` is
    PASS exactly when every record passes, and ``conclusion`` is "not
    pseudo-effective" only then.  ``notes`` holds the charp note exactly
    when a charp record exists.
    """

    e: int
    characteristic: int
    mode: str
    beta_max: int | None
    records: list[ClaimRecord]

    @property
    def overall(self) -> str:
        return FAIL if self.first_failure() is not None else PASS

    @property
    def conclusion(self) -> str:
        return "not pseudo-effective" if self.overall == PASS else "not certified"

    @property
    def notes(self) -> list[str]:
        return [_CHARP_NOTE] if any(r.claim_id == "charp" for r in self.records) else []

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

    The report derives its verdict from the records it holds.  A failed
    premise stops the dependent certificates, so the first failure is the
    report's witness.
    """
    _check_mode(mode, beta_max)
    check_characteristic(characteristic)
    datum, extension = _extension_record(ctx)
    records = [extension]
    if datum is not None:
        records.append(nonsplit_restriction_certificate(ctx, datum))
    if records[-1].passed:  # the extension exists and stays nonsplit on C
        if characteristic == 0:
            peeling = peeling_vanishing_certificate(ctx, datum, mode, beta_max)
            base_row = base_row_certificate(ctx, datum, mode, beta_max)
            sigma = quotient_zero_conclusion(ctx, peeling, base_row)
            records += [peeling, base_row, sigma]
        else:
            records.append(frobenius_certificate(ctx, characteristic, datum, mode, beta_max))
        records.append(direct_not_psef_certificate(ctx, datum, mode, beta_max))
        records.append(almost_nef_evidence(ctx, datum))
    return VerificationReport(ctx.e, characteristic, mode, beta_max, records)
