"""Acceptance criteria, one test per criterion.

Every expected value is exact integer arithmetic; the stated time budgets
are asserted with perf_counter after a warm-up call.  Run with ``-s`` to
see the one-line PASS/FAIL verdicts.
"""

import time
from fractions import Fraction
from math import comb

from hirzcoh import cli
from hirzcoh import cohomology as coh
from hirzcoh.hirzebruch import C, DivisorClass, SurfaceContext
from hirzcoh.p1 import DegreeForm, SplittingType
from hirzcoh.verifier import (
    base_row_certificate,
    build_extension,
    direct_not_psef_certificate,
    frobenius_certificate,
    nonsplit_restriction_certificate,
    peeling_vanishing_certificate,
    run_full_replay,
    split_control_datum,
)

CTX = SurfaceContext(2)


def _record(rep, claim_id):
    """The report's record with this claim id, or None."""
    return next((r for r in rep.records if r.claim_id == claim_id), None)


def _verdict(n, ok, text):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_ext_dimension():
    coh.h1(CTX, C)  # warm-up
    t0 = time.perf_counter()
    value = coh.h1(CTX, C)
    dt = time.perf_counter() - t0
    ok = value == 1 and dt < 1e-3
    _verdict(1, ok, f"h1(O(C)) = {value} on F_2 (expected 1) in {dt * 1e6:.1f}us")


def test_criterion_2_restriction_types():
    datum = build_extension(CTX)
    rec = nonsplit_restriction_certificate(CTX, datum)  # warm-up
    t0 = time.perf_counter()
    rec = nonsplit_restriction_certificate(CTX, datum)
    dt = time.perf_counter() - t0
    on_c = rec.details["E_restricted_to_C"]
    on_f = rec.details["E_restricted_to_fiber"]
    fiber_nef = SplittingType((0, 1)).is_nef()
    ok = on_c == "[-1,-1]" and on_f == "[0,1]" and fiber_nef and dt < 1e-3
    _verdict(2, ok, f"E|_C = {on_c}, E|_fiber = {on_f} (nef: {fiber_nef}) in {dt * 1e6:.1f}us")


def test_criterion_3_char0_replay():
    run_full_replay(CTX, 0, "symbolic")  # warm-up
    t0 = time.perf_counter()
    symbolic = run_full_replay(CTX, 0, "symbolic")
    sweep = run_full_replay(CTX, 0, "sweep", beta_max=50)
    dt = time.perf_counter() - t0
    cli_code = None
    try:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            cli_code = cli.main(["verify", "--char", "0", "--mode", "symbolic"])
    finally:
        pass
    forms_ok = (
        _record(symbolic, "claim3").degree_form == DegreeForm(0, -1, -2)
        and _record(symbolic, "claim4").degree_form == DegreeForm(0, -1, 0)
    )
    agree = all(
        _record(sweep, r.claim_id) is not None and _record(sweep, r.claim_id).status == r.status
        for r in symbolic.records
    )
    ok = (
        symbolic.overall == "PASS"
        and symbolic.conclusion == "not pseudo-effective"
        and cli_code == 0
        and forms_ok
        and sweep.overall == "PASS"
        and agree
        and dt < 1.0
    )
    _verdict(
        3,
        ok,
        f"char-0 replay PASS, forms (0,-1,-2)/(0,-1,0), sweep(50) agrees, {dt:.3f}s",
    )


def test_criterion_4_charp_replay():
    expected = {2: (2, -1), 3: (2, -21), 5: (1, -5), 7: (1, -13), 11: (1, -29)}
    frobenius_certificate(CTX, 2)  # warm-up
    t0 = time.perf_counter()
    rows = {}
    ok = True
    for p, (exponent, boundary) in expected.items():
        rep = run_full_replay(CTX, p, "symbolic")
        rec = _record(rep, "charp")
        rows[p] = (rec.details["frobenius_exponent"], rec.details["boundary_value"])
        ok = (
            ok
            and rep.overall == "PASS"
            and rows[p] == (exponent, boundary)
            and rec.details["boundary_attained"] == (p == 2)
        )
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _verdict(4, ok, f"char-p exponents/boundaries {rows}, bound -1 attained at p=2, {dt:.3f}s")


def test_criterion_5_remark_replay():
    rec = direct_not_psef_certificate(CTX)
    ok = (
        rec.passed
        and rec.mode == "symbolic"
        and rec.degree_form == DegreeForm(0, -1, -2)
        and "E itself is not pseudo-effective" in rec.headline
    )
    _verdict(5, ok, f"direct certificate {rec.status}, form {rec.degree_form}")


def test_criterion_6_oracle_equivalence():
    coh.brute_force_h0(CTX, DivisorClass(10, 10))  # warm-up
    t0 = time.perf_counter()
    cases = 0
    mismatches = 0
    for e in range(4):
        ctx = SurfaceContext(e)
        for a in range(-10, 11):
            for b in range(-10, 11):
                d = DivisorClass(a, b)
                cases += 1
                if coh.h0(ctx, d) != coh.brute_force_h0(ctx, d):
                    mismatches += 1
    dt = time.perf_counter() - t0
    ok = cases == 1764 and mismatches == 0 and dt < 2.0
    _verdict(6, ok, f"{cases} cases, {mismatches} mismatches, {dt:.3f}s")


def test_criterion_7_property_suites():
    import random

    t0 = time.perf_counter()
    failures = 0

    def check(condition):
        nonlocal failures
        if not condition:
            failures += 1

    for e in range(4):
        ctx = SurfaceContext(e)
        k = ctx.canonical_class
        grid = [DivisorClass(a, b) for a in range(-10, 11) for b in range(-10, 11)]
        for d in grid:
            check(coh.h2(ctx, d) == coh.h0(ctx, k - d))
            check(coh.h1(ctx, d) == coh.h1(ctx, k - d))
            check(coh.h0(ctx, d) - coh.h1(ctx, d) + coh.h2(ctx, d) == coh.chi_rr(ctx, d))
            check((coh.h0(ctx, d) > 0) == ctx.is_psef(d))
            if ctx.is_ample(d):
                check(ctx.is_nef(d) and ctx.is_big(d))
            if ctx.is_nef(d):
                check(ctx.is_psef(d))
            if ctx.is_big(d):
                check(ctx.is_psef(d))
        nef = [d for d in grid if ctx.is_nef(d)]
        psef = [d for d in grid if ctx.is_psef(d)]
        for d1 in nef:
            for d2 in nef:
                check(ctx.is_nef(d1 + d2))
        for d1 in psef:
            for d2 in psef:
                check(ctx.is_psef(d1 + d2))
    rng = random.Random(20260810)
    for _ in range(1000):
        ctx = SurfaceContext(rng.randrange(0, 4))
        k = ctx.canonical_class
        d = DivisorClass(rng.randint(-50, 50), rng.randint(-50, 50))
        check(coh.h0(ctx, d) - coh.h1(ctx, d) + coh.h2(ctx, d) == coh.chi_rr(ctx, d))
        check(coh.h2(ctx, d) == coh.h0(ctx, k - d))
        check((coh.h0(ctx, d) > 0) == ctx.is_psef(d))
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 5.0
    _verdict(7, ok, f"Serre/RR/effectivity/cones/sum-closure: {failures} failures, {dt:.3f}s")


def test_criterion_8_falsifiability_controls():
    split = peeling_vanishing_certificate(CTX, split_control_datum(CTX), "sweep", 10)
    split_symbolic = peeling_vanishing_certificate(CTX, split_control_datum(CTX))
    inflated = base_row_certificate(CTX, fiber_multiple=16)
    point = ("beta", "ell", "h0")
    split_ok = (
        not split.passed
        and split.witness is not None
        and split.witness["beta"] == 1
        and split.witness["ell"] == 0
        and split.witness["h0"] > 0
        and not split_symbolic.passed
        and split_symbolic.witness is not None
        and [split_symbolic.witness[k] for k in point] == [split.witness[k] for k in point]
    )
    inflated_ok = (
        not inflated.passed
        and inflated.witness is not None
        and inflated.witness["h0"] == comb(8, 4)
        and inflated.degree_form == DegreeForm(0, 0, 0)
    )
    _verdict(
        8,
        split_ok and inflated_ok,
        f"split control FAIL at (b,l)=(1,0) h0={split.witness['h0']} "
        "in sweep and symbolic mode; "
        f"inflated twist FAIL with h0={inflated.witness['h0']}",
    )


def test_bigness_growth_constant_holds():
    # companion check for the growth bound used in the property suite docs
    n = 10
    for e in range(4):
        ctx = SurfaceContext(e)
        for a in range(-10, 11):
            for b in range(-10, 11):
                d = DivisorClass(a, b)
                if not ctx.is_big(d):
                    continue
                vol = (
                    Fraction(ctx.intersect(d, d))
                    if ctx.is_nef(d)
                    else Fraction(d.b * d.b, ctx.e)
                )
                assert coh.h0(ctx, n * d) >= n * n * vol / 2
