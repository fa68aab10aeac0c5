"""Surface cohomology: closed forms against the pushforward and oracle routes, and the dualities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzcoh import cohomology as coh
from hirzcoh.cohomology import (
    BRUTE_FORCE_BOUND,
    PushforwardVanishes,
    brute_force_h0,
    chi_rr,
    h0,
    h1,
    h2,
    pushforward_splitting,
)
from hirzcoh.hirzebruch import C, DivisorClass, SurfaceContext
from hirzcoh.p1 import SplittingType

H = DivisorClass(1, 3)
CTX2 = SurfaceContext(2)


def test_pushforward_examples():
    assert pushforward_splitting(CTX2, C) == SplittingType((0, -2))
    assert pushforward_splitting(CTX2, DivisorClass(0, 0)) == SplittingType((0,))
    assert pushforward_splitting(CTX2, H) == SplittingType((3, 1))


def test_pushforward_vanishes_signal():
    with pytest.raises(PushforwardVanishes, match="zero pushforward"):
        pushforward_splitting(CTX2, DivisorClass(-1, 5))


def test_h_examples():
    assert h1(CTX2, C) == 1
    assert h1(CTX2, DivisorClass(0, 0)) == 0
    assert h0(CTX2, H) == 6
    # structure sheaf has chi = 1
    assert chi_rr(CTX2, DivisorClass(0, 0)) == 1
    assert (h0(CTX2, DivisorClass(0, 0)), h2(CTX2, DivisorClass(0, 0))) == (1, 0)


def test_chi_of_section_class():
    # chi(O(C)) = 1 + (C.C - C.K)/2 = 1 + (-2 - 0)/2 = 0, and the three
    # h-routes agree: h0 = 1, h1 = 1, h2 = 0.
    assert (h0(CTX2, C), h1(CTX2, C), h2(CTX2, C)) == (1, 1, 0)
    assert chi_rr(CTX2, C) == 0
    assert chi_rr(CTX2, C) == h0(CTX2, C) - h1(CTX2, C) + h2(CTX2, C)
    assert brute_force_h0(CTX2, C) == 1


def test_chi_of_polarization():
    assert chi_rr(CTX2, H) == 6
    assert (h1(CTX2, H), h2(CTX2, H)) == (0, 0)


def test_brute_force_examples():
    assert brute_force_h0(CTX2, H) == 6
    assert brute_force_h0(CTX2, DivisorClass(-1, 5)) == 0
    assert brute_force_h0(CTX2, DivisorClass(2, 0)) == 1


def test_brute_force_bound_refusal():
    with pytest.raises(ValueError, match="10000"):
        brute_force_h0(CTX2, DivisorClass(10001, 0))
    with pytest.raises(ValueError, match="10000"):
        brute_force_h0(CTX2, DivisorClass(0, -10001))
    with pytest.raises(ValueError, match="10000"):
        brute_force_h0(CTX2, DivisorClass(0, 10001))
    # the bound itself is inside the domain, on either coefficient
    assert brute_force_h0(CTX2, DivisorClass(0, BRUTE_FORCE_BOUND)) == BRUTE_FORCE_BOUND + 1
    assert brute_force_h0(CTX2, DivisorClass(BRUTE_FORCE_BOUND, 0)) == 1


def _classes(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            yield DivisorClass(a, b)


@pytest.mark.parametrize("e", range(4))
def test_oracle_equivalence_exhaustive(e):
    ctx = SurfaceContext(e)
    for d in _classes(10):
        assert h0(ctx, d) == brute_force_h0(ctx, d), d


@pytest.mark.parametrize("e", range(4))
def test_serre_duality_exhaustive(e):
    ctx = SurfaceContext(e)
    k = ctx.canonical_class
    for d in _classes(10):
        assert h2(ctx, d) == h0(ctx, k - d), d
        assert h1(ctx, d) == h1(ctx, k - d), d


@pytest.mark.parametrize("e", range(4))
def test_euler_characteristic_exhaustive(e):
    ctx = SurfaceContext(e)
    for d in _classes(10):
        assert h0(ctx, d) - h1(ctx, d) + h2(ctx, d) == chi_rr(ctx, d), d


def test_euler_characteristic_random():
    rng = random.Random(97531)
    for _ in range(1000):
        ctx = SurfaceContext(rng.randrange(0, 4))
        d = DivisorClass(rng.randint(-50, 50), rng.randint(-50, 50))
        assert h0(ctx, d) - h1(ctx, d) + h2(ctx, d) == chi_rr(ctx, d), (ctx.e, d)


def _chi_and_h2_by_the_intersection_form(ctx, d):
    # the second route builds K and K - D as classes and pairs them with
    # SurfaceContext.intersect; chi_rr and h2 expand the same numbers in
    # the coefficients, so a slip in either expansion shows here
    k = ctx.canonical_class
    assert chi_rr(ctx, d) == 1 + (ctx.intersect(d, d) - ctx.intersect(d, k)) // 2, (ctx.e, d)
    assert h2(ctx, d) == h0(ctx, k - d), (ctx.e, d)


@pytest.mark.parametrize("e", range(6))
def test_chi_and_h2_match_the_intersection_form_exhaustive(e):
    ctx = SurfaceContext(e)
    for d in _classes(30):
        _chi_and_h2_by_the_intersection_form(ctx, d)


@given(st.integers(0, 1000), st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12))
def test_chi_and_h2_match_the_intersection_form_huge(e, a, b):
    _chi_and_h2_by_the_intersection_form(SurfaceContext(e), DivisorClass(a, b))


@pytest.mark.parametrize("e", range(4))
def test_effectivity_exhaustive(e):
    # the effective cone of F_e is spanned by C and F
    ctx = SurfaceContext(e)
    for d in _classes(10):
        assert (h0(ctx, d) > 0) == ctx.is_psef(d), d


@pytest.mark.parametrize("e", range(4))
def test_bigness_growth(e):
    # big classes grow like vol * n^2 / 2; vol is D.D on the nef side and
    # b^2/e (the squared positive part) otherwise
    ctx = SurfaceContext(e)
    n = 10
    for d in _classes(10):
        if not ctx.is_big(d):
            continue
        if ctx.is_nef(d):
            vol = Fraction(ctx.intersect(d, d))
        else:
            vol = Fraction(d.b * d.b, ctx.e)
        assert vol > 0
        assert h0(ctx, n * d) >= n * n * vol / 2, (e, d)


def test_closed_forms_match_pushforward_route():
    # h1 is defined by Riemann-Roch, so the chi identities cannot catch an
    # h1 error; the pushforward splitting is the second route for h0 and h1
    for e in range(5):
        ctx = SurfaceContext(e)
        k = ctx.canonical_class
        for a in range(-15, 16):
            for b in range(-40, 41):
                d = DivisorClass(a, b)
                if a >= 0:
                    assert h0(ctx, d) == pushforward_splitting(ctx, d).h0(), (e, d)
                    assert h1(ctx, d) == pushforward_splitting(ctx, d).h1(), (e, d)
                elif a == -1:  # both direct images vanish
                    assert h1(ctx, d) == 0, (e, d)
                else:  # Serre duality moves the class to fiber degree >= 0
                    assert h1(ctx, d) == pushforward_splitting(ctx, k - d).h1(), (e, d)


N = 10**18

# h0, h1, h2 and chi of aC + bF on F_e, each derived by hand from the row
# sums of the section polygon, Serre duality and Riemann-Roch
HUGE_CLASSES = [
    # rows v = 0..N/2 of width N - 2v + 1 sum to (N/2 + 1)^2; chi = N + 1
    pytest.param(
        2,
        N,
        N,
        (250000000000000001000000000000000001, 250000000000000000000000000000000000, 0, N + 1),
        id="F2-a_pos-b_pos",
    ),
    # F_0: a full (N + 1) x (3N + 1) rectangle, no higher cohomology
    pytest.param(0, N, 3 * N, ((N + 1) * (3 * N + 1), 0, 0, (N + 1) * (3 * N + 1)), id="F0-rect"),
    # b < 0: no sections; chi = (N + 1)(1 - N) and K - D has a < 0
    pytest.param(0, N, -N, (0, N * N - 1, 0, 1 - N * N), id="F0-b_neg"),
    # a = -1: both direct images vanish and chi = 0
    pytest.param(2, -1, N, (0, 0, 0, 0), id="F2-a_minus1-b_pos"),
    pytest.param(2, -1, -N, (0, 0, 0, 0), id="F2-a_minus1-b_neg"),
    # a <= -2: h2 = h0((N - 2)C + (N - 4)F) = (N/2 - 1)^2, chi = 1 - N
    pytest.param(2, -N, -N, (0, N * N // 4, (N // 2 - 1) ** 2, 1 - N), id="F2-a_neg-b_neg"),
    # a <= -2, b = 0: K - D = (N - 2)C - 4F has no sections, chi = 1 - N^2
    pytest.param(2, -N, 0, (0, N * N - 1, 0, 1 - N * N), id="F2-a_neg-b_zero"),
]


@pytest.mark.parametrize("e, a, b, want", HUGE_CLASSES)
def test_huge_classes_exact(e, a, b, want):
    ctx, d = SurfaceContext(e), DivisorClass(a, b)
    assert (h0(ctx, d), h1(ctx, d), h2(ctx, d), chi_rr(ctx, d)) == want
