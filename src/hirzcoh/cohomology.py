"""Exact cohomology of line bundles on the Hirzebruch surface F_e.

The ruling f: F_e -> P^1 pushes O(a*C + b*F) forward to the split bundle
with degrees {b - e*i : 0 <= i <= a} when a >= 0, and to zero when a < 0.
For a >= -1 the higher direct image vanishes as well, so h^0 and h^1 on
the surface equal those of the pushforward on P^1.  h^2 is always Serre
duality h^0(K - D), and the leftover h^1 range (a <= -2) falls out of the
Euler characteristic, which Riemann-Roch gives in closed form.

``brute_force_h0`` is the independent oracle: it counts lattice points of
the polygon {(u, v) : 0 <= v <= a, 0 <= u <= b - e*v} by direct 2-D
enumeration, sharing no formula with the pushforward route.  The inner
loop is the package's one hot spot; ``hirzcoh.kernels`` provides it.
"""

from __future__ import annotations

from .hirzebruch import DivisorClass, SurfaceContext
from .kernels import lattice_point_count
from .p1 import SplittingType

#: Enumeration bound for the lattice-point oracle.
BRUTE_FORCE_BOUND = 10_000


class PushforwardVanishes(ValueError):
    """Signals f_* O(D) = 0, i.e. the class has negative fiber degree."""


def pushforward_splitting(ctx: SurfaceContext, d: DivisorClass) -> SplittingType:
    """Splitting type of f_* O(a*C + b*F) on P^1, defined for a >= 0."""
    if d.a < 0:
        raise PushforwardVanishes(
            f"zero pushforward: f_* O({d}) = 0 since the fiber degree {d.a} < 0"
        )
    return SplittingType(d.b - ctx.e * i for i in range(d.a + 1))


def h0(ctx: SurfaceContext, d: DivisorClass) -> int:
    if d.a < 0:
        return 0
    return pushforward_splitting(ctx, d).h0()


def h2(ctx: SurfaceContext, d: DivisorClass) -> int:
    return h0(ctx, ctx.canonical_class - d)


def h1(ctx: SurfaceContext, d: DivisorClass) -> int:
    if d.a >= 0:
        return pushforward_splitting(ctx, d).h1()
    if d.a == -1:  # both direct images vanish
        return 0
    # a <= -2: recover h^1 from the Euler characteristic; h^0 = 0 here and
    # h^2 comes from Serre duality, whose dual class has fiber degree >= 0.
    return h0(ctx, d) + h2(ctx, d) - chi_rr(ctx, d)


def chi_rr(ctx: SurfaceContext, d: DivisorClass) -> int:
    """Euler characteristic chi(O(D)) = chi(O) + D.(D - K)/2 by Riemann-Roch."""
    k = ctx.canonical_class
    num = ctx.intersect(d, d) - ctx.intersect(d, k)
    half, rem = divmod(num, 2)
    if rem:  # adjunction makes D.(D - K) even on any smooth surface
        raise AssertionError(f"Riemann-Roch parity broken for {d} on F_{ctx.e}")
    return 1 + half


def brute_force_h0(ctx: SurfaceContext, d: DivisorClass) -> int:
    """h^0 by direct lattice-point enumeration; independent of ``h0``.

    Only defined for |a|, |b| <= BRUTE_FORCE_BOUND; beyond that the count
    is refused rather than estimated.
    """
    if abs(d.a) > BRUTE_FORCE_BOUND or abs(d.b) > BRUTE_FORCE_BOUND:
        raise ValueError(
            f"brute-force enumeration is limited to |a|, |b| <= {BRUTE_FORCE_BOUND}; "
            f"got a={d.a}, b={d.b}"
        )
    return lattice_point_count(d.a, d.b, ctx.e)
