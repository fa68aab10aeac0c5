"""Exact cohomology of line bundles on the Hirzebruch surface F_e.

Every number is one closed form, O(1) in the size of the class aC + bF:

* h^0 counts the lattice points of the polygon
  {(u, v) : 0 <= v <= a, 0 <= u <= b - e*v}.  Row v holds b - e*v + 1
  points, the rows v = 0 .. min(a, b // e) are the nonempty ones, and their
  sum is an arithmetic series.
* h^2 is Serre duality, h^0(K - D).
* chi is Riemann-Roch, chi(O) + D.(D - K)/2, from the intersection form.
* h^1 is whatever Riemann-Roch leaves: h^0 + h^2 - chi.

``pushforward_splitting`` is the reference route the tests compare these
with: the ruling f: F_e -> P^1 pushes O(D) forward to the split bundle with
degrees {b - e*i : 0 <= i <= a}, whose h^0 and h^1 are those of the surface
for a >= -1.  ``brute_force_h0`` is the independent oracle: it walks the
polygon one point at a time (``hirzcoh.kernels``), sharing no formula with
the closed form.
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
    """Splitting type of f_* O(a*C + b*F) on P^1, defined for a >= 0.

    Reference route only: nothing in the package calls it, and the tests
    compare ``h0``/``h1`` with its h^0/h^1.  It holds a+1 degrees, so its
    cost grows with |a|.
    """
    if d.a < 0:
        raise PushforwardVanishes(
            f"zero pushforward: f_* O({d}) = 0 since the fiber degree {d.a} < 0"
        )
    return SplittingType(d.b - ctx.e * i for i in range(d.a + 1))


def h0(ctx: SurfaceContext, d: DivisorClass) -> int:
    """Row sums of the section polygon: sum over the nonempty rows v of b - e*v + 1."""
    if d.a < 0 or d.b < 0:
        return 0
    rows = d.a + 1 if ctx.e == 0 else min(d.a, d.b // ctx.e) + 1
    return rows * (d.b + 1) - ctx.e * rows * (rows - 1) // 2


def h2(ctx: SurfaceContext, d: DivisorClass) -> int:
    return h0(ctx, ctx.canonical_class - d)


def h1(ctx: SurfaceContext, d: DivisorClass) -> int:
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
