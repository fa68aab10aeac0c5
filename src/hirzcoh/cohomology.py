"""Exact cohomology of line bundles on the Hirzebruch surface F_e.

Every number is one integer closed form in (e, a, b), O(1) in the size of
the class aC + bF, and none builds a class object:

* h^0 counts the lattice points of the polygon
  {(u, v) : 0 <= v <= a, 0 <= u <= b - e*v}.  Row v holds b - e*v + 1
  points, the rows v = 0 .. min(a, b // e) are the nonempty ones, and their
  sum is an arithmetic series (``_h0``).
* h^2 is Serre duality, h^0(K - D), with K - D = (-2 - a)C + (-(e+2) - b)F
  written out in coefficients, so the same row sum serves it.
* chi is Riemann-Roch, chi(O) + D.(D - K)/2, with the intersection form
  C.C = -e, C.F = 1, F.F = 0 expanded on D = (a, b) and
  D - K = (a + 2, b + e + 2).
* h^1 is whatever Riemann-Roch leaves: h^0 + h^2 - chi.

``pushforward_splitting`` is the reference route the tests compare these
with: the ruling f: F_e -> P^1 pushes O(D) forward to the split bundle with
degrees {b - e*i : 0 <= i <= a}, whose h^0 and h^1 are those of the surface
for a >= -1.  ``brute_force_h0`` is the independent oracle: it walks the
polygon one point at a time (``hirzcoh.kernels``), sharing no formula with
the closed form.  Only ``pushforward_splitting`` loads ``hirzcoh.p1``.
"""

from __future__ import annotations

from .hirzebruch import DivisorClass, SurfaceContext
from .kernels import lattice_point_count

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
    from .p1 import SplittingType

    if d.a < 0:
        raise PushforwardVanishes(
            f"zero pushforward: f_* O({d}) = 0 since the fiber degree {d.a} < 0"
        )
    return SplittingType(d.b - ctx.e * i for i in range(d.a + 1))


def _h0(e: int, a: int, b: int) -> int:
    """Row sums of the section polygon of aC + bF: b - e*v + 1 per nonempty row v."""
    if a < 0 or b < 0:
        return 0
    rows = a + 1 if e == 0 else min(a, b // e) + 1
    return rows * (b + 1) - e * rows * (rows - 1) // 2


def h0(ctx: SurfaceContext, d: DivisorClass) -> int:
    """h^0(O(D)), the lattice points of the section polygon, by its row sums."""
    return _h0(ctx.e, d.a, d.b)


def h2(ctx: SurfaceContext, d: DivisorClass) -> int:
    """Serre duality: h^0(K - D) with K = -2C - (e + 2)F."""
    e = ctx.e
    return _h0(e, -2 - d.a, -(e + 2) - d.b)


def h1(ctx: SurfaceContext, d: DivisorClass) -> int:
    return h0(ctx, d) + h2(ctx, d) - chi_rr(ctx, d)


def chi_rr(ctx: SurfaceContext, d: DivisorClass) -> int:
    """Euler characteristic chi(O(D)) = chi(O) + D.(D - K)/2 by Riemann-Roch."""
    e, a, b = ctx.e, d.a, d.b
    # D.(D - K) with D - K = (a + 2)C + (b + e + 2)F
    num = -e * a * (a + 2) + a * (b + e + 2) + (a + 2) * b
    half, rem = divmod(num, 2)
    if rem:  # adjunction makes D.(D - K) even on any smooth surface
        raise AssertionError(f"Riemann-Roch parity broken for {d} on F_{e}")
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
