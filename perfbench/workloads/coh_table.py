"""coh_table: the full cohomology table of one class per op.

One op parses the class, then computes h0, h1, h2, chi_rr, the
lattice-point oracle (or its refusal) and the four cone tests on F_e,
e in 0..3.  A round is twenty classes in seeded order:

* ten oracle-range classes with a >= 0, one per decile of log(polygon
  points) up to 1e6 points;
* one class with a >= 0 and b < 0 (empty polygon, h1 > 0), one with
  a = -1 and three with a <= -2 (the Riemann-Roch / Serre route);
* five large classes with 1e4 < |a| <= 1e6, one per fifth of log|a|,
  beyond the oracle bound, so the refusal is the expected output.

Sizes and twists are spread evenly over every CYCLE rounds (see
common.Strata), so runs on different seeds do the same mix of work.

The first round also holds one class with a = 1e6 and e >= 1.  Its
pushforward is the largest every run materialises, so peak RSS reads the
same on every seed.
"""

from __future__ import annotations

import random
from itertools import count

from hirzcoh import cohomology, hirzebruch

from common import (
    ORACLE_BOUND,
    Cycle,
    Strata,
    chi_closed,
    class_coeffs,
    class_text,
    cone_flags,
    h0_closed,
    h2_closed,
)

WARMUP = (2, "3C+7F")
TRACE_OPS = 21  # the first round, with its a = 1e6 class

LARGE_MAX = 1_000_000
CYCLE = 8  # rounds in which every slot covers its whole range once


def _oracle_class(e: int, points: float, shape: float) -> tuple[int, int, int]:
    """A class with a, b in the oracle range whose polygon has about ``points`` points."""
    lo = max(1.0, points / 9000)  # keeps b below the oracle bound
    hi = max(lo, points**0.5)
    a = int(lo * (hi / lo) ** shape) - 1
    b = round((points + e * a * (a + 1) / 2) / (a + 1)) - 1
    return e, a, max(b, 0)


def ops(seed: int):
    rng = random.Random(seed)
    points, large = Strata(rng, 10, CYCLE), Strata(rng, 5, CYCLE)
    spread = Strata(rng, 1, CYCLE)  # evenly spread shapes and small sizes
    twists = [Cycle(rng, range(4)) for _ in range(20)]  # one per slot
    for k in count():
        twist = [t.draw() for t in twists]
        classes = [
            _oracle_class(twist[s], 10 ** (6 * points.draw(s)), spread.draw()) for s in range(10)
        ]
        # empty polygon with h1 > 0, then a = -1, then the RR/Serre route
        classes.append((twist[10], int(3000 * spread.draw()), -rng.randint(1, 3000)))
        classes.append((twist[11], -1, rng.randint(-3000, 3000)))
        for s in range(12, 15):
            classes.append((twist[s], -2 - int(3000 * spread.draw()), rng.randint(-3000, 3000)))
        for s in range(5):
            a = int(ORACLE_BOUND * 100 ** large.draw(s)) + 1
            a = -a if rng.random() < 0.3 else a
            classes.append((twist[15 + s], a, rng.randint(-abs(a), 3 * abs(a))))
        if k == 0:
            classes.append((rng.randint(1, 3), LARGE_MAX, rng.randint(0, 3 * LARGE_MAX)))
        rng.shuffle(classes)
        yield from ((e, class_text(a, b)) for e, a, b in classes)


def run(op):
    e, text = op
    ctx = hirzebruch.SurfaceContext(e)
    d = hirzebruch.parse_class(text)
    try:
        oracle = cohomology.brute_force_h0(ctx, d)
    except ValueError:
        oracle = None  # refused
    return (
        d.a,
        d.b,
        cohomology.h0(ctx, d),
        cohomology.h1(ctx, d),
        cohomology.h2(ctx, d),
        cohomology.chi_rr(ctx, d),
        oracle,
        (ctx.is_psef(d), ctx.is_big(d), ctx.is_nef(d), ctx.is_ample(d)),
    )


def check(op, out) -> bool:
    e, text = op
    a, b = class_coeffs(text)
    got_a, got_b, h0, h1, h2, chi, oracle, cones = out
    in_bound = abs(a) <= ORACLE_BOUND and abs(b) <= ORACLE_BOUND
    return (
        (got_a, got_b) == (a, b)
        and h0 == h0_closed(e, a, b)
        and h2 == h2_closed(e, a, b)
        and chi == chi_closed(e, a, b)
        and h0 - h1 + h2 == chi
        and (oracle == h0 if in_bound else oracle is None)
        and cones == cone_flags(e, a, b)
    )


def corrupt(op, out):
    """h0 off by one."""
    return (out[0], out[1], out[2] + 1, *out[3:])
