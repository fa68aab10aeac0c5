"""split_calc: the splitting-type calculator on unbalanced bundles.

One op reads a leaf (a ``[d1,...]`` string through parse_splitting, or an
extension through classify_extension), applies a chain of sym_power,
twist and frobenius_pullback, and formats the result.  Every leaf is
unbalanced with rank 2..4, so every symmetric power (all have m >= 2)
takes the enumerated route.  Its cost is the number of monomial entries it sums,
m * C(r + m - 1, m) for S^m of rank r.  A round is ten ops, one per
decile of log(cost) between 1e2 and 3e6 entries, which stays below the
5M-monomial refusal, so no op is refused.  Costs and leaf ranks are spread
evenly over every CYCLE rounds (see common.Strata), so runs on different
seeds do the same mix of work.
"""

from __future__ import annotations

import random
import re
from math import comb

from hirzcoh import p1

from common import Cycle, Strata

WARMUP = ("[-1,0,2]", (("sym", 3), ("twist", 1)))
TRACE_OPS = 200

COST_LO, COST_HI = 1e2, 3e6
CYCLE = 32  # rounds in which every decile covers its whole range once
_AGGREGATED = re.compile(r"(-?\d+) x (\d+)")


def _leaf(rng: random.Random, rank: int):
    """A leaf as text, and its degrees; an ext leaf has rank 2 whatever ``rank`` says."""
    if rng.random() < 0.25:
        sub = rng.randint(-4, 4)
        quot = sub + rng.choice([-3, -2, -1, 1, 2, 3])
        # nonsplit only where H^1(O(sub - quot)) = 0 forces a split anyway:
        # gap -2 gives a balanced type and a wider gap is refused
        kind = "nonsplit" if sub - quot >= -1 and rng.random() < 0.5 else "split"
        return f"ext({sub},{quot},{kind})", (sub, quot)
    while True:
        degrees = [rng.randint(-6, 6) for _ in range(rank)]
        if min(degrees) < max(degrees):
            break
    sep = rng.choice([",", ", "])
    return "[" + sep.join(map(str, degrees)) + "]", tuple(degrees)


def _sym_exponent(rank: int, cost: float) -> int:
    """The largest m >= 2 with m * C(rank + m - 1, m) <= cost (2 if none is)."""
    m = 2
    while (m + 1) * comb(rank + m, m + 1) <= cost:
        m += 1
    return m


def _chain(rng: random.Random, rank: int, cost: float) -> tuple:
    """One or two symmetric powers spending about ``cost``, with twists and pullbacks."""
    chain = []
    if rng.random() < 0.3 and 2 * comb(comb(rank + 1, 2) + 1, 2) <= cost:
        chain.append(("sym", 2))
        rank = comb(rank + 1, 2)
    chain.append(("sym", _sym_exponent(rank, cost)))
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.6:
            extra = ("twist", rng.randint(-20, 20))
        else:
            extra = ("frob", rng.choice([2, 3, 4, 5, 7, 8, 9]))
        chain.insert(rng.randint(0, len(chain)), extra)
    return tuple(chain)


def ops(seed: int):
    rng = random.Random(seed)
    costs = Strata(rng, 10, CYCLE)
    ranks = Cycle(rng, (2, 3, 4))
    while True:
        block = []
        for k in range(10):
            cost = COST_LO * (COST_HI / COST_LO) ** costs.draw(k)
            text, degrees = _leaf(rng, ranks.draw())
            block.append((text, _chain(rng, len(degrees), cost)))
        rng.shuffle(block)
        yield from block


def _leaf_degrees(text: str) -> tuple[int, ...]:
    if text.startswith("ext("):
        sub, quot, _kind = text[4:-1].split(",")
        return int(sub), int(quot)
    return tuple(int(t) for t in text[1:-1].split(","))


def run(op):
    text, chain = op
    if text.startswith("ext("):
        sub, quot = _leaf_degrees(text)
        st = p1.classify_extension(sub, quot, text.endswith("nonsplit)"))
    else:
        st = p1.parse_splitting(text)
    for name, value in chain:
        if name == "sym":
            st = st.sym_power(value)
        elif name == "twist":
            st = st.twist(value)
        else:
            st = st.frobenius_pullback(value)
    return p1.format_splitting(st)


def expected(op) -> tuple[int, int, int, int]:
    """(rank, min, max, total degree) of the result, in closed form."""
    text, chain = op
    degrees = _leaf_degrees(text)
    rank, lo, hi, total = len(degrees), min(degrees), max(degrees), sum(degrees)
    for name, value in chain:
        if name == "sym":
            # each degree appears C(r + m - 1, m - 1) times across the monomials
            total *= comb(rank + value - 1, value - 1)
            rank = comb(rank + value - 1, value)
            lo, hi = value * lo, value * hi
        elif name == "twist":
            total += value * rank
            lo, hi = lo + value, hi + value
        else:
            total, lo, hi = value * total, value * lo, value * hi
    return rank, lo, hi, total


def observed(out: str) -> tuple[int, int, int, int] | None:
    """(rank, min, max, total degree) read back from the formatted text."""
    body = out[1:-1]
    if " x " in body:
        pairs = [(int(d), int(r)) for d, r in _AGGREGATED.findall(body)]
        if len(pairs) != body.count(" x "):
            return None
    else:
        pairs = [(int(d), 1) for d in body.split(",")]
    degrees = [d for d, _ in pairs]
    return (
        sum(r for _, r in pairs),
        min(degrees),
        max(degrees),
        sum(d * r for d, r in pairs),
    )


def check(op, out) -> bool:
    want = expected(op)
    # the text form expands equal degrees up to rank 1000, aggregates past it
    return observed(out) == want and (" x " in out) == (want[0] > 1000)


def corrupt(op, out):
    """A wrong rank: one summand dropped."""
    if " x " in out:
        d, r = _AGGREGATED.search(out).groups()
        return out.replace(f"{d} x {r}", f"{d} x {int(r) - 1}", 1)
    return "[" + out[1:-1].split(",", 1)[1] + "]"
