"""Shared by the workloads: seeded draws and the checkers' closed forms.

``Cycle`` and ``Strata`` keep the mix of work the same from seed to seed.
Each closed form is derived on its own and shares no code with the
program: the lattice polygon of aC + bF on F_e is summed as an arithmetic
series instead of being materialised, and chi is the same sum taken as a
polynomial in (a, b).
"""

from __future__ import annotations

import hashlib
import itertools
import random

#: Oracle bound at this commit: brute_force_h0 answers exactly when
#: |a|, |b| <= ORACLE_BOUND and refuses otherwise.  Kept here rather than
#: read from the program, so a changed bound shows as failed ops.
ORACLE_BOUND = 10_000

#: Number of leading ops whose hash identifies a workload's inputs.
FINGERPRINT_OPS = 200


class Cycle:
    """Seeded draws without replacement from ``values``, refilled when spent.

    Each block of len(values) draws holds every value once, so the mix a
    run sees hardly depends on the seed; the seed sets the order.
    """

    def __init__(self, rng: random.Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.queue: list = []

    def draw(self):
        if not self.queue:
            self.queue = self.values[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class Strata:
    """Quantiles in [0, 1) spread evenly over ``slots`` slots and ``cycle`` rounds.

    Slot s owns [s/slots, (s+1)/slots).  Each block of ``cycle`` draws from
    a slot takes one value from each 1/cycle-th of its interval, at a seeded
    position inside that piece, so a run of a few blocks covers the whole
    cost range in the same proportions.
    """

    def __init__(self, rng: random.Random, slots: int, cycle: int) -> None:
        self.rng = rng
        self.slots = slots
        self.cycle = cycle
        self.pieces = [Cycle(rng, range(cycle)) for _ in range(slots)]

    def draw(self, slot: int = 0) -> float:
        piece = self.pieces[slot].draw()
        return (slot + (piece + self.rng.random()) / self.cycle) / self.slots


def h0_closed(e: int, a: int, b: int) -> int:
    """#{(u, v) : 0 <= v <= a, 0 <= u <= b - e*v}, summed in closed form."""
    if a < 0 or b < 0:
        return 0
    if e == 0:
        return (a + 1) * (b + 1)
    k = min(a, b // e)  # last row that is not empty
    return (k + 1) * (b + 1) - e * k * (k + 1) // 2


def chi_closed(e: int, a: int, b: int) -> int:
    """Euler characteristic: sum over i = 0..a of (b - e*i + 1), as a polynomial."""
    return (a + 1) * (b + 1) - e * a * (a + 1) // 2


def h2_closed(e: int, a: int, b: int) -> int:
    """Serre duality: h^2(D) = h^0(K - D) with K = -2C - (e+2)F."""
    return h0_closed(e, -2 - a, -(e + 2) - b)


def cone_flags(e: int, a: int, b: int) -> tuple[bool, bool, bool, bool]:
    """(psef, big, nef, ample) from the cone inequalities of F_e."""
    return (a >= 0 and b >= 0, a > 0 and b > 0, a >= 0 and b >= e * a, a > 0 and b > e * a)


def class_text(a: int, b: int) -> str:
    """The class aC + bF in the [n]C±[m]F grammar."""
    return f"{a}C{b:+d}F"


def class_coeffs(text: str) -> tuple[int, int]:
    """(a, b) back from ``class_text``."""
    a, b = text[:-1].split("C")
    return int(a), int(b)


def fingerprint(ops) -> str:
    """sha256 of the first FINGERPRINT_OPS inputs of an op stream."""
    head = list(itertools.islice(ops, FINGERPRINT_OPS))
    return hashlib.sha256(repr(head).encode()).hexdigest()[:16]
