"""replay_sweep: run_full_replay in sweep mode on F_2, plus the two controls.

A round is eleven ops in seeded order: every characteristic in {0, 2, 3,
5, 7} twice, once with beta_max in 8..20 and once in 21..32, and one
falsifiability control that must FAIL at its known witness.  Each
(characteristic, half) pair cycles through its beta_max values in seeded
order, so runs on different seeds do the same mix of work.
"""

from __future__ import annotations

import copy
import random
from itertools import combinations_with_replacement, count
from math import comb

from hirzcoh import verifier
from hirzcoh.hirzebruch import SurfaceContext

from common import Cycle

CTX = SurfaceContext(2)
CHARS = (0, 2, 3, 5, 7)
SWEEP_CLAIMS = ("claim3", "claim4", "charp", "remark_t")
CHAR0_RECORDS = ["extension", "restriction", "claim3", "claim4", "sigma", "remark_t", "almost_nef"]
CHARP_RECORDS = ["extension", "restriction", "charp", "remark_t", "almost_nef"]

WARMUP = ("replay", 0, 2)
TRACE_OPS = 22  # two rounds


def _split_control_h0() -> int:
    # E|_C = O(-2) + O for the split sum; S^4 of it has degrees -8..0 in
    # steps of 2, and at (b, l) = (1, 0) claim3 takes S^4 of that and
    # twists by 15b - 2l = 15.
    s4 = [-2 * k for k in range(5)]
    return sum(max(sum(c) + 16, 0) for c in combinations_with_replacement(s4, 4))


SPLIT_CONTROL_WITNESS = {"beta": 1, "ell": 0, "h0": _split_control_h0()}
# fiber multiple 16 makes the restricted degree 0 at every grid point,
# so the first point already has h^0 = rank of S^4(S^4 O^2) = C(8, 4)
INFLATED_TWIST_WITNESS = {"beta": 1, "ell": 0, "h0": comb(8, 4)}


def ops(seed: int):
    rng = random.Random(seed)
    betas = {
        (char, upper): Cycle(rng, range(21, 33) if upper else range(8, 21))
        for char in CHARS
        for upper in (False, True)
    }
    control_betas = Cycle(rng, range(8, 33))
    for k in count():
        block = [("replay", char, cycle.draw()) for (char, _), cycle in betas.items()]
        control = "split_control" if k % 2 == 0 else "inflated_twist"
        block.append((control, 0, control_betas.draw()))
        rng.shuffle(block)
        yield from block


def run(op):
    kind, char, beta_max = op
    if kind == "replay":
        return verifier.run_full_replay(CTX, char, "sweep", beta_max)
    if kind == "split_control":
        datum = verifier.split_control_datum(CTX)
        return verifier.peeling_vanishing_certificate(CTX, datum, "sweep", beta_max)
    return verifier.base_row_certificate(CTX, mode="sweep", beta_max=beta_max, fiber_multiple=16)


def check(op, out) -> bool:
    kind, char, beta_max = op
    if kind == "split_control":
        return out.status == verifier.FAIL and out.witness == SPLIT_CONTROL_WITNESS
    if kind == "inflated_twist":
        return out.status == verifier.FAIL and out.witness == INFLATED_TWIST_WITNESS
    grid = sum(5 * beta + 1 for beta in range(1, beta_max + 1))
    ids = [rec.claim_id for rec in out.records]
    return (
        out.overall == verifier.PASS
        and out.conclusion == "not pseudo-effective"
        and ids == (CHAR0_RECORDS if char == 0 else CHARP_RECORDS)
        and all(rec.status == verifier.PASS for rec in out.records)
        and all(
            rec.details.get("evaluations") == grid
            for rec in out.records
            if rec.claim_id in SWEEP_CLAIMS
        )
    )


def corrupt(op, out):
    """A wrong output of the kind a broken optimisation could produce."""
    bad = copy.deepcopy(out)
    if op[0] == "replay":
        bad.records[-2].status = verifier.FAIL  # remark_t flips
    else:
        bad.status = verifier.PASS  # the control stops failing
    return bad
