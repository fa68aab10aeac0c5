"""Self-test of the checkers, of input determinism and of BENCHMARK.json.

    python3 perfbench/selftest.py

For every workload: one seed gives the same input hash twice and another
seed a different one; the seed's first TRACE_OPS ops pass their checks;
and the same outputs, corrupted the way a broken optimisation would
corrupt them (a flipped claim status, h0 off by one, a wrong rank, a
changed CLI line), fail them, so ops_failed_frac reads 1 on the corrupted
batch.  Last, the
metric and workload names in BENCHMARK.json must be the ones the
benchmark emits.  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import importlib
import json
import sys
from itertools import islice

from common import fingerprint
from run import END_TO_END, ROOT, WORKLOADS, use_source_tree
from tracing import PER_LAYER
from worker import Raised, Tally, _timed

SEED = 7


def check_workload(name: str) -> bool:
    wl = importlib.import_module(f"workloads.{name}")
    inputs = fingerprint(wl.ops(SEED))
    same = inputs == fingerprint(wl.ops(SEED))
    differs = inputs != fingerprint(wl.ops(SEED + 1))
    clean, corrupted = Tally(wl), Tally(wl)
    for op in islice(wl.ops(SEED), wl.TRACE_OPS):
        out, _ = _timed(wl.run, op)
        clean.add(op, out)
        if not isinstance(out, Raised):
            corrupted.add(op, wl.corrupt(op, out))
    ok = same and differs and clean.failed == 0 and corrupted.failed == clean.attempted
    print(
        f"{name:<13} inputs {inputs} (same seed repeats: {same}, next seed differs: "
        f"{differs}); ops_failed_frac clean {clean.failed / clean.attempted:g}, "
        f"corrupted {corrupted.failed / max(corrupted.attempted, 1):g} "
        f"-> {'ok' if ok else 'FAILED'}"
    )
    for failure in clean.failures:
        print(f"  clean op failed: {failure}")
    return ok


def check_manifest() -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = (
        [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
        and [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
        and [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    )
    print(f"BENCHMARK.json names match the emitted metrics -> {'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    use_source_tree()
    results = [check_workload(name) for name in WORKLOADS]
    results.append(check_manifest())
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
