"""One workload in its own process: set up, run the closed loop, check every op.

Started by run.py, which passes the CLOCK_MONOTONIC reading taken just
before the launch, so set-up time covers interpreter start too.  Prints
one JSON object on stdout.  Every time is reported twice: raw, and scaled
to reference speed (see ``Speed``).  Modes:

* ``setup``: import, build the input stream, run the warm-up op, report.
* ``run``: after set-up, run ops one at a time until ``--seconds`` of op
  time have passed (and at least MIN_OPS ops, so p90 has ten samples
  beyond it), checking each op outside its timed interval.
* ``trace``: after set-up, run the workload's first TRACE_OPS ops
  untraced, traced, and untraced again.  The prefix is fixed, so the
  counts repeat exactly for a seed; the walls give the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from collections import deque
from itertools import islice
from time import monotonic, perf_counter

from common import fingerprint

MIN_OPS = 100

#: Reference speed: the machine on which one probe() takes PROBE_REF_S.
PROBE_REF_S = 1e-3
#: Op time between two probes.
PROBE_EVERY_S = 0.2


def probe() -> float:
    """Time a fixed pure-Python loop, about 1 ms on a quiet 2-vCPU VM."""
    t0 = perf_counter()
    sum(i * i for i in range(20_000))
    return perf_counter() - t0


class Speed:
    """How fast the machine runs now, from probes taken between ops.

    On a shared VM the same code runs up to 70% slower for minutes at a
    time, which moves every raw time by as much.  ``factor()`` is
    PROBE_REF_S over the median of the last three probes; a raw time times
    the factor is the time at reference speed.
    """

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=3)
        self.samples: list[float] = []

    def sample(self) -> None:
        p = probe()
        self.recent.append(p)
        self.samples.append(p)

    def factor(self) -> float:
        return PROBE_REF_S / statistics.median(self.recent)


class Raised:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


def _ok(wl, op, out) -> bool:
    if isinstance(out, Raised):
        return False
    try:
        return bool(wl.check(op, out))
    except Exception:  # a malformed output fails its check, it does not stop the run
        return False


def _timed(run, op):
    t0 = perf_counter()
    try:
        out = run(op)
    except Exception as exc:  # counted as a failed op
        out = Raised(exc)
    return out, perf_counter() - t0


class Tally:
    """Checks ops as they finish; keeps the first few failures for the report."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, op, out) -> None:
        self.attempted += 1
        if not _ok(self.wl, op, out):
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op!r} -> {repr(out)[:300]}")


def closed_loop(wl, stream, seconds: float, tally: Tally, speed: Speed):
    """One client, one op at a time, until ``seconds`` of op time have passed.

    Returns the raw latencies and the same latencies at reference speed.
    """
    raw: list[float] = []
    scaled: list[float] = []
    busy = 0.0
    probed = -PROBE_EVERY_S
    while busy < seconds or len(raw) < MIN_OPS:
        if busy - probed >= PROBE_EVERY_S:
            speed.sample()
            probed = busy
        op = next(stream)
        out, dt = _timed(wl.run, op)
        raw.append(dt)
        scaled.append(dt * speed.factor())
        busy += dt
        tally.add(op, out)
    return raw, scaled


def summarize(latencies: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def traced_passes(wl, seed: int, tally: Tally) -> dict:
    from tracing import Tracer, layer_metrics

    prefix = list(islice(wl.ops(seed), wl.TRACE_OPS))

    def untraced_pass() -> float:
        wall = 0.0
        for op in prefix:
            out, dt = _timed(wl.run, op)
            wall += dt
            tally.add(op, out)
        return wall

    before = untraced_pass()
    tracer = Tracer()
    tracer.install()
    if hasattr(wl, "run_traced"):
        run = tracer.wrap("bench.op", lambda op: wl.run_traced(op, tracer))
    else:
        run = tracer.wrap("bench.op", wl.run)
    traced = 0.0
    outputs = []
    for op in prefix:
        out, dt = _timed(run, op)
        traced += dt
        outputs.append(out)
    snap = tracer.snapshot()
    # checked only now: a check may call the traced program (cli_cold's does)
    for op, out in zip(prefix, outputs):
        tally.add(op, out)
    # untraced passes on both sides, so warm-up and drift do not bias the overhead
    untraced = (before + untraced_pass()) / 2
    extra = {
        "bench.tracing_overhead_frac": (traced - untraced) / untraced,
        "bench.unattributed_s": snap["spans"]["bench.op"][1],
    }
    if hasattr(wl, "trace_extra"):
        extra.update(wl.trace_extra(tracer))
    return {"layers": layer_metrics(snap, extra)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True, help="monotonic clock at launch")
    args = parser.parse_args(argv)

    wl = importlib.import_module(f"workloads.{args.workload}")
    t0 = monotonic()
    stream = wl.ops(args.seed)
    inputs = fingerprint(wl.ops(args.seed))
    generation_s = monotonic() - t0
    wl.run(wl.WARMUP)
    setup_s = monotonic() - args.launched - generation_s
    speed = Speed()
    for _ in range(3):
        speed.sample()
    report: dict = {
        "raw": {"setup_s": setup_s},
        "scaled": {"setup_s": setup_s * speed.factor()},
        "inputs": inputs,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tally = Tally(wl)
    if args.mode == "run":
        raw, scaled = closed_loop(wl, stream, args.seconds, tally, speed)
        report["raw"].update(summarize(raw))
        report["scaled"].update(summarize(scaled))
        # ru_maxrss is in KiB on Linux; memory needs no scaling
        rss = resource.getrusage(getattr(wl, "RSS_OF", resource.RUSAGE_SELF)).ru_maxrss / 1024
        report["raw"]["peak_rss_mb"] = report["scaled"]["peak_rss_mb"] = rss
        report["ops"] = len(raw)
        report["probe_ms"] = statistics.median(speed.samples) * 1e3
    else:
        report.update(traced_passes(wl, args.seed, tally))
    report.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
