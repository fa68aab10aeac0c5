"""cli_cold: one ``python -m hirzcoh.cli`` child process per op.

A round is eight commands in seeded order: two ``verify`` (symbolic, char
in {0, 2, 3, 5, 7}), two ``coh`` on small classes, two ``cone`` and two
``split`` on small types.  Each op pays interpreter start, the import of
hirzcoh.cli and rendering, which no in-process workload measures.  Only
one child runs at a time.

This module imports no hirzcoh code at load time: the benchmark process
itself never runs the CLI's imports before the timed ops, only the child
processes do.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from common import Cycle, class_coeffs, class_text, h0_closed

CHARS = (0, 2, 3, 5, 7)
WARMUP = ("cone", "-e", "2", "--", "C+3F")
TRACE_OPS = 24
# peak RSS is that of the largest CLI child, the process a user runs
RSS_OF = resource.RUSAGE_CHILDREN

CLITRACE = str(Path(__file__).resolve().parent.parent / "clitrace.py")
TRACE_MARK = "perfbench-trace "
CHILD_TIMEOUT_S = 60


def _class(rng: random.Random, size: int) -> str:
    return class_text(rng.randint(-size, size), rng.randint(-size, 4 * size))


def _split(rng: random.Random) -> tuple[str, ...]:
    degrees = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
    chain = [f"sym:{rng.randint(2, 6)}"]
    if rng.random() < 0.5:
        chain.append(f"twist:{rng.randint(-5, 5)}")
    return ("split", "[" + ",".join(map(str, degrees)) + "]", *chain)


def ops(seed: int):
    rng = random.Random(seed)
    chars = Cycle(rng, CHARS)
    while True:
        block = []
        for _ in range(2):
            block.append(("verify", "--char", str(chars.draw())))
            block.append(("coh", "-e", str(rng.randint(0, 3)), "--", _class(rng, 40)))
            block.append(("cone", "-e", str(rng.randint(0, 3)), "--", _class(rng, 10_000)))
            block.append(_split(rng))
        rng.shuffle(block)
        yield from block


def _spawn(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def run(op):
    proc = _spawn([sys.executable, "-m", "hirzcoh.cli", *op])
    return proc.returncode, proc.stdout


def run_traced(op, tracer):
    """Run the op under clitrace.py and fold the child's spans into ``tracer``."""
    proc = _spawn([sys.executable, CLITRACE, *op])
    _, mark, snap = proc.stderr.rpartition(TRACE_MARK)
    if mark:
        snap = json.loads(snap)
        tracer.merge(snap)
        tracer.counts["cli.import_total_s"] += snap["import_s"]
        tracer.counts["cli.children"] += 1
        # the child's import and its cli.main span cover that much of this op
        tracer.cover(snap["import_s"] + snap["spans"]["cli.main"][2])
    return proc.returncode, proc.stdout


def trace_extra(tracer) -> dict:
    """cli.import_s as the mean over traced children, and a bare interpreter floor."""
    starts = []
    for _ in range(5):
        t0 = perf_counter()
        _spawn([sys.executable, "-c", "pass"])
        starts.append(perf_counter() - t0)
    children = tracer.counts["cli.children"]
    return {
        "cli.import_s": tracer.counts["cli.import_total_s"] / children if children else 0.0,
        "cli.python_start_s": median(starts),
    }


def _strip_header(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


def expected(op) -> tuple[int, str]:
    """Exit code and stdout of the same command run in this process."""
    from hirzcoh import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(op))
    return rc, buf.getvalue()


def check(op, out) -> bool:
    rc, stdout = out
    want_rc, want_stdout = expected(op)
    if rc != want_rc or _strip_header(stdout) != _strip_header(want_stdout):
        return False
    if op[0] == "verify":
        return rc == 0 and "\noverall PASS:" in stdout
    if op[0] == "coh":
        e = int(op[2])
        a, b = class_coeffs(op[-1])
        return stdout.splitlines()[1].startswith(f"h0={h0_closed(e, a, b)} ")
    return rc == 0


def corrupt(op, out):
    """A flipped verdict, or one digit changed."""
    rc, stdout = out
    if "PASS" in stdout:
        return rc, stdout.replace("PASS", "FAIL", 1)
    i = next(i for i, ch in enumerate(stdout) if ch.isdigit())
    return rc, stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1 :]
