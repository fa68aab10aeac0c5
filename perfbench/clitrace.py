"""Run the hirzcoh CLI with every layer traced; used by cli_cold's traced run.

    python3 perfbench/clitrace.py verify --char 3

behaves like ``python -m hirzcoh.cli verify --char 3`` and then writes one
line to stderr: ``perfbench-trace`` and a JSON tracer snapshot, plus the
time the import of hirzcoh.cli took.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import hirzcoh.cli  # noqa: E402  (timed import)

import_s = perf_counter() - t0

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
rc = hirzcoh.cli.main(sys.argv[1:])
sys.stdout.flush()
snap = tracer.snapshot()
snap["import_s"] = import_s
print("perfbench-trace " + json.dumps(snap), file=sys.stderr)
sys.exit(rc)
