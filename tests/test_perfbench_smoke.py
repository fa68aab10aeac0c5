"""Smoke run of the traced replay benchmark: it must finish, check every op
and report every per-layer metric that BENCHMARK.json declares.

The tracer hooks the verifier's interpreter by name, so a renamed or
re-signatured entry point shows up here as a failed or missing metric.
No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_replay_sweep_smoke():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "replay_sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [m["name"] for m in declared["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
    assert result["metrics"]["verifier.evaluations"]["value"] > 0
