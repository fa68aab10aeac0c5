"""Smoke runs of the traced benchmark workloads: each must finish, check
every op and report every per-layer metric that BENCHMARK.json declares.

The tracer hooks the package's entry points by name, so a renamed or
re-signatured entry point shows up here as a failed or missing metric.
No timing is asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["replay_sweep", "coh_table", "split_calc"])
def test_traced_workload_smoke(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
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
    metrics = result["metrics"]
    missing = [m["name"] for m in declared["per_layer"] if m["name"] not in metrics]
    assert missing == []
    if workload == "replay_sweep":
        assert metrics["verifier.evaluations"]["value"] > 0
    elif workload == "split_calc":
        # every leaf is unbalanced, and the tracer counts an unbalanced input
        # as enumerated by its shape, though progressions (every rank-2 leaf
        # and its images) take the Gaussian binomial instead
        calls = metrics["p1.sym_power.calls"]["value"]
        assert metrics["p1.sym_power.enumerated_calls"]["value"] == calls > 0
    else:
        # the closed forms answer every class; only the oracle walks points
        assert metrics["cohomology.pushforward_splitting.calls"]["value"] == 0
        assert metrics["cohomology.brute_force_h0.calls"]["value"] > 0


@pytest.mark.parametrize(
    "argv, replays",
    [(("verify", "--char", "3"), 1), (("coh", "-e", "2", "--", "C+3F"), 0)],
    ids=["verify", "coh"],
)
def test_traced_cli_smoke(argv, replays):
    """The tracer still wraps what the CLI imports only when a command needs it."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "perfbench/clitrace.py", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    _, mark, snap = proc.stderr.rpartition("perfbench-trace ")
    assert mark
    spans = json.loads(snap)["spans"]
    assert spans["cli.main"][0] == 1
    assert spans.get("verifier.run_full_replay", (0,))[0] == replays


def test_perfbench_selftest():
    """Corrupted outputs fail their checks, seeds reproduce, metric names match."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith("-> ok") for line in lines), proc.stdout
