"""hirzcoh benchmark: one workload per call, as a closed loop in its own process.

    python3 perfbench/run.py --workload replay_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads: replay_sweep, coh_table,
split_calc, cli_cold (see perfbench/README.md).  With ``--trace 0`` the
last stdout line is a JSON object with every end-to-end metric; with
``--trace 1`` it holds every per-layer metric instead.  The lines before
it print the same figures for a reader, the run environment and a hash of
the inputs the seed produced.  End-to-end times are reported at reference
speed, scaled by a probe loop timed between ops (worker.Speed); the raw
times are printed next to them.

The program under test is the ``hirzcoh`` package in ``src/``, imported
as the tests import it (``PYTHONPATH=src``); nothing is built or
installed.  Exit code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("replay_sweep", "coh_table", "split_calc", "cli_cold")

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Set-up is measured in this many processes per run (the measuring run
#: included), and the median reported.
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


def environment() -> dict:
    """What the figures depend on besides the code: compare only equal backends."""
    from hirzcoh.kernels import BACKEND

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "backend": BACKEND,
        "HIRZCOH_PURE": os.environ.get("HIRZCOH_PURE", "unset"),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def use_source_tree() -> None:
    """Import hirzcoh from ``src/`` here and in every child, as the tests do."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path.insert(0, str(SRC))


def launch(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run worker.py in a fresh interpreter and return its report."""
    timeout = SETUP_TIMEOUT_S if mode == "setup" else WORKER_TIMEOUT_S
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--mode={mode}",
    ]
    launched = time.monotonic()
    proc = subprocess.run(
        [*argv, f"--launched={launched!r}"],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hirzcoh" / "__init__.py").is_file():
        print(f"perfbench: no hirzcoh package under {SRC}", file=sys.stderr)
        return 2
    use_source_tree()
    # a fixed hash seed, so dict and set layouts repeat from run to run
    os.environ["PYTHONHASHSEED"] = "0"

    env = environment()
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"note: compare runs only on the same backend ({env['backend']})")

    if args.trace:
        report = launch(args.workload, args.seed, args.seconds, "trace")
        metrics = {
            name: {"value": report["layers"][name], "unit": unit} for name, unit in PER_LAYER
        }
        raw = {}
    else:
        setups = [
            launch(args.workload, args.seed, args.seconds, "setup")
            for _ in range(SETUP_SAMPLES - 1)
        ]
        report = launch(args.workload, args.seed, args.seconds, "run")
        setups.append(report)
        for kind in ("raw", "scaled"):
            report[kind]["setup_s"] = statistics.median(s[kind]["setup_s"] for s in setups)
        metrics = {
            name: {"value": report["scaled"][name], "unit": unit} for name, unit in END_TO_END
        }
        raw = report["raw"]
        print(
            f"ops: {report['ops']} timed, {raw['beyond_p90']} beyond p90; setup_s is the "
            f"median of {SETUP_SAMPLES} launches"
        )
        print(
            f"speed: probe median {report['probe_ms']:.4f} ms; times below are at reference "
            f"speed (probe = {PROBE_REF_S * 1e3:g} ms), raw times in brackets"
        )

    print(f"inputs: sha256[:16] of the first ops = {report['inputs']}")
    for name, m in metrics.items():
        line = f"{name:<44} {m['value']:>14.6g} {m['unit']}"
        if name in raw and m["unit"] != "MB":
            line += f"  [{raw[name]:.6g}]"
        print(line)
    failed_frac = report["failed"] / report["attempted"]
    print(f"{'ops_failed_frac':<44} {failed_frac:>14.6g} ratio")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
