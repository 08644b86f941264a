"""Run one workload of the gptkit benchmark and print its metrics.

    python3 bench/run.py --workload verify-n16 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics. Each metric is printed on its own line with its unit; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. The ops run in one worker process with BLAS and OpenMP pinned to
one thread. Exits 1 when an op failed or its output failed its gate, and 2
when the checkout holds no gptkit source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# A single cold start varies by a third on a shared machine; the median of
# this many fresh interpreters, half spawned before the worker and half
# after it, is steady.
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 170


def setup_seconds(n: int, count: int) -> list[float]:
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), str(n)]
    return [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                 timeout=60).stdout)
            for _ in range(count)]


def metric(name: str, value: float, unit: str, note: str = "") -> tuple[str, dict]:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return name, {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gptkit" / "cli.py").is_file():
        print(f"error: no gptkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = setup_seconds(workload.largest_n, probes)
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"),
         "--workload", workload.name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    setup += setup_seconds(workload.largest_n, probes)
    result = json.loads(worker.stdout.splitlines()[-1])

    env = result["env"]
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"workload {workload.name}, seed {args.seed}, closed loop, one client")
    attempted, failed = result["attempted"], len(result["failures"])
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        print(f"per-layer metrics, per-op means over {result['traced_ops']} traced ops")
        metrics = dict(metric(name, value, _unit(name)) for name, value in
                       result["layers"].items())
        for name, seconds in result["top_self_s"]:
            print(f"  self time {name}: {seconds:.4g} s/op")
    else:
        ops = result["op_s"]
        metrics = dict([
            metric("op_s.p50", statistics.median(ops), "s", f"{len(ops)} ops"),
            metric("op_s.tail", result["tail_s"], "s",
                   f"p{result['tail_percentile']:.1f} of {len(ops)} ops"),
            metric("ops_per_s", result["ops_per_s"], "1/s",
                   "ops per wall second of the timed window"),
            metric("setup_s", statistics.median(setup), "s",
                   f"median of {len(setup)} fresh interpreters, "
                   f"import gptkit.cli + quantum_theory({workload.largest_n})"),
            metric("peak_rss_mb", result["peak_rss_mb"], "MB", "worker process"),
        ])
    print(f"fail_ratio = {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


if __name__ == "__main__":
    sys.exit(main())
