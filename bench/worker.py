"""The benchmark's worker: one process that runs a workload's ops in-process
through ``gptkit.cli.main(argv)``, closed loop with one client (the next op
starts when the previous one returns), and gates every output.

Run by ``run.py``, which sets the BLAS/OpenMP thread count in this
process's environment. Prints one JSON object with the op times, the
failure count and, in traced mode, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gptkit.cli  # noqa: E402
from tracing import Tracer, layer_metrics, top_self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# The tail is the highest percentile with ten ops beyond it. A run measures
# at least 2 * TAIL_BEYOND + 1 ops, so the tail is never below the median.
TAIL_BEYOND = 10
MIN_OPS = 2 * TAIL_BEYOND + 1


@dataclass
class Execution:
    seconds: float
    stdout: str
    out: Path
    emitted: int  # bytes the CLI printed or wrote through --out


class Runner:
    def __init__(self, workload: Workload, cli, workdir: Path) -> None:
        self.workload = workload
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, item, keep: bool = False) -> Execution:
        """Run one op into a fresh output directory and gate its output.
        The directory is removed afterwards unless ``keep`` is set."""
        out = self.workdir / f"op{self.attempted}"
        self.attempted += 1
        out.mkdir()
        argv = self.workload.argv(item, out)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        text = stdout.getvalue()
        if code is not None:
            try:
                error = self.workload.gate(item, out, code, text)
            except Exception:
                error = "unreadable output: " + traceback.format_exc(limit=1)
        if error is not None:
            self.failures.append(f"{' '.join(argv)}: {error}")
        emitted = len(text.encode())
        if "--out" in argv:
            target = Path(argv[argv.index("--out") + 1])
            emitted += target.stat().st_size if target.is_file() else 0
        if not keep:
            shutil.rmtree(out)
        return Execution(elapsed, text, out, emitted)


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND op times above it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def environment() -> dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": str(len(os.sched_getaffinity(0))),
        "threads": ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")),
    }


def measure(runner: Runner, items: list, seconds: float) -> dict:
    """Untraced closed loop for ``seconds`` (and at least MIN_OPS ops),
    ending on a whole cycle over the pool so that every input weighs the
    same. The repeat check on the first input runs outside the timed
    window; its first run is also the warm-up op (lazy imports, first-touch
    allocation)."""
    first = _fingerprint(runner, items[0])
    times = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(times) < MIN_OPS
           or len(times) % len(items)):
        times.append(runner.run(items[len(times) % len(items)]).seconds)
    window = time.perf_counter() - start
    if first is not None and _fingerprint(runner, items[0]) != first:
        runner.failures.append("output differs between two runs of the same input")
    percentile, value = tail(times)
    return {"op_s": times, "tail_percentile": percentile, "tail_s": value,
            "ops_per_s": len(times) / window}


def _fingerprint(runner: Runner, item) -> bytes | None:
    run = runner.run(item, keep=True)
    try:
        return runner.workload.fingerprint(run.out, run.stdout)
    except OSError:
        return None  # the op's gate has counted the missing output
    finally:
        shutil.rmtree(run.out)


def measure_traced(runner: Runner, items: list, seconds: float, spans_path: Path) -> dict:
    """Whole cycles over the input pool, each op once untraced and once
    traced, alternating which goes first. Per-layer metrics are per-op
    means over the traced ops; the same seed gives the same counts."""
    tracer = Tracer()
    runner.run(items[0])  # warm-up
    plain, traced, out_bytes = [], [], 0
    start = time.perf_counter()
    cycle_s = 0.0
    while not traced or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        for item in items:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.op = len(traced)
                    tracer.install()
                    try:
                        run = runner.run(item)
                    finally:
                        tracer.uninstall()
                    traced.append(run.seconds)
                    out_bytes += run.emitted
                else:
                    plain.append(runner.run(item).seconds)
        cycle_s = time.perf_counter() - cycle_start
    metrics = layer_metrics(tracer.spans, len(traced), out_bytes)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    spans_path.write_text(json.dumps([asdict(s) for s in tracer.spans]))
    return {"layers": metrics, "traced_ops": len(traced),
            "top_self_s": top_self_times(tracer.spans, len(traced))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    base = ROOT / ".bench_out"
    workdir = base / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        items = workload.inputs(workdir, args.seed)
        runner = Runner(workload, gptkit.cli, workdir)
        if args.trace:
            spans = base / f"spans-{workload.name}-{args.seed}.json"
            result = measure_traced(runner, items, args.seconds, spans)
        else:
            result = measure(runner, items, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
