"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gptkit.cli  # noqa: E402
import gptkit.dynamics  # noqa: E402
import gptkit.serialize  # noqa: E402
import gptkit.states  # noqa: E402
from gptkit.errors import GptError  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from worker import MIN_OPS, Runner, measure, tail  # noqa: E402
from workloads import WORKLOADS, fiducial_p, fiducial_vectors  # noqa: E402


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_wrappers_pass_results_through(tracer):
    theory = gptkit.states.quantum_theory(3)
    p = theory.basis_p[1]
    original = gptkit.states.r_from_p.__wrapped__
    np.testing.assert_array_equal(gptkit.dynamics.r_from_p(p, theory.d), original(p, theory.d))
    # one wrapper, bound in the defining module and where it is imported
    assert gptkit.dynamics.r_from_p is gptkit.states.r_from_p is not original
    assert [s.name for s in tracer.spans].count("states.r_from_p") == 1


def test_wrappers_pass_exceptions_through(tracer):
    with pytest.raises(GptError, match="empty mixture"):
        gptkit.states.mix([], [])
    with pytest.raises(FileNotFoundError):
        gptkit.serialize.read_json("no/such/file.json")
    assert [(s.name, s.error) for s in tracer.spans] == [
        ("states.mix", True), ("serialize.read_json", False)]
    assert tracer._stack == []


def test_uninstall_restores_every_binding():
    before = {name: getattr(gptkit.dynamics, name) for name in ("r_from_p", "z_from_kraus")}
    tracer = Tracer()
    tracer.install()
    assert gptkit.dynamics.r_from_p is not before["r_from_p"]
    tracer.uninstall()
    assert {name: getattr(gptkit.dynamics, name) for name in before} == before


def _span(name, start, end, parent=-1, info=None, error=False):
    return Span(name, start, end, parent, op=0, info=info, error=error)


def test_self_time_subtracts_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("harness.run_report", 1.0, 4.0, parent=0),
        _span("harness.simulate", 5.0, 9.0, parent=0, info=1000),
        _span("states.r_from_p", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])
    metrics = layer_metrics(spans, ops=2, out_bytes=10)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["harness.self_s"] == pytest.approx(1.0)  # simulate excluded
    assert metrics["harness.simulate.busy_s"] == pytest.approx(2.0)
    assert metrics["harness.simulate.shots"] == 500
    assert metrics["states.convert.calls"] == 0.5
    assert metrics["cli.out_bytes"] == 5


def test_busy_counts_nested_group_calls_once_and_errors_per_layer():
    spans = [
        _span("dynamics.z_from_unitary", 0.0, 5.0, error=True),
        _span("dynamics.z_from_kraus", 1.0, 4.0, parent=0, error=True),
        _span("states.r_from_p", 6.0, 7.0, error=True),
    ]
    metrics = layer_metrics(spans, ops=1, out_bytes=0)
    assert metrics["dynamics.z.calls"] == 2
    assert metrics["dynamics.z.busy_s"] == pytest.approx(5.0)
    assert metrics["dynamics.errors"] == 1
    assert metrics["states.errors"] == 1


def test_tail_has_ten_ops_beyond_it():
    times = [float(t) for t in range(20)]
    percentile, value = tail(times)
    assert value == 9.0 and sum(t > value for t in times) == 10
    assert percentile == 50.0
    shortest = [float(t) for t in range(MIN_OPS)]
    assert tail(shortest)[1] >= statistics.median(shortest)


def _passing_verify(argv):
    seed = int(argv[argv.index("--seed") + 1])
    print(json.dumps({"theory": "quantum", "dimension": 16, "seed": seed, "passed": True,
                      "checks": [{"status": "pass"}] * 7}))
    return 0


def test_timed_window_has_min_ops_and_ends_on_a_whole_cycle(tmp_path):
    runner = Runner(WORKLOADS["verify-n16"], SimpleNamespace(main=_passing_verify), tmp_path)
    result = measure(runner, items=[11, 12, 13, 14], seconds=0.0)
    assert len(result["op_s"]) == 24 and runner.failures == []
    assert result["tail_s"] >= statistics.median(result["op_s"])


def test_fiducial_vectors_match_the_frame_file_order():
    frame = gptkit.serialize.frame_to_dict(gptkit.frames.build_canonical_frame(3))
    projectors = gptkit.serialize.complex_from_json(frame["projectors"])
    vectors = fiducial_vectors(3)
    np.testing.assert_allclose(np.einsum("ki,kj->kij", vectors, vectors.conj()),
                               projectors, atol=1e-15)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    np.testing.assert_allclose(fiducial_p(rho, vectors),
                               gptkit.states.p_from_density(rho, gptkit.frames.build_canonical_frame(3)))


def _corrupting(mutate):
    """A stand-in for gptkit.cli whose output is damaged after the real run."""
    def main(argv):
        code = gptkit.cli.main(argv)
        mutate(argv)
        return code
    return SimpleNamespace(main=main)


def test_transform_gate_accepts_true_output_and_rejects_corrupted(tmp_path):
    workload = WORKLOADS["transform-n16"]
    items = workload.inputs(tmp_path, seed=5)
    runner = Runner(workload, gptkit.cli, tmp_path)
    for item in items[:4]:
        runner.run(item)
    assert runner.failures == []

    def nudge_z(argv):
        path = Path(argv[argv.index("--out") + 1])
        payload = json.loads(path.read_text())
        payload["z"][3][7] += 1e-6
        path.write_text(json.dumps(payload))

    corrupt = Runner(workload, _corrupting(nudge_z), tmp_path)
    corrupt.run(items[1])
    assert len(corrupt.failures) == 1 and "Z p(rho)" in corrupt.failures[0]


def test_transform_gate_expects_exit_1_for_trace_increasing(tmp_path):
    workload = WORKLOADS["transform-n16"]
    increasing = workload.inputs(tmp_path, seed=5)[3]
    assert increasing.expected_code == 1
    forged = SimpleNamespace(main=lambda argv: gptkit.cli.main(argv) and 0)
    runner = Runner(workload, forged, tmp_path)
    runner.run(increasing)
    assert runner.failures and "exit code 0, expected 1" in runner.failures[0]


def test_verify_gate_rejects_a_failed_check_and_a_crash(tmp_path):
    workload = WORKLOADS["verify-n16"]
    seed = workload.inputs(tmp_path, seed=1)[0]
    checks = [{"status": "pass"}] * 6 + [{"status": "fail"}]
    report = {"theory": "quantum", "dimension": 16, "seed": seed, "passed": True,
              "checks": checks}
    runner = Runner(workload, SimpleNamespace(main=lambda argv: print(json.dumps(report)) or 0),
                    tmp_path)
    runner.run(seed)

    def crash(argv):
        raise RuntimeError("boom")

    crashing = Runner(workload, SimpleNamespace(main=crash), tmp_path)
    crashing.run(seed)
    assert len(runner.failures) == 1 and "check statuses" in runner.failures[0]
    assert len(crashing.failures) == 1 and "boom" in crashing.failures[0]


def test_report_gate_rejects_missing_report(tmp_path):
    workload = WORKLOADS["report-readme"]
    item = workload.inputs(tmp_path, seed=1)[0]
    runner = Runner(workload, SimpleNamespace(main=lambda argv: 0), tmp_path)
    runner.run(item)
    assert len(runner.failures) == 1 and "unreadable output" in runner.failures[0]


@pytest.mark.parametrize("name, path, nudge", [
    ("d3.dmat.json", ("matrix", 2, 5), "D deviates"),
    ("frame3.frame.json", ("projectors", 4, 0, 1, 1), "frame projectors deviate"),
])
def test_report_gate_checks_the_frame_and_d_values(tmp_path, name, path, nudge):
    workload = WORKLOADS["report-readme"]
    item = workload.inputs(tmp_path, seed=1)[0]
    runner = Runner(workload, gptkit.cli, tmp_path)
    runner.run(item)
    assert runner.failures == []

    def corrupt_entry(argv):
        target = Path(argv[argv.index("--out-dir") + 1]) / name
        payload = json.loads(target.read_text())
        *keys, last = path
        entry = payload
        for key in keys:
            entry = entry[key]
        entry[last] += 1e-6
        target.write_text(json.dumps(payload))

    corrupt = Runner(workload, _corrupting(corrupt_entry), tmp_path)
    corrupt.run(item)
    assert len(corrupt.failures) == 1 and nudge in corrupt.failures[0]
