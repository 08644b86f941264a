"""The benchmark's workloads: op inputs, the CLI arguments of one op, and the
output gate that decides whether the op's output is correct.

No gate calls gptkit code. Numerical outputs are checked against facts the
benchmark works out itself: the frame projectors and the D matrix against the
fiducial vectors of the documented canonical frame, Z against the Kraus map
applied to a benchmark-drawn state, the transform exit code against the
eigenvalues of sum M^dag M, the shot counts against binomial concentration.
The seven `gpt verify` checks and the verify pipeline of `gpt report` output
only gptkit's own pass/fail verdicts, so for those the gate can check no more
than that every verdict is "pass".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GATE_ATOL = 1e-9
TRACE_TOL = 1e-10  # the CLI's own PSD tolerance for I - sum M^dag M

# The README's example `gpt report` config, verbatim.
README_CONFIG = """\
[report]
seed = 2026

[frame f3]
n = 3
out = frame3.frame.json
dmat_out = d3.dmat.json

[bloch sphere]
a = 0.5
b = 0.5
c = 0.5

[verify quantum3]
theory = quantum
n = 3

[simulate halfsies]
theory = quantum
n = 2
preparation = mix:0.5
partition = basis
shots = 1000000
out = counts.json
"""
README_PIPELINES = ["frame", "bloch", "verify", "simulate"]
README_SHOTS = 1_000_000


def derive(seed: int, *key: int) -> int:
    """A 32-bit child seed of the workload seed, one per op input."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def fiducial_vectors(n: int) -> np.ndarray:
    """Row k is the unit vector whose projector is frame entry k.

    Canonical order ("basis-then-pairs-x-before-y"): |i> for each i, then
    for each pair m < n in lexicographic order (|m> + |n>)/sqrt(2) and
    (|m> + i|n>)/sqrt(2).
    """
    rows = [np.eye(n, dtype=complex)[i] for i in range(n)]
    for m in range(n):
        for k in range(m + 1, n):
            for phase in (1.0, 1.0j):
                v = np.zeros(n, dtype=complex)
                v[m], v[k] = 1.0, phase
                rows.append(v / np.sqrt(2.0))
    return np.array(rows)


def fiducial_p(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """p_k = <v_k| rho |v_k>."""
    return np.einsum("ki,ij,kj->k", vectors.conj(), rho, vectors).real


def _complex_json(array: np.ndarray) -> list:
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _stinespring_kraus(rng: np.random.Generator, n: int, terms: int) -> np.ndarray:
    """Kraus operators of a random CPTP map: the blocks of an isometry."""
    isometry, _ = np.linalg.qr(_gaussian(rng, (terms * n, n)))
    return isometry.reshape(terms, n, n)


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _gaussian(rng, (n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _frame_and_d_error(frame_path: Path, d_path: Path, n: int) -> str | None:
    """None when the frame file holds the projectors |v_k><v_k| of the
    canonical fiducial vectors and the D file holds |<v_i|v_j>|^2."""
    vectors = fiducial_vectors(n)
    paired = np.asarray(json.loads(frame_path.read_text())["projectors"], dtype=float)
    projectors = paired[..., 0] + 1j * paired[..., 1]
    expected = np.einsum("ki,kj->kij", vectors, vectors.conj())
    if projectors.shape != expected.shape:
        return f"frame projectors have shape {projectors.shape}, expected {expected.shape}"
    deviation = float(np.abs(projectors - expected).max())
    if not deviation <= GATE_ATOL:
        return f"frame projectors deviate from |v_k><v_k| by {deviation:.3g}"
    d = np.asarray(json.loads(d_path.read_text())["matrix"], dtype=float)
    expected_d = np.abs(vectors.conj() @ vectors.T) ** 2
    if d.shape != expected_d.shape:
        return f"D has shape {d.shape}, expected {expected_d.shape}"
    deviation = float(np.abs(d - expected_d).max())
    if not deviation <= GATE_ATOL:
        return f"D deviates from |<v_i|v_j>|^2 by {deviation:.3g}"
    return None


class Workload:
    """One kind of op. ``inputs`` makes the op pool of a run, which the run
    cycles through; ``argv`` gives the CLI arguments of one execution,
    whose files go into the fresh directory ``out``; ``gate`` returns None when
    the output is correct and otherwise says what is wrong.

    A timed window ends on a whole cycle over the pool, and no sooner than
    the worker's MIN_OPS (21) ops, so pools of 3 cost report-readme and
    verify-n16 no op beyond those 21."""

    name: str
    largest_n: int
    pool: int

    def inputs(self, workdir: Path, seed: int) -> list:
        raise NotImplementedError

    def argv(self, item, out: Path) -> list[str]:
        raise NotImplementedError

    def gate(self, item, out: Path, code: int, stdout: str) -> str | None:
        raise NotImplementedError

    def fingerprint(self, out: Path, stdout: str) -> bytes | None:
        """Bytes that must repeat exactly when an input is run again."""
        return None


@dataclass(frozen=True)
class ReportInput:
    config: Path
    seed: int


class ReportReadme(Workload):
    name = "report-readme"
    largest_n = 3
    pool = 3

    def inputs(self, workdir: Path, seed: int) -> list[ReportInput]:
        config = workdir / "readme.cfg"
        config.write_text(README_CONFIG)
        return [ReportInput(config, derive(seed, 1, i)) for i in range(self.pool)]

    def argv(self, item: ReportInput, out: Path) -> list[str]:
        return ["report", "--config", str(item.config), "--out-dir", str(out),
                "--seed", str(item.seed)]

    def gate(self, item: ReportInput, out: Path, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        report = json.loads((out / "report.json").read_text())
        if report["seed"] != item.seed:
            return f"report seed {report['seed']} is not the requested {item.seed}"
        kinds = [p["kind"] for p in report["pipelines"]]
        if kinds != README_PIPELINES:
            return f"pipelines {kinds}, expected {README_PIPELINES}"
        bad = [p["name"] for p in report["pipelines"] if p["status"] != "pass"]
        if bad:
            return f"pipelines not passing: {bad}"
        error = _frame_and_d_error(out / "frame3.frame.json", out / "d3.dmat.json", 3)
        if error is not None:
            return error
        counts = json.loads((out / "counts.json").read_text())["counts"]
        # mix:0.5 over the basis partition: null outcome impossible, each
        # basis outcome binomial(10^6, 1/2); 5 sigma is 0.0025.
        if sum(counts) != README_SHOTS or counts[0] != 0:
            return f"counts {counts} do not fit {README_SHOTS} shots with no null outcome"
        if abs(counts[1] / README_SHOTS - 0.5) > 0.0025:
            return f"outcome 1 frequency {counts[1] / README_SHOTS} is not 1/2 within 5 sigma"
        return None

    def fingerprint(self, out: Path, stdout: str) -> bytes | None:
        return (out / "report.json").read_bytes()


class VerifyN16(Workload):
    name = "verify-n16"
    largest_n = 16
    pool = 3
    checks = 7

    def inputs(self, workdir: Path, seed: int) -> list[int]:
        return [derive(seed, 2, i) for i in range(self.pool)]

    def argv(self, item: int, out: Path) -> list[str]:
        return ["verify", "--theory", "quantum", "--n", "16", "--seed", str(item)]

    def gate(self, item: int, out: Path, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        report = json.loads(stdout)
        if (report["theory"], report["dimension"], report["seed"]) != ("quantum", 16, item):
            return "report header does not match the request"
        statuses = [c["status"] for c in report["checks"]]
        if len(statuses) != self.checks or any(s != "pass" for s in statuses):
            return f"check statuses {statuses}, expected {self.checks} passes"
        if report["passed"] is not True:
            return "report says not passed"
        return None


@dataclass(frozen=True)
class TransformInput:
    path: Path
    unitary: bool
    expected_code: int
    p_in: np.ndarray
    p_out: np.ndarray


class TransformN16(Workload):
    name = "transform-n16"
    largest_n = 16
    pool = 4
    n = 16
    # Cycled op kinds: (label, Kraus terms, scale of sum M^dag M).
    kinds = (("unitary", 1, 1.0), ("cptp-l2", 2, 1.0), ("cptp-l4", 4, 1.0),
             ("trace-increasing", 2, 1.25))

    def inputs(self, workdir: Path, seed: int) -> list[TransformInput]:
        vectors = fiducial_vectors(self.n)
        items = []
        for i in range(self.pool):
            label, terms, scale = self.kinds[i % len(self.kinds)]
            rng = np.random.default_rng(derive(seed, 3, i))
            if label == "unitary":
                ops = _haar_unitary(rng, self.n)[np.newaxis]
                path = workdir / f"t{i}.op.json"
                payload = {"dimension": self.n, "matrix": _complex_json(ops[0])}
            else:
                ops = np.sqrt(scale) * _stinespring_kraus(rng, self.n, terms)
                path = workdir / f"t{i}.kraus.json"
                payload = {"dimension": self.n, "kraus": _complex_json(ops)}
            path.write_text(json.dumps(payload))
            total = np.einsum("lji,ljk->ik", ops.conj(), ops)
            increasing = np.linalg.eigvalsh(total).max() > 1.0 + TRACE_TOL
            rho = _random_density(rng, self.n)
            image = np.einsum("lij,jk,lmk->im", ops, rho, ops.conj())
            items.append(TransformInput(
                path=path,
                unitary=label == "unitary",
                expected_code=1 if increasing else 0,
                p_in=fiducial_p(rho, vectors),
                p_out=fiducial_p(image, vectors),
            ))
        return items

    def argv(self, item: TransformInput, out: Path) -> list[str]:
        flag = "--unitary" if item.unitary else "--kraus"
        return ["transform", flag, str(item.path), "--out", str(out / "z.json")]

    def gate(self, item: TransformInput, out: Path, code: int, stdout: str) -> str | None:
        if code != item.expected_code:
            return f"exit code {code}, expected {item.expected_code}"
        payload = json.loads((out / "z.json").read_text())
        z = np.asarray(payload["z"], dtype=float)
        k = self.n * self.n
        if z.shape != (k, k):
            return f"Z has shape {z.shape}, expected ({k}, {k})"
        deviation = float(np.abs(z @ item.p_in - item.p_out).max())
        if not deviation <= GATE_ATOL:
            return f"|Z p(rho) - p(M rho M^dag)| = {deviation:.3g} > {GATE_ATOL}"
        if payload["completely_positive"] is not True:
            return "a Kraus map was reported not completely positive"
        if item.unitary and payload["reversible"] is not True:
            return "a unitary was reported not reversible"
        return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ReportReadme(), VerifyN16(), TransformN16())
}
