"""Stochastic measurement simulator, axiom suite, and the workflow pipelines.

An experiment is the preparation -> transformation -> measurement
pipeline in one theory: a p-vector, an optional K x K array Z, and a
partition of the identity measurement into outcome r-vectors. The counts
of a run are one exact multinomial draw over the outcomes, returned as an
array with the null outcome first, so sampling costs O(outcomes), not
O(shots), and is deterministic given the experiment seed.

``PIPELINES`` holds the one implementation of each workflow (frame,
verify, bloch, transform, composite, simulate); the ``gpt`` subcommands
and the sections of a ``gpt report`` config both run it.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import serialize
from .axioms import (
    check_basis_distinguishability,
    check_linearity,
    check_subspace_axiom,
    fit_power_law,
)
from .bloch import (
    D2Params,
    SurfaceKind,
    a_matrix,
    build_general_d,
    c_bounds,
    classify_surface,
    d2_assemble,
    frame_from_phases,
    recover_phases,
)
from .composite import composite_from_density, dof_count_check, joint_normalization, local_transform
from .dynamics import (
    KrausSet,
    continuity_probe,
    is_completely_positive,
    is_reversible,
    is_trace_nonincreasing,
    is_trace_preserving,
    z_from_kraus,
    z_from_unitary,
)
from .errors import GptError, InvalidExperimentError
from .frames import (
    ATOL, COMPOSITE_LAW_SAMPLES, CONTINUITY_PAIRS, CONTINUITY_STEPS, FREQUENCY_ENVELOPE,
    FREQUENCY_PASS_FRACTION, FREQUENCY_SCALES, FREQUENCY_TRIALS, LINEARITY_PAIRS, LINEARITY_RTOL,
    POWER_LAW_N_MAX, PSD_TOL, build_canonical_frame, frame_size,
)
from .serialize import _float_array, _number, _required, _seed
from .states import Theory, mix, quantum_theory, theory_by_name

OK_STATUSES = ("pass", "expected-fail")  # statuses that count as passing


def derive_seed(root: int, *key: int) -> int:
    """Deterministic child seed for a named stream under a root seed."""
    ss = np.random.SeedSequence([int(root), *map(int, key)])
    return int(ss.generate_state(1, np.uint64)[0])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian, phases fixed)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass(frozen=True)
class Experiment:
    """One preparation/transformation/measurement specification in ``theory``.

    ``preparation`` is a p-vector and ``transform`` an optional K x K array
    Z, so the state measured is Z p. ``partition`` lists the outcome
    r-vectors; they must sum to the theory's identity measurement, so the
    null-outcome probability is 1 - mu. It is stored as one (L, K) array,
    with one row per outcome. A wrong shape, a partition that does not sum
    to the identity or a shot count numpy cannot draw is an
    ``InvalidExperimentError``.
    """

    theory: Theory
    preparation: np.ndarray
    partition: np.ndarray
    shots: int
    seed: int
    transform: np.ndarray | None = None

    def __post_init__(self) -> None:
        k = self.theory.k
        prep = np.asarray(self.preparation, dtype=float)
        rs = [np.asarray(r, dtype=float) for r in self.partition]
        if not rs:
            raise InvalidExperimentError("empty measurement partition")
        for name, vector in [*(("partition vector", r) for r in rs), ("preparation", prep)]:
            if vector.shape != (k,):
                raise InvalidExperimentError(f"{name} has shape {vector.shape}, the identity measurement ({k},)")
        if self.transform is not None:
            z = np.asarray(self.transform, dtype=float)
            if z.shape != (k, k):
                raise InvalidExperimentError(f"transform has shape {z.shape}, not ({k}, {k})")
            object.__setattr__(self, "transform", z)
        partition = np.array(rs)
        if np.abs(partition.sum(axis=0) - self.theory.r_identity).max() > ATOL:
            raise InvalidExperimentError("partition does not sum to the identity measurement")
        if self.shots < 0:
            raise InvalidExperimentError(f"negative shot count {self.shots}")
        if self.shots > np.iinfo(np.int64).max:  # the largest count numpy can draw
            raise InvalidExperimentError(f"shot count {self.shots} exceeds 2**63 - 1")
        object.__setattr__(self, "preparation", prep)
        object.__setattr__(self, "partition", partition)


def outcome_probabilities(exp: Experiment) -> np.ndarray:
    """Probability vector (null, outcome 1, ..., outcome L) of an experiment;
    each must lie in [0, 1] to ``ATOL``."""
    p = exp.preparation if exp.transform is None else exp.transform @ exp.preparation
    probs = exp.partition @ p
    if probs.min() < -ATOL or probs.max() > 1.0 + ATOL:
        raise InvalidExperimentError(f"branch probability outside [0, 1]: {probs}")
    null = 1.0 - probs.sum()
    if null < -ATOL:
        raise InvalidExperimentError(f"non-null probabilities sum to {probs.sum()} > 1")
    return np.concatenate([[max(null, 0.0)], np.clip(probs, 0.0, None)])


def simulate(exp: Experiment) -> np.ndarray:
    """The int64 counts (null, outcome 1, ..., outcome L) of ``exp.shots``
    shots, drawn as one exact Multinomial(shots, probs) sample, in
    O(outcomes); deterministic given the seed. Each branch probability is
    allowed ATOL of slack, so they may sum to slightly more than 1, which
    numpy's multinomial refuses; they are normalised first."""
    probs = outcome_probabilities(exp)
    return np.random.default_rng(exp.seed).multinomial(exp.shots, probs / probs.sum())


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "expected-fail"
    max_deviation: float | None  # None when a check has no finite deviation to report
    witnesses: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # NaN and infinities are not JSON, and Python's max would drop or keep a NaN deviation by order
        def finite(value: Any) -> bool:
            return not isinstance(value, float) or bool(np.isfinite(value))

        reasons = [f"{key} is {value}" for key, value in self.witnesses.items() if not finite(value)]
        if self.max_deviation is not None and not finite(self.max_deviation):
            reasons.insert(0, f"the deviation is {self.max_deviation}")
            object.__setattr__(self, "max_deviation", None)
        if reasons:
            witnesses = {key: value if finite(value) else None for key, value in self.witnesses.items()}
            witnesses["reason"] = ", ".join(reasons) + ", not a finite number"
            object.__setattr__(self, "witnesses", witnesses)

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    def to_json(self) -> dict[str, Any]:
        return {
            "check_name": self.name,
            "status": self.status,
            "max_deviation": self.max_deviation,
            "witnesses": self.witnesses,
        }


@dataclass(frozen=True)
class SuiteReport:
    theory: str
    dimension: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict[str, Any]:
        return {
            "theory": self.theory,
            "dimension": self.dimension,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _frequency_check(theory: Theory, seed: int) -> CheckResult:
    """Axiom 1: basis-measurement frequencies of four target probabilities
    converge as 1/sqrt(shots). Every trial at every scale is drawn in one
    exact multinomial call from one seeded stream; the counts come out as
    (target, scale, trial, outcome) and are judged in one pass: at each
    target and scale, the share of trials whose frequency of outcome 1 lies
    within ``FREQUENCY_ENVELOPE``/sqrt(shots) of the target must reach
    ``FREQUENCY_PASS_FRACTION``."""
    basis_p = [theory.basis_p[i] for i in range(min(2, theory.dimension))]
    if len(basis_p) == 1:  # n = 1 has a single basis state; mix with null
        basis_p.append(np.zeros_like(basis_p[0]))
    partition = tuple(theory.basis_r) if theory.dimension > 1 else (theory.r_identity,)
    targets = (0.0, 0.25, 0.5, 1.0)
    stream_seed = derive_seed(seed, 1)
    try:
        probs = np.array([
            outcome_probabilities(Experiment(theory=theory, preparation=mix(basis_p, [p_true, 1.0 - p_true]),
                                             partition=partition, shots=max(FREQUENCY_SCALES), seed=stream_seed))
            for p_true in targets
        ])
    except InvalidExperimentError as exc:  # the basis states of D give no valid probabilities
        return CheckResult(name="axiom1-frequency-convergence", status="fail",
                           max_deviation=None, witnesses={"reason": str(exc)})
    probs /= probs.sum(axis=1, keepdims=True)  # normalised as in simulate
    scales = np.array(FREQUENCY_SCALES)
    shots = np.repeat(scales, FREQUENCY_TRIALS).reshape(len(scales), FREQUENCY_TRIALS)
    counts = np.random.default_rng(stream_seed).multinomial(shots, probs[:, np.newaxis, np.newaxis, :])
    bounds = FREQUENCY_ENVELOPE / np.sqrt(scales)
    devs = np.abs(counts[..., 1] / scales[:, np.newaxis] - np.array(targets)[:, np.newaxis, np.newaxis])
    ok = ((devs < bounds[:, np.newaxis]).mean(axis=2) >= FREQUENCY_PASS_FRACTION).all()
    worst = devs.max(axis=2)
    return CheckResult(
        name="axiom1-frequency-convergence",
        status="pass" if ok else "fail",
        max_deviation=float(worst.max()),
        witnesses={
            "targets": {
                str(p_true): {str(n): {"max_deviation": dev, "bound": bound}
                              for n, dev, bound in zip(FREQUENCY_SCALES, row, bounds.tolist())}
                for p_true, row in zip(targets, worst.tolist())
            },
            "trials": FREQUENCY_TRIALS,
        },
    )


def _power_law_check(theory: Theory, seed: int) -> CheckResult:
    table = {m: frame_size(m, theory.units) for m in range(1, POWER_LAW_N_MAX + 1)}
    expected = 2 if theory.units else 1
    r = fit_power_law(table)  # None unless the table is completely multiplicative and K = N^r
    ok = r == expected
    witnesses: dict[str, Any] = {"table": {str(k): v for k, v in table.items()}, "exponent": r}
    if not ok:
        witnesses["reason"] = "no K = N^r fits the table" if r is None else f"exponent {r}, expected {expected}"
    return CheckResult(
        name="axiom2-simplicity-power-law",
        status="pass" if ok else "fail",
        max_deviation=0.0 if ok else None,
        witnesses=witnesses,
    )


def _subspace_check(theory: Theory, seed: int) -> CheckResult:
    """Axiom 3 on every pair of basis indices, and on the first three when
    the theory has units: both deviations of each subset within ``ATOL``."""
    n = theory.dimension
    subsets = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if theory.units and n >= 3:
        subsets.append((0, 1, 2))
    deviation = float(check_subspace_axiom(theory, subsets).max(initial=0.0))
    return CheckResult(
        name="axiom3-subspaces",
        status="pass" if deviation <= ATOL else "fail",
        max_deviation=deviation,
        witnesses={"subsets": [[i + 1 for i in w] for w in subsets]},
    )


def _composite_check(theory: Theory, seed: int) -> CheckResult:
    """Axiom 4 at 2 x 2, whatever the theory's dimension: the rank of the
    product fiducials of two dimension-2 frames against K(4)."""
    rank = dof_count_check(theory.units, 2, 2)
    expected = frame_size(4, theory.units)
    return CheckResult(
        name="axiom4-composite-dof",
        status="pass" if rank == expected else "fail",
        max_deviation=float(abs(rank - expected)),
        witnesses={"rank": rank, "expected": expected, "dimensions": [2, 2]},
    )


def _continuity_check(theory: Theory, seed: int) -> CheckResult:
    if not theory.units:
        if theory.dimension < 2:
            return CheckResult(
                name="axiom5-continuity",
                status="pass",
                max_deviation=0.0,
                witnesses={"note": "single pure state; no pair to connect"},
            )
        report = continuity_probe(theory, theory.basis_r[0], theory.basis_r[1], steps=CONTINUITY_STEPS)
        # a NaN in D makes the segment's purities NaN: that is no evidence of a mixed interior
        expected_fail = not report.pure_path and np.isfinite(report.max_deviation)
        return CheckResult(
            name="axiom5-continuity",
            status="expected-fail" if expected_fail else "fail",
            max_deviation=report.max_deviation,
            witnesses={"midpoint_purity": report.midpoint_purity, "note": "no continuous pure path exists classically"},
        )
    # one draw, in the order of a loop over pairs, then endpoints, then the Re and Im parts
    n = theory.dimension
    rng = np.random.default_rng(derive_seed(seed, 5))
    gauss = rng.standard_normal((CONTINUITY_PAIRS, 2, 2, n))
    psis = (gauss[:, :, 0] + 1j * gauss[:, :, 1]).reshape(-1, n)
    psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
    rs = theory.r_of(psis[:, :, None] * psis.conj()[:, None, :]).reshape(CONTINUITY_PAIRS, 2, -1)
    reports = continuity_probe(theory, rs[:, 0], rs[:, 1], steps=CONTINUITY_STEPS)
    return CheckResult(
        name="axiom5-continuity",
        status="pass" if all(r.pure_path for r in reports) else "fail",
        max_deviation=float(np.max([(r.max_deviation, r.endpoint_deviation) for r in reports], initial=0.0)),
        witnesses={"pairs": CONTINUITY_PAIRS, "steps": CONTINUITY_STEPS},
    )


def _basis_check(theory: Theory, seed: int) -> CheckResult:
    deviation = check_basis_distinguishability(theory)
    return CheckResult(name="basis-distinguishability", status="pass" if deviation <= ATOL else "fail",
                       max_deviation=deviation)


def _linearity_check(theory: Theory, seed: int) -> CheckResult:
    deviation = check_linearity(theory, np.random.default_rng(derive_seed(seed, 6)))
    return CheckResult(
        name="measurement-linearity",
        status="pass" if deviation <= LINEARITY_RTOL else "fail",
        max_deviation=deviation,
        witnesses={"pairs": LINEARITY_PAIRS},
    )


# The suite's checks, in report order; each maps (theory, seed) to its CheckResult.
SUITE_CHECKS: tuple[Callable[[Theory, int], CheckResult], ...] = (
    _frequency_check, _power_law_check, _subspace_check, _composite_check, _continuity_check,
    _basis_check, _linearity_check,
)


def run_axiom_suite(theory_name: str, n: int, seed: int) -> SuiteReport:
    """Run every check of ``SUITE_CHECKS`` against one theory instance, at the
    sample budgets and tolerances in ``frames``.

    For the classical theory the continuity check is expected to fail;
    that expectation is recorded as status "expected-fail", which counts
    as an overall pass (the asymmetry is the point).
    """
    theory = theory_by_name(theory_name, n)
    checks = tuple(check(theory, seed) for check in SUITE_CHECKS)
    return SuiteReport(theory=theory_name, dimension=n, seed=seed, checks=checks)


# ---------------------------------------------------------------------------
# Config-driven reports
# ---------------------------------------------------------------------------


def _read_config(path: str | Path) -> dict[str, Any] | configparser.ConfigParser:
    """A config file's JSON object, or its INI-style sections."""
    try:
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise GptError(f"{path} is not valid JSON / UTF-8: {exc}") from None
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
        for section in parser.sections():
            parser.items(section)  # a bad %-interpolation raises only on reading
    except configparser.Error as exc:
        raise GptError(" ".join(str(exc).split())) from None
    return parser


def load_config(path: str | Path) -> tuple[int | None, list[dict[str, Any]]]:
    """Load a pipeline config; JSON and INI-style key-value are accepted."""
    config = _read_config(path)
    if isinstance(config, dict):
        seed = _seed(config) if config.get("seed") is not None else None
        entries = config.get("pipelines", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise GptError("pipelines must be a list of objects")
        pipelines = [{"name": entry.get("kind", f"pipeline{idx}"), **entry}
                     for idx, entry in enumerate(entries)]
        return seed, pipelines
    seed, pipelines = None, []
    for section in config.sections():
        params = dict(config.items(section))
        tokens = section.split(None, 1)
        kind = tokens[0].lower()
        if kind == "report":
            if "seed" in params:
                seed = _seed(params)
            continue
        name = tokens[1] if len(tokens) > 1 else kind
        pipelines.append({"kind": kind, "name": name, **params})
    return seed, pipelines


def load_experiment(path: str | Path) -> dict[str, Any]:
    """Parameters of a single-experiment config: its ``[experiment]``
    section, or a flat JSON object."""
    config = _read_config(path)
    if isinstance(config, dict):
        return config
    if not config.has_section("experiment"):
        raise GptError("simulate config needs an [experiment] section")
    return dict(config.items("experiment"))


def _read_input(base: Path, name: Any) -> dict[str, Any]:
    """The JSON object in the input file ``name``, relative to ``base``; a
    file that cannot be read is a GptError, so it fails only its section."""
    try:
        return serialize.read_json(base / str(name))
    except OSError as exc:
        raise GptError(f"cannot read {name}: {exc.strerror or exc}") from None


def _write_output(out_dir: Path, params: dict[str, Any], key: str, payload: dict) -> None:
    """Write ``payload`` to the file ``params[key]`` in ``out_dir``; a name
    that is not a string or a file that cannot be written is a GptError, so
    it fails only its section."""
    name = params[key]
    if not isinstance(name, str):
        raise GptError(f"{key} = {name!r} is not a file name")
    try:
        serialize.write_json(out_dir / name, payload)
    except OSError as exc:
        raise GptError(f"cannot write {name!r}: {exc.strerror or exc}") from None


def _resolve_preparation(spec: str, theory: Theory, base: Path) -> np.ndarray:
    if spec == "null":
        return np.zeros(theory.k)
    if spec == "maximally-mixed":
        return theory.basis_p.mean(axis=0)
    if spec.startswith("basis:"):
        idx = _number({"basis": spec.split(":", 1)[1]}, "basis") - 1
        if not 0 <= idx < theory.dimension:
            raise GptError(f"basis index out of range in {spec!r}")
        return theory.basis_p[idx]
    if spec.startswith("mix:"):
        lam = _number({"mix": spec.split(":", 1)[1]}, "mix", float)
        if theory.dimension < 2:
            raise GptError(f"{spec!r} needs two basis states, the theory has n = {theory.dimension}")
        return mix([theory.basis_p[0], theory.basis_p[1]], [lam, 1.0 - lam])
    if spec.startswith("file:"):
        kind, n, values = serialize.state_from_dict(_read_input(base, spec.split(":", 1)[1]))
        if n != theory.dimension:
            raise GptError(f"preparation dimension {n} does not match n = {theory.dimension}")
        if kind == "rho":
            return theory.d @ theory.r_of(values)
        if values.shape[0] != theory.k:
            raise GptError(f"preparation vector length {values.shape[0]} does not match K = {theory.k}")
        return theory.d @ values if kind == "r" else values
    raise GptError(f"unknown preparation spec {spec!r}")


def _resolve_partition(spec: str, theory: Theory, base: Path) -> tuple[np.ndarray, ...]:
    if spec == "basis":
        return tuple(theory.basis_r)
    if spec == "identity":
        return (theory.r_identity,)
    if spec.startswith("file:"):
        payload = _read_input(base, spec.split(":", 1)[1])
        vectors = _float_array(_required(payload, "vectors"))
        if vectors.ndim != 2 or vectors.shape[1] != theory.k:
            raise GptError(f"partition vectors must be a list of length-{theory.k} vectors")
        return tuple(vectors)
    raise GptError(f"unknown partition spec {spec!r}")


def _read_map(spec: str, base: Path, theory: Theory | None = None) -> tuple[KrausSet, Theory, np.ndarray]:
    """The map of a ``unitary:<path>`` or ``kraus:<path>`` spec, the theory
    its Z is built in (``theory``, or the quantum theory of the map's
    dimension) and that Z."""
    kind, _, path = spec.partition(":")
    if kind not in ("unitary", "kraus"):
        raise GptError(f"unknown transform spec {spec!r}")
    payload = _read_input(base, path)
    unitary = kind == "unitary"
    kraus = KrausSet(serialize.operator_from_dict(payload) if unitary else serialize.kraus_from_dict(payload))
    theory = theory or quantum_theory(kraus.dimension)
    z = z_from_unitary(kraus.operators[0], theory) if unitary else z_from_kraus(kraus, theory)
    return kraus, theory, z


def build_experiment(params: dict[str, Any], seed: int, base: Path) -> Experiment:
    """Build an Experiment from config parameters (see README for the grammar)."""
    theory = theory_by_name(str(params.get("theory", "quantum")), _number(params, "n", default=2))
    prep = _resolve_preparation(str(params.get("preparation", "basis:1")), theory, base)
    partition = _resolve_partition(str(params.get("partition", "basis")), theory, base)
    spec = str(params.get("transform", "none"))
    transform = None if spec in ("", "none") else _read_map(spec, base, theory)[2]
    return Experiment(
        theory=theory,
        preparation=prep,
        partition=partition,
        shots=_number(params, "shots", default=10_000),
        seed=seed,
        transform=transform,
    )


def _flag(params: dict[str, Any], key: str) -> bool:
    """A boolean parameter: a bool, or an INI word such as ``yes`` or ``off``."""
    word = str(params.get(key, False)).lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise GptError(f"{key} = {params[key]!r} is not a boolean")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _run_frame_pipeline(params: dict[str, Any], seed: int, base: Path, out_dir: Path) -> dict[str, Any]:
    n = _number(params, "n")
    frame = build_canonical_frame(n)
    d = build_general_d(n)
    details: dict[str, Any] = {"dimension": n, "k": frame.k}
    if "out" in params:
        _write_output(out_dir, params, "out", serialize.frame_to_dict(frame))
        details["out"] = params["out"]
    if "dmat_out" in params:
        _write_output(out_dir, params, "dmat_out", serialize.dmatrix_to_dict(d, n))
        details["dmat_out"] = params["dmat_out"]
    return {"status": "pass", "max_deviation": 0.0, "details": details}


def _run_verify_pipeline(params: dict[str, Any], seed: int, base: Path, out_dir: Path) -> dict[str, Any]:
    report = run_axiom_suite(str(params.get("theory", "quantum")), _number(params, "n", default=2), seed)
    worst = max((c.max_deviation for c in report.checks if c.max_deviation is not None), default=0.0)
    return {
        "status": "pass" if report.passed else "fail",
        "max_deviation": worst,
        "details": report.to_json(),
    }


def _run_bloch_pipeline(params: dict[str, Any], seed: int, base: Path, out_dir: Path) -> dict[str, Any]:
    p = D2Params(
        a=_number(params, "a", float), b=_number(params, "b", float), c=_number(params, "c", float)
    )
    lo, hi = c_bounds(p.a, p.b)
    surface = classify_surface(a_matrix(p))
    inside = lo < p.c < hi
    d = d2_assemble(p)
    details: dict[str, Any] = {
        "a": p.a,
        "b": p.b,
        "c": p.c,
        "c_minus": lo,
        "c_plus": hi,
        "classification": surface.kind.value,
        "eigenvalues": list(surface.eigenvalues),
        "det_d": float(np.linalg.det(d)),
        "inside_bounds": inside,
    }
    if _flag(params, "projectors"):
        rec = recover_phases(d)
        details["phases"] = {"phi3": rec.phi3, "phi4": rec.phi4}
        details["projectors"] = serialize.complex_to_json(frame_from_phases(rec).projectors)
    # a degenerate surface lies on the boundary, to PSD_TOL, so either side of the bounds fits it
    consistent = surface.kind is SurfaceKind.DEGENERATE or inside == (surface.kind is SurfaceKind.ELLIPSOID)
    return {"status": "pass" if consistent else "fail", "max_deviation": 0.0, "details": details}


def _run_transform_pipeline(params: dict[str, Any], seed: int, base: Path, out_dir: Path) -> dict[str, Any]:
    kind = "unitary" if "unitary" in params else "kraus"
    if kind not in params:
        raise GptError("transform pipeline needs a 'unitary' or 'kraus' file")
    kraus, theory, z = _read_map(f"{kind}:{params[kind]}", base)
    cp = is_completely_positive(kraus)  # a Kraus form is its own proof of complete positivity
    nonincreasing = is_trace_nonincreasing(kraus)
    details = {
        "dimension": theory.dimension,
        "z": z,
        "provenance": f"from-{kind}",
        "trace_nonincreasing": nonincreasing,
        "trace_preserving": is_trace_preserving(kraus),
        "completely_positive": cp,
        "reversible": is_reversible(kraus),
    }
    return {
        "status": "pass" if (cp and nonincreasing) else "fail",
        "max_deviation": 0.0,
        "details": details,
    }


def _run_composite_pipeline(params: dict[str, Any], seed: int, base: Path, out_dir: Path) -> dict[str, Any]:
    rho = serialize.operator_from_dict(_read_input(base, _required(params, "rho")))
    na, nb = _number(params, "na"), _number(params, "nb")
    ta, tb = quantum_theory(na), quantum_theory(nb)
    pt = composite_from_density(rho, ta, tb)

    rng = np.random.default_rng(derive_seed(seed, 7))
    worst = 0.0
    for _ in range(COMPOSITE_LAW_SAMPLES):
        ua, ub = haar_unitary(rng, na), haar_unitary(rng, nb)
        za = z_from_unitary(ua, ta)
        zb = z_from_unitary(ub, tb)
        left = local_transform(pt, za, zb)
        if not np.isfinite(left).all():  # finite entries near the float limit overflow
            raise GptError("the transformation law Z_A p_tilde Z_B^T of this state overflows to a non-finite entry")
        u = np.kron(ua, ub)
        right = composite_from_density(u @ rho @ u.conj().T, ta, tb)
        worst = max(worst, float(np.abs(left - right).max()))
    rank = dof_count_check(ta.units, na, nb)
    expected = frame_size(na * nb)
    ok = worst <= PSD_TOL * max(1.0, np.abs(pt).max()) and rank == expected
    return {
        "status": "pass" if ok else "fail",
        "max_deviation": worst,
        "details": {
            "p_tilde": serialize.composite_to_dict(pt),
            "joint_normalization": joint_normalization(pt, ta.r_identity, tb.r_identity),
            "transform_law_deviation": worst,
            "dof_rank": rank,
            "dof_expected": expected,
        },
    }


def _run_simulate_pipeline(params: dict[str, Any], seed: int, base: Path, out_dir: Path) -> dict[str, Any]:
    exp = build_experiment(params, seed, base)
    payload = serialize.counts_to_dict(simulate(exp), exp.shots, exp.seed)
    if "out" in params:
        _write_output(out_dir, params, "out", payload)
    return {"status": "pass", "max_deviation": 0.0, "details": payload}


# Every workflow, keyed by its section kind. Each maps (params, seed, base,
# out_dir) to {"status", "max_deviation", "details"}: input files are read
# relative to ``base`` and output files are written into ``out_dir``. The
# CLI subcommands and the sections of ``gpt report`` both run these.
PIPELINES: dict[str, Callable[[dict[str, Any], int, Path, Path], dict[str, Any]]] = {
    "frame": _run_frame_pipeline,
    "verify": _run_verify_pipeline,
    "bloch": _run_bloch_pipeline,
    "transform": _run_transform_pipeline,
    "composite": _run_composite_pipeline,
    "simulate": _run_simulate_pipeline,
}


def run_report(config_path: str | Path, out_dir: str | Path, seed: int | None = None) -> tuple[int, dict]:
    """Execute the pipelines named in a config file and write report files.

    Writes ``report.json`` and ``report.csv`` into ``out_dir``. Returns
    (exit_code, report): exit code 0 iff every pipeline passed (an
    expected failure, e.g. the classical continuity probe, counts as a
    pass). A section's ``seed`` key overrides the seed derived for it from
    the root seed.
    """
    config_path = Path(config_path)
    config_seed, pipelines = load_config(config_path)
    root_seed = _seed({"seed": seed}) if seed is not None else (config_seed or 0)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = config_path.parent

    results = []
    all_ok = True
    for index, pipeline in enumerate(pipelines):
        kind = str(pipeline.get("kind", "")).lower()
        name = str(pipeline.get("name", kind))
        params = {k: v for k, v in pipeline.items() if k not in ("kind", "name", "seed")}
        try:
            if kind not in PIPELINES:
                raise GptError(f"unknown pipeline kind {kind!r}")
            section_seed = _seed(pipeline, default=derive_seed(root_seed, 100, index))
            outcome = PIPELINES[kind](params, section_seed, base, out_dir)
        except GptError as exc:
            outcome = {"status": "error", "max_deviation": None, "details": {"error": str(exc)}}
        all_ok = all_ok and outcome["status"] in OK_STATUSES
        results.append({"kind": kind, "name": name, **outcome})

    report = {"seed": root_seed, "pipelines": results}
    serialize.write_json(out_dir / "report.json", report)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kind", "name", "status", "max_deviation"])
    for row in results:
        deviation = "" if row["max_deviation"] is None else repr(row["max_deviation"])
        writer.writerow([row["kind"], row["name"], row["status"], deviation])
    (out_dir / "report.csv").write_text(buffer.getvalue())

    return (0 if all_ok else 1), report
