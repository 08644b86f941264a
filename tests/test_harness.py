import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gptkit.axioms
import gptkit.bloch
import gptkit.composite
import gptkit.dynamics
import gptkit.states

from gptkit import harness, serialize
from gptkit import (
    Experiment,
    GptError,
    InvalidExperimentError,
    Theory,
    check_subspace_axiom,
    classical_theory,
    derive_seed,
    mix,
    quantum_theory,
    run_axiom_suite,
    run_report,
    simulate,
    theory_by_name,
)
from gptkit.cli import main
from gptkit.frames import ATOL

QT2 = quantum_theory(2)
QT3 = quantum_theory(3)


def basis_experiment(prep, shots, seed):
    return Experiment(
        theory=QT2,
        preparation=prep,
        partition=tuple(QT2.basis_r),
        shots=shots,
        seed=seed,
    )


class TestExperimentValidation:
    def test_partition_must_sum_to_identity(self):
        with pytest.raises(InvalidExperimentError):
            Experiment(
                theory=QT2,
                preparation=QT2.basis_p[0],
                partition=(QT2.basis_r[0],),
                shots=10,
                seed=0,
            )

    def test_negative_branch_probability_rejected(self):
        bad_prep = np.array([-0.5, 0.2, 0.0, 0.0])
        exp = basis_experiment(bad_prep, shots=10, seed=0)
        with pytest.raises(InvalidExperimentError):
            simulate(exp)

    def test_negative_shots_rejected(self):
        with pytest.raises(InvalidExperimentError):
            basis_experiment(QT2.basis_p[0], shots=-1, seed=0)

    def test_partition_vector_shorter_than_the_identity_rejected(self):
        with pytest.raises(InvalidExperimentError, match="partition vector has shape \\(3,\\)"):
            Experiment(theory=QT2, preparation=QT2.basis_p[0], partition=tuple(QT2.basis_r[:, :3]),
                       shots=10, seed=0)

    def test_ragged_partition_rejected(self):
        partition = [QT2.basis_r[0].tolist(), [*QT2.basis_r[1].tolist(), 0.0]]
        with pytest.raises(InvalidExperimentError, match="partition vector has shape \\(5,\\)"):
            Experiment(theory=QT2, preparation=QT2.basis_p[0], partition=partition, shots=10, seed=0)

    @pytest.mark.parametrize("shape", [(4,), (4, 9), (9, 9)])
    def test_transform_that_is_not_k_by_k_rejected(self, shape):
        with pytest.raises(InvalidExperimentError, match=re.escape(f"transform has shape {shape}, not (4, 4)")):
            Experiment(theory=QT2, preparation=QT2.basis_p[0], partition=tuple(QT2.basis_r),
                       shots=10, seed=0, transform=np.zeros(shape))

    def test_preparation_of_the_wrong_length_rejected(self):
        with pytest.raises(InvalidExperimentError, match="preparation has shape \\(9,\\)"):
            basis_experiment(QT3.basis_p[0], shots=10, seed=0)

    def test_partition_is_stacked_once(self):
        exp = basis_experiment(QT2.basis_p[0], shots=10, seed=0)
        assert exp.partition.shape == (2, 4)
        assert np.array_equal(exp.partition, QT2.basis_r)

    def test_shots_beyond_int64_rejected(self):
        basis_experiment(QT2.basis_p[0], shots=2**63 - 1, seed=0)
        with pytest.raises(InvalidExperimentError, match="exceeds 2\\*\\*63 - 1"):
            basis_experiment(QT2.basis_p[0], shots=2**63, seed=0)


class TestSimulate:
    def test_basis_state_always_hits_its_outcome(self):
        counts = simulate(basis_experiment(QT2.basis_p[0], shots=10_000, seed=3))
        assert counts[1] == 10_000
        assert counts[0] == 0

    def test_null_state_gives_all_nulls(self):
        counts = simulate(basis_experiment(np.zeros(4), shots=5_000, seed=3))
        assert counts[0] == 5_000

    def test_equal_mixture_concentrates_at_half(self):
        prep = mix([QT2.basis_p[0], QT2.basis_p[1]], [0.5, 0.5])
        counts = simulate(basis_experiment(prep, shots=1_000_000, seed=11))
        freqs = counts / 1_000_000
        assert abs(freqs[1] - 0.5) < 0.005
        assert abs(freqs[2] - 0.5) < 0.005

    def test_deterministic_given_seed(self):
        prep = mix([QT2.basis_p[0], QT2.basis_p[1]], [0.3, 0.7])
        a = simulate(basis_experiment(prep, shots=100_000, seed=99))
        b = simulate(basis_experiment(prep, shots=100_000, seed=99))
        assert (a == b).all()
        c = simulate(basis_experiment(prep, shots=100_000, seed=98))
        assert (a != c).any()

    def test_subnormalized_state_feeds_null_outcome(self):
        prep = 0.25 * QT2.basis_p[0]
        counts = simulate(basis_experiment(prep, shots=1_000_000, seed=5))
        assert abs(counts[0] / 1_000_000 - 0.75) < 0.005

    def test_coin_flip_preparation_matches_mixture(self):
        # two-stage sampling: flip, then measure the chosen preparation
        lam, shots = 0.3, 1_000_000
        rng = np.random.default_rng(derive_seed(17, 0))
        flips = rng.random(shots) < lam
        n_a = int(flips.sum())
        counts_a = simulate(basis_experiment(QT2.basis_p[0], shots=n_a, seed=derive_seed(17, 1)))
        counts_b = simulate(
            basis_experiment(QT2.basis_p[1], shots=shots - n_a, seed=derive_seed(17, 2))
        )
        two_stage = (counts_a + counts_b) / shots

        mixed = mix([QT2.basis_p[0], QT2.basis_p[1]], [lam, 1.0 - lam])
        direct = simulate(basis_experiment(mixed, shots=shots, seed=derive_seed(17, 3)))
        envelope = 5.0 / np.sqrt(shots)
        assert np.abs(two_stage - direct / shots).max() < envelope

    def test_three_outcomes_with_null_match_their_probabilities(self):
        shots = 1_000_000
        prep = 0.9 * mix(list(QT3.basis_p), [0.5, 0.3, 0.2])
        exp = Experiment(theory=QT3, preparation=prep, partition=tuple(QT3.basis_r), shots=shots, seed=21)
        probs = np.array([0.1, 0.45, 0.27, 0.18])
        assert harness.outcome_probabilities(exp) == pytest.approx(probs)
        sigma = np.sqrt(probs * (1.0 - probs) / shots)
        assert (np.abs(simulate(exp) / shots - probs) < 5.0 * sigma).all()

    def test_probabilities_up_to_one_plus_atol_are_normalised(self):
        # numpy's multinomial refuses a probability above 1; outcome_probabilities allows 1 + ATOL
        prep = (1.0 + 0.9 * ATOL) * QT2.basis_p[0]
        counts = simulate(basis_experiment(prep, shots=1_000, seed=4))
        assert counts.tolist() == [0, 1_000, 0]

    def test_clipped_branches_summing_past_one_plus_atol_are_normalised(self):
        # two branches at -0.9 ATOL clip to 0 and lift the null to 0.9 ATOL: the sum is 1 + 1.8 ATOL
        r_id = QT2.r_identity
        partition = ((1.0 + 0.9 * ATOL) * r_id, -0.9 * ATOL * r_id, -0.9 * ATOL * r_id)
        exp = Experiment(theory=QT2, preparation=QT2.basis_p[0], partition=partition, shots=1_000, seed=4)
        assert harness.outcome_probabilities(exp).sum() > 1.0 + 1.5 * ATOL
        assert simulate(exp).tolist() == [0, 1_000, 0, 0]

    def test_zero_shots_give_zero_counts(self):
        prep = mix([QT2.basis_p[0], QT2.basis_p[1]], [0.5, 0.5])
        counts = simulate(basis_experiment(prep, shots=0, seed=1))
        assert counts.dtype == np.int64 and counts.tolist() == [0, 0, 0]


class TestAxiomSuite:
    @pytest.mark.parametrize("n", [2, 3])
    def test_quantum_instances_pass(self, n):
        report = run_axiom_suite("quantum", n, seed=123)
        assert report.passed
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["axiom5-continuity"] == "pass"
        assert statuses["axiom2-simplicity-power-law"] == "pass"

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_larger_quantum_instances_pass(self, n, budget):
        budget(CONTINUITY_PAIRS=2, CONTINUITY_STEPS=40)
        report = run_axiom_suite("quantum", n, seed=123)
        assert report.passed

    def test_classical_instance_passes_with_expected_continuity_failure(self):
        report = run_axiom_suite("classical", 2, seed=123)
        assert report.passed
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["axiom5-continuity"] == "expected-fail"
        continuity = next(c for c in report.checks if c.name == "axiom5-continuity")
        assert continuity.witnesses["midpoint_purity"] == pytest.approx(0.5)

    def test_continuity_fails_when_the_path_misses_its_endpoint(self, monkeypatch, capsys, budget):
        probe = harness.continuity_probe

        def missed_endpoint(*args, **kwargs):
            return tuple(dataclasses.replace(r, endpoint_deviation=0.5) for r in probe(*args, **kwargs))

        monkeypatch.setattr(harness, "continuity_probe", missed_endpoint)
        budget(CONTINUITY_PAIRS=2, CONTINUITY_STEPS=20)
        report = run_axiom_suite("quantum", 3, seed=123)
        continuity = next(c for c in report.checks if c.name == "axiom5-continuity")
        assert continuity.status == "fail"
        assert continuity.max_deviation == 0.5
        assert not report.passed
        code = main(["verify", "--theory", "quantum", "--n", "3"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_continuity_endpoints_are_the_per_vector_draws(self, monkeypatch):
        """One (pairs, 2, 2, n) draw yields the numbers, in order, of a loop
        that draws each endpoint's real and then imaginary parts."""
        theory, seed = quantum_theory(3), 11
        make_rng, draws, endpoints = np.random.default_rng, [], []

        class Recording:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def standard_normal(self, size):
                draws.append(self.rng.standard_normal(size))
                return draws[-1]

        def capture(theory, r_a, r_b, steps):
            endpoints.append((r_a, r_b))
            return probe(theory, r_a, r_b, steps)

        probe = harness.continuity_probe
        monkeypatch.setattr(np.random, "default_rng", Recording)
        monkeypatch.setattr(harness, "continuity_probe", capture)
        assert harness._continuity_check(theory, seed).status == "pass"

        loop_rng = make_rng(derive_seed(seed, 5))
        loop = [loop_rng.standard_normal(3) + 1j * loop_rng.standard_normal(3)
                for _ in range(2 * harness.CONTINUITY_PAIRS)]
        assert len(draws) == 1 and draws[0].shape == (harness.CONTINUITY_PAIRS, 2, 2, 3)
        assert np.array_equal(draws[0][:, :, 0] + 1j * draws[0][:, :, 1], np.reshape(loop, (-1, 2, 3)))
        expected = [theory.r_of(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real) for psi in loop]
        assert len(endpoints) == 1  # every pair in one call, r_a and r_b each a (pairs, K) stack
        r_a, r_b = endpoints[0]
        assert r_a.shape == r_b.shape == (harness.CONTINUITY_PAIRS, theory.k)
        assert_allclose(np.stack([r_a, r_b], axis=1).reshape(-1, theory.k), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 16])
    def test_overlap_mutant_d_fails_continuity(self, n):
        """D with every 1/4 entry set to 0.3 stays positive definite, and
        r_of does not read it; the purity r^T D r along each path does."""
        theory = quantum_theory(n)
        mutant = theory.d.copy()
        mutant[mutant == 0.25] = 0.3
        result = harness._continuity_check(dataclasses.replace(theory, d=mutant), seed=0)
        assert result.status == "fail"
        assert result.max_deviation > 0.05

    def test_quantum_n16_suite_builds_no_frame(self, monkeypatch):
        # the frames the suite builds are the axiom-3 references, at a subspace's
        # size, and the axiom-4 frame at dimension 2
        original, sizes = gptkit.axioms.build_canonical_frame, []

        def record(n, units="xy"):
            sizes.append(n)
            return original(n, units)

        for module in (gptkit.axioms, gptkit.composite, harness):
            monkeypatch.setattr(module, "build_canonical_frame", record)
        report = run_axiom_suite("quantum", 16, seed=3)
        assert [c.status for c in report.checks] == ["pass"] * 7
        assert set(sizes) == {2, 3}

    def test_quantum_n16_suite_has_no_k_sized_linear_algebra(self, monkeypatch):
        """No decomposition or solve in the n = 16 suite gets a matrix with a
        side above N = 16, such as D at K = 256."""
        sides = {}

        def recording(name, original):
            def record(a, *args, **kwargs):
                sides.setdefault(name, []).append(max(np.shape(a)[-2:]))
                return original(a, *args, **kwargs)
            return record

        for name in ("eigvalsh", "eigh", "svd", "matrix_rank", "solve"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        run_axiom_suite("quantum", 16, seed=0)
        assert "matrix_rank" in sides  # the axiom-4 rank goes through the patched functions
        assert {name: max(found) for name, found in sides.items() if max(found) > 16} == {}

    def test_classical_d_off_the_identity_fails_the_subspace_check(self):
        d = np.eye(3)
        d[0, 1] = d[1, 0] = 0.1
        result = harness._subspace_check(dataclasses.replace(classical_theory(3), d=d), seed=0)
        assert result.status == "fail"
        assert result.max_deviation == pytest.approx(0.1)
        assert result.witnesses["subsets"] == [[1, 2], [1, 3], [2, 3]]

    def test_classical_subspace_check_reads_check_subspace_axiom(self, monkeypatch, budget):
        def off_identity(*args, **kwargs):
            return check_subspace_axiom(*args, **kwargs) + 0.1

        monkeypatch.setattr(harness, "check_subspace_axiom", off_identity)
        budget(CONTINUITY_STEPS=20)
        report = run_axiom_suite("classical", 3, seed=123)
        subspaces = next(c for c in report.checks if c.name == "axiom3-subspaces")
        assert subspaces.status == "fail"
        assert not report.passed

    def test_suite_runs_the_check_table_in_order(self, monkeypatch):
        report = run_axiom_suite("quantum", 2, seed=4)
        assert [c.name for c in report.checks] == [c(QT2, 4).name for c in harness.SUITE_CHECKS]
        monkeypatch.setattr(harness, "SUITE_CHECKS", harness.SUITE_CHECKS[::-1])
        assert run_axiom_suite("quantum", 2, seed=4).checks == report.checks[::-1]

    def test_report_serializes(self):
        report = run_axiom_suite("classical", 2, seed=5)
        payload = report.to_json()
        assert payload["passed"] is True
        assert {c["check_name"] for c in payload["checks"]} >= {
            "axiom1-frequency-convergence",
            "axiom5-continuity",
        }


def overlap_mutant(d):
    """Every 1/4 entry, between distinct overlapping pairs, set to 0.3: D stays
    positive definite (smallest eigenvalue 0.20) and is off the projector
    Gram matrix by 0.05."""
    d[d == 0.25] = 0.3


def basis_mutant(d):
    """Two basis fiducials that overlap."""
    d[0, 1] = d[1, 0] = 0.1


def in_d(mutant):
    """A row mutation: ``mutant`` applied to the theory's D alone, so its basis
    p-vectors stay those of the clean D."""
    def mutate(theory):
        d = theory.d.copy()
        mutant(d)
        return dataclasses.replace(theory, d=d)
    return mutate


def builder_with(mutant):
    """``states.build_general_d``, the builder of every theory's D, with
    ``mutant`` applied to each D it builds."""
    original = gptkit.states.build_general_d

    def mutated(m, units="xy"):
        d = original(m, units)
        mutant(d)
        return d
    return mutated


def in_builder(mutant):
    """A row mutation: the theory rebuilt with ``mutant`` in its D builder,
    so the basis p-vectors (the first N rows of D) follow it."""
    def mutate(theory):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gptkit.states, "build_general_d", builder_with(mutant))
            return theory_by_name(theory.name, theory.dimension)
    return mutate


def nan_mutant(d):
    """A NaN entry between basis fiducial 1 and the last pair fiducial."""
    d[0, -1] = d[-1, 0] = np.nan


# The suite's checks, each mapping (theory, seed) to its result, by column name.
COLUMNS = ("a1", "a2", "a3", "a4", "a5", "basis", "linearity")
SUITE_CHECKS = dict(zip(COLUMNS, harness.SUITE_CHECKS, strict=True))

# Row -> (theory, n, mutation of the theory, status of each of SUITE_CHECKS).
# Known gaps show as cells: no mutant of D turns the axiom-2 or the linearity
# column to fail, since neither reads an entry of D that a mutant moves (both are
# rebuilt on an operational K by ROADMAP item 2). The transform pipeline's
# "completely_positive" is true for every Kraus input (ROADMAP item 6). Axiom 4
# reads the dimension-2 frame, not D, so the D mutants leave it passing; its
# negative control is test_real_units_fail_axiom4.
VERDICT_ROWS = {
    "quantum-3": ("quantum", 3, None, "pass pass pass pass pass pass pass"),
    "quantum-16": ("quantum", 16, None, "pass pass pass pass pass pass pass"),
    "classical-3": ("classical", 3, None, "pass pass pass pass expected-fail pass pass"),
    "overlap-quantum-3": ("quantum", 3, in_d(overlap_mutant), "pass pass fail pass fail pass pass"),
    "overlap-quantum-16": ("quantum", 16, in_d(overlap_mutant), "pass pass fail pass fail pass pass"),
    "basis-quantum-3": ("quantum", 3, in_d(basis_mutant), "pass pass fail pass fail fail pass"),
    "basis-quantum-16": ("quantum", 16, in_d(basis_mutant), "pass pass fail pass fail fail pass"),
    "basis-classical-3": ("classical", 3, in_d(basis_mutant), "pass pass fail pass expected-fail fail pass"),
    "built-basis-quantum-3": ("quantum", 3, in_builder(basis_mutant), "fail pass fail pass fail fail pass"),
    "built-basis-quantum-16": ("quantum", 16, in_builder(basis_mutant), "fail pass fail pass fail fail pass"),
    "built-basis-classical-3": ("classical", 3, in_builder(basis_mutant),
                                "fail pass fail pass expected-fail fail pass"),
    "nan-quantum-3": ("quantum", 3, in_d(nan_mutant), "pass pass fail pass fail fail pass"),
}
VERDICT_CELLS = [(row, check, status) for row, (*_, statuses) in VERDICT_ROWS.items()
                 for check, status in zip(SUITE_CHECKS, statuses.split(), strict=True)]


@pytest.mark.parametrize("row, check, status", VERDICT_CELLS,
                         ids=[f"{row}-{check}" for row, check, _ in VERDICT_CELLS])
def test_verdict_matrix(row, check, status):
    """Each suite check judges the theory's D, not the code that built it."""
    assert SUITE_CHECKS[check](row_theory(row), 0).status == status


def row_theory(row):
    name, n, mutation, _ = VERDICT_ROWS[row]
    theory = theory_by_name(name, n)
    return theory if mutation is None else mutation(theory)


def strict_json(payload):
    """``payload`` through the JSON writer, parsed by a reader that refuses NaN and infinities."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(serialize.dumps(payload), parse_constant=refuse)


def test_real_units_fail_axiom4():
    """Real units ("x") have 3 fiducials at N = 2, so 9 product fiducials
    against the composite's K(4) = 10: no local tomography (Hardy & Wootters,
    arXiv:1005.4870)."""
    d = gptkit.bloch.build_general_d(3, "x")
    basis_r = np.eye(3, len(d))
    real = Theory(name="real", units="x", d=d, r_identity=basis_r.sum(axis=0),
                  basis_r=basis_r, basis_p=d[:3].copy())
    result = strict_json(harness._composite_check(real, 0).to_json())
    assert (result["status"], result["max_deviation"]) == ("fail", 1.0)
    assert result["witnesses"] == {"rank": 9, "expected": 10, "dimensions": [2, 2]}


FAIL_CELLS = [(row, check) for row, check, status in VERDICT_CELLS if status == "fail"]


@pytest.mark.parametrize("row, check", FAIL_CELLS, ids=[f"{row}-{check}" for row, check in FAIL_CELLS])
def test_failed_check_is_strict_json(row, check):
    """A failed check writes a number or null as its deviation, never NaN;
    on a D with a NaN entry it writes null, with a reason."""
    result = strict_json(SUITE_CHECKS[check](row_theory(row), 0).to_json())
    assert result["status"] == "fail"
    if row.startswith("nan-"):
        assert result["max_deviation"] is None
    if result["max_deviation"] is None:
        assert result["witnesses"]["reason"]


def test_nan_d_verify_worst_is_finite_in_any_check_order(monkeypatch):
    """On a D with a NaN entry the verify pipeline's deviation is the largest
    finite one, whatever order the checks run in."""
    monkeypatch.setattr(harness, "theory_by_name", lambda name, n: row_theory("nan-quantum-3"))
    outcomes = []
    for checks in (harness.SUITE_CHECKS, harness.SUITE_CHECKS[::-1]):
        monkeypatch.setattr(harness, "SUITE_CHECKS", checks)
        outcomes.append(strict_json(harness.PIPELINES["verify"]({"n": 3}, 0, Path(), Path())))
    deviations = [c["max_deviation"] for c in outcomes[0]["details"]["checks"]]
    assert deviations.count(None) == 3
    assert outcomes[0]["max_deviation"] == outcomes[1]["max_deviation"] == max(d for d in deviations if d is not None)


@pytest.mark.parametrize("fit, reason", [(3, "exponent 3, expected 2"), (None, "no K = N^r fits the table")])
def test_failed_power_law_has_a_reason_and_no_deviation(monkeypatch, fit, reason):
    monkeypatch.setattr(harness, "fit_power_law", lambda table: fit)
    result = strict_json(harness._power_law_check(QT2, 0).to_json())
    assert (result["status"], result["max_deviation"]) == ("fail", None)
    assert result["witnesses"]["reason"] == reason


@pytest.mark.parametrize("name, n", [("quantum", 3), ("quantum", 16), ("classical", 3)])
def test_built_basis_mutant_fails_axiom1_inside_the_suite(monkeypatch, name, n):
    """Basis states of a mutant D give outcome probabilities summing to 1.1,
    which the axiom-1 check reports as a failure, not an exception."""
    monkeypatch.setattr(gptkit.states, "build_general_d", builder_with(basis_mutant))
    frequency = run_axiom_suite(name, n, seed=0).checks[0]
    assert (frequency.name, frequency.status) == ("axiom1-frequency-convergence", "fail")
    assert "sum to 1.1" in frequency.witnesses["reason"]
    assert frequency.max_deviation is None
    outcome = strict_json(harness.PIPELINES["verify"]({"theory": name, "n": n}, 0, Path(), Path()))
    deviations = [c["max_deviation"] for c in outcome["details"]["checks"]]
    assert outcome["max_deviation"] == max(d for d in deviations if d is not None)


@pytest.mark.parametrize("n", [3, 16])
def test_overlap_mutant_fails_axiom3_inside_the_suite(monkeypatch, n):
    """The mutant goes into the code that builds every theory's D, at each
    module that binds it, so axiom 3 fails only because its reference comes
    from the projectors, a second route."""
    original = gptkit.bloch.build_general_d

    def mutant(m, units="xy"):
        d = original(m, units)
        overlap_mutant(d)
        return d

    for name, module in list(sys.modules.items()):
        if name.startswith("gptkit") and getattr(module, "build_general_d", None) is original:
            monkeypatch.setattr(module, "build_general_d", mutant)
    statuses = {c.name: c.status for c in run_axiom_suite("quantum", n, seed=0).checks}
    assert statuses["axiom3-subspaces"] == "fail"


class TestFrequencyCheck:
    def test_an_off_target_sampler_fails_at_a_million_shots(self, monkeypatch):
        real = harness.outcome_probabilities

        def shifted(exp):  # moves 0.01 of probability onto or off outcome 1
            probs = real(exp)
            step = 0.01 if probs[1] < 0.5 else -0.01
            return probs + step * np.array([0.0, 1.0, -1.0])

        monkeypatch.setattr(harness, "outcome_probabilities", shifted)
        result = harness._frequency_check(QT2, seed=3)
        assert result.status == "fail"
        for scales in result.witnesses["targets"].values():
            million = scales[str(10**6)]
            assert million["max_deviation"] > million["bound"]

    def test_witnesses_are_one_draw_in_target_scale_trial_order(self):
        """The witnesses are the worst deviation per target and scale of one
        multinomial draw, indexed (target, scale, trial, outcome)."""
        scales, trials = harness.FREQUENCY_SCALES, harness.FREQUENCY_TRIALS
        targets = [0.0, 0.25, 0.5, 1.0]
        probs = np.array([[0.0, p, 1.0 - p] for p in targets])
        shots = np.repeat(scales, trials).reshape(len(scales), trials)
        counts = np.random.default_rng(derive_seed(11, 1)).multinomial(shots, probs[:, None, None, :])
        result = harness._frequency_check(QT2, seed=11)
        assert result.witnesses == {
            "targets": {
                str(p): {str(n): {"max_deviation": float(np.abs(counts[t, s, :, 1] / n - p).max()),
                                  "bound": harness.FREQUENCY_ENVELOPE / np.sqrt(n)}
                         for s, n in enumerate(scales)}
                for t, p in enumerate(targets)
            },
            "trials": trials,
        }
        assert result.max_deviation == max(
            scale["max_deviation"] for target in result.witnesses["targets"].values() for scale in target.values())

    @pytest.mark.parametrize("name, n", [("quantum", 1), ("quantum", 3), ("classical", 2)])
    def test_certain_targets_are_exact_and_bounds_shrink_as_one_over_root_shots(self, name, n):
        targets = harness._frequency_check(theory_by_name(name, n), seed=2).witnesses["targets"]
        assert list(targets) == ["0.0", "0.25", "0.5", "1.0"]
        for p, scales in targets.items():
            assert list(scales) == [str(n) for n in harness.FREQUENCY_SCALES]
            for shots, scale in scales.items():
                assert scale["bound"] == harness.FREQUENCY_ENVELOPE / np.sqrt(int(shots))
                if p in ("0.0", "1.0"):
                    assert scale["max_deviation"] == 0.0
                else:
                    assert 0.0 < scale["max_deviation"] < scale["bound"]

    def test_same_seed_same_witnesses_other_seed_other_witnesses(self):
        first = harness._frequency_check(QT3, seed=5).to_json()
        assert json.dumps(harness._frequency_check(QT3, seed=5).to_json()) == json.dumps(first)
        other = harness._frequency_check(QT3, seed=6).to_json()
        assert other["status"] == first["status"] == "pass"
        assert other["witnesses"] != first["witnesses"]

    def test_suite_derives_three_seeds(self, monkeypatch, budget):
        calls = []

        def counting(*args):
            calls.append(args)
            return derive_seed(*args)

        monkeypatch.setattr(harness, "derive_seed", counting)
        budget(CONTINUITY_PAIRS=2, CONTINUITY_STEPS=20)
        assert run_axiom_suite("quantum", 2, seed=9).passed
        assert sorted(calls) == [(9, 1), (9, 5), (9, 6)]


class TestDeriveSeed:
    def test_deterministic_and_key_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)


INI_CONFIG = """
[report]
seed = 404

[frame f3]
n = 3
out = frame3.frame.json
dmat_out = d3.dmat.json

[bloch sphere]
a = 0.5
b = 0.5
c = 0.5

[verify classical2]
theory = classical
n = 2

[verify quantum3]
theory = quantum
n = 3

[simulate halfsies]
theory = quantum
n = 2
preparation = mix:0.5
partition = basis
shots = 20000
out = counts.json
"""


class TestRunReport:
    def test_ini_config_executes_and_reproduces(self, tmp_path, budget):
        budget(CONTINUITY_STEPS=20, CONTINUITY_PAIRS=2)
        config = tmp_path / "suite.cfg"
        config.write_text(INI_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a, report_a = run_report(config, out_a)
        code_b, report_b = run_report(config, out_b)
        assert code_a == code_b == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (out_a / "frame3.frame.json").exists()
        assert (out_a / "counts.json").exists()
        kinds = [p["kind"] for p in report_a["pipelines"]]
        assert kinds == ["frame", "bloch", "verify", "verify", "simulate"]
        quantum3 = report_a["pipelines"][3]
        assert quantum3["name"] == "quantum3"
        assert quantum3["status"] == "pass"
        assert all(
            c["status"] == "pass" for c in quantum3["details"]["checks"]
        )

    def test_classical_continuity_marked_expected_fail(self, tmp_path, budget):
        budget(CONTINUITY_STEPS=20)
        config = tmp_path / "c.cfg"
        config.write_text("[verify c]\ntheory = classical\nn = 2\n")
        code, report = run_report(config, tmp_path / "out", seed=7)
        assert code == 0
        checks = report["pipelines"][0]["details"]["checks"]
        by_name = {c["check_name"]: c["status"] for c in checks}
        assert by_name["axiom5-continuity"] == "expected-fail"

    def test_verify_budget_keys_are_ignored(self, tmp_path, budget):
        budget(CONTINUITY_PAIRS=2, CONTINUITY_STEPS=20)
        config = tmp_path / "v.cfg"
        config.write_text("[verify v]\nn = 2\ntrials = 0\npairs = 0\nsteps = 0\n")
        code, report = run_report(config, tmp_path / "out", seed=7)
        assert code == 0
        checks = {c["check_name"]: c for c in report["pipelines"][0]["details"]["checks"]}
        assert checks["axiom5-continuity"]["witnesses"] == {
            "pairs": harness.CONTINUITY_PAIRS, "steps": harness.CONTINUITY_STEPS
        }
        assert checks["axiom1-frequency-convergence"]["witnesses"]["trials"] == harness.FREQUENCY_TRIALS

    def test_composite_law_samples_key_is_ignored(self, tmp_path):
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        serialize.write_json(tmp_path / "bell.op.json", serialize.operator_to_dict(bell))
        section = "rho = bell.op.json\nna = 2\nnb = 2\nseed = 3\n"
        config = tmp_path / "c.cfg"
        config.write_text(f"[composite a]\n{section}\n[composite b]\n{section}law_samples = 0\n")
        code, report = run_report(config, tmp_path / "out")
        assert code == 0
        deviation_a, deviation_b = (p["details"]["transform_law_deviation"] for p in report["pipelines"])
        assert deviation_a == deviation_b > 0.0

    def test_empty_config_is_a_passing_report(self, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("")
        code, report = run_report(config, tmp_path / "out")
        assert code == 0
        assert report["pipelines"] == []

    def test_unknown_pipeline_fails_the_report(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("[warp w]\nspeed = 9\n")
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert report["pipelines"][0]["status"] == "error"

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        text = (tmp_path / "out" / "report.json").read_text()
        assert json.loads(text, parse_constant=reject)["pipelines"][0]["max_deviation"] is None
        assert (tmp_path / "out" / "report.csv").read_text().splitlines()[1] == "warp,w,error,"

    def test_bad_boolean_is_a_pipeline_error(self, tmp_path):
        config = tmp_path / "b.cfg"
        config.write_text("[bloch s]\na = 0.5\nb = 0.5\nc = 0.5\nprojectors = maybe\n")
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert "projectors" in report["pipelines"][0]["details"]["error"]

    def test_json_booleans_are_not_numbers(self, tmp_path):
        """A JSON true or false is refused where a number belongs; a flag still takes one."""
        sections = [
            {"kind": "verify", "n": True},
            {"kind": "simulate", "n": 2, "shots": False},
            {"kind": "bloch", "a": True, "b": 0.5, "c": 0.5},
            {"kind": "bloch", "a": 0.5, "b": 0.5, "c": 0.5, "projectors": True},
        ]
        config = tmp_path / "b.json"
        config.write_text(json.dumps({"seed": 1, "pipelines": sections}))
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert [p["status"] for p in report["pipelines"]] == ["error", "error", "error", "pass"]
        assert [p["details"].get("error") for p in report["pipelines"][:3]] == [
            "n = True is not an integer", "shots = False is not an integer", "a = True is not a number"]
        assert "projectors" in report["pipelines"][3]["details"]

    def test_malformed_value_errors_only_its_own_section(self, tmp_path):
        config = tmp_path / "m.cfg"
        config.write_text(
            "[frame f]\nn = 2\n\n[verify v]\nn = abc\n\n"
            "[bloch b]\nseed = x\na = 0.5\nb = 0.5\nc = 0.5\n"
        )
        code, _ = run_report(config, tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [p["status"] for p in report["pipelines"]] == ["pass", "error", "error"]
        assert report["pipelines"][1]["details"]["error"] == "n = 'abc' is not an integer"
        assert report["pipelines"][2]["details"]["error"] == "seed = 'x' is not an integer"

    def test_bad_input_file_or_missing_key_errors_only_its_own_section(self, tmp_path):
        (tmp_path / "bad.json").write_text("{")
        config = tmp_path / "r.cfg"
        config.write_text(
            "[frame f]\nn = 2\n\n[composite c]\nna = 2\nnb = 2\n\n"
            "[transform t]\nunitary = nope.op.json\n\n"
            "[composite d]\nrho = bad.json\nna = 1\nnb = 1\n"
        )
        code, _ = run_report(config, tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [p["status"] for p in report["pipelines"]] == ["pass", "error", "error", "error"]
        errors = [p["details"].get("error", "") for p in report["pipelines"]]
        assert errors[1] == "missing parameter 'rho'"
        assert errors[2].startswith("cannot read ") and "nope.op.json" in errors[2]
        assert "bad.json is not valid JSON" in errors[3]

    @pytest.mark.parametrize(
        "section, error",
        [
            ("[verify v]\ntheory = real\nn = 2\n", "unknown theory 'real'"),
            ("[frame f]\nout = f.frame.json\n", "missing parameter 'n'"),
            ("[verify v]\nn = 2\nseed = -1\n", "seed = '-1' is negative"),
            ("[simulate s]\nseed = -1\n", "seed = '-1' is negative"),
        ],
    )
    def test_bad_section_is_a_section_error(self, tmp_path, section, error):
        config = tmp_path / "r.cfg"
        config.write_text(section)
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert report["pipelines"][0]["status"] == "error"
        assert report["pipelines"][0]["details"]["error"] == error

    @pytest.mark.parametrize(
        "section, error",
        [
            ({"kind": "simulate", "out": None}, "out = None is not a file name"),
            ({"kind": "frame", "n": 2, "dmat_out": [1]}, "dmat_out = [1] is not a file name"),
            ({"kind": "frame", "n": 2, "out": ""}, "cannot write '': Is a directory"),
            ({"kind": "simulate", "out": "no/such/dir.json"}, "cannot write 'no/such/dir.json': "),
        ],
    )
    def test_bad_output_name_errors_only_its_own_section(self, tmp_path, section, error):
        config = tmp_path / "w.json"
        config.write_text(json.dumps({"pipelines": [section, {"kind": "frame", "n": 1}]}))
        code, _ = run_report(config, tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [p["status"] for p in report["pipelines"]] == ["error", "pass"]
        assert report["pipelines"][0]["details"]["error"].startswith(error)

    def test_json_config_accepted(self, tmp_path):
        config = tmp_path / "suite.json"
        config.write_text(
            '{"seed": 12, "pipelines": [{"kind": "bloch", "name": "s", "a": 0.5, "b": 0.5, "c": 0.5}]}'
        )
        code, report = run_report(config, tmp_path / "out")
        assert code == 0
        assert report["seed"] == 12
        assert report["pipelines"][0]["details"]["classification"] == "ellipsoid"

    def test_explicit_seed_overrides_config(self, tmp_path):
        config = tmp_path / "s.cfg"
        config.write_text("[report]\nseed = 1\n")
        _, report = run_report(config, tmp_path / "out", seed=2)
        assert report["seed"] == 2


class TestClassicalExperiments:
    def test_classical_basis_measurement(self):
        theory = classical_theory(3)
        exp = Experiment(
            theory=theory,
            preparation=theory.basis_p[2],
            partition=tuple(theory.basis_r),
            shots=1000,
            seed=0,
        )
        counts = simulate(exp)
        assert counts[3] == 1000


class TestBuildExperiment:
    @pytest.mark.parametrize(
        "header, message",
        [({"dimension": 3}, "preparation dimension 3 does not match n = 2"),
         ({"kind": "banana"}, "vector kind 'banana' is neither 'p' nor 'r'")],
    )
    def test_preparation_file_off_the_section_is_a_section_error(self, tmp_path, header, message):
        vector = {"dimension": 2, "k": 4, "role": "state", "kind": "p", "values": [0, 1, 0, 0], **header}
        (tmp_path / "v.json").write_text(json.dumps(vector))
        config = tmp_path / "r.cfg"
        config.write_text("[simulate s]\nn = 2\npreparation = file:v.json\nshots = 10\n")
        code, report = run_report(config, tmp_path / "out")
        [section] = report["pipelines"]
        assert (code, section["status"], section["details"]) == (1, "error", {"error": message})

    def test_boolean_in_a_partition_file_is_a_section_error(self, tmp_path):
        (tmp_path / "part.json").write_text(json.dumps({"vectors": [[1, 0, 0, 0], [0, True, 0, 0]]}))
        config = tmp_path / "r.cfg"
        config.write_text("[simulate s]\nn = 2\npartition = file:part.json\nshots = 10\n")
        code, report = run_report(config, tmp_path / "out")
        [section] = report["pipelines"]
        assert (code, section["status"], section["details"]) == (
            1, "error", {"error": "malformed numeric array: true or false entry"})

    @pytest.mark.parametrize("key, value", [("preparation", "file:x.op.json"), ("transform", "unitary:x.op.json")])
    def test_classical_operator_inputs_are_refused_by_the_theory(self, tmp_path, monkeypatch, key, value):
        def refuse(*args):
            raise AssertionError("built a Heisenberg block for a theory without operators")

        monkeypatch.setattr(gptkit.dynamics, "canonical_vectors", refuse)
        serialize.write_json(tmp_path / "x.op.json", serialize.operator_to_dict(np.eye(2, dtype=complex)))
        params = {"theory": "classical", "n": 2, key: value}
        with pytest.raises(GptError, match="^the classical theory has no operator form$"):
            harness.build_experiment(params, seed=0, base=tmp_path)

    def test_operator_file_preparation(self, tmp_path):
        from gptkit import serialize
        from gptkit.harness import build_experiment

        rho = np.diag([0.0, 1.0]).astype(complex)
        serialize.write_json(tmp_path / "rho.op.json", serialize.operator_to_dict(rho))
        params = {
            "theory": "quantum",
            "n": 2,
            "preparation": "file:rho.op.json",
            "partition": "basis",
            "shots": 100,
        }
        exp = build_experiment(params, seed=0, base=tmp_path)
        counts = simulate(exp)
        assert counts[2] == 100
