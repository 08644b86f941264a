import inspect
import re
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gptkit.axioms
import gptkit.bloch
import gptkit.composite
import gptkit.dynamics
import gptkit.frames
import gptkit.harness
import gptkit.states
from gptkit import (
    DimensionError,
    GptError,
    classical_pure_states,
    classical_theory,
    density_from_r,
    is_pure,
    is_valid_density,
    is_valid_measurement_operator,
    is_valid_state_p,
    mix,
    normalization,
    p_from_density,
    p_from_r,
    probability,
    quantum_theory,
    r_from_p,
    theory_by_name,
)
from conftest import haar_state, haar_unitary, random_density, random_measurement_operator

QT2 = quantum_theory(2)


class TestPFromDensity:
    def test_basis_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert_allclose(p_from_density(rho, QT2.frame), [1.0, 0.0, 0.5, 0.5], atol=1e-15)

    def test_null_state(self):
        assert_allclose(p_from_density(np.zeros((2, 2)), QT2.frame), np.zeros(4))

    def test_maximally_mixed(self):
        p = p_from_density(np.eye(2, dtype=complex) / 2.0, QT2.frame)
        assert_allclose(p, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            p_from_density(np.eye(3), QT2.frame)

    def test_stack_matches_row_by_row(self, rng):
        theory = quantum_theory(3)
        rhos = np.stack([random_density(rng, 3) for _ in range(5)])
        rows = np.stack([p_from_density(rho, theory.frame) for rho in rhos])
        assert_allclose(p_from_density(rhos, theory.frame), rows, rtol=0, atol=1e-15)

    def test_stack_of_non_hermitian_operators_rejected(self):
        rhos = np.zeros((2, 2, 2), dtype=complex)
        rhos[1, 0, 1] = 1.0
        with pytest.raises(GptError, match="imaginary part"):
            p_from_density(rhos, QT2.frame)


class TestRFromP:
    def test_classical_identity_d(self):
        p = np.array([0.2, 0.8])
        assert_allclose(r_from_p(p, np.eye(2)), p)

    def test_qubit_basis_state(self):
        # solving Dhalfs r = (1, 0, 1/2, 1/2): column 1 of Dhalfs is exactly
        # that p, so r must be e_1
        r = r_from_p(np.array([1.0, 0.0, 0.5, 0.5]), QT2.d)
        assert_allclose(r, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert_allclose(QT2.d @ r, [1.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_zero_maps_to_zero(self):
        assert_allclose(r_from_p(np.zeros(4), QT2.d), np.zeros(4))

    def test_stack_matches_row_by_row(self, rng):
        theory = quantum_theory(3)
        ps = rng.random((6, theory.k))
        rows = np.stack([r_from_p(p, theory.d) for p in ps])
        stacked = r_from_p(ps, theory.d)
        assert stacked.shape == ps.shape
        assert_allclose(stacked, rows, rtol=0, atol=1e-12)

    def test_stack_length_mismatch(self):
        with pytest.raises(DimensionError):
            r_from_p(np.zeros((3, 5)), QT2.d)


class TestOperatorReconstruction:
    def test_single_term_sum(self):
        rho = density_from_r(np.array([1.0, 0.0, 0.0, 0.0]), QT2.frame)
        assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero_vector(self):
        assert_allclose(density_from_r(np.zeros(4), QT2.frame), np.zeros((2, 2)))

    def test_identity_measurement_reconstructs_identity(self):
        op = density_from_r(np.array([1.0, 1.0, 0.0, 0.0]), QT2.frame)
        assert_allclose(op, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_on_random_densities(self, n, rng):
        theory = quantum_theory(n)
        for _ in range(100):
            rho = random_density(rng, n, trace=rng.random())
            p = p_from_density(rho, theory.frame)
            back = density_from_r(r_from_p(p, theory.d), theory.frame)
            assert np.abs(back - rho).max() <= 1e-10


class TestProbability:
    def test_basis_measurement_on_own_state(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert probability(e1, QT2.d, e1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_pair(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        assert probability(e2, QT2.d, e1) == pytest.approx(0.0, abs=1e-12)

    def test_classical_is_dot_product(self, rng):
        r_m = rng.random(3)
        r_s = rng.random(3)
        assert probability(r_m, np.eye(3), r_s) == pytest.approx(float(r_m @ r_s))

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_trace_formula(self, n, rng):
        theory = quantum_theory(n)
        for _ in range(100):
            rho = random_density(rng, n, trace=rng.random())
            op = random_measurement_operator(rng, n)
            r_s = r_from_p(p_from_density(rho, theory.frame), theory.d)
            r_m = r_from_p(p_from_density(op, theory.frame), theory.d)
            expected = float(np.trace(op @ rho).real)
            assert probability(r_m, theory.d, r_s) == pytest.approx(expected, abs=1e-12)


class TestNormalizationAndPurity:
    def test_null_state_has_zero_mu(self):
        assert normalization(np.zeros(4), QT2.r_identity) == 0.0

    def test_pure_state_has_unit_mu(self):
        p = np.array([1.0, 0.0, 0.5, 0.5])
        assert normalization(p, QT2.r_identity) == pytest.approx(1.0)

    def test_mu_scales_linearly(self):
        p = np.array([1.0, 0.0, 0.5, 0.5])
        assert normalization(p / 2.0, QT2.r_identity) == pytest.approx(0.5)

    def test_basis_state_is_pure(self):
        assert is_pure(np.array([1.0, 0.0, 0.0, 0.0]), QT2)

    def test_maximally_mixed_is_not_pure(self):
        r = r_from_p(np.full(4, 0.5), QT2.d)
        assert float(r @ QT2.d @ r) == pytest.approx(0.5, abs=1e-12)
        assert not is_pure(r, QT2)

    def test_classical_basis_vectors_are_pure(self):
        theory = classical_theory(3)
        for k in range(3):
            assert is_pure(theory.basis_r[k], theory)

    @pytest.mark.parametrize("n", [2, 3])
    def test_purity_agrees_with_operator_level(self, n, rng):
        theory = quantum_theory(n)
        for _ in range(25):
            psi = haar_state(rng, n)
            rho = np.outer(psi, psi.conj())
            r = r_from_p(p_from_density(rho, theory.frame), theory.d)
            assert is_pure(r, theory)
            back = density_from_r(r, theory.frame)
            assert abs(np.trace(back @ back).real - 1.0) <= 1e-9
            assert abs(np.trace(back).real - 1.0) <= 1e-9
        mixed = random_density(rng, n)
        mixed = 0.5 * mixed + 0.5 * np.eye(n) / n
        r = r_from_p(p_from_density(mixed, theory.frame), theory.d)
        assert not is_pure(r, theory)


class TestMix:
    def test_single_state_identity(self):
        p = np.array([1.0, 0.0, 0.5, 0.5])
        assert_allclose(mix([p], [1.0]), p)

    def test_equal_mixture_of_basis_states(self):
        assert_allclose(
            mix([QT2.basis_p[0], QT2.basis_p[1]], [0.5, 0.5]), np.full(4, 0.5)
        )

    def test_deficit_is_null_weight(self):
        p = np.array([1.0, 0.0, 0.5, 0.5])
        assert_allclose(mix([p, QT2.basis_p[1]], [0.5, 0.0]), p / 2.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(GptError):
            mix([QT2.basis_p[0]], [-0.1])

    def test_weights_above_one_rejected(self):
        with pytest.raises(GptError):
            mix([QT2.basis_p[0], QT2.basis_p[1]], [0.7, 0.7])


class TestTheoryArgument:
    def test_theory_by_name(self):
        assert theory_by_name("quantum", 3).k == 9
        assert theory_by_name("classical", 3).k == 3
        with pytest.raises(GptError, match="unknown theory 'real'"):
            theory_by_name("real", 2)

    @pytest.mark.parametrize("module", [gptkit.dynamics, gptkit.states, gptkit.axioms, gptkit.composite])
    def test_no_function_takes_loose_theory_pieces(self, module):
        """A function needing two of one theory's frame, D and r_I takes the
        Theory; ``_a``/``_b`` suffixes name the two theories of a composite."""
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or func.__module__ != module.__name__:
                continue
            pieces = [re.fullmatch(r"(frame|d|r_identity)(_[ab])?", param)
                      for param in inspect.signature(func).parameters]
            per_theory = Counter(match.group(2) for match in pieces if match)
            assert max(per_theory.values(), default=0) < 2, f"{module.__name__}.{name}"


class TestClassicalTheory:
    def test_d_is_identity(self):
        assert_allclose(classical_theory(2).d, np.eye(2))

    def test_single_state_for_dimension_one(self):
        theory = classical_theory(1)
        assert_allclose(theory.basis_p, [[1.0]])

    def test_basis_distinguishability(self):
        theory = classical_theory(4)
        probs = theory.basis_r @ theory.d @ theory.basis_r.T
        assert_allclose(probs, np.eye(4))

    def test_identity_measurement_is_all_ones(self):
        assert_allclose(classical_theory(3).r_identity, np.ones(3))


def _simplex_grid_solutions(n: int, resolution: float = 1e-3) -> set[tuple[float, ...]]:
    """Brute-force oracle: scan the probability simplex at the given
    resolution and keep points with sum p^2 = 1 within 1e-6."""
    steps = int(round(1.0 / resolution))
    if n == 1:
        candidates = np.array([[1.0]])
    elif n == 2:
        p1 = np.arange(steps + 1) / steps
        candidates = np.stack([p1, 1.0 - p1], axis=1)
    elif n == 3:
        p1 = np.arange(steps + 1) / steps
        p2 = np.arange(steps + 1) / steps
        g1, g2 = np.meshgrid(p1, p2, indexing="ij")
        g3 = 1.0 - g1 - g2
        keep = g3 >= -1e-12
        candidates = np.stack([g1[keep], g2[keep], np.clip(g3[keep], 0.0, None)], axis=1)
    else:
        raise NotImplementedError
    sq = np.einsum("ij,ij->i", candidates, candidates)
    solutions = candidates[np.abs(sq - 1.0) <= 1e-6]
    # analytic post-verification: a solution must have an entry at 1
    assert all(np.abs(row - 1.0).min() <= 1e-6 for row in solutions)
    return {tuple(np.round(row, 6)) for row in solutions}


class TestClassicalPureStates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_grid_oracle(self, n):
        expected = _simplex_grid_solutions(n)
        got = {tuple(np.round(p, 6)) for p in classical_pure_states(n)}
        assert got == expected
        assert len(got) == n


class TestValidityPredicates:
    def test_conversions_accept_unphysical_inputs_but_predicates_flag_them(self):
        p = np.array([1.2, 0.3, 0.5, 0.5])  # entry above 1
        r = r_from_p(p, QT2.d)  # total: no exception
        assert_allclose(p_from_r(r, QT2.d), p, atol=1e-12)
        assert not is_valid_state_p(p, QT2.r_identity)
        assert not is_valid_density(density_from_r(r, QT2.frame) * 2.0)

    def test_valid_state_accepted(self, rng):
        rho = random_density(rng, 2, trace=0.7)
        assert is_valid_density(rho)
        p = p_from_density(rho, QT2.frame)
        assert is_valid_state_p(p, QT2.r_identity)

    def test_measurement_operator_accepts_projector_and_povm_element(self, rng):
        psi = haar_state(rng, 3)
        assert is_valid_measurement_operator(np.outer(psi, psi.conj()))
        assert is_valid_measurement_operator(random_measurement_operator(rng, 3))

    @pytest.mark.parametrize("eigenvalue", [1.0 + 1e-6, -1e-6])
    def test_measurement_operator_rejects_eigenvalue_outside_unit_interval(self, rng, eigenvalue):
        u = haar_unitary(rng, 3)
        assert not is_valid_measurement_operator((u * [0.5, 0.25, eigenvalue]) @ u.conj().T)

    @pytest.mark.parametrize(
        "a",
        [np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([[0.5, 0.1j], [0.1j, 0.5]]),
         np.eye(2)[:1], np.ones(3) / 3.0],
        ids=["non-hermitian", "symmetric-not-hermitian", "non-square", "vector"],
    )
    def test_measurement_operator_rejects_malformed_input(self, a):
        assert not is_valid_measurement_operator(a)


class TestNamedTolerances:
    CHECK_MODULES = [gptkit.frames, gptkit.states, gptkit.bloch, gptkit.axioms,
                     gptkit.dynamics, gptkit.composite, gptkit.harness]
    SETTABLE = {"atol", "tol", "psd_tol", "envelope", "min_pass_fraction", "samples", "n_max",
                "trials", "scales", "pairs", "law_samples"}

    @pytest.mark.parametrize("module", CHECK_MODULES, ids=lambda m: m.__name__)
    def test_no_check_takes_a_tolerance(self, module):
        """Each check reads its tolerance from a constant in ``gptkit.frames``;
        report dataclasses keep their ``tolerance``-style fields."""
        functions = []
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                functions.append((name, value))
            elif inspect.isclass(value):
                functions += [(f"{name}.{attr}", f) for attr, f in vars(value).items()
                              if inspect.isfunction(f) and not attr.startswith("__")]
        assert functions
        for name, func in functions:
            params = set(inspect.signature(func).parameters)
            assert not params & self.SETTABLE, f"{module.__name__}.{name}"

    @pytest.mark.parametrize(
        "func", [gptkit.dynamics.choi_matrix, gptkit.dynamics.is_completely_positive]
    )
    def test_superoperator_dimension_comes_from_its_side(self, func):
        assert list(inspect.signature(func).parameters) == ["superop"]

    def test_axiom_suite_takes_no_sample_budget(self):
        params = list(inspect.signature(gptkit.harness.run_axiom_suite).parameters)
        assert params == ["theory_name", "n", "seed"]

    def test_reports_state_the_constant_their_check_read(self, rng, budget):
        f, h = gptkit.frames, gptkit.harness
        assert (f.ATOL, f.PSD_TOL, f.PURITY_TOL, f.LINEARITY_TOL) == (1e-12, 1e-10, 1e-9, 1e-14)
        budgets = ("FREQUENCY_SCALES", "FREQUENCY_TRIALS", "CONTINUITY_PAIRS", "CONTINUITY_STEPS",
                   "COMPOSITE_LAW_SAMPLES")
        assert [getattr(f, name) for name in budgets] == [
            (1_000, 10_000, 100_000, 1_000_000), 8, 5, 100, 10]
        assert all(getattr(h, name) is getattr(f, name) for name in budgets)
        budget(FREQUENCY_SCALES=(1_000,))  # the other budgets keep their values
        suite = {c.name: c.witnesses for c in h.run_axiom_suite("quantum", 2, seed=1).checks}
        assert suite["axiom1-frequency-convergence"]["trials"] == f.FREQUENCY_TRIALS
        assert suite["axiom5-continuity"] == {"pairs": f.CONTINUITY_PAIRS, "steps": f.CONTINUITY_STEPS}
        assert suite["measurement-linearity"] == {"samples": f.LINEARITY_SAMPLES}
        theory = quantum_theory(2)
        assert gptkit.axioms.check_subspace_axiom(theory, {0, 1}).tolerance == f.ATOL
        assert gptkit.axioms.check_basis_distinguishability(theory).tolerance == f.ATOL
        linearity = gptkit.axioms.check_linearity(theory.r_identity, list(theory.basis_p), rng)
        assert (linearity.samples, linearity.tolerance) == (f.LINEARITY_SAMPLES, f.LINEARITY_TOL)
        frequency = gptkit.axioms.check_frequency_convergence({100: [50]}, 0.5)
        assert frequency.min_pass_fraction == f.FREQUENCY_PASS_FRACTION
        assert frequency.scales[0].bound == f.FREQUENCY_ENVELOPE / 10.0
        probe = gptkit.dynamics.continuity_probe(theory, theory.basis_r[0], theory.basis_r[0], steps=3)
        assert probe.tolerance == f.PURITY_TOL
        update = gptkit.dynamics.check_measurement_update(
            [(gptkit.dynamics.KrausSet(np.eye(2, dtype=complex)), theory.r_identity)],
            theory, list(theory.basis_p))
        assert update.tolerance == f.PSD_TOL
