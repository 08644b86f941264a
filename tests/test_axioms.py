import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptkit import (
    GptError,
    MonotonicityError,
    build_canonical_frame,
    check_basis_distinguishability,
    check_frequency_convergence,
    check_linearity,
    check_subspace_axiom,
    classical_theory,
    fit_power_law,
    gram_matrix,
    is_completely_multiplicative,
    quantum_theory,
)

DHALFS = gram_matrix(build_canonical_frame(2))


def table(fn, n_max):
    return {n: fn(n) for n in range(1, n_max + 1)}


class TestMultiplicativity:
    def test_square_table_up_to_36(self):
        check = is_completely_multiplicative(table(lambda n: n * n, 36))
        assert check.ok and check.counterexample is None

    def test_broken_entry_found_with_witness(self):
        t = table(lambda n: n * n, 6)
        t[6] = 35
        check = is_completely_multiplicative(t)
        assert not check.ok
        assert check.counterexample == (2, 3)

    def test_constant_one_is_multiplicative(self):
        assert is_completely_multiplicative(table(lambda n: 1, 10)).ok

    def test_real_hilbert_counterexample(self):
        check = is_completely_multiplicative(table(lambda n: n * (n + 1) // 2, 6))
        assert not check.ok
        assert check.counterexample in ((2, 2), (2, 3))

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=4, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_power_tables_always_pass(self, r, n_max):
        assert is_completely_multiplicative(table(lambda n: n**r, n_max)).ok


class TestPowerLaw:
    def test_quantum_table(self):
        assert fit_power_law(table(lambda n: n * n, 6)) == 2

    def test_classical_table(self):
        assert fit_power_law(table(lambda n: n, 6)) == 1

    def test_real_hilbert_fails(self):
        assert fit_power_law(table(lambda n: n * (n + 1) // 2, 6)) is None

    def test_cubic_table(self):
        assert fit_power_law(table(lambda n: n**3, 5)) == 3

    def test_non_monotone_rejected(self):
        t = table(lambda n: n * n, 4)
        t[3] = 1
        with pytest.raises(MonotonicityError):
            fit_power_law(t)

    def test_constant_table_rejected_as_non_increasing(self):
        with pytest.raises(MonotonicityError):
            fit_power_law(table(lambda n: 1, 5))

    def test_frame_derived_table(self):
        t = {n: build_canonical_frame(n).k for n in range(1, 7)}
        assert fit_power_law(t) == 2


class TestSubspaceAxiom:
    def test_pair_restriction_equals_dhalfs(self):
        theory = quantum_theory(3)
        report = check_subspace_axiom(theory, {0, 1})
        assert report.passed
        assert report.submatrix_deviation <= 1e-12
        sub = theory.d[np.ix_(report.fiducial_indices, report.fiducial_indices)]
        assert np.abs(sub - DHALFS).max() <= 1e-12

    def test_single_basis_state_invisible_to_disjoint_fiducials(self):
        theory = quantum_theory(3)
        report = check_subspace_axiom(theory, {0})
        assert report.passed
        # direct oracle: tr(P_23x |1><1|) = 0
        p23x = theory.frame.projectors[7]
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert abs(np.trace(p23x @ rho)) <= 1e-15
        assert report.disjoint_probability <= 1e-12

    def test_full_set_restriction_is_d_itself(self):
        report = check_subspace_axiom(quantum_theory(3), {0, 1, 2})
        assert report.passed
        assert report.fiducial_indices == tuple(range(9))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_pair_behaves_two_dimensionally(self, n):
        theory = quantum_theory(n)
        for i in range(n):
            for j in range(i + 1, n):
                assert check_subspace_axiom(theory, {i, j}).passed

    def test_corrupted_d_detected(self):
        theory = quantum_theory(3)
        d = theory.d.copy()
        d[3, 4] = 0.75
        d[4, 3] = 0.75
        assert not check_subspace_axiom(dataclasses.replace(theory, d=d), {0, 1}).passed

    def test_invalid_subset_rejected(self):
        with pytest.raises(GptError):
            check_subspace_axiom(quantum_theory(3), {0, 7})


class TestBasisDistinguishability:
    def test_quantum_qubit(self):
        assert check_basis_distinguishability(quantum_theory(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_classical_any_dimension(self, n):
        assert check_basis_distinguishability(classical_theory(n))

    def test_perturbed_basis_fails(self):
        theory = quantum_theory(2)
        basis_r = theory.basis_r.copy()
        basis_r[0, 2] = 0.05
        broken = type(theory)(
            name=theory.name,
            dimension=theory.dimension,
            d=theory.d,
            r_identity=theory.r_identity,
            basis_r=basis_r,
            basis_p=theory.basis_p,
            frame=theory.frame,
        )
        assert not check_basis_distinguishability(broken)


class TestFrequencyConvergence:
    def test_binomial_counts_concentrate(self, rng):
        counts = {
            n: list(rng.binomial(n, 0.5, size=40)) for n in (10**3, 10**4, 10**5, 10**6)
        }
        report = check_frequency_convergence(counts, 0.5)
        assert report.passed
        for scale in report.scales:
            assert scale.max_deviation < scale.bound

    def test_zero_probability_is_exact(self):
        counts = {1000: [0] * 10, 10**6: [0] * 10}
        report = check_frequency_convergence(counts, 0.0)
        assert report.passed
        assert all(s.max_deviation == 0.0 for s in report.scales)

    def test_unit_probability_is_exact(self):
        counts = {1000: [1000] * 10}
        assert check_frequency_convergence(counts, 1.0).passed

    def test_biased_counts_fail(self):
        counts = {10**6: [450_000] * 20}  # 0.45 vs bound 0.005 around 0.5
        assert not check_frequency_convergence(counts, 0.5).passed


class TestLinearity:
    def _pool(self, theory):
        pool = [theory.basis_p[i] for i in range(theory.dimension)]
        pool.append(np.zeros(theory.k))
        pool.append(pool[0] * 0.25 + pool[1] * 0.75)
        return pool

    def test_affine_and_homogeneous_to_rounding(self, rng):
        theory = quantum_theory(2)
        for r_m in list(theory.basis_r) + [theory.r_identity]:
            report = check_linearity(r_m, self._pool(theory), rng, samples=1000)
            assert report.passed

    def test_edge_mixing_weights(self):
        theory = quantum_theory(2)
        p_a, p_b = theory.basis_p[0], theory.basis_p[1]
        r_m = theory.basis_r[0]
        f = lambda p: float(r_m @ p)
        assert f(0.0 * p_a + 1.0 * p_b) == f(p_b)
        assert f(1.0 * p_a + 0.0 * p_b) == f(p_a)
        assert f(2.0 * (p_a / 2.0)) == f(p_a)
