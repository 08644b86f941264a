import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptkit import (
    GptError,
    KrausSet,
    apply_transform,
    check_measurement_update,
    choi_matrix,
    classical_theory,
    compose_kraus,
    continuity_probe,
    is_completely_positive,
    is_pure,
    is_reversible,
    is_trace_nonincreasing,
    is_trace_preserving,
    kraus_to_superoperator,
    p_from_density,
    quantum_theory,
    r_from_p,
    z_from_kraus,
    z_from_unitary,
)
from conftest import haar_state, haar_unitary, random_density, random_kraus

QT2 = quantum_theory(2)
P1 = np.diag([1.0, 0.0]).astype(complex)
P2 = np.diag([0.0, 1.0]).astype(complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def transpose_superoperator(n: int) -> np.ndarray:
    """Column-stacking matrix of X -> X^T (the swap of vec indices)."""
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[i + n * j, j + n * i] = 1.0
    return s


class TestZFromKraus:
    def test_identity_kraus_gives_identity_z(self):
        z = z_from_kraus(KrausSet(np.eye(2, dtype=complex)), QT2)
        assert_allclose(z.z, np.eye(4), atol=1e-12)

    def test_von_neumann_projection_on_mixed_state(self):
        z = z_from_kraus(KrausSet(P1), QT2)
        mixed = p_from_density(np.eye(2, dtype=complex) / 2.0, QT2.frame)
        # oracle: P (I/2) P = |1><1| / 2, converted directly
        expected = p_from_density(P1 / 2.0, QT2.frame)
        assert_allclose(apply_transform(z, mixed), expected, atol=1e-12)

    def test_unitary_kraus_inverts(self, rng):
        u = haar_unitary(rng, 2)
        z = z_from_kraus(KrausSet(u[np.newaxis]), QT2)
        z_back = z_from_kraus(KrausSet(u.conj().T[np.newaxis]), QT2)
        assert_allclose(z.z @ z_back.z, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutes_with_operator_action(self, n, rng):
        theory = quantum_theory(n)
        for _ in range(50):
            kraus = KrausSet(random_kraus(rng, n))
            z = z_from_kraus(kraus, theory)
            rho = random_density(rng, n, trace=rng.random())
            lhs = p_from_density(kraus.apply(rho), theory.frame)
            rhs = apply_transform(z, p_from_density(rho, theory.frame))
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_composition(self, rng):
        k1 = KrausSet(random_kraus(rng, 2))
        k2 = KrausSet(random_kraus(rng, 2))
        z1 = z_from_kraus(k1, QT2)
        z2 = z_from_kraus(k2, QT2)
        z21 = z_from_kraus(compose_kraus(k2, k1), QT2)
        assert np.abs(z21.z - z2.z @ z1.z).max() <= 1e-10


class TestZFromUnitary:
    def test_identity(self):
        z = z_from_unitary(np.eye(2, dtype=complex), QT2)
        assert z.provenance == "from-unitary"
        assert_allclose(z.z, np.eye(4), atol=1e-12)

    def test_swap_unitary_against_operator_oracle(self):
        z = z_from_unitary(PAULI_X, QT2)
        # oracle: conjugate each projector by X and take traces
        for rho in (P1, P2, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)):
            lhs = apply_transform(z, p_from_density(rho, QT2.frame))
            rhs = p_from_density(PAULI_X @ rho @ PAULI_X.conj().T, QT2.frame)
            assert_allclose(lhs, rhs, atol=1e-12)
        # p1 and p2 swap; the x entry is fixed for X-symmetric states
        p = apply_transform(z, np.array([1.0, 0.0, 0.5, 0.5]))
        assert_allclose(p[:2], [0.0, 1.0], atol=1e-12)

    def test_phase_gate_rotates_xy_plane(self, rng):
        u = np.diag([1.0, np.exp(1j * np.pi / 2.0)])
        z = z_from_unitary(u, QT2)
        for _ in range(10):
            rho = random_density(rng, 2)
            lhs = apply_transform(z, p_from_density(rho, QT2.frame))
            rhs = p_from_density(u @ rho @ u.conj().T, QT2.frame)
            assert_allclose(lhs, rhs, atol=1e-12)
        basis = apply_transform(z, np.array([1.0, 0.0, 0.5, 0.5]))
        assert_allclose(basis[:2], [1.0, 0.0], atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(GptError):
            z_from_unitary(np.diag([1.0, 0.5]), QT2)


class TestApplyTransform:
    def test_identity_leaves_p(self):
        p = np.array([0.3, 0.2, 0.4, 0.1])
        assert_allclose(apply_transform(np.eye(4), p), p)

    def test_zero_gives_null_state(self):
        assert_allclose(apply_transform(np.zeros((4, 4)), np.ones(4)), np.zeros(4))

    def test_projection_annihilates_other_basis_state(self):
        z = z_from_kraus(KrausSet(P1), QT2)
        assert_allclose(apply_transform(z, QT2.basis_p[1]), np.zeros(4), atol=1e-12)


class TestTraceConditions:
    def test_identity_is_trace_preserving(self):
        kraus = KrausSet(np.eye(2, dtype=complex))
        assert is_trace_nonincreasing(kraus)
        assert is_trace_preserving(kraus)

    def test_scaled_identity_increases_trace(self):
        assert not is_trace_nonincreasing(KrausSet(np.sqrt(2.0) * np.eye(2, dtype=complex)))

    def test_projection_is_nonincreasing_but_not_preserving(self):
        kraus = KrausSet(P1)
        assert is_trace_nonincreasing(kraus)
        assert not is_trace_preserving(kraus)


class TestCompletePositivity:
    def test_kraus_sets_are_cp_by_construction(self, rng):
        assert is_completely_positive(KrausSet(random_kraus(rng, 2)))

    def test_transpose_map_rejected(self):
        s = transpose_superoperator(2)
        assert not is_completely_positive(s, 2)
        eigs = np.linalg.eigvalsh(choi_matrix(s, 2))
        assert_allclose(sorted(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_identity_map_accepted(self):
        assert is_completely_positive(np.eye(4), 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kraus_superoperators_accepted(self, n, rng):
        for _ in range(20):
            s = kraus_to_superoperator(KrausSet(random_kraus(rng, n)))
            assert is_completely_positive(s, n)

    def test_superoperator_matrix_agrees_with_kraus_action(self, rng):
        kraus = KrausSet(random_kraus(rng, 2))
        s = kraus_to_superoperator(kraus)
        rho = random_density(rng, 2)
        lhs = (s @ rho.flatten(order="F")).reshape((2, 2), order="F")
        assert_allclose(lhs, kraus.apply(rho), atol=1e-12)


class TestReversibility:
    def _witnesses(self, rng, count=10):
        out = [QT2.basis_p[0], QT2.basis_p[1], p_from_density(np.eye(2, dtype=complex) / 2, QT2.frame)]
        out += [p_from_density(random_density(rng, 2), QT2.frame) for _ in range(count)]
        return out

    def test_unitary_derived_is_reversible(self, rng):
        u = haar_unitary(rng, 2)
        z = z_from_unitary(u, QT2)
        assert is_reversible(z, self._witnesses(rng), QT2)

    def test_projection_derived_is_singular(self, rng):
        z = z_from_kraus(KrausSet(P1), QT2)
        assert not is_reversible(z, self._witnesses(rng), QT2)

    def test_identity_is_reversible(self, rng):
        z = z_from_unitary(np.eye(2, dtype=complex), QT2)
        assert is_reversible(z, self._witnesses(rng), QT2)


class TestMeasurementUpdate:
    def _witnesses(self, rng):
        return [
            QT2.basis_p[0],
            QT2.basis_p[1],
            p_from_density(np.eye(2, dtype=complex) / 2.0, QT2.frame),
            p_from_density(random_density(rng, 2), QT2.frame),
        ]

    def test_von_neumann_pair_passes_exactly(self, rng):
        branches = [
            (KrausSet(P1), np.array([1.0, 0.0, 0.0, 0.0])),
            (KrausSet(P2), np.array([0.0, 1.0, 0.0, 0.0])),
        ]
        report = check_measurement_update(branches, QT2, self._witnesses(rng), atol=1e-12)
        assert report.passed
        assert report.branch_normalization <= 1e-12
        assert report.identity_preservation <= 1e-12
        assert report.kraus_completeness <= 1e-12

    def test_single_identity_branch_passes(self, rng):
        branches = [(KrausSet(np.eye(2, dtype=complex)), QT2.r_identity)]
        report = check_measurement_update(branches, QT2, self._witnesses(rng))
        assert report.passed

    def test_half_identity_branches_fail_completeness(self, rng):
        half = np.sqrt(0.5) * np.eye(2, dtype=complex)
        branches = [(KrausSet(half), 0.5 * QT2.r_identity)]
        report = check_measurement_update(branches, QT2, self._witnesses(rng))
        assert not report.passed
        assert report.identity_preservation > 1e-10
        assert report.kraus_completeness > 1e-10
        # each branch alone is still consistent with its outcome vector
        assert report.branch_normalization <= 1e-10


class TestContinuityProbe:
    def test_quantum_basis_to_basis_path_stays_pure(self):
        report = continuity_probe(
            QT2, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]), steps=100
        )
        assert report.pure_path
        assert report.max_deviation < 1e-9
        assert report.max_mu_deviation < 1e-9

    def test_zero_length_path(self):
        r = np.array([1.0, 0.0, 0.0, 0.0])
        report = continuity_probe(QT2, r, r, steps=10)
        assert report.pure_path

    def test_classical_segment_is_never_pure_inside(self):
        report = continuity_probe(
            classical_theory(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), steps=101
        )
        assert not report.pure_path
        assert report.midpoint_purity == pytest.approx(0.5, abs=1e-15)

    def test_impure_endpoint_rejected(self):
        mixed = r_from_p(np.full(4, 0.5), QT2.d)
        with pytest.raises(GptError):
            continuity_probe(QT2, mixed, np.array([1.0, 0.0, 0.0, 0.0]), steps=10)

    def test_unitary_transforms_preserve_purity_and_mu(self, rng):
        for _ in range(20):
            u = haar_unitary(rng, 2)
            z = z_from_unitary(u, QT2)
            psi = haar_state(rng, 2)
            p = p_from_density(np.outer(psi, psi.conj()), QT2.frame)
            r0 = r_from_p(p, QT2.d)
            assert is_pure(r0, QT2)
            moved = apply_transform(z, p)
            r1 = r_from_p(moved, QT2.d)
            assert is_pure(r1, QT2)
            assert float(QT2.r_identity @ moved) == pytest.approx(
                float(QT2.r_identity @ p), abs=1e-12
            )
