import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptkit import (
    DimensionError,
    KrausSet,
    classical_theory,
    composite_from_density,
    conditional_state,
    density_from_composite,
    dof_count_check,
    joint_normalization,
    local_transform,
    p_from_density,
    partial_transpose,
    product_state,
    quantum_theory,
    z_from_kraus,
    z_from_unitary,
)
from conftest import haar_unitary, random_density, random_kraus

QT2 = quantum_theory(2)

BELL = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        BELL[_i, _j] = 0.5


class TestProductState:
    def test_outer_product_definition(self, rng):
        p_a, p_b = rng.random(4), rng.random(9)
        pt = product_state(p_a, p_b)
        for i in range(4):
            for j in range(9):
                assert pt[i, j] == pytest.approx(p_a[i] * p_b[j])

    def test_basis_pair(self):
        pt = product_state(QT2.basis_p[0], QT2.basis_p[0])
        assert pt[0, 0] == pytest.approx(1.0)
        assert np.linalg.matrix_rank(pt) == 1

    def test_null_factor_gives_zero(self):
        assert_allclose(product_state(np.zeros(4), np.ones(4)), np.zeros((4, 4)))


class TestCompositeFromDensity:
    def test_product_density_factorizes(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2, trace=rng.random())
        pt = composite_from_density(np.kron(rho_a, rho_b), QT2.frame, QT2.frame)
        expected = product_state(
            p_from_density(rho_a, QT2.frame), p_from_density(rho_b, QT2.frame)
        )
        assert np.abs(pt - expected).max() <= 1e-12

    def test_bell_state_entries(self):
        pt = composite_from_density(BELL, QT2.frame, QT2.frame)
        # oracle: tr((P1 x P1) Phi+) = |<11|Phi+>|^2 = 1/2 and
        # tr((P1 x P2) Phi+) = |<12|Phi+>|^2 = 0
        assert pt[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert pt[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_operator(self):
        pt = composite_from_density(np.zeros((4, 4)), QT2.frame, QT2.frame)
        assert_allclose(pt, np.zeros((4, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            composite_from_density(np.eye(3), QT2.frame, QT2.frame)


class TestLocalTransform:
    def test_identities_leave_state(self, rng):
        pt = rng.random((4, 4))
        assert_allclose(local_transform(pt, np.eye(4), np.eye(4)), pt)

    def test_product_state_transforms_factorwise(self, rng):
        u = haar_unitary(rng, 2)
        z = z_from_unitary(u, QT2)
        p_a, p_b = QT2.basis_p[0], QT2.basis_p[1]
        lhs = local_transform(product_state(p_a, p_b), z, np.eye(4))
        rhs = product_state(z.z @ p_a, p_b)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_entangled_state_with_local_unitaries(self, rng):
        for _ in range(10):
            ua, ub = haar_unitary(rng, 2), haar_unitary(rng, 2)
            za = z_from_unitary(ua, QT2)
            zb = z_from_unitary(ub, QT2)
            pt = composite_from_density(BELL, QT2.frame, QT2.frame)
            lhs = local_transform(pt, za, zb)
            u = np.kron(ua, ub)
            rhs = composite_from_density(u @ BELL @ u.conj().T, QT2.frame, QT2.frame)
            assert np.abs(lhs - rhs).max() <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_kraus_diagram_commutes(self, dims, rng):
        na, nb = dims
        ta, tb = quantum_theory(na), quantum_theory(nb)
        for _ in range(50):
            rho = random_density(rng, na * nb, trace=rng.random())
            ka = KrausSet(random_kraus(rng, na))
            kb = KrausSet(random_kraus(rng, nb))
            za = z_from_kraus(ka, ta)
            zb = z_from_kraus(kb, tb)
            extract_then_transform = local_transform(
                composite_from_density(rho, ta.frame, tb.frame), za, zb
            )
            evolved = np.zeros_like(rho)
            for ma in ka.operators:
                for mb in kb.operators:
                    m = np.kron(ma, mb)
                    evolved = evolved + m @ rho @ m.conj().T
            transform_then_extract = composite_from_density(evolved, ta.frame, tb.frame)
            assert np.abs(extract_then_transform - transform_then_extract).max() <= 1e-10


class TestConditionalState:
    def test_product_state_column_scaling(self, rng):
        p_a, p_b = rng.random(4), rng.random(4)
        pt = product_state(p_a, p_b)
        for j in range(4):
            assert_allclose(conditional_state(pt, j), p_a * p_b[j])

    def test_bell_conditional_has_half_normalization(self):
        pt = composite_from_density(BELL, QT2.frame, QT2.frame)
        cond = conditional_state(pt, 0)
        assert float(QT2.r_identity @ cond) == pytest.approx(0.5, abs=1e-12)

    def test_zero_composite(self):
        assert_allclose(conditional_state(np.zeros((4, 4)), 2), np.zeros(4))

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            conditional_state(np.zeros((4, 4)), 4)


class TestDofCount:
    def test_two_qubits(self):
        assert dof_count_check(QT2.d, QT2.d) == 16

    def test_qubit_with_trivial_side(self):
        t1 = quantum_theory(1)
        assert dof_count_check(QT2.d, t1.d) == 4

    def test_classical_pair(self):
        ca, cb = classical_theory(2), classical_theory(2)
        assert dof_count_check(ca.d, cb.d) == 4


class TestEntanglementWitness:
    def test_bell_state_reconstruction_has_negative_partial_transpose(self):
        pt = composite_from_density(BELL, QT2.frame, QT2.frame)
        rho = density_from_composite(pt, QT2, QT2)
        assert np.abs(rho - BELL).max() <= 1e-10
        eigs = np.linalg.eigvalsh(partial_transpose(rho, 2, 2))
        assert eigs.min() < -0.4  # exact value is -1/2

    def test_product_state_stays_ppt(self, rng):
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
        eigs = np.linalg.eigvalsh(partial_transpose(rho, 2, 2))
        assert eigs.min() >= -1e-12

    def test_joint_normalization_of_bell(self):
        pt = composite_from_density(BELL, QT2.frame, QT2.frame)
        assert joint_normalization(pt, QT2.r_identity, QT2.r_identity) == pytest.approx(1.0)
