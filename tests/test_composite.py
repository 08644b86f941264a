import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptkit import (
    DimensionError,
    GptError,
    KrausSet,
    Theory,
    build_canonical_frame,
    classical_theory,
    composite_from_density,
    dof_count_check,
    joint_normalization,
    local_transform,
    p_from_density,
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


def projector_reference(rho_ab: np.ndarray, na: int, nb: int) -> np.ndarray:
    """p_tilde[i, j] = tr((P_i (x) P_j) rho) as an einsum over the two
    canonical projector blocks."""
    pa, pb = build_canonical_frame(na).projectors, build_canonical_frame(nb).projectors
    return np.einsum("iab,jcd,bdac->ij", pa, pb, rho_ab.reshape(na, nb, na, nb)).real


class TestCompositeFromDensity:
    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_the_projector_einsum(self, dims, rng):
        na, nb = dims
        ta, tb = quantum_theory(na), quantum_theory(nb)
        for _ in range(20):
            rho = random_density(rng, na * nb)
            assert_allclose(composite_from_density(rho, ta, tb), projector_reference(rho, na, nb),
                            rtol=0, atol=1e-15)

    def test_one_r_of_call_per_theory(self, rng, monkeypatch):
        """The Hermitian and anti-Hermitian A blocks are read in one call."""
        calls = []
        r_of = Theory.r_of
        monkeypatch.setattr(Theory, "r_of", lambda self, ops: calls.append(ops.shape) or r_of(self, ops))
        composite_from_density(random_density(rng, 6), quantum_theory(2), quantum_theory(3))
        assert calls == [(18, 2, 2), (4, 3, 3)]

    def test_product_density_factorizes(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2, trace=rng.random())
        pt = composite_from_density(np.kron(rho_a, rho_b), QT2, QT2)
        frame = build_canonical_frame(2)
        expected = np.outer(p_from_density(rho_a, frame), p_from_density(rho_b, frame))
        assert np.abs(pt - expected).max() <= 1e-12

    def test_bell_state_entries(self):
        pt = composite_from_density(BELL, QT2, QT2)
        # oracle: tr((P1 x P1) Phi+) = |<11|Phi+>|^2 = 1/2 and
        # tr((P1 x P2) Phi+) = |<12|Phi+>|^2 = 0
        assert pt[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert pt[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_operator(self):
        pt = composite_from_density(np.zeros((4, 4)), QT2, QT2)
        assert_allclose(pt, np.zeros((4, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            composite_from_density(np.eye(3), QT2, QT2)

    def test_non_hermitian_operator_rejected(self):
        rho = BELL.copy()
        rho[0, 3] = 0.5j  # |00><11| given weight i/2, its adjoint weight 1/2
        with pytest.raises(GptError, match="not Hermitian"):
            composite_from_density(rho, QT2, QT2)

    @pytest.mark.parametrize("na, nb", [(2, 2), (2, 3)])
    def test_entries_near_the_float_limit_do_not_overflow(self, na, nb):
        """tr((P_i (x) P_j) c I) = c: every entry of p_tilde is exactly 1e308,
        with no Hermitian-part sum overflowing on the way (no warning either)."""
        with np.errstate(all="raise"):
            pt = composite_from_density(1e308 * np.eye(na * nb), quantum_theory(na), quantum_theory(nb))
        assert_allclose(pt, np.full((na * na, nb * nb), 1e308), rtol=1e-15, atol=0)


class TestLocalTransform:
    def test_identities_leave_state(self, rng):
        pt = rng.random((4, 4))
        assert_allclose(local_transform(pt, np.eye(4), np.eye(4)), pt)

    def test_product_state_transforms_factorwise(self, rng):
        u = haar_unitary(rng, 2)
        z = z_from_unitary(u, QT2)
        p_a, p_b = QT2.basis_p[0], QT2.basis_p[1]
        lhs = local_transform(np.outer(p_a, p_b), z, np.eye(4))
        rhs = np.outer(z @ p_a, p_b)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_entangled_state_with_local_unitaries(self, rng):
        for _ in range(10):
            ua, ub = haar_unitary(rng, 2), haar_unitary(rng, 2)
            za = z_from_unitary(ua, QT2)
            zb = z_from_unitary(ub, QT2)
            pt = composite_from_density(BELL, QT2, QT2)
            lhs = local_transform(pt, za, zb)
            u = np.kron(ua, ub)
            rhs = composite_from_density(u @ BELL @ u.conj().T, QT2, QT2)
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
                composite_from_density(rho, ta, tb), za, zb
            )
            evolved = np.zeros_like(rho)
            for ma in ka.operators:
                for mb in kb.operators:
                    m = np.kron(ma, mb)
                    evolved = evolved + m @ rho @ m.conj().T
            transform_then_extract = composite_from_density(evolved, ta, tb)
            assert np.abs(extract_then_transform - transform_then_extract).max() <= 1e-10


class TestConditionalState:
    def test_bell_conditional_has_half_normalization(self):
        # the A-state given a positive first fiducial outcome at B is column 0 of p_tilde
        pt = composite_from_density(BELL, QT2, QT2)
        assert float(QT2.r_identity @ pt[:, 0]) == pytest.approx(0.5, abs=1e-12)


class TestDofCount:
    def test_two_qubits(self):
        assert dof_count_check(QT2.d, QT2.d) == 16

    def test_qubit_with_trivial_side(self):
        t1 = quantum_theory(1)
        assert dof_count_check(QT2.d, t1.d) == 4

    def test_classical_pair(self):
        ca, cb = classical_theory(2), classical_theory(2)
        assert dof_count_check(ca.d, cb.d) == 4

    def test_matches_rank_of_kronecker_product(self, rng):
        for _ in range(40):
            (ka, kb), (ra, rb) = rng.integers(1, 7, size=2), rng.integers(0, 7, size=2)
            ga, gb = rng.standard_normal((ka, ra)), rng.standard_normal((kb, rb))
            a, b = ga @ ga.T, gb @ gb.T  # symmetric, like every Gram matrix D
            expected = np.linalg.matrix_rank(np.kron(a, b))
            assert dof_count_check(a, b) == expected == min(ka, ra) * min(kb, rb)

    @pytest.mark.parametrize("build", [classical_theory, quantum_theory])
    def test_equals_the_svd_rank_product(self, build):
        other = build(2).d
        for n in range(1, 9):
            d = build(n).d
            svd_rank = np.linalg.matrix_rank(d) * np.linalg.matrix_rank(other)
            assert dof_count_check(d, other) == svd_rank == len(d) * len(other)

    def test_duplicated_fiducial_drops_the_rank(self):
        d = QT2.d.copy()
        d[3, :] = d[0, :]  # fiducial 4 replaced by fiducial 1, in its row and its column
        d[:, 3] = d[:, 0]
        assert np.array_equal(d, d.T)
        assert dof_count_check(d, QT2.d) == 3 * 4

    @pytest.mark.parametrize("case", ["skew", "rect"])
    def test_non_symmetric_input_is_refused(self, case):
        d = QT2.d.copy()
        if case == "skew":
            d[0, 1] += 1e-9
        else:
            d = d[:3]
        with pytest.raises(DimensionError, match="not symmetric"):
            dof_count_check(QT2.d, d)


class TestEntanglementWitness:
    def test_joint_normalization_of_bell(self):
        pt = composite_from_density(BELL, QT2, QT2)
        assert joint_normalization(pt, QT2.r_identity, QT2.r_identity) == pytest.approx(1.0)
