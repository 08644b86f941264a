import numpy as np
import pytest
from numpy.testing import assert_allclose

import gptkit.composite
from gptkit import harness, serialize
from gptkit import (
    DimensionError,
    GptError,
    KrausSet,
    Theory,
    build_canonical_frame,
    canonical_labels,
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


def exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination over Python ints."""
    m = [list(row) for row in rows]
    rank, previous = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            lead = m[i][col]
            quotients = [divmod(top[col] * x - lead * y, previous) for x, y in zip(m[i], top)]
            assert all(r == 0 for _, r in quotients)  # Bareiss divisions are exact
            m[i] = [q for q, _ in quotients]
        previous = top[col]
        rank += 1
    return rank


def product_coordinates(na: int, nb: int, units: str) -> list[list[int]]:
    """The integer coordinates 4 (Re + Im)(P_i (x) Q_j) of every product of
    two canonical frames' projectors, one row per pair (i, j)."""
    pa = build_canonical_frame(na, units).projectors
    pb = build_canonical_frame(nb, units).projectors
    products = np.einsum("iab,jcd->ijacbd", pa, pb).reshape(len(pa) * len(pb), -1)
    coordinates = 4 * (products.real + products.imag)
    integers = np.rint(coordinates).astype(np.int64)
    assert np.array_equal(integers, coordinates)
    return integers.tolist()


class TestDofCount:
    def test_two_qubits(self):
        assert dof_count_check("xy", 2, 2) == 16

    def test_qubit_with_trivial_side(self):
        assert dof_count_check("xy", 2, 1) == dof_count_check("xy", 1, 2) == 4

    def test_classical_pair(self):
        assert dof_count_check("", 2, 2) == 4

    @pytest.mark.parametrize("units", ["", "x", "y", "xy", "yx"])
    def test_equals_the_svd_rank_product(self, units):
        """The counted rank against the SVD ranks of the built frames'
        Hermitian coordinates."""
        other = build_canonical_frame(2, units)
        for n in range(1, 9):
            frame = build_canonical_frame(n, units)
            svd_rank = np.linalg.matrix_rank(frame.hermitian_coordinates()) * np.linalg.matrix_rank(
                other.hermitian_coordinates())
            assert dof_count_check(units, n, 2) == svd_rank == frame.k * other.k

    def test_composite_pipeline_builds_only_the_dimension_2_frame(self, monkeypatch, tmp_path):
        sizes, original = [], gptkit.composite.build_canonical_frame

        def record(n, units="xy"):
            sizes.append(n)
            return original(n, units)

        for module in (gptkit.composite, harness):
            monkeypatch.setattr(module, "build_canonical_frame", record)
        serialize.write_json(tmp_path / "rho.json", serialize.operator_to_dict(np.eye(6) / 6))
        outcome = harness.PIPELINES["composite"]({"rho": "rho.json", "na": 6, "nb": 1}, 0, tmp_path, tmp_path)
        assert (outcome["status"], outcome["details"]["dof_rank"], sizes) == ("pass", 36, [2])

    @pytest.mark.parametrize("na, nb", [(0, 2), (2, 0), (-1, 1)])
    def test_non_positive_dimension_rejected(self, na, nb):
        with pytest.raises(DimensionError, match="positive"):
            dof_count_check("xy", na, nb)

    # units -> the rank at 2 x 2, 2 x 3 and 3 x 3; real units ("x") fall short of K(N_A N_B)
    RANK_TABLE = {"xy": (16, 36, 81), "x": (9, 18, 36), "": (4, 6, 9)}

    @pytest.mark.parametrize("units", list(RANK_TABLE), ids=["xy", "x", "no-units"])
    def test_rank_equals_the_exact_product_rank(self, units):
        for (na, nb), expected in zip([(2, 2), (2, 3), (3, 3)], self.RANK_TABLE[units], strict=True):
            rank = dof_count_check(units, na, nb)
            assert rank == exact_rank(product_coordinates(na, nb, units)) == expected
            k_ab = len(canonical_labels(na * nb, units))
            assert (rank == k_ab) == (units != "x")


class TestEntanglementWitness:
    def test_joint_normalization_of_bell(self):
        pt = composite_from_density(BELL, QT2, QT2)
        assert joint_normalization(pt, QT2.r_identity, QT2.r_identity) == pytest.approx(1.0)
