import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptkit import (
    DimensionError,
    GptError,
    KrausSet,
    PathReport,
    build_canonical_frame,
    check_measurement_update,
    choi_matrix,
    classical_theory,
    continuity_probe,
    is_completely_positive,
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
import gptkit.dynamics
import gptkit.states
from gptkit import harness
from gptkit.harness import run_axiom_suite
from gptkit.frames import PURITY_TOL
from conftest import (
    cached_quantum_theory,
    haar_state,
    haar_unitary,
    random_density,
    random_kraus,
    random_trace_preserving_kraus,
    traced_peak,
)

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
        assert z.dtype == float and z.shape == (4, 4)
        assert_allclose(z, np.eye(4), atol=1e-12)

    def test_von_neumann_projection_on_mixed_state(self):
        z = z_from_kraus(KrausSet(P1), QT2)
        mixed = p_from_density(np.eye(2, dtype=complex) / 2.0, build_canonical_frame(2))
        # oracle: P (I/2) P = |1><1| / 2, converted directly
        expected = p_from_density(P1 / 2.0, build_canonical_frame(2))
        assert_allclose(z @ mixed, expected, atol=1e-12)

    def test_projection_annihilates_other_basis_state(self):
        z = z_from_kraus(KrausSet(P1), QT2)
        assert_allclose(z @ QT2.basis_p[1], np.zeros(4), atol=1e-12)

    def test_unitary_kraus_inverts(self, rng):
        u = haar_unitary(rng, 2)
        z = z_from_kraus(KrausSet(u[np.newaxis]), QT2)
        z_back = z_from_kraus(KrausSet(u.conj().T[np.newaxis]), QT2)
        assert_allclose(z @ z_back, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutes_with_operator_action(self, n, rng):
        theory = quantum_theory(n)
        for _ in range(50):
            kraus = KrausSet(random_kraus(rng, n))
            z = z_from_kraus(kraus, theory)
            rho = random_density(rng, n, trace=rng.random())
            lhs = p_from_density(kraus.apply(rho), build_canonical_frame(n))
            rhs = z @ p_from_density(rho, build_canonical_frame(n))
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_composition(self, rng):
        k1 = KrausSet(random_kraus(rng, 2))
        k2 = KrausSet(random_kraus(rng, 2))
        z1 = z_from_kraus(k1, QT2)
        z2 = z_from_kraus(k2, QT2)
        # Kraus set of k2 after k1: every product B_b A_a
        k21 = np.einsum("bij,ajk->baik", k2.operators, k1.operators).reshape(-1, 2, 2)
        z21 = z_from_kraus(KrausSet(k21), QT2)
        assert np.abs(z21 - z2 @ z1).max() <= 1e-10


def schrodinger_z(kraus: KrausSet, theory) -> np.ndarray:
    """Oracle Z = M D^{-1} with M[i, j] = tr(P_i $(P_j)), the Schrodinger
    picture: map every fiducial projector, then solve against D."""
    ops, proj = kraus.operators, build_canonical_frame(theory.dimension, theory.units).projectors
    mapped = (ops[:, None] @ proj[None] @ ops.conj().transpose(0, 2, 1)[:, None]).sum(axis=0)
    m = np.einsum("iab,jba->ij", proj, mapped).real
    return np.linalg.solve(theory.d, m.T).T


def kraus_of_kind(kind: str, rng, n: int) -> np.ndarray:
    if kind == "unitary":
        return haar_unitary(rng, n)[np.newaxis]
    if kind == "no-terms":
        return np.zeros((0, n, n), dtype=complex)
    terms = {"cptp-l2": 2, "cptp-l4": 4, "trace-increasing": 2}[kind]
    scale = 1.25 if kind == "trace-increasing" else 1.0
    return np.sqrt(scale) * random_trace_preserving_kraus(rng, n, terms)


class TestHeisenbergZ:
    """Row k of Z is the r-vector of $^dag(P_k); the oracle maps the
    projectors forward and solves against D."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("kind", ["unitary", "cptp-l2", "cptp-l4", "trace-increasing", "no-terms"])
    def test_matches_schrodinger_oracle(self, kind, n, rng):
        theory = cached_quantum_theory(n)
        kraus = KrausSet(kraus_of_kind(kind, rng, n))
        assert_allclose(z_from_kraus(kraus, theory), schrodinger_z(kraus, theory), rtol=0, atol=1e-12)

    def test_no_terms_give_the_zero_map(self):
        z = z_from_kraus(KrausSet(np.zeros((0, 2, 2), dtype=complex)), QT2)
        assert_allclose(z, np.zeros((4, 4)), rtol=0, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(GptError, match="does not match"):
            z_from_kraus(KrausSet(np.eye(3, dtype=complex)), QT2)

    def test_large_kraus_entries_keep_the_images_exactly_hermitian(self, rng):
        # r_of refuses a non-Hermitian operator; each image is a sum of
        # dyads w w^dag, so it is Hermitian to the bit at any scale
        theory = quantum_theory(5)
        ops = 1e6 * random_kraus(rng, 5, terms=3)
        expected = schrodinger_z(KrausSet(ops), theory)
        got = z_from_kraus(KrausSet(ops), theory)
        assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_blocks_keep_the_bits(self, rows, rng, monkeypatch):
        """Each entry of Z goes through the same arithmetic in any block of
        rows, so Z equals the one-block build bit for bit."""
        theory = cached_quantum_theory(8)
        kraus = KrausSet(kraus_of_kind("cptp-l4", rng, 8))
        monkeypatch.setattr(gptkit.dynamics, "HEISENBERG_BLOCK_ENTRIES", theory.k * 64)
        whole = z_from_kraus(kraus, theory)
        monkeypatch.setattr(gptkit.dynamics, "HEISENBERG_BLOCK_ENTRIES", rows * 64)
        assert z_from_kraus(kraus, theory).tobytes() == whole.tobytes()

    def test_peak_memory_is_z_and_one_block(self, rng):
        """Z is filled in row blocks, so the build holds about Z and one
        Heisenberg block: no (K, N, N) block or K x N^2 temporary of r_of."""
        theory = cached_quantum_theory(24)
        kraus = KrausSet(random_kraus(rng, 24, terms=2))
        z, peak = traced_peak(z_from_kraus, kraus, theory)
        assert peak <= 2 * z.nbytes

    def test_z_and_probe_solve_nothing(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("called a solve or a p-vector conversion")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for module in (gptkit.states, gptkit.dynamics):
            for name in ("r_from_p", "p_from_density"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        theory = quantum_theory(3)
        z_from_kraus(KrausSet(random_kraus(rng, 3)), theory)
        z_from_unitary(haar_unitary(rng, 3), theory)
        r_a, r_b = (theory.r_of(np.outer(psi, psi.conj())) for psi in (haar_state(rng, 3), haar_state(rng, 3)))
        assert continuity_probe(theory, r_a, r_b, steps=5).pure_path


class TestZFromUnitary:
    def test_identity(self):
        z = z_from_unitary(np.eye(2, dtype=complex), QT2)
        assert z.dtype == float and z.shape == (4, 4)
        assert_allclose(z, np.eye(4), atol=1e-12)

    def test_swap_unitary_against_operator_oracle(self):
        z = z_from_unitary(PAULI_X, QT2)
        # oracle: conjugate each projector by X and take traces
        for rho in (P1, P2, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)):
            lhs = z @ p_from_density(rho, build_canonical_frame(2))
            rhs = p_from_density(PAULI_X @ rho @ PAULI_X.conj().T, build_canonical_frame(2))
            assert_allclose(lhs, rhs, atol=1e-12)
        # p1 and p2 swap; the x entry is fixed for X-symmetric states
        p = z @ np.array([1.0, 0.0, 0.5, 0.5])
        assert_allclose(p[:2], [0.0, 1.0], atol=1e-12)

    def test_phase_gate_rotates_xy_plane(self, rng):
        u = np.diag([1.0, np.exp(1j * np.pi / 2.0)])
        z = z_from_unitary(u, QT2)
        for _ in range(10):
            rho = random_density(rng, 2)
            lhs = z @ p_from_density(rho, build_canonical_frame(2))
            rhs = p_from_density(u @ rho @ u.conj().T, build_canonical_frame(2))
            assert_allclose(lhs, rhs, atol=1e-12)
        basis = z @ np.array([1.0, 0.0, 0.5, 0.5])
        assert_allclose(basis[:2], [1.0, 0.0], atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(GptError):
            z_from_unitary(np.diag([1.0, 0.5]), QT2)


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
        assert not is_completely_positive(s)
        eigs = np.linalg.eigvalsh(choi_matrix(s))
        assert_allclose(sorted(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_identity_map_accepted(self):
        assert is_completely_positive(np.eye(4))

    @pytest.mark.parametrize("seed", range(4))
    def test_large_kraus_superoperators_accepted(self, seed):
        # Choi entries of about 2e6 put rounding of about -1e-9 on its smallest
        # eigenvalue, beyond an absolute PSD_TOL but not a relative one
        rng = np.random.default_rng(seed)
        ops = 1e3 * (rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
        assert is_completely_positive(kraus_to_superoperator(KrausSet(ops)))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_scaled_transpose_map_rejected(self, scale):
        assert not is_completely_positive(scale * transpose_superoperator(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_kraus_superoperators_accepted(self, n, rng):
        for _ in range(20):
            s = kraus_to_superoperator(KrausSet(random_kraus(rng, n)))
            assert is_completely_positive(s)

    def test_choi_matrix_matches_defining_sum(self, rng):
        n = 3
        s = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        expected = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                unit = np.zeros((n, n))
                unit[i, j] = 1.0
                image = (s @ unit.flatten(order="F")).reshape((n, n), order="F")
                expected += np.kron(unit, image)
        assert np.array_equal(choi_matrix(s), expected / n)

    def test_superoperator_matrix_agrees_with_kraus_action(self, rng):
        kraus = KrausSet(random_kraus(rng, 2))
        s = kraus_to_superoperator(kraus)
        rho = random_density(rng, 2)
        lhs = (s @ rho.flatten(order="F")).reshape((2, 2), order="F")
        assert_allclose(lhs, kraus.apply(rho), atol=1e-12)


def dephasing(n: int, eps: float = 0.1) -> np.ndarray:
    """Kraus form of rho -> (1 - eps) rho + eps Z rho Z, Z = diag(1, -1, 1, ...)."""
    sign = np.diag(np.resize([1.0, -1.0], n)).astype(complex)
    return np.stack([np.sqrt(1.0 - eps) * np.eye(n, dtype=complex), np.sqrt(eps) * sign])


# Row -> (Kraus operators from rng, reversible). Reversible means the inverse is
# an allowed map too: exactly the unitary conjugations, whatever the Kraus form.
# Partial dephasing and sqrt(2) I have invertible Z whose inverse maps basis
# states back into the state space, yet neither inverse is a channel.
REVERSIBILITY_ROWS = {
    "haar-unitary": (lambda rng: haar_unitary(rng, 2), True),
    "identity": (lambda rng: np.eye(2, dtype=complex), True),
    "projection": (lambda rng: P1, False),
    "split-unitary": (lambda rng: np.stack([0.6 * (u := haar_unitary(rng, 3)), 0.8j * u]), True),
    "dephasing-n2": (lambda rng: dephasing(2), False),
    "dephasing-n16": (lambda rng: dephasing(16), False),
    "sqrt2-identity": (lambda rng: np.sqrt(2.0) * np.eye(2, dtype=complex), False),
    "half-unitary": (lambda rng: 0.5 * haar_unitary(rng, 2), False),
    "cptp-l2": (lambda rng: random_trace_preserving_kraus(rng, 3, terms=2), False),
    "no-terms": (lambda rng: np.zeros((0, 2, 2), dtype=complex), False),
}


class TestReversibility:
    @pytest.mark.parametrize("row", REVERSIBILITY_ROWS)
    def test_verdict(self, row, rng):
        build, reversible = REVERSIBILITY_ROWS[row]
        assert is_reversible(KrausSet(build(rng))) is reversible


class TestMeasurementUpdate:
    def _witnesses(self, rng):
        return [
            QT2.basis_p[0],
            QT2.basis_p[1],
            p_from_density(np.eye(2, dtype=complex) / 2.0, build_canonical_frame(2)),
            p_from_density(random_density(rng, 2), build_canonical_frame(2)),
        ]

    def test_von_neumann_pair_passes_exactly(self, rng):
        branches = [
            (KrausSet(P1), np.array([1.0, 0.0, 0.0, 0.0])),
            (KrausSet(P2), np.array([0.0, 1.0, 0.0, 0.0])),
        ]
        report = check_measurement_update(branches, QT2, self._witnesses(rng))
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("steps", [2, 11, 100])
    def test_path_reaches_the_far_endpoint(self, n, steps, rng):
        theory = quantum_theory(n)
        for _ in range(3):
            r_a, r_b = (self._pure_r(theory, haar_state(rng, n)) for _ in range(2))
            report = continuity_probe(theory, r_a, r_b, steps=steps)
            assert report.endpoint_deviation < 1e-12
            assert report.pure_path
            assert report.purities.shape == (steps,)
            assert report.midpoint_purity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_span_evaluation_matches_a_per_point_evaluation(self, n, rng):
        """The probe reads the purities, mu and r(1) off the three-operator
        span; the oracle takes r_of of each psi(t) psi(t)^dag and r^T D r."""
        theory = cached_quantum_theory(n)
        steps = 101
        for _ in range(3):
            psi_a, psi_b = haar_state(rng, n), haar_state(rng, n)
            r_a, r_b = (theory.r_of(np.outer(psi, psi.conj())) for psi in (psi_a, psi_b))
            report = continuity_probe(theory, r_a, r_b, steps=steps)

            overlap = psi_a.conj() @ psi_b
            psi_b = psi_b * (abs(overlap) / overlap)
            ortho = psi_b - abs(overlap) * psi_a
            theta = np.arctan2(np.linalg.norm(ortho), abs(overlap))
            phi = ortho / np.linalg.norm(ortho)
            ts = np.append(np.linspace(0.0, 1.0, steps), 0.5)
            rs = []
            for t in ts:
                psi = np.cos(t * theta) * psi_a + np.sin(t * theta) * phi
                rs.append(theory.r_of(np.outer(psi, psi.conj())))
            purities = np.array([r @ theory.d @ r for r in rs])
            mus = np.array([r @ theory.d @ theory.r_identity for r in rs])

            assert_allclose(report.purities, purities[:-1], rtol=0, atol=1e-13)
            assert report.midpoint_purity == pytest.approx(purities[-1], rel=0, abs=1e-13)
            assert report.max_deviation == pytest.approx(np.abs(purities[:-1] - 1.0).max(), rel=0, abs=1e-13)
            assert report.max_mu_deviation == pytest.approx(np.abs(mus[:-1] - 1.0).max(), rel=0, abs=1e-13)
            assert report.endpoint_deviation == pytest.approx(np.abs(rs[steps - 1] - r_b).max(), rel=0, abs=1e-13)

    def test_phase_multiple_is_a_constant_path(self, rng):
        theory = quantum_theory(3)
        psi = haar_state(rng, 3)
        r_a, r_b = self._pure_r(theory, psi), self._pure_r(theory, 1j * psi)
        report = continuity_probe(theory, r_a, r_b, steps=10)
        assert report.endpoint_deviation < 1e-12
        assert report.max_deviation < 1e-12

    def test_missed_endpoint_is_not_a_pure_path(self):
        report = PathReport(
            theory="quantum",
            steps=2,
            purities=np.ones(2),
            midpoint_purity=1.0,
            max_deviation=0.0,
            max_mu_deviation=0.0,
            endpoint_deviation=1e-6,
            tolerance=1e-9,
        )
        assert not report.pure_path

    @staticmethod
    def _pure_r(theory, psi):
        frame = build_canonical_frame(theory.dimension, theory.units)
        return r_from_p(p_from_density(np.outer(psi, psi.conj()), frame), theory.d)

    def test_impure_endpoint_rejected(self):
        mixed = r_from_p(np.full(4, 0.5), QT2.d)
        with pytest.raises(GptError):
            continuity_probe(QT2, mixed, np.array([1.0, 0.0, 0.0, 0.0]), steps=10)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_unit_purity_endpoint_that_is_not_idempotent_rejected(self, side, rng):
        """Eigenvalues (2/3, 2/3, -1/3): tr rho = 1 and tr rho^2 = 1, so
        r^T D r = 1, but rho^2 != rho, so it is no pure state."""
        theory = quantum_theory(3)
        u = haar_unitary(rng, 3)
        fake = theory.r_of((u * np.array([2.0, 2.0, -1.0]) / 3.0) @ u.conj().T)
        assert fake @ theory.d @ fake == pytest.approx(1.0, abs=1e-12)
        assert theory.r_identity @ theory.d @ fake == pytest.approx(1.0, abs=1e-12)
        pure = theory.basis_r[0]
        r_a, r_b = (fake, pure) if side == "a" else (pure, fake)
        with pytest.raises(GptError, match="not a pure"):
            continuity_probe(theory, r_a, r_b, steps=10)

    @pytest.mark.parametrize("scale, accepted", [(1e-11, True), (-1e-11, True), (1e-8, False), (-1e-8, False)])
    def test_endpoint_purity_reads_purity_tol(self, scale, accepted, rng):
        """(1 + s) |psi><psi| is off idempotence and unit trace by about s:
        within PURITY_TOL = 1e-9 it is accepted, beyond it refused."""
        theory = cached_quantum_theory(4)
        psi = haar_state(rng, 4)
        r_a = theory.r_of((1.0 + scale) * np.outer(psi, psi.conj()))
        if accepted:
            report = continuity_probe(theory, r_a, theory.basis_r[1], steps=10)
            assert report.max_deviation <= 1e-10 and report.endpoint_deviation <= 1e-12
        else:
            with pytest.raises(GptError, match="not a pure"):
                continuity_probe(theory, r_a, theory.basis_r[1], steps=10)

    def test_unitary_transforms_preserve_purity_and_mu(self, rng):
        for _ in range(20):
            u = haar_unitary(rng, 2)
            z = z_from_unitary(u, QT2)
            psi = haar_state(rng, 2)
            p = p_from_density(np.outer(psi, psi.conj()), build_canonical_frame(2))
            r0 = r_from_p(p, QT2.d)
            moved = z @ p
            r1 = r_from_p(moved, QT2.d)
            for r in (r0, r1):  # pure and normalised: r^T D r = 1 and r_I . D r = 1
                assert r @ QT2.d @ r == pytest.approx(1.0, abs=PURITY_TOL)
                assert QT2.r_identity @ (QT2.d @ r) == pytest.approx(1.0, abs=PURITY_TOL)
            assert float(QT2.r_identity @ moved) == pytest.approx(
                float(QT2.r_identity @ p), abs=1e-12
            )


class TestContinuityProbeStack:
    """A stack of m endpoint pairs (m, K) is probed in one pass and gives a
    tuple of m reports, each equal to the single-pair (K,) call's."""

    @staticmethod
    def _assert_same_report(got, want):
        assert isinstance(got, PathReport) and isinstance(want, PathReport)
        for field in dataclasses.fields(PathReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape
                assert_allclose(a, b, rtol=0, atol=1e-15)
            elif isinstance(a, float):
                assert a == pytest.approx(b, rel=0, abs=1e-15), field.name
            else:
                assert a == b, field.name

    @staticmethod
    def _pairs(theory, rng):
        """Random pairs plus the edge cases: an identical pair (theta = 0), a
        phase multiple, and two orthogonal basis states (<psi_a|psi_b> = 0)."""
        n, psi = theory.dimension, haar_state(rng, theory.dimension)
        psi_a = [haar_state(rng, n) for _ in range(3)] + [psi, psi, np.eye(n)[0]]
        psi_b = [haar_state(rng, n) for _ in range(3)] + [psi, np.exp(0.7j) * psi, np.eye(n)[1]]
        return tuple(theory.r_of(np.stack([np.outer(v, v.conj()) for v in vs])) for vs in (psi_a, psi_b))

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_stack_matches_single_pair_calls(self, n, rng):
        theory = cached_quantum_theory(n)
        r_a, r_b = self._pairs(theory, rng)
        reports = continuity_probe(theory, r_a, r_b, steps=50)
        assert isinstance(reports, tuple) and len(reports) == len(r_a) == 6
        for report, a, b in zip(reports, r_a, r_b):
            self._assert_same_report(report, continuity_probe(theory, a, b, steps=50))
            assert report.pure_path and report.endpoint_deviation < 1e-12
        # the identical pair stays put, the phase multiple too
        for report in reports[3:5]:
            assert report.max_deviation < 1e-12 and report.endpoint_deviation < 1e-12

    def test_classical_stack_matches_single_pair_calls(self):
        theory = classical_theory(3)
        r_a, r_b = theory.basis_r[[0, 0, 1, 2]], theory.basis_r[[1, 2, 2, 2]]
        reports = continuity_probe(theory, r_a, r_b, steps=21)
        assert len(reports) == 4
        for report, a, b in zip(reports, r_a, r_b):
            self._assert_same_report(report, continuity_probe(theory, a, b, steps=21))
        assert [r.pure_path for r in reports] == [False, False, False, True]
        assert reports[0].midpoint_purity == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("theory", [quantum_theory(3), classical_theory(3)], ids=["quantum", "classical"])
    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_impure_endpoint_anywhere_in_a_stack_is_refused(self, theory, row, side):
        r_a, r_b = np.tile(theory.basis_r[0], (5, 1)), np.tile(theory.basis_r[1], (5, 1))
        (r_a if side == "a" else r_b)[row] = theory.r_identity / 3  # the maximally mixed state
        with pytest.raises(GptError, match="not a pure"):
            continuity_probe(theory, r_a, r_b, steps=10)

    @pytest.mark.parametrize("n", [2, 16])
    def test_an_empty_stack_gives_an_empty_tuple(self, n):
        theory = cached_quantum_theory(n)
        assert continuity_probe(theory, np.zeros((0, theory.k)), np.zeros((0, theory.k)), steps=10) == ()

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_a_stack_gives_a_tuple_and_one_pair_one_report(self, m):
        r_a, r_b = np.tile(QT2.basis_r[0], (m, 1)), np.tile(QT2.basis_r[1], (m, 1))
        reports = continuity_probe(QT2, r_a, r_b, steps=10)
        assert isinstance(reports, tuple) and len(reports) == m
        assert all(isinstance(report, PathReport) for report in reports)
        assert isinstance(continuity_probe(QT2, QT2.basis_r[0], QT2.basis_r[1], steps=10), PathReport)

    @pytest.mark.parametrize("r_a, r_b", [(np.zeros(4), np.zeros((1, 4))), (np.zeros((2, 4)), np.zeros((3, 4))),
                                          (np.zeros(3), np.zeros(3)), (np.zeros((1, 1, 4)), np.zeros((1, 1, 4)))])
    def test_endpoint_shapes_must_agree_with_k(self, r_a, r_b):
        with pytest.raises(DimensionError):
            continuity_probe(QT2, r_a, r_b, steps=10)

    def test_quantum_suite_makes_one_probe_call(self, monkeypatch):
        calls, probe = [], harness.continuity_probe

        def record(theory, r_a, r_b, steps):
            calls.append((np.shape(r_a), np.shape(r_b), steps))
            return probe(theory, r_a, r_b, steps)

        monkeypatch.setattr(harness, "continuity_probe", record)
        assert run_axiom_suite("quantum", 3, seed=1).passed
        pairs = (harness.CONTINUITY_PAIRS, 9)
        assert calls == [(pairs, pairs, harness.CONTINUITY_STEPS)]
