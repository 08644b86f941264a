import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from gptkit import (
    D2Params,
    DegenerateFrameError,
    DimensionError,
    FiducialFrame,
    NoSignatureError,
    Signature,
    build_canonical_frame,
    build_general_d,
    c_bounds,
    canonical_labels,
    d2_assemble,
    frame_from_phases,
    gram_matrix,
    recover_phases,
    signature_from_table,
)
from gptkit import frames
from gptkit.errors import GptError
from gptkit.frames import MAX_FRAME_ENTRIES, canonical_vectors
from gptkit.states import classical_theory, quantum_theory
from conftest import cached_quantum_theory

DHALFS = np.array(
    [
        [1.0, 0.0, 0.5, 0.5],
        [0.0, 1.0, 0.5, 0.5],
        [0.5, 0.5, 1.0, 0.5],
        [0.5, 0.5, 0.5, 1.0],
    ]
)

# 9x9 canonical D for N=3 over order (1, 2, 3, 12x, 12y, 13x, 13y, 23x, 23y)
# with h = 1/2 and q = 1/4
H, Q = 0.5, 0.25
D3 = np.array(
    [
        [1, 0, 0, H, H, H, H, 0, 0],
        [0, 1, 0, H, H, 0, 0, H, H],
        [0, 0, 1, 0, 0, H, H, H, H],
        [H, H, 0, 1, H, Q, Q, Q, Q],
        [H, H, 0, H, 1, Q, Q, Q, Q],
        [H, 0, H, Q, Q, 1, H, Q, Q],
        [H, 0, H, Q, Q, H, 1, Q, Q],
        [0, H, H, Q, Q, Q, Q, 1, H],
        [0, H, H, Q, Q, Q, Q, H, 1],
    ],
    dtype=float,
)


class TestBuildCanonicalFrame:
    def test_dimension_one_is_the_scalar_identity(self):
        frame = build_canonical_frame(1)
        assert frame.k == 1
        assert_allclose(frame.projectors[0], [[1.0]])

    def test_qubit_pair_projectors_match_direct_outer_products(self):
        # oracle: expand (|1> + |2>)/sqrt(2) and (|1> + i|2>)/sqrt(2) by hand
        frame = build_canonical_frame(2)
        assert frame.k == 4
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        plus_i = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert_allclose(frame.projectors[2], np.outer(plus, plus.conj()), atol=1e-15)
        assert_allclose(frame.projectors[3], np.outer(plus_i, plus_i.conj()), atol=1e-15)
        assert_allclose(frame.projectors[3], [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            build_canonical_frame(0)

    def test_qutrit_frame_has_nine_independent_projectors(self):
        frame = build_canonical_frame(3)
        assert frame.k == 9
        flat = np.concatenate(
            [frame.projectors.real.reshape(9, -1), frame.projectors.imag.reshape(9, -1)],
            axis=1,
        )
        assert np.linalg.matrix_rank(flat) == 9

    @pytest.mark.parametrize("n", range(1, 7))
    def test_projector_invariants(self, n):
        frame = build_canonical_frame(n)
        assert frame.k == n * n
        for proj in frame.projectors:
            assert np.abs(proj - proj.conj().T).max() <= 1e-12
            assert np.abs(proj @ proj - proj).max() <= 1e-12
            assert abs(np.trace(proj) - 1.0) <= 1e-12
        frame.validate()

    def test_ordering_basis_then_lexicographic_pairs(self):
        labels = canonical_labels(3)
        assert labels == (
            ("b", 0, 0),
            ("b", 1, 1),
            ("b", 2, 2),
            ("x", 0, 1),
            ("y", 0, 1),
            ("x", 0, 2),
            ("y", 0, 2),
            ("x", 1, 2),
            ("y", 1, 2),
        )


class TestCanonicalVectors:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_each_vector_spans_its_projector(self, n):
        vectors = canonical_vectors(n)
        assert set(np.unique(vectors)) <= {0, 1, 1j}
        norms = np.einsum("ki,ki->k", vectors.conj(), vectors).real
        dyads = np.einsum("ki,kj->kij", vectors, vectors.conj()) / norms[:, None, None]
        assert np.array_equal(dyads, build_canonical_frame(n).projectors)


# The unit sets of the classical, real and complex theories, with the signature
# (x1, x2) of K(N) = sum_j C(N, j) x_j that each must give
UNIT_SETS = {"": (1,), "x": (1, 1), "xy": (1, 2)}


class TestUnitSets:
    @pytest.mark.parametrize("units, counts", UNIT_SETS.items())
    def test_label_count_table_has_the_unit_sets_signature(self, units, counts):
        table = {n: len(canonical_labels(n, units)) for n in range(1, 7)}
        assert signature_from_table(table) == Signature(counts)

    def test_real_table_is_n_choose_2_plus_n(self):
        # the real_table of acceptance criterion 9
        assert {n: len(canonical_labels(n, "x")) for n in range(1, 7)} == {
            n: n * (n + 1) // 2 for n in range(1, 7)
        }

    @pytest.mark.parametrize("units", UNIT_SETS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_subspace_rules_give_the_gram_matrix_exactly(self, units, n):
        assert np.array_equal(build_general_d(n, units), gram_matrix(build_canonical_frame(n, units)))

    @pytest.mark.parametrize("units", UNIT_SETS)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_canonical_frames_pass_validate(self, units, n):
        # the build skips validate(): each invariant holds by construction
        build_canonical_frame(n, units).validate()

    @pytest.mark.parametrize("units", ["xx", "z", "xyx"])
    def test_repeated_or_unknown_units_are_refused(self, units):
        # a repeated unit would repeat a projector, so the frame would be dependent
        with pytest.raises(GptError, match="PAIR_UNITS"):
            canonical_labels(3, units)

    def test_classical_frame_is_the_basis(self):
        frame = build_canonical_frame(3, "")
        assert frame.labels == canonical_labels(3)[:3]
        assert np.array_equal(frame.projectors, np.eye(3)[:, :, None] * np.eye(3)[:, None, :])
        assert np.array_equal(build_general_d(3, ""), np.eye(3))


class TestFrameBound:
    @pytest.mark.parametrize("units, n_max", [("", 406), ("xy", 90)])
    def test_largest_admitted_projector_block(self, units, n_max):
        assert len(canonical_labels(n_max, units)) * n_max**2 <= MAX_FRAME_ENTRIES
        with pytest.raises(DimensionError, match="projector entries"):
            build_canonical_frame(n_max + 1, units)

    @pytest.mark.parametrize("build, units, n_max", [(classical_theory, "", 8192), (quantum_theory, "xy", 90)])
    def test_largest_admitted_theory(self, build, units, n_max):
        # a theory builds its K x K D but not the frame's projector block
        assert len(canonical_labels(n_max, units)) ** 2 <= MAX_FRAME_ENTRIES
        with pytest.raises(DimensionError, match="D entries"):
            build(n_max + 1)

    def test_theory_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(frames, "MAX_FRAME_ENTRIES", 16**2)
        assert classical_theory(16).k == 16
        assert quantum_theory(4).k == 16
        for build, n in [(classical_theory, 17), (quantum_theory, 5)]:
            with pytest.raises(DimensionError):
                build(n)

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(frames, "MAX_FRAME_ENTRIES", 3**4)
        assert build_canonical_frame(3).k == 9  # 9 x 3 x 3 = 81 entries
        assert build_canonical_frame(4, "").k == 4  # 64 entries
        with pytest.raises(DimensionError):
            build_canonical_frame(4)  # 256 entries

    def test_huge_dimension_is_refused_before_any_label(self, monkeypatch):
        monkeypatch.setattr(frames, "canonical_labels", None)  # calling it would raise TypeError
        with pytest.raises(DimensionError, match="MAX_FRAME_ENTRIES"):
            build_canonical_frame(10**13, "")


def re_im_singular_values(frame):
    """Singular values of the (K, 2 N^2) [Re | Im] flattening of the projectors."""
    flat = np.concatenate(
        [frame.projectors.real.reshape(frame.k, -1), frame.projectors.imag.reshape(frame.k, -1)],
        axis=1,
    )
    return np.linalg.svd(flat, compute_uv=False)


def assert_same_spectrum(svals, expected):
    """Equal to 1e-13 relative to the largest singular value, the scale of
    the rounding of a backward-stable SVD or eigensolver."""
    assert svals.shape == expected.shape
    assert np.abs(svals - expected).max() <= 1e-13 * expected[0]


def family_frames():
    """Frames of the 4x4 (a, b, c) family, inside its bounds."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = rng.uniform(0.05, 0.95, size=2)
        lo, hi = c_bounds(float(a), float(b))
        c = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        yield frame_from_phases(recover_phases(d2_assemble(D2Params(float(a), float(b), float(c)))))


class TestHermitianCoordinates:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_singular_values_equal_those_of_the_re_im_flattening(self, n):
        frame = build_canonical_frame(n)
        coords = frame.hermitian_coordinates()
        assert coords.shape == (n * n, n * n)
        assert_same_spectrum(np.linalg.svd(coords, compute_uv=False), re_im_singular_values(frame))

    def test_singular_values_of_recovered_family_frames(self):
        for frame in family_frames():
            svals = np.linalg.svd(frame.hermitian_coordinates(), compute_uv=False)
            assert_same_spectrum(svals, re_im_singular_values(frame))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_row_products_are_the_gram_matrix(self, n):
        theory = cached_quantum_theory(n)
        coords = build_canonical_frame(n).hermitian_coordinates()
        assert np.abs(coords @ coords.T - theory.d).max() <= 1e-15

    def test_validate_refuses_a_duplicated_projector(self):
        base = build_canonical_frame(2)
        projectors = base.projectors.copy()
        projectors[3] = projectors[2]
        frame = FiducialFrame(dimension=2, projectors=projectors, labels=base.labels)
        with pytest.raises(DegenerateFrameError, match="linearly dependent"):
            frame.validate()


class TestGramMatrix:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_eigenvalue_moduli_are_the_singular_values(self, n):
        # gram_matrix reads D's smallest singular value as min |eigvalsh(D)|
        d = cached_quantum_theory(n).d
        moduli = np.sort(np.abs(np.linalg.eigvalsh(d)))[::-1]
        assert_same_spectrum(moduli, np.linalg.svd(d, compute_uv=False))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_flat_product_is_bit_identical_to_the_trace_einsum(self, n):
        theory = cached_quantum_theory(n)  # its d is gram_matrix(frame)
        projectors = build_canonical_frame(n).projectors
        flat = projectors.reshape(theory.k, -1)
        assert not (flat @ flat.conj().T).imag.any()
        einsum = np.einsum("iab,jba->ij", projectors, projectors).real
        assert theory.d.tobytes() == einsum.tobytes()

    def test_qubit_gram_is_dhalfs(self):
        d = gram_matrix(build_canonical_frame(2))
        assert np.abs(d - DHALFS).max() <= 1e-12

    def test_qutrit_gram_matches_half_quarter_pattern(self):
        d = gram_matrix(build_canonical_frame(3))
        assert np.abs(d - D3).max() <= 1e-12

    def test_basis_only_subframe_gives_identity(self):
        n = 4
        projectors = np.stack([np.diag(row).astype(complex) for row in np.eye(n)])
        frame = FiducialFrame(dimension=n, projectors=projectors, labels=canonical_labels(n)[:n])
        assert_allclose(gram_matrix(frame), np.eye(n))

    def test_duplicate_projector_raises_degenerate(self):
        base = build_canonical_frame(2)
        projectors = base.projectors.copy()
        projectors[3] = projectors[2]
        frame = FiducialFrame(dimension=2, projectors=projectors, labels=base.labels)
        with pytest.raises(DegenerateFrameError):
            gram_matrix(frame)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_unit_diagonal_entries_within_unit_interval(self, n):
        d = gram_matrix(build_canonical_frame(n))
        assert np.abs(d - d.T).max() <= 1e-12
        assert_allclose(np.diag(d), np.ones(n * n))
        assert d.min() >= 0.0 and d.max() <= 1.0

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_pair_restriction_of_qutrit_gram_reproduces_dhalfs(self, pair):
        d = gram_matrix(build_canonical_frame(3))
        labels = canonical_labels(3)
        m, n = pair
        keep = [
            i
            for i, (kind, a, b) in enumerate(labels)
            if {a, b} <= {m, n}
        ]
        assert np.abs(d[np.ix_(keep, keep)] - DHALFS).max() <= 1e-12


class TestSignature:
    def test_classical_table(self):
        assert signature_from_table({1: 1, 2: 2, 3: 3}) == Signature((1,))

    def test_quantum_table(self):
        assert signature_from_table({1: 1, 2: 4, 3: 9, 4: 16}) == Signature((1, 2))

    def test_real_hilbert_table(self):
        table = {n: n * (n + 1) // 2 for n in range(1, 5)}
        assert signature_from_table(table) == Signature((1, 1))

    def test_inconsistent_table_rejected(self):
        with pytest.raises(NoSignatureError):
            signature_from_table({1: 1, 2: 3, 3: 5})  # forces x3 = -1

    def test_gapped_table_rejected(self):
        with pytest.raises(NoSignatureError):
            signature_from_table({1: 1, 3: 9})

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
    def test_round_trip_is_identity(self, counts):
        sig = Signature(tuple(counts))
        n_max = max(len(sig.counts), 1) + 2
        table = {n: sig.k_of(n) for n in range(1, n_max + 1)}
        assert signature_from_table(table) == sig
