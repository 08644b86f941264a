import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cached_quantum_theory
from gptkit import axioms
from gptkit.frames import LINEARITY_PAIRS, LINEARITY_RTOL
from gptkit import (
    GptError,
    MonotonicityError,
    build_general_d,
    build_canonical_frame,
    canonical_labels,
    check_basis_distinguishability,
    check_linearity,
    check_subspace_axiom,
    classical_theory,
    fit_power_law,
    gram_matrix,
    is_completely_multiplicative,
    p_from_density,
    quantum_theory,
    r_from_p,
    theory_by_name,
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

    def test_increasing_table_with_a_broken_product_fails(self):
        t = table(lambda n: n * n, 6)
        t[6] = 35  # K(6) != K(2) K(3), yet the table still increases
        assert fit_power_law(t) is None

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


def per_subset_oracle(theory, subset):
    """The one-subset axiom-3 deviations, written out directly: the fiducials
    supported inside W by np.isin, D restricted with np.ix_, and the
    reference D built for |W| over the theory's units."""
    w = tuple(sorted(subset))
    reference = build_general_d(len(w), theory.units)
    labels = build_canonical_frame(theory.dimension, theory.units).labels
    support = np.array(list(zip(*labels))[1:])
    in_w = np.isin(support, w)
    inside = np.flatnonzero(in_w.all(axis=0))
    disjoint = np.flatnonzero(~in_w.any(axis=0))
    d = np.asarray(theory.d, dtype=float)
    sub_dev = np.abs(d[np.ix_(inside, inside)] - reference).max()
    dis_dev = np.abs(d[np.ix_(disjoint, inside)]).max(initial=0.0)
    return sub_dev, dis_dev


def singles_pairs_and_triple(n):
    subsets = [{i} for i in range(n)] + [{i, j} for i in range(n) for j in range(i + 1, n)]
    return subsets + ([{0, 1, 2}] if n >= 3 else [])


class TestSubspaceAxiom:
    def test_pair_restriction_equals_dhalfs(self):
        theory = quantum_theory(3)
        [[sub_dev, dis_dev]] = check_subspace_axiom(theory, [{0, 1}])
        assert sub_dev <= 1e-12 and dis_dev <= 1e-12
        inside = [k for k, (_, i, j) in enumerate(canonical_labels(3)) if {i, j} <= {0, 1}]
        assert np.abs(theory.d[np.ix_(inside, inside)] - DHALFS).max() <= 1e-12

    def test_single_basis_state_invisible_to_disjoint_fiducials(self):
        theory = quantum_theory(3)
        [[sub_dev, dis_dev]] = check_subspace_axiom(theory, [{0}])
        assert sub_dev <= 1e-12
        # direct oracle: tr(P_23x |1><1|) = 0
        p23x = build_canonical_frame(3).projectors[7]
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert abs(np.trace(p23x @ rho)) <= 1e-15
        assert dis_dev <= 1e-12

    def test_full_set_restriction_is_d_itself(self):
        theory = quantum_theory(3)
        [[sub_dev, dis_dev]] = check_subspace_axiom(theory, [{0, 1, 2}])
        assert sub_dev == np.abs(theory.d - gram_matrix(build_canonical_frame(3))).max() <= 1e-12
        assert dis_dev == 0.0  # no fiducial is disjoint from the whole basis

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_pair_behaves_two_dimensionally(self, n):
        pairs = [{i, j} for i in range(n) for j in range(i + 1, n)]
        deviations = check_subspace_axiom(quantum_theory(n), pairs)
        assert deviations.shape == (len(pairs), 2)
        assert deviations.max() <= 1e-12

    def test_corrupted_d_detected(self):
        theory = quantum_theory(3)
        d = theory.d.copy()
        d[3, 4] = 0.75
        d[4, 3] = 0.75
        [[sub_dev, _]] = check_subspace_axiom(dataclasses.replace(theory, d=d), [{0, 1}])
        assert sub_dev == pytest.approx(0.25)

    def test_invalid_subset_rejected(self):
        with pytest.raises(GptError):
            check_subspace_axiom(quantum_theory(3), [{0, 7}])

    @pytest.mark.parametrize("subsets", [[{0, 1}, {0, 7}], [{0, 1}, set()]])
    def test_any_invalid_subset_in_the_list_rejected(self, subsets):
        with pytest.raises(GptError, match="is not a set of basis indices"):
            check_subspace_axiom(quantum_theory(3), subsets)

    def test_no_subsets_give_no_reports(self):
        assert check_subspace_axiom(quantum_theory(3), []).shape == (0, 2)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_classical_subsets_pass_against_the_identity(self, n):
        subsets = [{i, j} for i in range(n) for j in range(i, n)]
        deviations = check_subspace_axiom(classical_theory(n), subsets)
        assert deviations.shape == (len(subsets), 2)
        assert not deviations.any()  # the identity D is exact

    @pytest.mark.parametrize("entry, column", [((0, 1), 0), ((2, 0), 1)], ids=["restricted", "disjoint"])
    def test_classical_d_off_the_identity_fails(self, entry, column):
        d = np.eye(3)
        d[entry] = d[entry[::-1]] = 0.1
        [row] = check_subspace_axiom(dataclasses.replace(classical_theory(3), d=d), [{0, 1}])
        assert row[column] == pytest.approx(0.1)
        assert row[1 - column] == 0.0

    def test_nan_entry_gives_a_nan_deviation(self):
        d = quantum_theory(3).d.copy()
        d[0, -1] = d[-1, 0] = np.nan  # basis fiducial 1 against the {2, 3} y fiducial
        deviations = check_subspace_axiom(dataclasses.replace(quantum_theory(3), d=d), [{0, 1}, {1, 2}])
        assert np.isnan(deviations[1, 1]) and not np.isnan(np.delete(deviations.ravel(), 3)).any()

    @pytest.mark.parametrize(
        "name, n", [("quantum", n) for n in range(1, 7)] + [("classical", n) for n in range(1, 5)]
    )
    def test_batched_reports_equal_the_per_subset_oracle(self, name, n):
        theory = theory_by_name(name, n)
        subsets = singles_pairs_and_triple(n)
        k = theory.k
        rng = np.random.default_rng(n)
        entries = [divmod(int(e), k) for e in rng.choice(k * k, size=min(k * k, 40), replace=False)]
        failing = []
        for entry in [None, *entries]:
            d = theory.d.copy()
            if entry is not None:
                d[entry] += 0.3  # one entry, so D is no longer symmetric
            corrupted = dataclasses.replace(theory, d=d)
            expected = np.array([per_subset_oracle(corrupted, w) for w in subsets])
            assert np.array_equal(check_subspace_axiom(corrupted, subsets), expected)
            failing.append(int((expected > 1e-12).any(axis=1).sum()))
        assert failing[0] == 0 and max(failing[1:]) > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_quantum_16_equals_the_per_subset_oracle_on_a_corrupted_d(self, seed):
        """At K = 256: five random entries moved by 0.3, and a NaN between a basis
        fiducial a and the x fiducial of a pair {b, c} without a, which that
        pair reads as a disjoint probability; the arrays equal the oracle's
        bit for bit, NaN where the oracle reads the NaN."""
        theory = cached_quantum_theory(16)
        subsets = singles_pairs_and_triple(16)
        rng = np.random.default_rng(seed)
        d = theory.d.copy()
        rows, cols = np.divmod(rng.choice(theory.k ** 2, size=5, replace=False), theory.k)
        d[rows, cols] += 0.3
        a, b, c = rng.choice(16, size=3, replace=False)
        d[a, canonical_labels(16).index(("x", min(b, c), max(b, c)))] = np.nan
        corrupted = dataclasses.replace(theory, d=d)
        expected = np.array([per_subset_oracle(corrupted, w) for w in subsets])
        got = check_subspace_axiom(corrupted, subsets)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.isnan(got[subsets.index({min(b, c), max(b, c)}), 1]) and (got > 1e-12).sum() >= 2
        assert np.array_equal(check_subspace_axiom(theory, subsets),
                              np.array([per_subset_oracle(theory, w) for w in subsets]))

    @pytest.mark.parametrize("name", ["quantum", "classical"])
    def test_chunked_reads_equal_one_chunk(self, name, monkeypatch):
        """Subsets of one size are read in chunks of rows under
        SUBSPACE_CHUNK_ENTRIES; two pair rows per chunk give the same deviations."""
        theory = theory_by_name(name, 6)
        subsets = singles_pairs_and_triple(6)
        one_chunk = check_subspace_axiom(theory, subsets)
        k_in = len(build_general_d(2, theory.units))
        monkeypatch.setattr(axioms, "SUBSPACE_CHUNK_ENTRIES", 2 * theory.k * (k_in + 1))
        assert np.array_equal(check_subspace_axiom(theory, subsets), one_chunk)

    def test_corrupted_entry_in_the_last_chunk_fails(self, monkeypatch):
        """One D entry read only by the last pair {4, 5}, alone in the last
        of eight chunks, moves that pair's disjoint probability and nothing else."""
        theory = quantum_theory(6)
        pairs = [{i, j} for i in range(6) for j in range(i + 1, 6)]
        monkeypatch.setattr(axioms, "SUBSPACE_CHUNK_ENTRIES", 2 * theory.k * (4 + 1))
        d = theory.d.copy()
        d[0, build_canonical_frame(6).labels.index(("y", 4, 5))] = 0.25  # basis fiducial 0 is disjoint from {4, 5}
        deviations = check_subspace_axiom(dataclasses.replace(theory, d=d), pairs)
        assert deviations[-1, 1] == 0.25
        assert deviations[:-1].max() <= 1e-12 and deviations[-1, 0] <= 1e-12
        assert check_subspace_axiom(theory, pairs)[-1].max() <= 1e-12


class TestBasisDistinguishability:
    def test_quantum_qubit(self):
        assert check_basis_distinguishability(quantum_theory(2)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_classical_any_dimension(self, n):
        assert check_basis_distinguishability(classical_theory(n)) == 0.0

    def test_perturbed_basis_fails(self):
        theory = quantum_theory(2)
        basis_r = theory.basis_r.copy()
        basis_r[0, 2] = 0.05
        broken = type(theory)(
            name=theory.name,
            units=theory.units,
            d=theory.d,
            r_identity=theory.r_identity,
            basis_r=basis_r,
            basis_p=theory.basis_p,
        )
        assert check_basis_distinguishability(broken) >= 0.05  # the basis no longer sums to r_I


def written_out_linearity(theory, rng):
    """The first pair of ``check_linearity``'s draw, written out: M and rho as
    G G^dag / tr, their r-vectors by the solve against the projectors' Gram
    matrix, and |r_M . D r_rho - tr(M rho)| over K eps |r_M|_1 max|D r_rho|."""
    n = theory.dimension
    gauss = rng.standard_normal((2, 2, n, n))
    m, rho = (g @ g.conj().T / np.trace(g @ g.conj().T).real for g in gauss[:, 0] + 1j * gauss[:, 1])
    frame = build_canonical_frame(n)
    r_m, r_rho = (r_from_p(p_from_density(op, frame), gram_matrix(frame)) for op in (m, rho))
    p_rho = theory.d @ r_rho
    scale = theory.k * np.finfo(float).eps * np.abs(r_m).sum() * np.abs(p_rho).max()
    return abs(r_m @ p_rho - np.trace(m @ rho).real) / scale


class TestLinearity:
    @pytest.mark.parametrize("name, n", [("quantum", n) for n in (1, 2, 3, 5, 16)]
                             + [("classical", n) for n in (1, 2, 3, 16)])
    def test_clean_theories_pass(self, name, n):
        deviations = [check_linearity(theory_by_name(name, n), np.random.default_rng(seed)) for seed in range(5)]
        assert max(deviations) <= LINEARITY_RTOL
        if name == "classical":  # D = I: r_M . D r_rho is the sum tr(M rho) itself
            assert deviations == [0.0] * 5

    def test_dense_measurements_at_k_256_pass_with_margin(self):
        """Dense, non-dyadic M and rho at n = 16 (K = 256), where an absolute
        tolerance of 1e-14 on the probabilities false-failed: each deviation
        is rounding alone, far inside the tolerance."""
        theory = cached_quantum_theory(16)
        for seed in range(5):
            assert check_linearity(theory, np.random.default_rng(seed)) <= LINEARITY_RTOL / 100

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_one_pair_equals_the_written_out_formula(self, n, monkeypatch):
        """On a D whose basis fiducials overlap by 0.1, so that the deviation
        is far above rounding, the check and the written-out formula agree."""
        theory = cached_quantum_theory(n)
        d = theory.d.copy()
        d[0, 1] = d[1, 0] = 0.1
        theory = dataclasses.replace(theory, d=d)
        monkeypatch.setattr(axioms, "LINEARITY_PAIRS", 1)
        deviation = check_linearity(theory, np.random.default_rng(n))
        assert deviation == pytest.approx(written_out_linearity(theory, np.random.default_rng(n)), rel=1e-9)
        assert deviation > 1e6 * LINEARITY_RTOL

    @pytest.mark.parametrize("name, n", [("quantum", 2), ("quantum", 16), ("classical", 3)])
    def test_d_off_the_gram_matrix_fails(self, name, n):
        """Two basis fiducials that overlap by 0.1 move r_M . D r_rho by
        0.1 (r_M,1 r_rho,2 + r_M,2 r_rho,1), 10^9 rounding units and more."""
        theory = theory_by_name(name, n)
        d = theory.d.copy()
        d[0, 1] = d[1, 0] = 0.1
        assert check_linearity(dataclasses.replace(theory, d=d), np.random.default_rng(0)) > 1e6 * LINEARITY_RTOL

    @pytest.mark.parametrize("name", ["quantum", "classical"])
    def test_nan_entry_gives_a_nan_deviation(self, name):
        theory = theory_by_name(name, 3)
        d = theory.d.copy()
        d[0, -1] = d[-1, 0] = np.nan
        assert np.isnan(check_linearity(dataclasses.replace(theory, d=d), np.random.default_rng(0)))

    def test_draws_one_batch_of_pairs(self):
        """The check draws (LINEARITY_PAIRS, M or rho, Re or Im, N, N) normals,
        (..., N) for the classical theory, and nothing else."""
        for name, shape in (("quantum", (3, 3)), ("classical", (3,))):
            rng, twin = np.random.default_rng(1), np.random.default_rng(1)
            check_linearity(theory_by_name(name, 3), rng)
            twin.standard_normal((LINEARITY_PAIRS, 2, 2) + shape)
            assert rng.random() == twin.random()

    def test_edge_mixing_weights(self):
        theory = quantum_theory(2)
        p_a, p_b = theory.basis_p[0], theory.basis_p[1]
        r_m = theory.basis_r[0]
        f = lambda p: float(r_m @ p)
        assert f(0.0 * p_a + 1.0 * p_b) == f(p_b)
        assert f(1.0 * p_a + 0.0 * p_b) == f(p_a)
        assert f(2.0 * (p_a / 2.0)) == f(p_a)
