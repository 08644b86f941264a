import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptkit import axioms
from gptkit.frames import LINEARITY_SAMPLES
from gptkit import (
    GptError,
    MonotonicityError,
    SubspaceReport,
    build_general_d,
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
    """The one-subset axiom-3 check, written out directly: the fiducials
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
    sub_dev = float(np.abs(d[np.ix_(inside, inside)] - reference).max())
    dis_dev = float(np.abs(d[np.ix_(disjoint, inside)]).max(initial=0.0))
    violations = []
    if not sub_dev <= 1e-12:
        violations.append(f"restricted D deviates from canonical by {sub_dev:.3g}")
    if not dis_dev <= 1e-12:
        violations.append(f"disjoint fiducial sees W-supported state with probability {dis_dev:.3g}")
    return SubspaceReport(
        subset=w,
        fiducial_indices=tuple(inside.tolist()),
        submatrix_deviation=sub_dev,
        disjoint_probability=dis_dev,
        tolerance=1e-12,
        violations=tuple(violations),
    )


def singles_pairs_and_triple(n):
    subsets = [{i} for i in range(n)] + [{i, j} for i in range(n) for j in range(i + 1, n)]
    return subsets + ([{0, 1, 2}] if n >= 3 else [])


class TestSubspaceAxiom:
    def test_pair_restriction_equals_dhalfs(self):
        theory = quantum_theory(3)
        [report] = check_subspace_axiom(theory, [{0, 1}])
        assert report.passed
        assert report.submatrix_deviation <= 1e-12
        sub = theory.d[np.ix_(report.fiducial_indices, report.fiducial_indices)]
        assert np.abs(sub - DHALFS).max() <= 1e-12

    def test_single_basis_state_invisible_to_disjoint_fiducials(self):
        theory = quantum_theory(3)
        [report] = check_subspace_axiom(theory, [{0}])
        assert report.passed
        # direct oracle: tr(P_23x |1><1|) = 0
        p23x = build_canonical_frame(3).projectors[7]
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert abs(np.trace(p23x @ rho)) <= 1e-15
        assert report.disjoint_probability <= 1e-12

    def test_full_set_restriction_is_d_itself(self):
        [report] = check_subspace_axiom(quantum_theory(3), [{0, 1, 2}])
        assert report.passed
        assert report.fiducial_indices == tuple(range(9))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_pair_behaves_two_dimensionally(self, n):
        pairs = [{i, j} for i in range(n) for j in range(i + 1, n)]
        reports = check_subspace_axiom(quantum_theory(n), pairs)
        assert [r.subset for r in reports] == [tuple(sorted(w)) for w in pairs]
        assert all(r.passed for r in reports)

    def test_corrupted_d_detected(self):
        theory = quantum_theory(3)
        d = theory.d.copy()
        d[3, 4] = 0.75
        d[4, 3] = 0.75
        [report] = check_subspace_axiom(dataclasses.replace(theory, d=d), [{0, 1}])
        assert not report.passed

    def test_invalid_subset_rejected(self):
        with pytest.raises(GptError):
            check_subspace_axiom(quantum_theory(3), [{0, 7}])

    @pytest.mark.parametrize("subsets", [[{0, 1}, {0, 7}], [{0, 1}, set()]])
    def test_any_invalid_subset_in_the_list_rejected(self, subsets):
        with pytest.raises(GptError, match="is not a set of basis indices"):
            check_subspace_axiom(quantum_theory(3), subsets)

    def test_no_subsets_give_no_reports(self):
        assert check_subspace_axiom(quantum_theory(3), []) == []

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_classical_subsets_pass_against_the_identity(self, n):
        subsets = [{i, j} for i in range(n) for j in range(i, n)]
        reports = check_subspace_axiom(classical_theory(n), subsets)
        assert len(reports) == len(subsets)
        for subset, report in zip(subsets, reports):
            assert report.passed
            assert report.fiducial_indices == tuple(sorted(subset))

    @pytest.mark.parametrize(
        "entry, violation",
        [((0, 1), "restricted D deviates"), ((2, 0), "disjoint fiducial")],
    )
    def test_classical_d_off_the_identity_fails(self, entry, violation):
        d = np.eye(3)
        d[entry] = d[entry[::-1]] = 0.1
        [report] = check_subspace_axiom(dataclasses.replace(classical_theory(3), d=d), [{0, 1}])
        assert not report.passed
        assert report.violations[0].startswith(violation)

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
            expected = [per_subset_oracle(corrupted, w) for w in subsets]
            assert check_subspace_axiom(corrupted, subsets) == expected
            failing.append(sum(not r.passed for r in expected))
        assert failing[0] == 0 and max(failing[1:]) > 0

    @pytest.mark.parametrize("name", ["quantum", "classical"])
    def test_chunked_reads_equal_one_chunk(self, name, monkeypatch):
        """Subsets of one size are read in chunks of rows under
        SUBSPACE_CHUNK_ENTRIES; two pair rows per chunk give the same reports."""
        theory = theory_by_name(name, 6)
        subsets = singles_pairs_and_triple(6)
        one_chunk = check_subspace_axiom(theory, subsets)
        k_in = len(build_general_d(2, theory.units))
        monkeypatch.setattr(axioms, "SUBSPACE_CHUNK_ENTRIES", 2 * theory.k * (k_in + 1))
        assert check_subspace_axiom(theory, subsets) == one_chunk

    def test_corrupted_entry_in_the_last_chunk_fails(self, monkeypatch):
        """One D entry read only by the last pair {4, 5}, alone in the last
        of eight chunks, fails that pair and no other."""
        theory = quantum_theory(6)
        pairs = [{i, j} for i in range(6) for j in range(i + 1, 6)]
        monkeypatch.setattr(axioms, "SUBSPACE_CHUNK_ENTRIES", 2 * theory.k * (4 + 1))
        d = theory.d.copy()
        d[0, build_canonical_frame(6).labels.index(("y", 4, 5))] = 0.25  # basis fiducial 0 is disjoint from {4, 5}
        reports = check_subspace_axiom(dataclasses.replace(theory, d=d), pairs)
        assert [r.passed for r in reports] == [True] * 14 + [False]
        assert reports[-1].violations[0].startswith("disjoint fiducial")
        assert check_subspace_axiom(theory, pairs)[-1].passed


class TestBasisDistinguishability:
    def test_quantum_qubit(self):
        assert check_basis_distinguishability(quantum_theory(2)).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_classical_any_dimension(self, n):
        assert check_basis_distinguishability(classical_theory(n)).passed

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
        assert not check_basis_distinguishability(broken).passed


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
            report = check_linearity(r_m, self._pool(theory), rng)
            assert report.passed

    def test_stack_matches_each_row(self):
        theory = quantum_theory(3)
        stack = np.vstack([theory.basis_r, theory.r_identity])
        report = check_linearity(stack, self._pool(theory), np.random.default_rng(4))
        rows = [check_linearity(r_m, self._pool(theory), np.random.default_rng(4)) for r_m in stack]
        assert report.passed
        assert all(row.passed for row in rows)
        assert (report.samples, report.tolerance) == (rows[0].samples, rows[0].tolerance)
        for name in ("max_affine_deviation", "max_homogeneity_deviation"):
            expected = max(getattr(row, name) for row in rows)
            assert getattr(report, name) == pytest.approx(expected, abs=report.tolerance)

    @pytest.mark.parametrize("n", [3, 16])
    def test_blocks_match_one_batch(self, n, monkeypatch):
        theory = quantum_theory(n)
        stack = np.vstack([theory.basis_r, theory.r_identity])
        batch_size = LINEARITY_SAMPLES * theory.k
        reports = []
        for entries in (batch_size, 7 * theory.k, 1):  # one block, blocks of 7 draws, one draw each
            monkeypatch.setattr(axioms, "LINEARITY_BLOCK_ENTRIES", entries)
            reports.append(check_linearity(stack, self._pool(theory), np.random.default_rng(5)))
        # the pool is dyadic, so every block size evaluates both identities exactly
        assert all(r.max_affine_deviation == r.max_homogeneity_deviation == 0.0 for r in reports)

    def test_blocks_keep_a_nan_deviation(self):
        theory = quantum_theory(2)
        r_m = theory.r_identity.copy()
        r_m[-1] = np.nan
        report = check_linearity(r_m, self._pool(theory), np.random.default_rng(5))
        assert np.isnan(report.max_affine_deviation)
        assert not report.passed

    def test_edge_mixing_weights(self):
        theory = quantum_theory(2)
        p_a, p_b = theory.basis_p[0], theory.basis_p[1]
        r_m = theory.basis_r[0]
        f = lambda p: float(r_m @ p)
        assert f(0.0 * p_a + 1.0 * p_b) == f(p_b)
        assert f(1.0 * p_a + 0.0 * p_b) == f(p_a)
        assert f(2.0 * (p_a / 2.0)) == f(p_a)
