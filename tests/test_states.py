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
    build_canonical_frame,
    classical_theory,
    density_from_r,
    mix,
    p_from_density,
    quantum_theory,
    r_from_p,
    theory_by_name,
)
from conftest import cached_quantum_theory, random_density, random_measurement_operator

QT2 = quantum_theory(2)


class TestPFromDensity:
    def test_basis_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert_allclose(p_from_density(rho, build_canonical_frame(2)), [1.0, 0.0, 0.5, 0.5], atol=1e-15)

    def test_null_state(self):
        assert_allclose(p_from_density(np.zeros((2, 2)), build_canonical_frame(2)), np.zeros(4))

    def test_maximally_mixed(self):
        p = p_from_density(np.eye(2, dtype=complex) / 2.0, build_canonical_frame(2))
        assert_allclose(p, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            p_from_density(np.eye(3), build_canonical_frame(2))

    def test_stack_matches_row_by_row(self, rng):
        theory = quantum_theory(3)
        rhos = np.stack([random_density(rng, 3) for _ in range(5)])
        rows = np.stack([p_from_density(rho, build_canonical_frame(3)) for rho in rhos])
        assert_allclose(p_from_density(rhos, build_canonical_frame(3)), rows, rtol=0, atol=1e-15)

    def test_stack_of_non_hermitian_operators_rejected(self):
        rhos = np.zeros((2, 2, 2), dtype=complex)
        rhos[1, 0, 1] = 1.0
        with pytest.raises(GptError, match="imaginary part"):
            p_from_density(rhos, build_canonical_frame(2))


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


class TestROf:
    """``Theory.r_of`` reads r-vectors off operator entries; the oracle is
    the conversion through the fiducial probabilities and a solve against D."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_solve_for_one_operator_and_a_stack(self, n, rng):
        theory = cached_quantum_theory(n)
        rhos = np.stack([random_density(rng, n) for _ in range(3)])
        rhos[2] = random_measurement_operator(rng, n)
        expected = r_from_p(p_from_density(rhos, build_canonical_frame(n)), theory.d)
        stacked = theory.r_of(rhos)
        assert stacked.shape == (3, theory.k)
        assert_allclose(stacked, expected, rtol=0, atol=1e-13)
        assert_allclose(theory.r_of(rhos[0]), expected[0], rtol=0, atol=1e-13)

    def test_reconstructs_the_operator(self, rng):
        theory = quantum_theory(4)
        rho = random_density(rng, 4)
        assert_allclose(density_from_r(theory.r_of(rho), build_canonical_frame(4)), rho, rtol=0, atol=1e-15)

    def test_fiducial_projectors_give_unit_vectors(self):
        theory = quantum_theory(3)
        assert_allclose(theory.r_of(build_canonical_frame(3).projectors), np.eye(theory.k), rtol=0, atol=1e-15)

    def test_real_entries_give_positive_zeros(self):
        # a -0.0 would print as "-0.0" in every Z and r file
        assert not np.signbit(quantum_theory(3).r_of(np.eye(3))).any()

    def test_empty_stack(self):
        assert QT2.r_of(np.zeros((0, 2, 2))).shape == (0, 4)

    @pytest.mark.parametrize("op", [
        [[0.0, 1.0], [0.0, 0.0]],
        [[1.0 + 1e-6j, 0.0], [0.0, 1.0]],  # the only skew is 2 Im rho_00, on the diagonal
    ])
    def test_non_hermitian_operator_rejected(self, op):
        with pytest.raises(GptError, match="not Hermitian"):
            QT2.r_of(np.array(op))

    @pytest.mark.parametrize("scale", [1e5, 1e8, 1e300])
    def test_hermitian_tolerance_grows_with_the_entries(self, scale):
        """A skew of rounding at the entries' scale passes; one of 1e-11 of it does not."""
        rho = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, 2.0]]) * scale
        rounded, skewed = rho.copy(), rho.copy()
        rounded[0, 1] += 4e-16 * scale
        skewed[0, 1] += 1e-11 * scale
        assert_allclose(QT2.r_of(rounded), QT2.r_of(rho), rtol=0, atol=1e-15 * scale)
        with pytest.raises(GptError, match="not Hermitian"):
            QT2.r_of(skewed)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_rejected_before_the_hermitian_test(self, entry, where):
        # inf - inf is NaN, which no tolerance test refuses; a diagonal inf alone looks Hermitian
        ops = np.stack([np.eye(2, dtype=complex)] * 3)
        ops[1][where] = entry
        with pytest.raises(GptError, match="^operator has a non-finite entry$"):
            QT2.r_of(ops)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            QT2.r_of(np.eye(3))

    def test_classical_theory_has_no_operator_form(self):
        with pytest.raises(GptError, match="no operator form"):
            classical_theory(2).r_of(np.eye(2))


class TestOperatorOf:
    """``Theory.operator_of`` inverts ``r_of`` in closed form; the oracle is
    the sum over the projector block, ``density_from_r``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_matches_the_projector_sum_for_one_vector_and_a_stack(self, n, rng):
        theory = cached_quantum_theory(n)
        rs = theory.r_of(np.stack([random_density(rng, n), random_measurement_operator(rng, n)]))
        rs = np.vstack([rs, rng.standard_normal(theory.k)])  # any real r, not only a state's
        expected = density_from_r(rs, build_canonical_frame(n))
        stacked = theory.operator_of(rs)
        assert stacked.shape == (3, n, n)
        assert_allclose(stacked, expected, rtol=0, atol=1e-14)
        assert_allclose(theory.operator_of(rs[0]), expected[0], rtol=0, atol=1e-14)

    def test_inverts_r_of(self, rng):
        theory = quantum_theory(4)
        rhos = np.stack([random_density(rng, 4), random_measurement_operator(rng, 4)])
        assert_allclose(theory.operator_of(theory.r_of(rhos)), rhos, rtol=0, atol=1e-15)

    def test_fiducial_unit_vectors_give_the_projectors(self):
        theory = quantum_theory(3)
        assert_allclose(theory.operator_of(np.eye(theory.k)), build_canonical_frame(3).projectors, rtol=0, atol=0)

    def test_result_is_exactly_hermitian(self, rng):
        ops = quantum_theory(5).operator_of(rng.standard_normal((4, 25)))
        assert np.array_equal(ops, ops.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (1, 2, 4), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionError):
            QT2.operator_of(np.zeros(shape))

    def test_classical_theory_has_no_operator_form(self):
        with pytest.raises(GptError, match="no operator form"):
            classical_theory(2).operator_of(np.array([1.0, 0.0]))


class TestOperatorReconstruction:
    def test_single_term_sum(self):
        rho = density_from_r(np.array([1.0, 0.0, 0.0, 0.0]), build_canonical_frame(2))
        assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero_vector(self):
        assert_allclose(density_from_r(np.zeros(4), build_canonical_frame(2)), np.zeros((2, 2)))

    def test_identity_measurement_reconstructs_identity(self):
        op = density_from_r(np.array([1.0, 1.0, 0.0, 0.0]), build_canonical_frame(2))
        assert_allclose(op, np.eye(2), atol=1e-15)

    def test_stack_matches_row_by_row(self, rng):
        theory = quantum_theory(3)
        rs = rng.standard_normal((4, theory.k))
        rows = np.stack([density_from_r(r, build_canonical_frame(3)) for r in rs])
        assert_allclose(density_from_r(rs, build_canonical_frame(3)), rows, rtol=0, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            density_from_r(np.zeros((2, 5)), build_canonical_frame(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_on_random_densities(self, n, rng):
        theory = quantum_theory(n)
        for _ in range(100):
            rho = random_density(rng, n, trace=rng.random())
            p = p_from_density(rho, build_canonical_frame(n))
            back = density_from_r(r_from_p(p, theory.d), build_canonical_frame(n))
            assert np.abs(back - rho).max() <= 1e-10


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

    @pytest.mark.parametrize("name", list(gptkit.states.THEORY_UNITS))
    def test_every_table_name_builds_its_theory(self, name):
        units = gptkit.states.THEORY_UNITS[name]
        theory = theory_by_name(name, 3)
        assert (theory.name, theory.units) == (name, units)
        assert theory.k == len(gptkit.frames.canonical_labels(3, units))

    def test_a_table_name_without_a_builder_does_not_fall_through(self, monkeypatch):
        monkeypatch.setitem(gptkit.states.THEORY_UNITS, "real", "x")
        with pytest.raises(KeyError, match="real_theory"):
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
        """The classical pure states are the basis states: the rows of basis_p."""
        expected = _simplex_grid_solutions(n)
        got = {tuple(np.round(p, 6)) for p in classical_theory(n).basis_p}
        assert got == expected
        assert len(got) == n


class TestUnphysicalInputs:
    def test_conversions_accept_unphysical_inputs(self):
        p = np.array([1.2, 0.3, 0.5, 0.5])  # entry above 1
        r = r_from_p(p, QT2.d)  # total: no exception
        assert_allclose(QT2.d @ r, p, atol=1e-12)


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

    def test_reports_state_the_constant_their_check_read(self, monkeypatch, budget):
        f, h = gptkit.frames, gptkit.harness
        assert (f.ATOL, f.PSD_TOL, f.PURITY_TOL, f.LINEARITY_RTOL) == (1e-12, 1e-10, 1e-9, 4.0)
        budgets = ("FREQUENCY_SCALES", "FREQUENCY_TRIALS", "CONTINUITY_PAIRS", "CONTINUITY_STEPS",
                   "COMPOSITE_LAW_SAMPLES", "LINEARITY_PAIRS")
        assert [getattr(f, name) for name in budgets] == [
            (1_000, 10_000, 100_000, 1_000_000), 8, 5, 100, 10, 16]
        assert all(getattr(h, name) is getattr(f, name) for name in budgets)
        budget(FREQUENCY_SCALES=(1_000,))  # the other budgets keep their values
        suite = {c.name: c.witnesses for c in h.run_axiom_suite("quantum", 2, seed=1).checks}
        assert suite["axiom1-frequency-convergence"]["trials"] == f.FREQUENCY_TRIALS
        assert suite["axiom5-continuity"] == {"pairs": f.CONTINUITY_PAIRS, "steps": f.CONTINUITY_STEPS}
        assert suite["measurement-linearity"] == {"pairs": f.LINEARITY_PAIRS}
        assert gptkit.axioms.LINEARITY_PAIRS is f.LINEARITY_PAIRS  # the check's draw
        theory = quantum_theory(2)
        assert all(getattr(h, name) is getattr(f, name) for name in ("ATOL", "LINEARITY_RTOL"))
        assert suite["axiom1-frequency-convergence"]["targets"]["0.5"]["1000"]["bound"] == (
            f.FREQUENCY_ENVELOPE / np.sqrt(1_000))
        assert all(getattr(h, name) is getattr(f, name) for name in ("FREQUENCY_ENVELOPE", "FREQUENCY_PASS_FRACTION"))
        assert h._frequency_check(theory, seed=1).status == "pass"
        budget(FREQUENCY_PASS_FRACTION=1.01)  # no share of trials reaches it
        assert h._frequency_check(theory, seed=1).status == "fail"
        probe = gptkit.dynamics.continuity_probe(theory, theory.basis_r[0], theory.basis_r[0], steps=3)
        assert probe.tolerance == f.PURITY_TOL
        update = gptkit.dynamics.check_measurement_update(
            [(gptkit.dynamics.KrausSet(np.eye(2, dtype=complex)), theory.r_identity)],
            theory, list(theory.basis_p))
        assert update.tolerance == f.PSD_TOL
        checks = (h._subspace_check, h._basis_check, h._linearity_check)
        assert [check(theory, 1).status for check in checks] == ["pass"] * 3
        monkeypatch.setattr(h, "ATOL", -1.0)  # no deviation is within a negative tolerance
        assert [check(theory, 1).status for check in checks] == ["fail", "fail", "pass"]
        monkeypatch.setattr(h, "LINEARITY_RTOL", -1.0)
        assert [check(theory, 1).status for check in checks] == ["fail"] * 3
