import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from gptkit import (
    D2Params,
    GptError,
    PhaseRecoveryError,
    SurfaceKind,
    a_matrix,
    bloch_coordinates,
    build_canonical_frame,
    build_general_d,
    c_bounds,
    classify_surface,
    d2_assemble,
    frame_from_phases,
    gram_matrix,
    p_from_density,
    quantum_theory,
    r_from_p,
    recover_phases,
)
from conftest import haar_state, traced_peak

DHALFS = d2_assemble(D2Params(0.5, 0.5, 0.5))


class TestD2Assemble:
    def test_halves_give_dhalfs(self):
        expected = np.array(
            [
                [1.0, 0.0, 0.5, 0.5],
                [0.0, 1.0, 0.5, 0.5],
                [0.5, 0.5, 1.0, 0.5],
                [0.5, 0.5, 0.5, 1.0],
            ]
        )
        assert_allclose(DHALFS, expected)

    def test_template_substitution(self):
        d = d2_assemble(D2Params(1.0, 1.0, 0.3))
        assert_allclose(d[2], [0.0, 1.0, 1.0, 0.3])

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(GptError):
            D2Params(1.2, 0.5, 0.5)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_determinant_vanishes_at_the_roots(self, a, b):
        for c in c_bounds(a, b):
            if 0.0 <= c <= 1.0:
                assert abs(np.linalg.det(d2_assemble(D2Params(a, b, c)))) <= 1e-10


class TestCBounds:
    def test_halves(self):
        lo, hi = c_bounds(0.5, 0.5)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_corner(self):
        assert c_bounds(0.0, 0.0) == (1.0, 1.0)

    def test_sphere_point_strictly_inside(self):
        lo, hi = c_bounds(0.5, 0.5)
        assert lo < 0.5 < hi

    def test_det_positive_iff_inside_open_interval(self):
        # 50x50 parameter grid; c probed inside, at, and outside the roots
        grid = np.linspace(0.02, 0.98, 50)
        for a in grid:
            for b in grid:
                lo, hi = c_bounds(float(a), float(b))
                mid = 0.5 * (lo + hi)
                if lo < mid < hi:
                    assert np.linalg.det(d2_assemble(D2Params(a, b, mid))) > 0
                for c in (lo - 0.01, hi + 0.01):
                    if 0.0 <= c <= 1.0:
                        assert np.linalg.det(d2_assemble(D2Params(a, b, c))) < 1e-10


class TestBlochCoordinates:
    def test_equal_basis_mixture_sits_at_origin(self):
        mu, v = bloch_coordinates(np.array([0.5, 0.5, 0.0, 0.0]))
        assert mu == pytest.approx(1.0)
        assert_allclose(v, np.zeros(3), atol=1e-15)

    def test_basis_state_one(self):
        mu, v = bloch_coordinates(np.array([1.0, 0.0, 0.0, 0.0]))
        assert mu == pytest.approx(1.0)
        assert_allclose(v, [-1.0, 0.0, 0.0])

    def test_null_state(self):
        mu, v = bloch_coordinates(np.zeros(4))
        assert mu == 0.0
        assert_allclose(v, np.zeros(3))


class TestAMatrix:
    def test_halves_give_half_identity(self):
        assert_allclose(a_matrix(D2Params(0.5, 0.5, 0.5)), np.eye(3) / 2.0)

    def test_basis_state_on_unit_sphere(self):
        a = a_matrix(D2Params(0.5, 0.5, 0.5))
        _, v = bloch_coordinates(np.array([1.0, 0.0, 0.0, 0.0]))
        assert float(v @ a @ v) == pytest.approx(0.5, abs=1e-15)

    def test_off_diagonal_entry(self):
        a = a_matrix(D2Params(1.0, 0.5, 0.5))
        assert a[0, 1] == pytest.approx(0.5)
        eigs = np.linalg.eigvalsh(a)
        lo, hi = c_bounds(1.0, 0.5)
        # interval collapses at a = 1, so the quadric is degenerate
        assert lo == hi == pytest.approx(0.5)
        assert abs(eigs).min() <= 1e-12

    def test_haar_random_pure_states_lie_on_the_sphere(self, rng):
        theory = quantum_theory(2)
        a = a_matrix(D2Params(0.5, 0.5, 0.5))
        for _ in range(100):
            psi = haar_state(rng, 2)
            r = r_from_p(p_from_density(np.outer(psi, psi.conj()), build_canonical_frame(2)), theory.d)
            mu, v = bloch_coordinates(r)
            assert abs(mu - 1.0) <= 1e-10
            assert abs(float(v @ a @ v) - 0.5) <= 1e-10


class TestClassifySurface:
    def test_half_identity_is_ellipsoid(self):
        assert classify_surface(np.eye(3) / 2.0).kind is SurfaceKind.ELLIPSOID

    def test_explicit_signs_give_hyperboloid(self):
        assert classify_surface(np.diag([0.5, 0.5, -0.5])).kind is SurfaceKind.HYPERBOLOID

    def test_boundary_c_is_degenerate_then_hyperboloid_above(self):
        degenerate = classify_surface(a_matrix(D2Params(0.5, 0.5, 1.0)))
        assert degenerate.kind is SurfaceKind.DEGENERATE
        # c above the root: rebuild A directly since D2Params caps c at 1
        above = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.55], [0.0, 0.55, 0.5]])
        assert classify_surface(above).kind is SurfaceKind.HYPERBOLOID

    def test_eigenvalue_sign_scan_along_c(self):
        lo, hi = c_bounds(0.5, 0.5)
        for c in np.linspace(0.0, 1.0, 21):
            kind = classify_surface(a_matrix(D2Params(0.5, 0.5, float(c)))).kind
            if lo + 1e-9 < c < hi - 1e-9:
                assert kind is SurfaceKind.ELLIPSOID
            else:
                assert kind is SurfaceKind.DEGENERATE

    def test_interior_grid_is_ellipsoidal_outside_not(self):
        grid = np.linspace(0.05, 0.95, 25)
        for a in grid:
            for b in grid:
                lo, hi = c_bounds(float(a), float(b))
                mid = 0.5 * (lo + hi)
                if lo < mid < hi:
                    kind = classify_surface(a_matrix(D2Params(a, b, mid))).kind
                    assert kind is SurfaceKind.ELLIPSOID
                for c in (lo - 0.02, hi + 0.02):
                    if 0.0 <= c <= 1.0:
                        kind = classify_surface(a_matrix(D2Params(a, b, float(c)))).kind
                        assert kind is not SurfaceKind.ELLIPSOID


class TestRecoverPhases:
    def test_dhalfs_recovers_canonical_projectors(self):
        rec = recover_phases(DHALFS)
        assert rec.phi3 == 0.0
        assert rec.phi4 == pytest.approx(np.pi / 2.0, abs=1e-12)
        frame = frame_from_phases(rec)
        canonical = build_canonical_frame(2)
        assert np.abs(frame.projectors - canonical.projectors).max() <= 1e-12

    def test_boundary_rejected(self):
        lo, hi = c_bounds(0.3, 0.6)
        with pytest.raises(PhaseRecoveryError):
            recover_phases(d2_assemble(D2Params(0.3, 0.6, hi)))
        with pytest.raises(PhaseRecoveryError):
            recover_phases(d2_assemble(D2Params(0.3, 0.6, lo)))

    def test_non_family_matrix_rejected(self):
        bad = DHALFS.copy()
        bad[0, 1] = 0.2
        bad[1, 0] = 0.2
        with pytest.raises(GptError):
            recover_phases(bad)

    def test_round_trip_on_random_family_members(self, rng):
        for _ in range(100):
            a, b = rng.uniform(0.05, 0.95, size=2)
            lo, hi = c_bounds(float(a), float(b))
            c = lo + (hi - lo) * rng.uniform(0.05, 0.95)
            d = d2_assemble(D2Params(float(a), float(b), float(c)))
            frame = frame_from_phases(recover_phases(d))
            assert np.abs(gram_matrix(frame) - d).max() <= 1e-10


class TestBuildGeneralD:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_frame_gram(self, n):
        d = build_general_d(n)
        assert np.abs(d - gram_matrix(build_canonical_frame(n))).max() <= 1e-12

    def test_peak_memory_is_one_d(self):
        """The shared-index terms are added in place, group by group, so D
        is the only K x K array the build makes."""
        d, peak = traced_peak(build_general_d, 32)
        assert peak <= 1.25 * d.nbytes

    def test_n2_is_dhalfs(self):
        assert_allclose(build_general_d(2), DHALFS)

    def test_overlapping_subspace_entry_is_one_quarter(self):
        # order for n=3: 1, 2, 3, 12x, 12y, 13x, 13y, 23x, 23y
        d = build_general_d(3)
        assert d[3, 5] == 0.25  # 12x vs 13x
