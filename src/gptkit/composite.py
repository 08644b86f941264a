"""Bipartite states as K_A x K_B matrices of joint fiducial probabilities.

The matrix form is used because local transformations act two-sidedly:
p_tilde -> Z_A p_tilde Z_B^T. A flattening adapter supports rank counting.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .dynamics import TransformMatrix
from .errors import DimensionError
from .frames import FiducialFrame
from .states import Theory


def product_state(p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """Joint state of independent preparations: the outer product p_a p_b^T."""
    return np.outer(np.asarray(p_a, dtype=float), np.asarray(p_b, dtype=float))


def composite_from_density(
    rho_ab: np.ndarray,
    frame_a: FiducialFrame,
    frame_b: FiducialFrame,
    atol: float = 1e-12,
) -> np.ndarray:
    """Joint fiducial probabilities p_tilde[i, j] = tr((P_i (x) P_j) rho)."""
    rho_ab = np.asarray(rho_ab, dtype=complex)
    na, nb = frame_a.dimension, frame_b.dimension
    if rho_ab.shape != (na * nb, na * nb):
        raise DimensionError(
            f"operator shape {rho_ab.shape} does not match composite dimension {na * nb}"
        )
    rho4 = rho_ab.reshape(na, nb, na, nb)
    vals = np.einsum("iab,jcd,bdac->ij", frame_a.projectors, frame_b.projectors, rho4)
    if np.abs(vals.imag).max() > atol:
        raise DimensionError("joint probabilities have non-negligible imaginary part")
    return vals.real



def local_transform(
    pt: np.ndarray,
    z_a: TransformMatrix | np.ndarray,
    z_b: TransformMatrix | np.ndarray,
) -> np.ndarray:
    """Apply local transformations: Z_A p_tilde Z_B^T."""
    za = z_a.z if isinstance(z_a, TransformMatrix) else np.asarray(z_a, dtype=float)
    zb = z_b.z if isinstance(z_b, TransformMatrix) else np.asarray(z_b, dtype=float)
    pt = np.asarray(pt, dtype=float)
    if za.shape[1] != pt.shape[0] or zb.shape[1] != pt.shape[1]:
        raise DimensionError(
            f"size mismatch: Z_A {za.shape}, Z_B {zb.shape}, p_tilde {pt.shape}"
        )
    return za @ pt @ zb.T


def conditional_state(pt: np.ndarray, j: int) -> np.ndarray:
    """Subnormalized A-state given a positive jth fiducial outcome at B:
    the jth column of p_tilde."""
    pt = np.asarray(pt, dtype=float)
    if not 0 <= j < pt.shape[1]:
        raise DimensionError(f"fiducial index {j} out of range for K_B = {pt.shape[1]}")
    return pt[:, j].copy()


def joint_normalization(pt: np.ndarray, r_identity_a: np.ndarray, r_identity_b: np.ndarray) -> float:
    """mu_AB = r_I_A^T p_tilde r_I_B."""
    return float(
        np.asarray(r_identity_a, dtype=float)
        @ np.asarray(pt, dtype=float)
        @ np.asarray(r_identity_b, dtype=float)
    )


def r_tilde_from_p_tilde(pt: np.ndarray, d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """Solve p_tilde = D_A r_tilde D_B^T for r_tilde (two factorized solves)."""
    pt = np.asarray(pt, dtype=float)
    half = scipy.linalg.solve(np.asarray(d_a, dtype=float), pt, assume_a="sym")
    return scipy.linalg.solve(np.asarray(d_b, dtype=float), half.T, assume_a="sym").T


def density_from_composite(pt: np.ndarray, theory_a: Theory, theory_b: Theory) -> np.ndarray:
    """Reconstruct the composite operator sum_ij r_tilde[i, j] P_i (x) P_j."""
    rt = r_tilde_from_p_tilde(pt, theory_a.d, theory_b.d)
    na, nb = theory_a.dimension, theory_b.dimension
    rho4 = np.einsum("ij,iac,jbd->abcd", rt, theory_a.frame.projectors, theory_b.frame.projectors)
    return rho4.reshape(na * nb, na * nb)


def partial_transpose(rho_ab: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Transpose the B factor of a composite operator."""
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if rho_ab.shape != (n_a * n_b, n_a * n_b):
        raise DimensionError(f"operator shape {rho_ab.shape} does not match {n_a}x{n_b}")
    rho4 = rho_ab.reshape(n_a, n_b, n_a, n_b)
    return rho4.transpose(0, 3, 2, 1).reshape(n_a * n_b, n_a * n_b)


def dof_count_check(d_a: np.ndarray, d_b: np.ndarray) -> int:
    """Rank of the span of product states built from fiducial-state pairs.

    The fiducial p-vectors are the columns of each D matrix; the
    K_A * K_B outer products are stacked as flat vectors and their rank
    is returned (K_A * K_B when both fiducial sets are independent).
    """
    d_a = np.asarray(d_a, dtype=float)
    d_b = np.asarray(d_b, dtype=float)
    ka, kb = d_a.shape[0], d_b.shape[0]
    rows = np.empty((ka * kb, ka * kb))
    idx = 0
    for i in range(ka):
        for j in range(kb):
            rows[idx] = np.outer(d_a[:, i], d_b[:, j]).ravel()
            idx += 1
    return int(np.linalg.matrix_rank(rows))
