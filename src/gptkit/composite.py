"""Bipartite states as K_A x K_B matrices of joint fiducial probabilities.

The matrix form is used because local transformations act two-sidedly:
p_tilde -> Z_A p_tilde Z_B^T. A flattening adapter supports rank counting.
"""

from __future__ import annotations

import numpy as np

from .dynamics import TransformMatrix
from .errors import DimensionError
from .frames import ATOL, FiducialFrame


def composite_from_density(
    rho_ab: np.ndarray, frame_a: FiducialFrame, frame_b: FiducialFrame
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
    if np.abs(vals.imag).max() > ATOL:
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


def joint_normalization(pt: np.ndarray, r_identity_a: np.ndarray, r_identity_b: np.ndarray) -> float:
    """mu_AB = r_I_A^T p_tilde r_I_B."""
    return float(
        np.asarray(r_identity_a, dtype=float)
        @ np.asarray(pt, dtype=float)
        @ np.asarray(r_identity_b, dtype=float)
    )


def dof_count_check(d_a: np.ndarray, d_b: np.ndarray) -> int:
    """Rank of the span of product states built from fiducial-state pairs.

    The fiducial p-vectors are the columns of each D matrix, so the
    K_A * K_B flattened outer products are the columns of kron(D_A, D_B);
    their rank is returned (K_A * K_B when both fiducial sets are
    independent). It is computed as rank(D_A) * rank(D_B), which equals
    rank(kron(D_A, D_B)) and needs no SVD of the K_A K_B x K_A K_B matrix.
    A D is a Gram matrix, so each rank is read from its eigenvalues
    (``matrix_rank(hermitian=True)``, the SVD's tolerance rule); a D whose
    asymmetry exceeds ``ATOL`` is refused.
    """
    ranks = 1
    for name, d in (("D_A", d_a), ("D_B", d_b)):
        d = np.asarray(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or np.abs(d - d.T).max(initial=0.0) > ATOL:
            raise DimensionError(f"{name} of shape {d.shape} is not symmetric to {ATOL}")
        ranks *= int(np.linalg.matrix_rank(d, hermitian=True))
    return ranks
