"""Bipartite states as K_A x K_B matrices of joint fiducial probabilities.

The matrix form is used because local transformations, each a K x K
array Z, act two-sidedly: p_tilde -> Z_A p_tilde Z_B^T. A state is read
from its operator through the two theories' closed-form conversions, with
no projector block. The rank of two canonical frames' product fiducials,
counted without building either frame, decides local tomography.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .frames import build_canonical_frame
from .states import Theory


def composite_from_density(rho_ab: np.ndarray, theory_a: Theory, theory_b: Theory) -> np.ndarray:
    """Joint fiducial probabilities p_tilde[i, j] = tr((P_i (x) P_j) rho).

    Over the two canonical frames rho = sum R_kl P_k (x) P_l, so
    p_tilde = D_A R D_B. R is read off the entries: each N_A x N_A block
    X_bd of rho (b, d over B) is split into its Hermitian part and i times
    its anti-Hermitian one, and one ``theory_a.r_of`` call gives the A
    coefficients of both; for each A fiducial k the coefficients form a
    Hermitian N_B x N_B matrix, whose B coefficients ``theory_b.r_of``
    gives. A non-Hermitian rho fails that Hermitian check (``GptError``).
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    na, nb = theory_a.dimension, theory_b.dimension
    if rho_ab.shape != (na * nb, na * nb):
        raise DimensionError(
            f"operator shape {rho_ab.shape} does not match composite dimension {na * nb}"
        )
    blocks = rho_ab.reshape(na, nb, na, nb).transpose(1, 3, 0, 2).reshape(nb * nb, na, na)
    adjoints = blocks.conj().swapaxes(-1, -2)
    # halved before the sum, so that entries near the float limit do not overflow
    parts = np.concatenate([blocks / 2.0 + adjoints / 2.0, blocks / 2.0j - adjoints / 2.0j])
    hermitian, anti = np.split(theory_a.r_of(parts), 2)  # one call: r_of's cost is mostly per call
    r_a = hermitian + 1j * anti
    r_ab = theory_b.r_of(r_a.T.reshape(theory_a.k, nb, nb))
    return theory_a.d @ r_ab @ theory_b.d


def local_transform(pt: np.ndarray, z_a: np.ndarray, z_b: np.ndarray) -> np.ndarray:
    """Apply local transformations, given as K x K arrays: Z_A p_tilde Z_B^T."""
    if z_a.shape[1] != pt.shape[0] or z_b.shape[1] != pt.shape[1]:
        raise DimensionError(
            f"size mismatch: Z_A {z_a.shape}, Z_B {z_b.shape}, p_tilde {pt.shape}"
        )
    return z_a @ pt @ z_b.T


def joint_normalization(pt: np.ndarray, r_identity_a: np.ndarray, r_identity_b: np.ndarray) -> float:
    """mu_AB = r_I_A^T p_tilde r_I_B."""
    return float(
        np.asarray(r_identity_a, dtype=float)
        @ np.asarray(pt, dtype=float)
        @ np.asarray(r_identity_b, dtype=float)
    )


def dof_count_check(units: str, na: int, nb: int) -> int:
    """Rank of the product fiducials {P_i (x) Q_j} of the canonical frames of
    dimensions ``na`` and ``nb`` over ``units``, as real vectors.

    Local tomography (Hardy's axiom 4, K_AB = K_A K_B) holds exactly when
    this rank is the composite's K(N_A N_B); real units fall short of it
    (Hardy & Wootters, arXiv:1005.4870: 9 product fiducials against
    K(4) = 10). Herm(A) (x)_R Herm(B) embeds in Herm(AB), so the rank is
    rank(C_A) * rank(C_B), C being each frame's ``hermitian_coordinates``.
    Neither frame is built: the basis projectors span the N diagonal
    coordinates, and the projectors of each pair, less their diagonal part,
    lie on that pair's two off-diagonal coordinates alone, so at dimension N
    rank(C) = N + N(N - 1)/2 (r_2 - 2), with r_2 the rank of the dimension-2
    frame's C, the one SVD made.
    """
    if min(na, nb) < 1:
        raise DimensionError(f"dimensions must be positive integers, got {na} and {nb}")
    r_2 = int(np.linalg.matrix_rank(build_canonical_frame(2, units).hermitian_coordinates()))
    rank_a, rank_b = (n + n * (n - 1) // 2 * (r_2 - 2) for n in (na, nb))
    return rank_a * rank_b
