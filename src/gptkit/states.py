"""State and measurement representations and conversions.

States carry two equivalent vector descriptions: a p-vector of K fiducial
probabilities and an r-vector of expansion coefficients over the frame,
related by p = D r. Operators convert to and from r-vectors through the
frame projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, GptError
from .frames import ATOL, FiducialFrame, build_canonical_frame, gram_matrix

PURITY_TOL = 1e-9
PSD_TOL = 1e-10


def p_from_density(rho: np.ndarray, frame: FiducialFrame, atol: float = ATOL) -> np.ndarray:
    """Fiducial probabilities p[k] = tr(P_k rho)."""
    rho = np.asarray(rho, dtype=complex)
    n = frame.dimension
    if rho.shape != (n, n):
        raise DimensionError(f"operator shape {rho.shape} does not match dimension {n}")
    vals = np.einsum("kij,ji->k", frame.projectors, rho)
    if np.abs(vals.imag).max(initial=0.0) > atol:
        raise GptError("trace values have non-negligible imaginary part; operator not Hermitian?")
    return vals.real


def r_from_p(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve D r = p for the r-vector (factorized solve, no explicit inverse)."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.shape[0] != d.shape[1] or d.shape[0] != p.shape[-1]:
        raise DimensionError(f"shape mismatch: D is {d.shape}, p has length {p.shape}")
    return scipy.linalg.solve(d, p, assume_a="sym")


def p_from_r(r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """p = D r."""
    return np.asarray(d, dtype=float) @ np.asarray(r, dtype=float)


def density_from_r(r: np.ndarray, frame: FiducialFrame) -> np.ndarray:
    """Reconstruct the operator sum_k r[k] P_k of a state or a measurement
    (Hermitian for real r)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (frame.k,):
        raise DimensionError(f"r has length {r.shape}, frame has K = {frame.k}")
    return np.einsum("k,kij->ij", r, frame.projectors)


def probability(r_m: np.ndarray, d: np.ndarray, r_s: np.ndarray) -> float:
    """Outcome probability r_m^T D r_s.

    Values outside [0, 1] are returned as-is: they indicate invalid
    inputs, not a failure of the bilinear form.
    """
    return float(np.asarray(r_m, dtype=float) @ np.asarray(d, dtype=float) @ np.asarray(r_s, dtype=float))


def normalization(p: np.ndarray, r_identity: np.ndarray) -> float:
    """Normalization coefficient mu = r_I . p."""
    return float(np.asarray(r_identity, dtype=float) @ np.asarray(p, dtype=float))


def is_pure(r: np.ndarray, theory: Theory, tol: float = PURITY_TOL) -> bool:
    """True iff r^T D r = 1 and mu = 1, both within ``tol``.

    The default tolerance is looser than the linear-algebra tolerance
    because r typically comes out of a solve against D.
    """
    r = np.asarray(r, dtype=float)
    quad = float(r @ np.asarray(theory.d, dtype=float) @ r)
    mu = normalization(p_from_r(r, theory.d), theory.r_identity)
    return abs(quad - 1.0) <= tol and abs(mu - 1.0) <= tol


def mix(states: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Convex combination of p-vectors.

    Weights must be non-negative and sum to at most 1; any deficit is
    weight on the null state.
    """
    if len(states) != len(weights):
        raise GptError("states and weights differ in length")
    if not states:
        raise GptError("empty mixture")
    w = np.asarray(weights, dtype=float)
    if (w < 0).any():
        raise GptError("negative mixture weight")
    if w.sum() > 1.0 + ATOL:
        raise GptError(f"mixture weights sum to {w.sum()} > 1")
    stacked = np.stack([np.asarray(p, dtype=float) for p in states])
    return w @ stacked


def is_valid_density(rho: np.ndarray, atol: float = ATOL, psd_tol: float = PSD_TOL) -> bool:
    """Hermitian, positive semidefinite, trace in [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.abs(rho - rho.conj().T).max() > atol:
        return False
    eigs = np.linalg.eigvalsh(rho)
    tr = float(np.trace(rho).real)
    return eigs.min() >= -psd_tol and -atol <= tr <= 1.0 + atol


def is_valid_measurement_operator(a: np.ndarray, atol: float = ATOL, psd_tol: float = PSD_TOL) -> bool:
    """Hermitian with eigenvalues in [0, 1] (a POVM element)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if np.abs(a - a.conj().T).max() > atol:
        return False
    eigs = np.linalg.eigvalsh(a)
    return eigs.min() >= -psd_tol and eigs.max() <= 1.0 + psd_tol


def is_valid_state_p(p: np.ndarray, r_identity: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Entries in [0, 1] and normalization coefficient in [0, 1].

    Conversion routines accept anything; this predicate is where policy
    about physicality lives.
    """
    p = np.asarray(p, dtype=float)
    if p.min(initial=0.0) < -tol or p.max(initial=0.0) > 1.0 + tol:
        return False
    mu = normalization(p, r_identity)
    return -tol <= mu <= 1.0 + tol


@dataclass(frozen=True)
class Theory:
    """A concrete theory instance: frame data plus its basis vectors.

    ``basis_r`` rows are the N basis measurement/state r-vectors and
    ``basis_p`` rows the corresponding p-vectors; ``r_identity`` is the
    r-vector of the identity measurement. ``frame`` is None for the
    classical theory. A function that needs two or more of ``frame``,
    ``d`` and ``r_identity`` takes the Theory, so they always come from
    one system type.
    """

    name: str
    dimension: int
    d: np.ndarray
    r_identity: np.ndarray
    basis_r: np.ndarray
    basis_p: np.ndarray
    frame: FiducialFrame | None = None

    @property
    def k(self) -> int:
        return self.d.shape[0]


def classical_theory(n: int) -> Theory:
    """Classical probability theory for dimension n: K = N and D = I."""
    if n < 1:
        raise DimensionError(f"dimension must be a positive integer, got {n}")
    eye = np.eye(n)
    return Theory(
        name="classical",
        dimension=n,
        d=eye,
        r_identity=np.ones(n),
        basis_r=eye.copy(),
        basis_p=eye.copy(),
    )


def quantum_theory(n: int) -> Theory:
    """Quantum theory for dimension n over the canonical frame: K = N^2."""
    frame = build_canonical_frame(n)
    d = gram_matrix(frame)
    k = frame.k
    r_identity = np.zeros(k)
    r_identity[:n] = 1.0
    basis_r = np.zeros((n, k))
    basis_r[:, :n] = np.eye(n)
    basis_p = basis_r @ d.T
    return Theory(
        name="quantum",
        dimension=n,
        d=d,
        r_identity=r_identity,
        basis_r=basis_r,
        basis_p=basis_p,
        frame=frame,
    )


def theory_by_name(name: str, n: int) -> Theory:
    """The ``quantum`` or ``classical`` theory instance of dimension n."""
    if name == "quantum":
        return quantum_theory(n)
    if name == "classical":
        return classical_theory(n)
    raise GptError(f"unknown theory {name!r}")


def classical_pure_states(n: int) -> list[np.ndarray]:
    """The pure states of the classical theory: exactly the N unit vectors.

    Solutions of sum p_k^2 = 1 with sum p_k = 1 and 0 <= p_k <= 1 sit at
    the simplex vertices, since sum p_k^2 <= max_k p_k with equality only
    at a vertex.
    """
    if n < 1:
        raise DimensionError(f"dimension must be a positive integer, got {n}")
    return [np.eye(n)[i] for i in range(n)]
