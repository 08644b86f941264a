"""State and measurement representations and conversions.

States carry two equivalent vector descriptions: a p-vector of K fiducial
probabilities and an r-vector of expansion coefficients over the frame,
related by p = D r. A ``Theory`` converts operators to and from r-vectors
in closed form (``r_of``, ``operator_of``). ``p_from_density``,
``density_from_r`` and the solve ``r_from_p`` serve any frame given by its
projectors: tests compare the closed forms against them, and
``gpt convert --from p`` solves with ``r_from_p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import build_general_d
from .errors import DimensionError, GptError
from .frames import ATOL, FiducialFrame, has_operator_form


def p_from_density(rho: np.ndarray, frame: FiducialFrame) -> np.ndarray:
    """Fiducial probabilities p[k] = tr(P_k rho), for one operator (N, N)
    or a stack (m, N, N), which gives shape (m, K)."""
    rho = np.asarray(rho, dtype=complex)
    n = frame.dimension
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (n, n):
        raise DimensionError(f"operator shape {rho.shape} does not match dimension {n}")
    vals = np.einsum("kij,...ji->...k", frame.projectors, rho)
    if np.abs(vals.imag).max(initial=0.0) > ATOL:
        raise GptError("trace values have non-negligible imaginary part; operator not Hermitian?")
    return vals.real


def r_from_p(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve D r = p for the r-vector (factorized solve, no explicit inverse).

    ``p`` of shape (K,) gives one r-vector; a stack (m, K) gives one per row.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.shape[0] != d.shape[1] or d.shape[0] != p.shape[-1]:
        raise DimensionError(f"shape mismatch: D is {d.shape}, p has length {p.shape}")
    return np.linalg.solve(d, p.T).T


def density_from_r(r: np.ndarray, frame: FiducialFrame) -> np.ndarray:
    """Reconstruct the operator sum_k r[k] P_k of a state or a measurement
    (Hermitian for real r), for one r (K,) or a stack (m, K), which gives
    shape (m, N, N)."""
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != frame.k:
        raise DimensionError(f"r has shape {r.shape}, frame has K = {frame.k}")
    return np.einsum("...k,kij->...ij", r, frame.projectors)


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


@dataclass(frozen=True)
class Theory:
    """A concrete theory instance: the canonical frame over a set of pair
    units, its D matrix and its basis vectors.

    ``units`` is the string of ``PAIR_UNITS`` keys of the frame: "" for
    the classical theory and "xy" for the quantum one. ``basis_r`` rows
    are the N basis measurement/state r-vectors and ``basis_p`` rows the
    corresponding p-vectors; ``r_identity`` is the r-vector of the
    identity measurement. A function that needs two or more of ``d``,
    ``r_identity`` and the conversions takes the Theory, so they always
    come from one system type.
    """

    name: str
    units: str
    d: np.ndarray
    r_identity: np.ndarray
    basis_r: np.ndarray
    basis_p: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis_r.shape[0]

    @property
    def k(self) -> int:
        return self.d.shape[0]

    def require_operator_form(self) -> None:
        """Refuse (``GptError``) a theory whose units do not span the Hermitian operators."""
        if not has_operator_form(self.units):
            raise GptError(f"the {self.name} theory has no operator form")

    def r_of(self, ops: np.ndarray) -> np.ndarray:
        """r-vectors of one Hermitian operator (N, N) or a stack (m, N, N),
        which gives shape (m, K): the same values as
        ``r_from_p(p_from_density(ops, frame), d)``, read off the entries.

        In the canonical frame an operator is sum_k r_k P_k with, for each
        pair m < n (in ``np.triu_indices`` order, as in
        ``canonical_labels``), r_x = 2 Re rho_mn and r_y = -2 Im rho_mn,
        and r_m = rho_mm - 1/2 sum (r_x + r_y) over the pairs that
        contain m. No solve against D is needed. An operator whose skew
        exceeds ``ATOL`` times max(1, its largest real or imaginary part) is
        not Hermitian (``GptError``).
        """
        self.require_operator_form()
        ops = np.asarray(ops, dtype=complex)
        n = self.dimension
        if ops.ndim not in (2, 3) or ops.shape[-2:] != (n, n):
            raise DimensionError(f"operator shape {ops.shape} does not match dimension {n}")
        if not np.isfinite(ops).all():
            raise GptError("operator has a non-finite entry")
        re, im = ops.real, ops.imag
        skew = max(np.abs(re - re.swapaxes(-1, -2)).max(initial=0.0),
                   np.abs(im + im.swapaxes(-1, -2)).max(initial=0.0))
        # relative to the entries' scale, read only when the absolute test fails
        if skew > ATOL and skew > ATOL * max(1.0, np.abs(re).max(), np.abs(im).max()):
            raise GptError("operator is not Hermitian")
        rows, cols = np.triu_indices(n, 1)
        # 0 - 2 Im rather than -2 Im, so that a real entry gives r_y = +0.0, not -0.0
        r_xy = np.stack([2.0 * re[..., rows, cols], 0.0 - 2.0 * im[..., rows, cols]], axis=-1)
        # (r_x + r_y) / 2 = (Re - Im) rho_mn, taken off both r_m and r_n
        half_sums = np.triu(re - im, 1)
        r_basis = np.diagonal(re, axis1=-2, axis2=-1) - (half_sums.sum(axis=-1) + half_sums.sum(axis=-2))
        return np.concatenate([r_basis, r_xy.reshape(ops.shape[:-2] + (n * (n - 1),))], axis=-1)

    def operator_of(self, r: np.ndarray) -> np.ndarray:
        """The operator sum_k r_k P_k of one r-vector (K,) or a stack (m, K),
        which gives shape (m, N, N): the inverse of ``r_of`` and the same
        values as ``density_from_r(r, frame)``, with no projector block.

        For each pair m < n, rho_mn = (r_x - i r_y) / 2 and rho_nm its
        conjugate, and rho_mm = r_m + 1/2 sum (r_x + r_y) over the pairs
        that contain m, so the result is exactly Hermitian.
        """
        self.require_operator_form()
        r = np.asarray(r, dtype=float)
        if r.ndim not in (1, 2) or r.shape[-1] != self.k:
            raise DimensionError(f"r has shape {r.shape}, the {self.name} theory has K = {self.k}")
        n = self.dimension
        rows, cols = np.triu_indices(n, 1)
        r_x, r_y = r[..., n::2], r[..., n + 1::2]
        ops = np.zeros(r.shape[:-1] + (n, n), dtype=complex)
        ops[..., rows, cols] = upper = (r_x - 1j * r_y) / 2.0
        ops[..., cols, rows] = upper.conj()
        half_sums = np.zeros(r.shape[:-1] + (n, n))
        half_sums[..., rows, cols] = (r_x + r_y) / 2.0
        ops[..., range(n), range(n)] = r[..., :n] + half_sums.sum(axis=-1) + half_sums.sum(axis=-2)
        return ops


THEORY_UNITS = {"quantum": "xy", "classical": ""}  # theory name -> its pair units


def _theory(name: str, n: int) -> Theory:
    """The theory of dimension n over the units of ``name``, with D from
    subspace rules. The first N fiducials are the basis projectors, so the
    basis measurements are e_1, ..., e_N, the identity is their sum, and the
    basis states' p-vectors D e_i are the first N rows of the symmetric D."""
    units = THEORY_UNITS[name]
    d = build_general_d(n, units)
    basis_r = np.eye(n, d.shape[0])
    return Theory(name=name, units=units, d=d, r_identity=basis_r.sum(axis=0),
                  basis_r=basis_r, basis_p=d[:n].copy())


def classical_theory(n: int) -> Theory:
    """Classical probability theory for dimension n: no pair units, K = N and D = I."""
    return _theory("classical", n)


def quantum_theory(n: int) -> Theory:
    """Quantum theory for dimension n: units 1 and i on every pair, K = N^2."""
    return _theory("quantum", n)


def theory_by_name(name: str, n: int) -> Theory:
    """The theory of dimension n named by a key of ``THEORY_UNITS``, from this
    module's ``<name>_theory``, looked up when called (so a wrapper set on it runs)."""
    if name not in THEORY_UNITS:
        raise GptError(f"unknown theory {name!r}")
    return globals()[f"{name}_theory"](n)
