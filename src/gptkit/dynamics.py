"""Transformations: K x K matrices acting on p-vectors and their
operator-level counterparts (Kraus sets / superoperators).

Superoperator matrices use column-major (column-stacking) vectorization
throughout: vec(X)[i + N j] = X[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionError, GptError
from .frames import FiducialFrame
from .states import Theory, density_from_r, p_from_density, p_from_r, r_from_p

PSD_TOL = 1e-10
COND_CUTOFF = 1e9


@dataclass(frozen=True)
class KrausSet:
    """A family {M_l} of N x N operators generating rho -> sum M rho M^dag."""

    operators: np.ndarray

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim == 2:
            ops = ops[np.newaxis]
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionError(f"Kraus operators must have shape (L, N, N), got {ops.shape}")
        object.__setattr__(self, "operators", ops)

    @property
    def dimension(self) -> int:
        return self.operators.shape[1]

    def completeness_defect(self) -> np.ndarray:
        """I - sum M^dag M; PSD iff the map is trace-non-increasing."""
        n = self.dimension
        total = np.einsum("lji,ljk->ik", self.operators.conj(), self.operators)
        return np.eye(n) - total

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_l M_l rho M_l^dag."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dimension, self.dimension):
            raise DimensionError(f"operator shape {rho.shape} does not match Kraus dimension")
        return np.einsum("lij,jk,lmk->im", self.operators, rho, self.operators.conj())


@dataclass(frozen=True)
class TransformMatrix:
    """K x K real matrix acting on p-vectors, with its origin recorded."""

    z: np.ndarray
    dimension: int
    provenance: str = "raw"

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise DimensionError(f"Z must be square, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise GptError("Z contains non-finite entries")
        object.__setattr__(self, "z", z)

    @property
    def k(self) -> int:
        return self.z.shape[0]


def z_from_kraus(kraus: KrausSet, theory: Theory) -> TransformMatrix:
    """Vector-level transformation Z with Z p(rho) = p(sum M rho M^dag).

    Z = tr(P $(P)^T) D^{-1}, evaluated as a factorized solve.
    """
    frame = theory.frame
    if kraus.dimension != frame.dimension:
        raise DimensionError(
            f"Kraus dimension {kraus.dimension} does not match frame dimension {frame.dimension}"
        )
    mapped = np.stack([kraus.apply(p) for p in frame.projectors])
    m = np.einsum("iab,jba->ij", frame.projectors, mapped).real
    z = scipy.linalg.solve(np.asarray(theory.d, dtype=float), m.T, assume_a="sym").T
    return TransformMatrix(z=z, dimension=frame.dimension, provenance="from-kraus")


def z_from_unitary(u: np.ndarray, theory: Theory, atol: float = 1e-10) -> TransformMatrix:
    """Z for unitary conjugation rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    n = theory.dimension
    if u.shape != (n, n):
        raise DimensionError(f"unitary shape {u.shape} does not match dimension {n}")
    if np.abs(u.conj().T @ u - np.eye(n)).max() > atol:
        raise GptError("matrix is not unitary")
    base = z_from_kraus(KrausSet(operators=u[np.newaxis]), theory)
    return TransformMatrix(z=base.z, dimension=n, provenance="from-unitary")


def apply_transform(z: TransformMatrix | np.ndarray, p: np.ndarray) -> np.ndarray:
    """p -> Z p."""
    mat = z.z if isinstance(z, TransformMatrix) else np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    if mat.shape[1] != p.shape[-1]:
        raise DimensionError(f"Z is {mat.shape}, p has length {p.shape}")
    return mat @ p


def is_trace_nonincreasing(kraus: KrausSet, psd_tol: float = PSD_TOL) -> bool:
    """True iff I - sum M^dag M is positive semidefinite."""
    defect = kraus.completeness_defect()
    return bool(np.linalg.eigvalsh(defect).min() >= -psd_tol)


def is_trace_preserving(kraus: KrausSet, atol: float = PSD_TOL) -> bool:
    """True iff sum M^dag M = I."""
    return bool(np.abs(kraus.completeness_defect()).max() <= atol)


def kraus_to_superoperator(kraus: KrausSet) -> np.ndarray:
    """Column-stacking superoperator matrix sum_l conj(M_l) (x) M_l."""
    return sum(np.kron(m.conj(), m) for m in kraus.operators)


def _vec(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).flatten(order="F")


def _unvec(vec: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(vec).reshape((n, n), order="F")


def choi_matrix(superop: np.ndarray, n: int | None = None) -> np.ndarray:
    """Choi matrix (1/N) sum_ij E_ij (x) $(E_ij) of a superoperator matrix."""
    superop = np.asarray(superop, dtype=complex)
    if superop.ndim != 2 or superop.shape[0] != superop.shape[1]:
        raise DimensionError(f"superoperator must be square, got shape {superop.shape}")
    side = int(round(np.sqrt(superop.shape[0])))
    if side * side != superop.shape[0]:
        raise DimensionError(f"superoperator side {superop.shape[0]} is not a perfect square")
    if n is None:
        n = side
    elif n != side:
        raise DimensionError(f"superoperator side {side}^2 does not match dimension {n}")
    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, _unvec(superop @ _vec(unit), n))
    return choi / n


def is_completely_positive(
    superop: KrausSet | np.ndarray,
    n: int | None = None,
    psd_tol: float = PSD_TOL,
) -> bool:
    """Choi test for complete positivity.

    A Kraus set is CP by construction; a superoperator matrix
    (column-stacking convention) is CP iff its Choi matrix is positive
    semidefinite. A non-Hermitian Choi matrix (map not
    Hermiticity-preserving) is reported as not CP.
    """
    if isinstance(superop, KrausSet):
        return True
    choi = choi_matrix(superop, n)
    if np.abs(choi - choi.conj().T).max() > psd_tol:
        return False
    return bool(np.linalg.eigvalsh(choi).min() >= -psd_tol)


def is_reversible(
    z: TransformMatrix,
    witnesses: list[np.ndarray],
    theory: Theory,
    tol: float = 1e-9,
) -> bool:
    """True iff Z is invertible and Z^{-1} maps witness states to valid states.

    Validity of the pre-image: p entries and mu within [0, 1] and the
    reconstructed operator positive semidefinite, all to ``tol``.
    """
    svals = np.linalg.svd(z.z, compute_uv=False)
    if svals[-1] * COND_CUTOFF <= svals[0]:
        return False
    r_identity = np.asarray(theory.r_identity, dtype=float)
    for p in witnesses:
        pre = np.linalg.solve(z.z, np.asarray(p, dtype=float))
        if pre.min() < -tol or pre.max() > 1.0 + tol:
            return False
        mu = float(r_identity @ pre)
        if not -tol <= mu <= 1.0 + tol:
            return False
        rho = density_from_r(r_from_p(pre, theory.d), theory.frame)
        if np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() < -tol:
            return False
    return True


@dataclass(frozen=True)
class MeasurementUpdateReport:
    """Result of the three measurement-update constraints.

    branch_normalization: max |r_I . Z_l p - r_l . p| over branches and
    witness states. identity_preservation: max |(sum Z_l)^T r_I - r_I|.
    kraus_completeness: max |sum M^dag M - I|.
    """

    branch_normalization: float
    identity_preservation: float
    kraus_completeness: float
    tolerance: float
    violations: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.violations


def check_measurement_update(
    branches: list[tuple[KrausSet, np.ndarray]],
    theory: Theory,
    witnesses: list[np.ndarray],
    atol: float = 1e-10,
) -> MeasurementUpdateReport:
    """Verify the constraints tying branch transformations to outcomes.

    Each branch is (Kraus set, outcome r-vector). Checked: (i) the branch
    reduces normalization to the outcome probability on every witness
    state, (ii) the summed transformation preserves the identity
    measurement, (iii) the pooled Kraus operators satisfy
    sum M^dag M = I.
    """
    if not branches:
        raise GptError("no measurement branches given")
    r_identity = np.asarray(theory.r_identity, dtype=float)
    zs = [z_from_kraus(kraus, theory) for kraus, _ in branches]

    dev_norm = 0.0
    for (kraus, r_l), z in zip(branches, zs):
        r_l = np.asarray(r_l, dtype=float)
        for p in witnesses:
            p = np.asarray(p, dtype=float)
            dev = abs(float(r_identity @ (z.z @ p)) - float(r_l @ p))
            dev_norm = max(dev_norm, dev)

    z_total = sum(z.z for z in zs)
    dev_identity = float(np.abs(z_total.T @ r_identity - r_identity).max())

    n = theory.dimension
    pooled = np.concatenate([kraus.operators for kraus, _ in branches])
    dev_kraus = float(np.abs(KrausSet(pooled).completeness_defect()).max())

    violations = []
    if dev_norm > atol:
        violations.append(f"branch normalization deviates by {dev_norm:.3g}")
    if dev_identity > atol:
        violations.append(f"summed transform moves r_I by {dev_identity:.3g}")
    if dev_kraus > atol:
        violations.append(f"sum M^dag M differs from I_{n} by {dev_kraus:.3g}")
    return MeasurementUpdateReport(
        branch_normalization=dev_norm,
        identity_preservation=dev_identity,
        kraus_completeness=dev_kraus,
        tolerance=atol,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class PathReport:
    """Purity along a candidate pure-to-pure path.

    ``purities`` holds r^T D r at each sampled point; ``pure_path`` is
    True iff every sample stays within ``tolerance`` of 1.
    """

    theory: str
    steps: int
    purities: np.ndarray
    midpoint_purity: float
    max_deviation: float
    max_mu_deviation: float
    tolerance: float

    @property
    def pure_path(self) -> bool:
        return self.max_deviation <= self.tolerance


def _pure_state_vector(r: np.ndarray, frame: FiducialFrame, tol: float) -> np.ndarray:
    rho = density_from_r(np.asarray(r, dtype=float), frame)
    eigvals, eigvecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    if abs(eigvals[-1] - 1.0) > tol or np.abs(eigvals[:-1]).max(initial=0.0) > tol:
        raise GptError("endpoint is not a pure state (rank-1, trace-1) to tolerance")
    return eigvecs[:, -1]


def _complete_basis(psi: np.ndarray) -> np.ndarray:
    """Orthonormal basis with psi as first column; Gram-Schmidt over the
    standard basis in index order breaks ties deterministically."""
    n = psi.shape[0]
    columns = [psi / np.linalg.norm(psi)]
    for i in range(n):
        cand = np.zeros(n, dtype=complex)
        cand[i] = 1.0
        for col in columns:
            cand = cand - col * (col.conj() @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            columns.append(cand / norm)
        if len(columns) == n:
            break
    return np.stack(columns, axis=1)


def continuity_probe(
    theory: Theory,
    r_a: np.ndarray,
    r_b: np.ndarray,
    steps: int,
    tol: float = 1e-9,
) -> PathReport:
    """Probe for a continuous path of pure states from r_a to r_b.

    For a theory with an operator frame (quantum) the probe follows the
    one-parameter unitary family U(t) = exp(t log U_ab) built from the
    principal logarithm of the basis-completed unitary taking the first
    state vector to the second, and reports the worst purity deviation
    along the way. Without a frame (classical) it walks the straight
    segment between two basis states, where every interior point is a
    proper mixture, so the report shows the failure.
    """
    if steps < 2:
        raise GptError("need at least two path samples")
    ts = np.linspace(0.0, 1.0, steps)

    if theory.frame is None:
        r_a = np.asarray(r_a, dtype=float)
        r_b = np.asarray(r_b, dtype=float)
        for r in (r_a, r_b):
            in_bounds = r.min() >= -tol and r.max() <= 1.0 + tol
            if not in_bounds or abs(r @ r - 1.0) > tol or abs(r.sum() - 1.0) > tol:
                raise GptError("classical endpoint is not a pure (basis) state")
        path = np.outer(1.0 - ts, r_a) + np.outer(ts, r_b)
        purities = np.einsum("ti,ti->t", path, path)  # D = I
        mus = path.sum(axis=1)
        mid = (1.0 - 0.5) * r_a + 0.5 * r_b
        midpoint_purity = float(mid @ mid)
    else:
        frame, d, r_identity = theory.frame, theory.d, theory.r_identity
        psi_a = _pure_state_vector(r_a, frame, tol)
        psi_b = _pure_state_vector(r_b, frame, tol)
        u_ab = _complete_basis(psi_b) @ _complete_basis(psi_a).conj().T
        gen = scipy.linalg.logm(u_ab)
        ham = 1j * gen
        ham = (ham + ham.conj().T) / 2.0
        freqs, modes = np.linalg.eigh(ham)
        rho_a = density_from_r(np.asarray(r_a, dtype=float), frame)
        purities = np.empty(steps)
        mus = np.empty(steps)
        mid_index = None
        for idx, t in enumerate(ts):
            u_t = (modes * np.exp(-1j * t * freqs)) @ modes.conj().T
            r_t = r_from_p(p_from_density(u_t @ rho_a @ u_t.conj().T, frame), d)
            purities[idx] = float(r_t @ d @ r_t)
            mus[idx] = float(r_identity @ p_from_r(r_t, d))
            if abs(t - 0.5) < 1e-12:
                mid_index = idx
        if mid_index is not None:
            midpoint_purity = float(purities[mid_index])
        else:
            u_t = (modes * np.exp(-0.5j * freqs)) @ modes.conj().T
            r_t = r_from_p(p_from_density(u_t @ rho_a @ u_t.conj().T, frame), d)
            midpoint_purity = float(r_t @ d @ r_t)

    return PathReport(
        theory=theory.name,
        steps=steps,
        purities=purities,
        midpoint_purity=midpoint_purity,
        max_deviation=float(np.abs(purities - 1.0).max()),
        max_mu_deviation=float(np.abs(mus - 1.0).max()),
        tolerance=tol,
    )


def compose_kraus(second: KrausSet, first: KrausSet) -> KrausSet:
    """Kraus set of the composition second after first."""
    if second.dimension != first.dimension:
        raise DimensionError("Kraus dimensions differ")
    ops = np.einsum("aij,bjk->abik", second.operators, first.operators)
    return KrausSet(ops.reshape(-1, first.dimension, first.dimension))
