"""Transformations: K x K matrices acting on p-vectors and their
operator-level counterparts (Kraus sets / superoperators).

Superoperator matrices use column-major (column-stacking) vectorization
throughout: vec(X)[i + N j] = X[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GptError
from .frames import HEISENBERG_BLOCK_ENTRIES, PSD_TOL, PURITY_TOL, canonical_vectors
from .states import Theory, r_from_p  # r_from_p unused: bench/test_bench.py asserts that gptkit.dynamics binds it


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


def z_from_kraus(kraus: KrausSet, theory: Theory) -> np.ndarray:
    """The float K x K matrix Z with Z p(rho) = p(sum M rho M^dag), so a
    transformation acts on a p-vector as ``z @ p``.

    Built in the Heisenberg picture: p_k($(rho)) = tr($^dag(P_k) rho), so
    row k of Z is the r-vector of $^dag(P_k) = sum_l M_l^dag P_k M_l. With
    P_k = |u_k><u_k| / <u_k|u_k> (``canonical_vectors``) each term is the
    rank-one dyad of w = M_l^dag u_k, and ``Theory.r_of`` reads the rows
    off the entries, so no solve against D is needed. The rows are read in
    blocks of ``HEISENBERG_BLOCK_ENTRIES`` operator entries straight into
    Z, so the build holds Z and one block at a time. A Z with a
    non-finite entry (Kraus entries near the float limit overflow) is a
    ``GptError``.
    """
    theory.require_operator_form()  # r_of would refuse too, but only after w and a first block
    n = theory.dimension
    if kraus.dimension != n:
        raise DimensionError(f"Kraus dimension {kraus.dimension} does not match frame dimension {n}")
    vectors = canonical_vectors(n)
    norms = np.einsum("ki,ki->k", vectors.conj(), vectors).real
    w = vectors @ kraus.operators.conj()  # w[l, k] = M_l^dag u_k, as a row
    z = np.empty((theory.k, theory.k))
    step = max(1, HEISENBERG_BLOCK_ENTRIES // n**2)
    for lo in range(0, theory.k, step):
        rows = slice(lo, lo + step)
        heisenberg = np.einsum("lki,lkj->kij", w[:, rows], w[:, rows].conj())
        heisenberg /= norms[rows, None, None]
        z[rows] = theory.r_of(heisenberg)
    if not np.isfinite(z).all():
        raise GptError("Z contains non-finite entries")
    return z


def z_from_unitary(u: np.ndarray, theory: Theory) -> np.ndarray:
    """Z for unitary conjugation rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    n = theory.dimension
    if u.shape != (n, n):
        raise DimensionError(f"unitary shape {u.shape} does not match dimension {n}")
    if np.abs(u.conj().T @ u - np.eye(n)).max() > PSD_TOL:
        raise GptError("matrix is not unitary")
    return z_from_kraus(KrausSet(u[np.newaxis]), theory)


def is_trace_nonincreasing(kraus: KrausSet) -> bool:
    """True iff I - sum M^dag M is positive semidefinite."""
    defect = kraus.completeness_defect()
    return bool(np.linalg.eigvalsh(defect).min() >= -PSD_TOL)


def is_trace_preserving(kraus: KrausSet) -> bool:
    """True iff sum M^dag M = I."""
    return bool(np.abs(kraus.completeness_defect()).max() <= PSD_TOL)


def kraus_to_superoperator(kraus: KrausSet) -> np.ndarray:
    """Column-stacking superoperator matrix sum_l conj(M_l) (x) M_l."""
    return sum(np.kron(m.conj(), m) for m in kraus.operators)


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix (1/N) sum_ij E_ij (x) $(E_ij) of a superoperator matrix,
    where N^2 is the superoperator's side."""
    superop = np.asarray(superop, dtype=complex)
    if superop.ndim != 2 or superop.shape[0] != superop.shape[1]:
        raise DimensionError(f"superoperator must be square, got shape {superop.shape}")
    n = int(round(np.sqrt(superop.shape[0])))
    if n * n != superop.shape[0]:
        raise DimensionError(f"superoperator side {superop.shape[0]} is not a perfect square")
    # superop[a + n b, i + n j] = $(E_ij)[a, b], the entry at row (i, a) and
    # column (j, b) of the Choi matrix
    choi = superop.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
    return choi / n


def is_completely_positive(superop: KrausSet | np.ndarray) -> bool:
    """Choi test for complete positivity.

    A Kraus set is CP by construction; a superoperator matrix
    (column-stacking convention) is CP iff its Choi matrix is positive
    semidefinite. A non-Hermitian Choi matrix (map not
    Hermiticity-preserving) is reported as not CP. Both tests allow
    ``PSD_TOL`` times the Choi matrix's largest entry, the scale of its
    rounding.
    """
    if isinstance(superop, KrausSet):
        return True
    choi = choi_matrix(superop)
    tol = PSD_TOL * np.abs(choi).max()
    if np.abs(choi - choi.conj().T).max() > tol:
        return False
    return bool(np.linalg.eigvalsh(choi).min() >= -tol)


def is_reversible(kraus: KrausSet) -> bool:
    """True iff the inverse is also an allowed transformation: exactly a
    unitary conjugation, since a trace-non-increasing map with such an
    inverse preserves the trace, and a channel with a channel inverse has
    Kraus operators that are all multiples of one unitary. So the Kraus
    Gram matrix tr(M_l^dag M_m) has rank one (each eigenvalue but the
    largest is at most ``PSD_TOL`` times the largest), and the map is trace
    preserving.
    """
    ops = kraus.operators.reshape(len(kraus.operators), kraus.dimension**2)
    eigvals = np.linalg.eigvalsh(ops.conj() @ ops.T)  # ascending; none for an empty set
    rank_one = eigvals[:-1].max(initial=0.0) <= PSD_TOL * eigvals.max(initial=0.0)
    return bool(rank_one) and is_trace_preserving(kraus)


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
            dev = abs(float(r_identity @ (z @ p)) - float(r_l @ p))
            dev_norm = max(dev_norm, dev)

    z_total = sum(zs)
    dev_identity = float(np.abs(z_total.T @ r_identity - r_identity).max())

    n = theory.dimension
    pooled = np.concatenate([kraus.operators for kraus, _ in branches])
    dev_kraus = float(np.abs(KrausSet(pooled).completeness_defect()).max())

    violations = []
    if dev_norm > PSD_TOL:
        violations.append(f"branch normalization deviates by {dev_norm:.3g}")
    if dev_identity > PSD_TOL:
        violations.append(f"summed transform moves r_I by {dev_identity:.3g}")
    if dev_kraus > PSD_TOL:
        violations.append(f"sum M^dag M differs from I_{n} by {dev_kraus:.3g}")
    return MeasurementUpdateReport(
        branch_normalization=dev_norm,
        identity_preservation=dev_identity,
        kraus_completeness=dev_kraus,
        tolerance=PSD_TOL,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class PathReport:
    """Purity along a candidate pure-to-pure path.

    ``purities`` holds r^T D r at each of the ``steps`` sampled points and
    ``midpoint_purity`` its value at t = 1/2; ``endpoint_deviation`` is
    max |r(1) - r_b|. ``pure_path`` is True iff every sample stays within
    ``tolerance`` (``PURITY_TOL``) of 1 and the path ends at r_b within
    ``tolerance``.
    """

    theory: str
    steps: int
    purities: np.ndarray
    midpoint_purity: float
    max_deviation: float
    max_mu_deviation: float
    endpoint_deviation: float
    tolerance: float

    @property
    def pure_path(self) -> bool:
        return self.max_deviation <= self.tolerance and self.endpoint_deviation <= self.tolerance


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i . y_i for each row i, by matmul, so each rounds as the 1-D x_i @ y_i does."""
    return (x[:, None] @ y[:, :, None])[:, 0, 0]


def continuity_probe(theory: Theory, r_a: np.ndarray, r_b: np.ndarray,
                     steps: int) -> PathReport | tuple[PathReport, ...]:
    """Probe for continuous paths of pure states from r_a to r_b: one pair
    (K,) gives one ``PathReport``, a stack of m pairs (m, K) a tuple of m,
    from one ``operator_of``, one stacked ``eigh`` and one ``r_of`` call
    for the stack. An impure endpoint anywhere is a ``GptError``.

    For the quantum theory (pair units 1 and i) the probe follows the
    great circle through the endpoint state vectors. With the phase of
    psi_b fixed so that <psi_a|psi_b> >= 0, theta = arccos <psi_a|psi_b>
    and phi the normalised part of psi_b orthogonal to psi_a, the path is
    psi(t) = cos(t theta) psi_a + sin(t theta) phi = exp(t theta G) psi_a,
    where G = |phi><psi_a| - |psi_a><phi| generates the rotation in the
    plane span{psi_a, psi_b}. exp(t theta G) is the one-parameter unitary
    group that Hardy's axiom 5 asks for; for theta = 0 the path is
    constant. The report gives the worst purity deviation along the way
    and how far r(1) lands from r_b. Without pair units (classical) the
    probe walks the straight segment between two basis states, where every
    interior point is a proper mixture, so the report shows the failure.

    Either path is r(t) = w(t)^T R over a span R of a few r-vectors: the
    segment has R = (r_a, r_b) and w = (1 - t, t). With c = cos(t theta)
    and s = sin(t theta), the circle's rho(t) is c^2 |psi_a><psi_a| +
    s^2 |phi><phi| + c s (|psi_a><phi| + |phi><psi_a|), so R holds the
    r-vectors of these three operators (from ``Theory.r_of``, with no solve
    against D) and w = (c^2, s^2, c s). The purity r^T D r is then
    w^T (R D R^T) w and mu is w . (R D r_I), read at ``steps`` evenly
    spaced t in [0, 1] plus t = 1/2, the last row.
    """
    if steps < 2:
        raise GptError("need at least two path samples")
    r_a, r_b = np.asarray(r_a, dtype=float), np.asarray(r_b, dtype=float)
    if r_a.shape != r_b.shape or r_a.shape[-1:] != (theory.k,) or r_a.ndim > 2:
        raise DimensionError(f"endpoints {r_a.shape} and {r_b.shape} are not (K,) or (m, K) with K = {theory.k}")
    pairs = np.stack([np.atleast_2d(r_a), np.atleast_2d(r_b)], axis=1)  # (m, 2, K)
    m, ts = len(pairs), np.append(np.linspace(0.0, 1.0, steps), 0.5)

    if not theory.units:  # classical: D = I
        r = pairs.reshape(-1, theory.k)
        pure = (r.min(axis=1) >= -PURITY_TOL) & (r.max(axis=1) <= 1.0 + PURITY_TOL)
        pure &= (np.abs((r * r).sum(axis=1) - 1.0) <= PURITY_TOL) & (np.abs(r.sum(axis=1) - 1.0) <= PURITY_TOL)
        if not pure.all():
            raise GptError("classical endpoint is not a pure (basis) state")
        weights, span = np.broadcast_to(np.stack([1.0 - ts, ts], axis=1), (m, steps + 1, 2)), pairs
    else:
        n = theory.dimension
        eigvals, eigvecs = np.linalg.eigh(theory.operator_of(pairs.reshape(-1, theory.k)))
        if not np.abs(eigvals - np.eye(n)[-1]).max(initial=0.0) <= PURITY_TOL:  # spectrum (0, ..., 0, 1)
            raise GptError("endpoint is not a pure state (rank-1, trace-1) to tolerance")
        psi_a, psi_b = eigvecs[:, :, -1].reshape(m, 2, n).swapaxes(0, 1)
        overlap = _rowdot(psi_a.conj(), psi_b)
        cos_ab = np.hypot(overlap.real, overlap.imag)  # |overlap|, rounded as Python's abs rounds a complex
        # an orthogonal pair (cos_ab = 0) keeps psi_b's phase
        psi_b = psi_b * np.divide(cos_ab, overlap, out=np.ones_like(overlap), where=cos_ab > 0.0)[:, None]
        ortho = psi_b - cos_ab[:, None] * psi_a
        sin_ab = np.sqrt(_rowdot(ortho.real, ortho.real) + _rowdot(ortho.imag, ortho.imag))
        theta = np.arctan2(sin_ab, cos_ab)  # arccos |<psi_a|psi_b>|, accurate near 0
        phi = np.divide(ortho, sin_ab[:, None], out=ortho.copy(), where=sin_ab[:, None] > 0.0)
        cos_t, sin_t = np.cos(ts * theta[:, None]), np.sin(ts * theta[:, None])
        weights = np.stack([cos_t * cos_t, sin_t * sin_t, cos_t * sin_t], axis=2)
        cross = psi_a[:, :, None] * phi.conj()[:, None, :]
        ops = np.stack([psi_a[:, :, None] * psi_a.conj()[:, None, :], phi[:, :, None] * phi.conj()[:, None, :],
                        cross + cross.conj().swapaxes(1, 2)], axis=1)
        span = theory.r_of(ops.reshape(-1, n, n)).reshape(m, 3, theory.k)
    d_span = span @ theory.d  # rows (D r)^T, D symmetric
    purities = np.einsum("mti,mti->mt", weights @ (d_span @ span.swapaxes(1, 2)), weights)
    mus = (weights @ (d_span @ theory.r_identity)[:, :, None])[:, :, 0]
    r_ends = (weights[:, steps - 1, None] @ span)[:, 0]  # r(1)
    deviations = (np.abs(purities[:, :-1] - 1.0).max(axis=1), np.abs(mus[:, :-1] - 1.0).max(axis=1),
                  np.abs(r_ends - pairs[:, 1]).max(axis=1))  # the max_, max_mu_ and endpoint_deviation fields
    reports = tuple(PathReport(theory.name, steps, p[:-1], float(p[-1]), *map(float, devs), tolerance=PURITY_TOL)
                    for p, *devs in zip(purities, *deviations))
    return reports[0] if r_a.ndim == 1 else reports
