"""The N = 2 D-matrix family, its Bloch-ball geometry, and the general-N
D matrix assembled from subspace rules.

The 4x4 family is parameterized by (a, b, c) in [0, 1]^3; the physical
region is the open interval c_-(a, b) < c < c_+(a, b), inside which the
pure-state surface is an ellipsoid and the matrix can be factored back
into a projector frame (up to phase gauge).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GptError, PhaseRecoveryError
from .frames import ATOL, PSD_TOL, FiducialFrame, canonical_labels, check_frame_entries


@dataclass(frozen=True)
class D2Params:
    """Parameters of the 4x4 D-matrix family."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise GptError(f"parameter {name} = {value} outside [0, 1]")


def d2_assemble(params: D2Params) -> np.ndarray:
    """Assemble the 4x4 D matrix from (a, b, c).

    Unit diagonal; the (1,2) entries vanish because the first two frame
    entries are a basis pair; the (1-a, a) and (1-b, b) columns follow
    from normalization against the basis pair.
    """
    a, b, c = params.a, params.b, params.c
    return np.array(
        [
            [1.0, 0.0, 1.0 - a, 1.0 - b],
            [0.0, 1.0, a, b],
            [1.0 - a, a, 1.0, c],
            [1.0 - b, b, c, 1.0],
        ]
    )


def c_bounds(a: float, b: float) -> tuple[float, float]:
    """Roots c_-, c_+ = 1 - a - b + 2ab -/+ 2 sqrt(ab(1-a)(1-b))."""
    base = 1.0 - a - b + 2.0 * a * b
    spread = 2.0 * np.sqrt(max(a * b * (1.0 - a) * (1.0 - b), 0.0))
    return float(base - spread), float(base + spread)


def bloch_coordinates(r: np.ndarray) -> tuple[float, np.ndarray]:
    """Reduce a length-4 r-vector to (mu, v).

    v = (r2 - r1, r3, r4) and mu = 2 r1 + sum(v); valid for any D in the
    4x4 family (where the identity measurement is (1, 1, 0, 0)).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (4,):
        raise DimensionError(f"expected a length-4 r-vector, got shape {r.shape}")
    v = np.array([r[1] - r[0], r[2], r[3]])
    mu = 2.0 * r[0] + v.sum()
    return mu, v


def a_matrix(params: D2Params) -> np.ndarray:
    """Quadratic form A with v^T A v = 1/2 on normalized pure states."""
    a, b, c = params.a, params.b, params.c
    return np.array(
        [
            [0.5, a - 0.5, b - 0.5],
            [a - 0.5, 0.5, c - 0.5],
            [b - 0.5, c - 0.5, 0.5],
        ]
    )


class SurfaceKind(enum.Enum):
    ELLIPSOID = "ellipsoid"
    HYPERBOLOID = "hyperboloid"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SurfaceClass:
    kind: SurfaceKind
    eigenvalues: tuple[float, float, float]


def classify_surface(a_mat: np.ndarray) -> SurfaceClass:
    """Classify the quadric v^T A v = 1/2 by the eigenvalue signs of A.

    All positive: ellipsoid (the only case compatible with a convex
    pure-state surface around the origin). An eigenvalue within
    ``PSD_TOL`` of zero: degenerate. Otherwise: hyperboloid.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    if a_mat.shape != (3, 3) or np.abs(a_mat - a_mat.T).max() > ATOL:
        raise DimensionError("expected a symmetric 3x3 matrix")
    eigs = np.linalg.eigvalsh(a_mat)
    if np.abs(eigs).min() < PSD_TOL:
        kind = SurfaceKind.DEGENERATE
    elif eigs.min() > 0:
        kind = SurfaceKind.ELLIPSOID
    else:
        kind = SurfaceKind.HYPERBOLOID
    return SurfaceClass(kind=kind, eigenvalues=tuple(float(e) for e in eigs))


@dataclass(frozen=True)
class PhaseRecovery:
    """Projector amplitudes recovered from a 4x4 D matrix.

    The gauge is phi3 = 0 and phi4 in [0, pi], so alpha, beta, gamma are
    real and only delta carries a phase.
    """

    phi3: float
    phi4: float
    alpha: float
    beta: complex
    gamma: float
    delta: complex


def recover_phases(d: np.ndarray) -> PhaseRecovery:
    """Factor a 4x4 family D matrix back into projector amplitudes.

    Requires c strictly inside (c_-, c_+); on or outside the boundary the
    projectors become linearly dependent and no frame reproduces d.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got {d.shape}")
    a, b, c = d[1, 2], d[1, 3], d[2, 3]
    params = D2Params(a=a, b=b, c=c)
    if np.abs(d2_assemble(params) - d).max() > PSD_TOL:
        raise GptError("matrix does not match the 4x4 family template")
    c_minus, c_plus = c_bounds(a, b)
    if not c_minus < c < c_plus:
        raise PhaseRecoveryError(
            f"c = {c} not strictly inside ({c_minus}, {c_plus}); phases do not exist"
        )
    cos_dphi = (c - (1.0 - a - b + 2.0 * a * b)) / (
        2.0 * np.sqrt(a * b * (1.0 - a) * (1.0 - b))
    )
    phi4 = float(np.arccos(np.clip(cos_dphi, -1.0, 1.0)))
    return PhaseRecovery(
        phi3=0.0,
        phi4=phi4,
        alpha=float(np.sqrt(1.0 - a)),
        beta=complex(np.sqrt(a)),
        gamma=float(np.sqrt(1.0 - b)),
        delta=np.sqrt(b) * np.exp(1j * phi4),
    )


def frame_from_phases(rec: PhaseRecovery) -> FiducialFrame:
    """Build the 4-projector frame with the recovered amplitudes."""
    psi3 = np.array([rec.alpha, rec.beta], dtype=complex)
    psi4 = np.array([rec.gamma, rec.delta], dtype=complex)
    projectors = np.stack(
        [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            np.outer(psi3, psi3.conj()),
            np.outer(psi4, psi4.conj()),
        ]
    )
    frame = FiducialFrame(dimension=2, projectors=projectors, labels=canonical_labels(2))
    frame.validate()
    return frame


def build_general_d(n: int, units: str = "xy") -> np.ndarray:
    """Assemble the K x K canonical D matrix of dimension n over a set of
    ``PAIR_UNITS`` from subspace rules alone, with no projectors.

    Unit diagonal; off it, the number of basis indices the two fiducials'
    supports share over the product of the support sizes: 0 between
    distinct basis entries and between entries of disjoint subspaces, 1/2
    between a basis entry and a pair that contains it and within one pair,
    1/4 between distinct overlapping pairs. Without units it is the identity.
    A D of more than ``MAX_FRAME_ENTRIES`` entries is refused before any
    label is made.
    """
    k = n + len(units) * (n * (n - 1) // 2)
    check_frame_entries(n, "D", k, k)
    first, second = np.array([label[1:] for label in canonical_labels(n, units)]).T  # support indices
    share = np.zeros((n, k))  # share[a, j] = 1 / (2 |support j|) for each index a in support j
    share[first, np.arange(k)] = share[second, np.arange(k)] = 0.5 / (1.0 + (first != second))
    d = share[first]
    for a in range(n):  # row i: 2 share summed over support i / |support i| (a basis index is read twice)
        d[second == a] += share[a]  # one group of rows at a time, so D is the only K x K array
    np.fill_diagonal(d, 1.0)
    return d
