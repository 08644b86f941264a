"""Canonical projector frames and their Gram (D) matrices.

A frame for dimension N consists of K = N^2 rank-one projectors: the N
basis projectors |n><n| followed, for every pair m < n in lexicographic
order, by the projectors onto (|m> + |n>)/sqrt(2) and (|m> + i|n>)/sqrt(2).
This ordering is fixed so that D matrices are bit-comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .errors import DegenerateFrameError, DimensionError, NoSignatureError

# The tolerance and sample budget of every check in gptkit, one constant per
# meaning. The checks read these names, and no argument, flag or config key
# sets them; each report records the tolerance or budget its check used.
ATOL = 1e-12  # identities that hold exactly up to rounding
PSD_TOL = 1e-10  # eigenvalue signs, and operator identities after products
PURITY_TOL = 1e-9  # values that come out of a solve against D or Z
INDEPENDENCE_RTOL = 1e-9  # smallest/largest singular value of a frame's projectors
GRAM_SINGULAR_TOL = 1e-9  # smallest singular value of a D matrix
COND_CUTOFF = 1e9  # condition number beyond which Z counts as not invertible
LINEARITY_TOL = 1e-14  # affine and homogeneity identities of a measurement
LINEARITY_SAMPLES = 1000  # random mixtures and scalings per linearity check
FREQUENCY_ENVELOPE = 5.0  # frequency bound at n shots: FREQUENCY_ENVELOPE / sqrt(n)
FREQUENCY_PASS_FRACTION = 0.95  # share of trials that must fall inside that bound
POWER_LAW_N_MAX = 6  # dimensions 1..N_max of the power-law table
FREQUENCY_SCALES = (1_000, 10_000, 100_000, 1_000_000)  # shots per trial, one scale each
FREQUENCY_TRIALS = 8  # seeded trials per target probability and scale
CONTINUITY_PAIRS = 5  # random pure-state pairs the quantum continuity check connects
CONTINUITY_STEPS = 100  # points sampled along each continuity path
COMPOSITE_LAW_SAMPLES = 10  # random local unitary pairs in the composite transformation law

Label = tuple[str, int, int]


def canonical_labels(n: int) -> tuple[Label, ...]:
    """Frame entry labels for dimension n, in canonical order.

    Each label is ("b", i, i) for a basis projector or ("x"|"y", m, n)
    for a two-dimensional subspace projector; indices are 0-based.
    """
    labels: list[Label] = [("b", i, i) for i in range(n)]
    for m in range(n):
        for nn in range(m + 1, n):
            labels.append(("x", m, nn))
            labels.append(("y", m, nn))
    return tuple(labels)


def label_text(label: Label) -> str:
    """Human-readable 1-based form, e.g. ("x", 0, 1) -> "12x"."""
    kind, i, j = label
    if kind == "b":
        return str(i + 1)
    return f"{i + 1}{j + 1}{kind}"


def label_support(label: Label) -> frozenset[int]:
    """Basis indices a frame entry has support on."""
    kind, i, j = label
    return frozenset((i,)) if kind == "b" else frozenset((i, j))


@dataclass(frozen=True)
class FiducialFrame:
    """Ordered set of K = N^2 rank-one projectors spanning Hermitian space.

    Attributes
    ----------
    dimension:
        Hilbert-space dimension N.
    projectors:
        Complex array of shape (K, N, N), canonical order.
    labels:
        Parallel tuple of entry labels (see :func:`canonical_labels`).
    """

    dimension: int
    projectors: np.ndarray
    labels: tuple[Label, ...] = field(default=())

    @property
    def k(self) -> int:
        return self.projectors.shape[0]

    def validate(self) -> None:
        """Raise if any frame invariant fails.

        Checks Hermiticity, idempotence and unit trace of every projector,
        and linear independence of the K projectors as real vectors.
        """
        k, n, n2 = self.projectors.shape
        if n != n2 or n != self.dimension:
            raise DimensionError(
                f"projector block has shape {self.projectors.shape}, "
                f"expected (K, {self.dimension}, {self.dimension})"
            )
        herm = np.abs(self.projectors - self.projectors.conj().transpose(0, 2, 1)).max()
        if herm > ATOL:
            raise DegenerateFrameError(f"projector not Hermitian (deviation {herm:.3g})")
        idem = np.abs(np.einsum("kij,kjl->kil", self.projectors, self.projectors) - self.projectors).max()
        if idem > ATOL:
            raise DegenerateFrameError(f"projector not idempotent (deviation {idem:.3g})")
        traces = np.einsum("kii->k", self.projectors)
        if np.abs(traces - 1.0).max() > ATOL:
            raise DegenerateFrameError("projector trace differs from 1")
        flat = np.concatenate(
            [self.projectors.real.reshape(k, -1), self.projectors.imag.reshape(k, -1)], axis=1
        )
        svals = np.linalg.svd(flat, compute_uv=False)
        if svals[-1] <= INDEPENDENCE_RTOL * svals[0]:
            raise DegenerateFrameError(
                f"projectors are linearly dependent (sv ratio {svals[-1] / svals[0]:.3g})"
            )


def build_canonical_frame(n: int) -> FiducialFrame:
    """Build the canonical N^2-projector frame for dimension ``n``.

    Basis projectors come first, then for each pair m < n the projector
    onto (|m> + |n>)/sqrt(2) followed by the one onto (|m> + i|n>)/sqrt(2).
    """
    if n < 1:
        raise DimensionError(f"dimension must be a positive integer, got {n}")
    labels = canonical_labels(n)
    projectors = np.zeros((n * n, n, n), dtype=complex)
    for idx, (kind, i, j) in enumerate(labels):
        if kind == "b":
            projectors[idx, i, i] = 1.0
        else:
            vec = np.zeros(n, dtype=complex)
            vec[i] = 1.0
            vec[j] = 1.0 if kind == "x" else 1.0j
            # dividing the dyad by the exact squared norm keeps the
            # entries (and hence D) exactly representable
            projectors[idx] = np.outer(vec, vec.conj()) / 2.0
    frame = FiducialFrame(dimension=n, projectors=projectors, labels=labels)
    frame.validate()
    return frame


def gram_matrix(frame: FiducialFrame) -> np.ndarray:
    """Gram matrix D with D[i, j] = Re tr(P_i P_j).

    Raises DegenerateFrameError if the imaginary parts are not negligible,
    the matrix is not symmetric, or it is numerically singular (all of
    which signal a linearly dependent or corrupted frame).
    """
    prods = np.einsum("iab,jba->ij", frame.projectors, frame.projectors)
    if np.abs(prods.imag).max() > ATOL:
        raise DegenerateFrameError("tr(P_i P_j) has a non-negligible imaginary part")
    d = prods.real
    if np.abs(d - d.T).max() > ATOL:
        raise DegenerateFrameError("Gram matrix is not symmetric")
    svals = np.linalg.svd(d, compute_uv=False)
    if svals[-1] <= GRAM_SINGULAR_TOL:
        raise DegenerateFrameError(f"Gram matrix singular (smallest sv {svals[-1]:.3g})")
    return d


@dataclass(frozen=True)
class Signature:
    """Per-subspace degree-of-freedom counts (x1, x2, ...).

    Trailing zeros are stripped so equal signatures compare equal. The
    degrees-of-freedom table is recovered through K(N) = sum_j C(N, j) x_j.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(x) for x in self.counts)
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        object.__setattr__(self, "counts", counts)

    def k_of(self, n: int) -> int:
        return sum(comb(n, j + 1) * x for j, x in enumerate(self.counts))


def table_n_max(k_table: dict[int, int]) -> int:
    """N_max of a degrees-of-freedom table, which must map consecutive
    dimensions 1..N_max to K values."""
    if not k_table:
        raise NoSignatureError("empty degrees-of-freedom table")
    n_max = max(k_table)
    if set(k_table) != set(range(1, n_max + 1)):
        raise NoSignatureError("table must cover consecutive dimensions 1..N_max")
    return n_max


def signature_from_table(k_table: dict[int, int]) -> Signature:
    """Solve for the signature reproducing a degrees-of-freedom table.

    ``k_table`` must map consecutive dimensions 1..N_max to K values. The
    system K(N) = sum_j C(N, j) x_j is triangular with unit diagonal, so
    it is solved exactly in rational arithmetic; a negative or non-integer
    component means no theory has that table.
    """
    n_max = table_n_max(k_table)
    xs: list[Fraction] = []
    for n in range(1, n_max + 1):
        residual = Fraction(k_table[n]) - sum(
            comb(n, j + 1) * x for j, x in enumerate(xs)
        )
        xs.append(residual)  # coefficient C(n, n) = 1
    for i, x in enumerate(xs):
        if x.denominator != 1 or x < 0:
            raise NoSignatureError(f"component x{i + 1} = {x} is not a non-negative integer")
    return Signature(counts=tuple(int(x) for x in xs))
