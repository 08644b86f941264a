"""Canonical projector frames and their Gram (D) matrices.

A frame for dimension N is parametrised by a set of units, the string of
``PAIR_UNITS`` keys placed on every pair of basis indices. It consists of
the N basis projectors |n><n| followed, for every pair m < n in
lexicographic order and every unit u in the set, by the projector onto
(|m> + u|n>)/sqrt(2). Classical theory has no units (K = N), and quantum
theory the units "xy", 1 and i (K = N^2). This ordering is fixed so that
D matrices are bit-comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import numpy as np

from .errors import DegenerateFrameError, DimensionError, GptError, NoSignatureError

# The tolerance and sample budget of every check in gptkit, one constant per
# meaning. The checks read these names, and no argument, flag or config key
# sets them; the suite compares the axioms checks' deviations with them.
ATOL = 1e-12  # identities that hold exactly up to rounding
PSD_TOL = 1e-10  # eigenvalue signs, and operator identities after products
PURITY_TOL = 1e-9  # purities r^T D r, and values that come out of a solve against D
INDEPENDENCE_RTOL = 1e-9  # smallest/largest singular value of a frame's projectors
GRAM_SINGULAR_TOL = 1e-9  # smallest singular value of a D matrix
LINEARITY_RTOL = 4.0  # r_M^T D r_rho = tr(M rho), in units of K eps |r_M|_1 max|D r_rho|
LINEARITY_PAIRS = 16  # random (measurement, state) pairs per linearity check
FREQUENCY_ENVELOPE = 5.0  # frequency bound at n shots: FREQUENCY_ENVELOPE / sqrt(n)
FREQUENCY_PASS_FRACTION = 0.95  # share of trials that must fall inside that bound
POWER_LAW_N_MAX = 6  # dimensions 1..N_max of the power-law table
FREQUENCY_SCALES = (1_000, 10_000, 100_000, 1_000_000)  # shots per trial, one scale each
FREQUENCY_TRIALS = 8  # trials per target probability and scale, drawn from one seeded stream
CONTINUITY_PAIRS = 5  # random pure-state pairs the quantum continuity check connects
CONTINUITY_STEPS = 100  # points sampled along each continuity path
COMPOSITE_LAW_SAMPLES = 10  # random local unitary pairs in the composite transformation law

# Entries of a frame's K x K D matrix and of its K x N x N projector block: 2**26 admits
# classical N <= 8192 and quantum N <= 90 (both arrays N^4), and a larger N is an input error
MAX_FRAME_ENTRIES = 2**26
# D entries (and index entries) that check_subspace_axiom reads out of D at once: a group of
# equal-sized subsets is read in chunks of rows, so its memory does not grow with their number
SUBSPACE_CHUNK_ENTRIES = 2**22
# Complex entries of the (rows, N, N) Heisenberg block that z_from_kraus fills Z from at once:
# Z is then its only K x K array, and a block is 256 KB at any N, so the build's peak is Z plus
# a constant (64 rows, 4 blocks, at N = 16)
HEISENBERG_BLOCK_ENTRIES = 2**14

PAIR_UNITS = {"x": 1, "y": 1j}  # unit u -> the coefficient of |n> in |m> + u|n>

Label = tuple[str, int, int]


def has_operator_form(units: str) -> bool:
    """True for the units "xy" (1 and i), whose projectors span every Hermitian operator."""
    return units == "".join(PAIR_UNITS)


def check_frame_entries(n: int, what: str, *shape: int) -> None:
    """Refuse a dimension n below 1, and an array of ``shape`` with more than
    ``MAX_FRAME_ENTRIES`` entries."""
    if n < 1:
        raise DimensionError(f"dimension must be a positive integer, got {n}")
    if prod(shape) > MAX_FRAME_ENTRIES:
        raise DimensionError(f"dimension {n} needs {' x '.join(map(str, shape))} {what} entries, "
                             f"more than MAX_FRAME_ENTRIES = {MAX_FRAME_ENTRIES}")


def frame_size(n: int, units: str = "xy") -> int:
    """K, the number of entries of the canonical frame of dimension n over
    ``units``: N basis projectors and one projector per unit on each pair,
    ``len(canonical_labels(n, units))`` with no label built."""
    return n + len(units) * (n * (n - 1) // 2)


def canonical_labels(n: int, units: str = "xy") -> tuple[Label, ...]:
    """Frame entry labels for dimension n over a set of ``PAIR_UNITS``, in canonical order.

    Each label is ("b", i, i) for a basis projector or (u, m, n) for the
    projector of unit u on the pair m < n; indices are 0-based. Distinct
    units (1 and i are independent over the reals) give independent projectors.
    """
    if len(set(units)) != len(units) or not set(units) <= PAIR_UNITS.keys():
        raise GptError(f"units {units!r} are not distinct keys of PAIR_UNITS")
    labels: list[Label] = [("b", i, i) for i in range(n)]
    for m in range(n if units else 0):  # without units, no pair is visited
        for nn in range(m + 1, n):
            labels.extend((unit, m, nn) for unit in units)
    return tuple(labels)


def label_text(label: Label) -> str:
    """Human-readable 1-based form, e.g. ("x", 0, 1) -> "12x"."""
    kind, i, j = label
    if kind == "b":
        return str(i + 1)
    return f"{i + 1}{j + 1}{kind}"


def canonical_vectors(n: int, units: str = "xy") -> np.ndarray:
    """Row k is a vector u_k spanning frame entry k: P_k = |u_k><u_k| / <u_k|u_k>.

    A basis entry has u_k = |i> and a pair entry u_k = |m> + u|n> for its
    unit u, so every entry of u_k is 0, 1 or a unit and <u_k|u_k> is 1 or 2.
    """
    labels = canonical_labels(n, units)
    vectors = np.zeros((len(labels), n), dtype=complex)
    for idx, (kind, i, j) in enumerate(labels):
        vectors[idx, i] = 1.0
        if kind != "b":
            vectors[idx, j] = PAIR_UNITS[kind]
    return vectors


@dataclass(frozen=True)
class FiducialFrame:
    """Ordered set of K linearly independent rank-one projectors.

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
    labels: tuple[Label, ...]

    @property
    def k(self) -> int:
        return self.projectors.shape[0]

    def hermitian_coordinates(self) -> np.ndarray:
        """The (K, N^2) real coordinates ``Re P + Im P`` of the projectors.

        For a Hermitian P, Re P is symmetric and Im P antisymmetric, and
        these are orthogonal in the Frobenius product, so the dot product of
        two rows is tr(P_i P_j), as it is for the (K, 2 N^2) ``[Re | Im]``
        flattening: both have the same singular values, and this one is
        square.
        """
        return (self.projectors.real + self.projectors.imag).reshape(self.k, -1)

    def validate(self) -> None:
        """Raise if any frame invariant fails.

        Checks Hermiticity, idempotence and unit trace of every projector,
        and linear independence of the K projectors as real vectors, read
        from the singular values of their ``hermitian_coordinates``.
        """
        _, n, n2 = self.projectors.shape
        if n != n2 or n != self.dimension:
            raise DimensionError(
                f"projector block has shape {self.projectors.shape}, "
                f"expected (K, {self.dimension}, {self.dimension})"
            )
        herm = np.abs(self.projectors - self.projectors.conj().transpose(0, 2, 1)).max()
        if herm > ATOL:
            raise DegenerateFrameError(f"projector not Hermitian (deviation {herm:.3g})")
        idem = np.abs(self.projectors @ self.projectors - self.projectors).max()
        if idem > ATOL:
            raise DegenerateFrameError(f"projector not idempotent (deviation {idem:.3g})")
        traces = np.einsum("kii->k", self.projectors)
        if np.abs(traces - 1.0).max() > ATOL:
            raise DegenerateFrameError("projector trace differs from 1")
        svals = np.linalg.svd(self.hermitian_coordinates(), compute_uv=False)
        if svals[-1] <= INDEPENDENCE_RTOL * svals[0]:
            raise DegenerateFrameError(
                f"projectors are linearly dependent (sv ratio {svals[-1] / svals[0]:.3g})"
            )


def build_canonical_frame(n: int, units: str = "xy") -> FiducialFrame:
    """Build the canonical frame of dimension ``n`` over a set of ``PAIR_UNITS``.

    A projector block of more than ``MAX_FRAME_ENTRIES`` entries is refused
    before any label is made. The frame is not validated: its projectors are
    Hermitian, idempotent and of unit trace by construction, and independent
    because ``canonical_labels`` admits only distinct units.
    """
    check_frame_entries(n, "projector", frame_size(n, units), n, n)
    vectors = canonical_vectors(n, units)
    # dividing the dyads by the exact squared norms (1 or 2) keeps the
    # entries (and hence D) exactly representable
    norms = np.einsum("ki,ki->k", vectors.conj(), vectors).real
    projectors = vectors[:, :, None] * vectors.conj()[:, None, :]
    projectors /= norms[:, None, None]
    return FiducialFrame(dimension=n, projectors=projectors, labels=canonical_labels(n, units))


def gram_matrix(frame: FiducialFrame) -> np.ndarray:
    """Gram matrix D with D[i, j] = Re tr(P_i P_j).

    Raises DegenerateFrameError if the imaginary parts are not negligible,
    the matrix is not symmetric, or it is numerically singular (all of
    which signal a linearly dependent or corrupted frame). For Hermitian
    projectors, which canonical frames are by construction and
    ``FiducialFrame.validate`` tests for others,
    tr(P_i P_j) = sum_ab P_i[a, b] conj(P_j[a, b]), one product of the
    flattened projectors. A canonical frame's D is ``bloch.build_general_d``,
    which needs no projectors.
    """
    flat = frame.projectors.reshape(frame.k, -1)
    prods = flat @ flat.conj().T
    if np.abs(prods.imag).max() > ATOL:
        raise DegenerateFrameError("tr(P_i P_j) has a non-negligible imaginary part")
    d = prods.real
    if np.abs(d - d.T).max() > ATOL:
        raise DegenerateFrameError("Gram matrix is not symmetric")
    smallest = np.abs(np.linalg.eigvalsh(d)).min()  # D is symmetric: its svs are |eigenvalues|
    if smallest <= GRAM_SINGULAR_TOL:
        raise DegenerateFrameError(f"Gram matrix singular (smallest sv {smallest:.3g})")
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
