"""Numerical checks for the consequences of the five axioms.

These are pure functions over tables and matrices. The subspace, basis
and linearity checks return plain deviations; the orchestration that
feeds them (simulation, suite reports), every pass/fail verdict against
its tolerance and the axiom-1 judgement of the simulated counts live in
the harness module.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GptError, MonotonicityError, NoSignatureError
from .frames import (
    LINEARITY_PAIRS,
    SUBSPACE_CHUNK_ENTRIES,
    build_canonical_frame,
    canonical_labels,
    gram_matrix,
    table_n_max,
)
from .states import Theory


def _validate_table(table: dict[int, int]) -> int:
    n_max = table_n_max(table)
    for n, k in table.items():
        if int(k) != k or k < 1:
            raise NoSignatureError(f"K({n}) = {k} is not a positive integer")
    return n_max


@dataclass(frozen=True)
class MultiplicativityCheck:
    ok: bool
    counterexample: tuple[int, int] | None = None


def is_completely_multiplicative(table: dict[int, int]) -> MultiplicativityCheck:
    """Check K(mn) = K(m) K(n) for every pair with mn inside the table.

    Returns the first violating pair (in lexicographic order) if any.
    """
    n_max = _validate_table(table)
    for m in range(1, n_max + 1):
        for n in range(m, n_max + 1):
            if m * n > n_max:
                break
            if table[m * n] != table[m] * table[n]:
                return MultiplicativityCheck(ok=False, counterexample=(m, n))
    return MultiplicativityCheck(ok=True)


def fit_power_law(table: dict[int, int]) -> int | None:
    """The unique integer r with K(N) = N^r across the table, or None.

    A strictly increasing completely multiplicative table is always a
    pure power, and N^r is itself completely multiplicative, so a table
    that is not returns None from the final comparison with N^r. Non-
    monotone input raises MonotonicityError: it violates the precondition
    rather than merely failing the fit.
    """
    n_max = _validate_table(table)
    ks = [table[n] for n in range(1, n_max + 1)]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise MonotonicityError("table is not strictly increasing")
    if n_max == 1:
        return None  # a single entry fixes no exponent
    r = round(np.log(table[2]) / np.log(2.0))
    if r < 1 or any(table[n] != n**r for n in range(1, n_max + 1)):
        return None
    return int(r)


def check_subspace_axiom(theory: Theory, subsets: Sequence[Iterable[int]]) -> np.ndarray:
    """Measure how far each basis subset W is from a lower-dimensional system.

    The fiducials supported inside W, taken in canonical order of the
    mapped indices, should reproduce the D of dimension |W| over the theory's
    units, taken from its projectors (``gram_matrix``), a route independent
    of the subspace rules that build a theory's D. Fiducials of disjoint
    subspaces should assign probability zero to every state supported in W
    (witnessed by the fiducial states of W, i.e. the corresponding columns
    of D).

    Returns a float array of shape (len(subsets), 2): for each subset, in
    order, the largest deviation of the restricted D from the reference and
    the largest probability a disjoint fiducial assigns to a W-supported
    witness state. The fiducial support and one reference D per subset size
    are built once; the subsets of one size, which select equally many
    fiducials, are then read out of D together, in chunks of rows of at most
    ``SUBSPACE_CHUNK_ENTRIES`` entries.
    """
    n = theory.dimension
    ws = []
    for subset in subsets:
        w = tuple(sorted(subset))
        if not w or any(not 0 <= i < n for i in w):
            raise GptError(f"subset {subset} is not a set of basis indices for dimension {n}")
        ws.append(w)
    support = np.array(list(zip(*canonical_labels(n, theory.units)))[1:])  # (2, K): the basis indices of each fiducial
    groups: dict[int, list[int]] = {}
    for row, w in enumerate(ws):
        groups.setdefault(len(w), []).append(row)
    d = np.asarray(theory.d, dtype=float)
    abs_d = np.abs(d)
    deviations = np.empty((len(ws), 2))
    for m, group in groups.items():
        reference = gram_matrix(build_canonical_frame(m, theory.units))
        k_in = len(reference)
        # a row reads at most K x k_in entries of D and indexes fewer than K fiducials
        step = max(1, SUBSPACE_CHUNK_ENTRIES // (theory.k * (k_in + 1)))
        for lo in range(0, len(group), step):
            rows = group[lo:lo + step]
            members = np.zeros((len(rows), n), dtype=bool)
            members[np.arange(len(rows))[:, None], [ws[row] for row in rows]] = True
            in_w = members[:, support]  # (rows, 2, K)
            inside = np.nonzero(in_w.all(axis=1))[1].reshape(len(rows), k_in)
            deviations[rows, 0] = np.abs(d[inside[:, :, None], inside[:, None, :]] - reference).max(axis=(1, 2))
            # every fiducial's largest |D| entry on each row's inside columns, (K, rows), then the
            # largest over the fiducials disjoint from W; a NaN read stays NaN, a masked one is 0
            cols = abs_d[:, inside.T.ravel()].reshape(theory.k, k_in, len(rows)).max(axis=1)
            deviations[rows, 1] = np.where(in_w.any(axis=1).T, 0.0, cols).max(axis=0)
    return deviations


def check_basis_distinguishability(theory: Theory) -> float:
    """The larger of max |r_m . p_n - delta_mn| over basis pairs and
    max |sum_m r_m - r_I|: zero when basis measurements and states are
    perfectly distinguishable and the basis measurements sum to the identity
    measurement."""
    probs = theory.basis_r @ theory.d @ theory.basis_r.T
    deviations = (
        np.abs(probs - np.eye(theory.dimension)).max(),
        np.abs(theory.basis_r.sum(axis=0) - theory.r_identity).max(),
    )
    return float(np.max(deviations))


def check_linearity(theory: Theory, rng: np.random.Generator) -> float:
    """The largest deviation from Hardy's trace formula r_M . p_rho = tr(M rho)
    over ``LINEARITY_PAIRS`` random (measurement, state) pairs.

    Each of M and rho is G G^dag / tr(G G^dag) for a complex Gaussian N x N
    G, drawn in one batch as (pair, M or rho, Re or Im) and diagonal for the
    classical theory, whose r-vectors are those diagonals; the quantum
    r-vectors come from ``Theory.r_of``. The probability r_M . (D r_rho)
    reads the theory's D, so a D off the projectors' Gram matrix shows here.
    Each deviation is measured in units of K eps |r_M|_1 max|D r_rho|, the
    rounding scale of that product; a NaN anywhere makes it NaN.
    """
    n, k = theory.dimension, theory.k
    gauss = rng.standard_normal((LINEARITY_PAIRS, 2, 2) + ((n, n) if theory.units else (n,)))
    g = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    if theory.units:
        ops = g @ g.conj().swapaxes(-1, -2)
        ops /= np.trace(ops, axis1=-2, axis2=-1).real[..., None, None]
        r_m, r_rho = theory.r_of(ops.reshape(-1, n, n)).reshape(LINEARITY_PAIRS, 2, k).swapaxes(0, 1)
        traces = np.einsum("mij,mij->m", ops[:, 0], ops[:, 1].conj()).real  # tr(M rho), M Hermitian
    else:
        diagonals = g.real**2 + g.imag**2
        r_m, r_rho = (diagonals / diagonals.sum(axis=-1, keepdims=True)).swapaxes(0, 1)
        traces = np.einsum("mi,mi->m", r_m, r_rho)
    p_rho = r_rho @ theory.d.T
    scale = k * np.finfo(float).eps * np.abs(r_m).sum(axis=1) * np.abs(p_rho).max(axis=1)
    return float((np.abs(np.einsum("mk,mk->m", r_m, p_rho) - traces) / scale).max())
