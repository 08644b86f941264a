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
    LINEARITY_BLOCK_ENTRIES,
    LINEARITY_SAMPLES,
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
    deviations = np.empty((len(ws), 2))
    for m, group in groups.items():
        reference = gram_matrix(build_canonical_frame(m, theory.units))
        k_in = len(reference)
        # a row reads at most K x k_in entries of D and indexes fewer than K fiducials
        step = max(1, SUBSPACE_CHUNK_ENTRIES // (theory.k * (k_in + 1)))
        for lo in range(0, len(group), step):
            rows = group[lo:lo + step]
            members = np.zeros((len(rows), n), dtype=bool)
            for at, row in enumerate(rows):
                members[at, list(ws[row])] = True
            in_w = members[:, support]  # (rows, 2, K)
            inside = np.nonzero(in_w.all(axis=1))[1].reshape(len(rows), k_in, 1)
            disjoint = np.nonzero(~in_w.any(axis=1))[1]
            disjoint = disjoint.reshape(len(rows), len(disjoint) // len(rows), 1)
            inside_t = inside.transpose(0, 2, 1)
            deviations[rows, 0] = np.abs(d[inside, inside_t] - reference).max(axis=(1, 2))
            deviations[rows, 1] = np.abs(d[disjoint, inside_t]).max(axis=(1, 2), initial=0.0)
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


def check_linearity(r_m: np.ndarray, states: list[np.ndarray], rng: np.random.Generator) -> float:
    """The largest deviation from the affine and homogeneity identities of p -> r_m . p.

    ``r_m`` is one measurement (K,) or a stack (M, K). All
    ``LINEARITY_SAMPLES`` draws (two pool states, a weight lambda in
    [0, 1) and a scale nu in [0, 2)) are made in one batch and applied to
    every measurement, in blocks of draws of at most
    ``LINEARITY_BLOCK_ENTRIES`` mixture entries. Both identities hold
    exactly for a linear functional, so the deviation is rounding alone;
    a NaN anywhere makes it NaN.
    """
    if len(states) < 2:
        raise GptError("need at least two states to form mixtures")
    r_t = np.atleast_2d(np.asarray(r_m, dtype=float)).T
    pool = np.stack([np.asarray(p, dtype=float) for p in states])
    f = pool @ r_t

    ia, ib = rng.integers(0, len(states), size=(2, LINEARITY_SAMPLES))
    lam = rng.random((LINEARITY_SAMPLES, 1))
    nu = 2.0 * rng.random((LINEARITY_SAMPLES, 1))
    affine = homog = 0.0
    step = max(1, LINEARITY_BLOCK_ENTRIES // pool.shape[1])
    for lo in range(0, LINEARITY_SAMPLES, step):
        block = slice(lo, lo + step)
        a, b, weight, scale = ia[block], ib[block], lam[block], nu[block]
        mixed = weight * pool[a] + (1.0 - weight) * pool[b]
        expected = weight * f[a] + (1.0 - weight) * f[b]
        affine = np.maximum(affine, np.abs(mixed @ r_t - expected).max(initial=0.0))  # NaN stays NaN
        homog = np.maximum(homog, np.abs((scale * pool[a]) @ r_t - scale * f[a]).max(initial=0.0))
    return float(np.maximum(affine, homog))
