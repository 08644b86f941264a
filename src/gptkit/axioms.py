"""Numerical checks for the consequences of the five axioms.

These are pure functions over tables and matrices; the orchestration
that feeds them (simulation, suite reports) and the axiom-1 judgement of
the simulated counts live in the harness module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GptError, MonotonicityError, NoSignatureError
from .frames import (
    ATOL,
    LINEARITY_BLOCK_ENTRIES,
    LINEARITY_SAMPLES,
    LINEARITY_TOL,
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


@dataclass(frozen=True)
class SubspaceReport:
    """Axiom-3 behaviour of a basis subset W.

    ``submatrix_deviation`` compares the restricted D against the
    canonical D of dimension |W|; ``disjoint_probability`` is the largest
    probability any disjoint-subspace fiducial assigns to a W-supported
    witness state.
    """

    subset: tuple[int, ...]
    fiducial_indices: tuple[int, ...]
    submatrix_deviation: float
    disjoint_probability: float
    tolerance: float
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_subspace_axiom(theory: Theory, subsets: Sequence[set[int]]) -> list[SubspaceReport]:
    """Verify that each basis subset W behaves as a lower-dimensional system.

    The fiducials supported inside W, taken in canonical order of the
    mapped indices, must reproduce the D of dimension |W| over the theory's
    units, taken from its projectors (``gram_matrix``), a route independent
    of the subspace rules that build a theory's D. Fiducials of disjoint
    subspaces must assign probability zero to every state supported in W
    (witnessed by the fiducial states of W, i.e. the corresponding columns
    of D). Both hold to ``ATOL``.

    Returns one report per subset, in order. The fiducial support and one
    reference D per subset size are built once; the subsets of one size,
    which select equally many fiducials, are then read out of D together,
    in chunks of rows of at most ``SUBSPACE_CHUNK_ENTRIES`` entries.
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
    sub_dev = np.empty(len(ws))
    dis_dev = np.empty(len(ws))
    fiducials: dict[int, tuple[int, ...]] = {}
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
            fiducials.update(zip(rows, map(tuple, inside[:, :, 0].tolist())))
            disjoint = np.nonzero(~in_w.any(axis=1))[1]
            disjoint = disjoint.reshape(len(rows), len(disjoint) // len(rows), 1)
            inside_t = inside.transpose(0, 2, 1)
            sub_dev[rows] = np.abs(d[inside, inside_t] - reference).max(axis=(1, 2))
            dis_dev[rows] = np.abs(d[disjoint, inside_t]).max(axis=(1, 2), initial=0.0)

    reports = []
    for row, w in enumerate(ws):
        sub, dis = float(sub_dev[row]), float(dis_dev[row])
        violations = []
        if not sub <= ATOL:
            violations.append(f"restricted D deviates from canonical by {sub:.3g}")
        if not dis <= ATOL:
            violations.append(f"disjoint fiducial sees W-supported state with probability {dis:.3g}")
        reports.append(
            SubspaceReport(
                subset=w,
                fiducial_indices=fiducials[row],
                submatrix_deviation=sub,
                disjoint_probability=dis,
                tolerance=ATOL,
                violations=tuple(violations),
            )
        )
    return reports


@dataclass(frozen=True)
class BasisReport:
    """Basis distinguishability: ``max_deviation`` is the larger of
    max |r_m . p_n - delta_mn| over basis pairs and max |sum_m r_m - r_I|."""

    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def check_basis_distinguishability(theory: Theory) -> BasisReport:
    """Check that basis measurements and states satisfy r_m . p_n = delta_mn
    and that the basis measurements sum to the identity measurement, to
    ``ATOL``."""
    probs = theory.basis_r @ theory.d @ theory.basis_r.T
    deviations = (
        np.abs(probs - np.eye(theory.dimension)).max(),
        np.abs(theory.basis_r.sum(axis=0) - theory.r_identity).max(),
    )
    return BasisReport(max_deviation=float(np.max(deviations)), tolerance=ATOL)


@dataclass(frozen=True)
class LinearityReport:
    samples: int
    max_affine_deviation: float
    max_homogeneity_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_affine_deviation <= self.tolerance
            and self.max_homogeneity_deviation <= self.tolerance
        )


def check_linearity(
    r_m: np.ndarray, states: list[np.ndarray], rng: np.random.Generator
) -> LinearityReport:
    """Exercise the affine and homogeneity identities of p -> r_m . p.

    ``r_m`` is one measurement (K,) or a stack (M, K). All
    ``LINEARITY_SAMPLES`` draws (two pool states, a weight lambda in
    [0, 1) and a scale nu in [0, 2)) are made in one batch and applied to
    every measurement, in blocks of draws of at most
    ``LINEARITY_BLOCK_ENTRIES`` mixture entries. Both identities hold
    exactly for a linear functional; ``LINEARITY_TOL`` only absorbs
    floating-point rounding.
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
    return LinearityReport(
        samples=LINEARITY_SAMPLES,
        max_affine_deviation=float(affine),
        max_homogeneity_deviation=float(homog),
        tolerance=LINEARITY_TOL,
    )
