"""Numerical checks for the consequences of the five axioms.

These are pure functions over tables, matrices and prepared count data;
the orchestration that feeds them (simulation, suite reports) lives in
the harness module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import build_general_d
from .errors import GptError, MonotonicityError, NoSignatureError
from .frames import canonical_labels, label_support, table_n_max
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
    pure power; a table failing either hypothesis returns None (after a
    MonotonicityError for non-monotone input, which violates the
    precondition rather than merely failing the fit).
    """
    n_max = _validate_table(table)
    ks = [table[n] for n in range(1, n_max + 1)]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise MonotonicityError("table is not strictly increasing")
    if not is_completely_multiplicative(table).ok:
        return None
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


def check_subspace_axiom(theory: Theory, subset: set[int], atol: float = 1e-12) -> SubspaceReport:
    """Verify that a basis subset behaves as a lower-dimensional system.

    The fiducials supported inside W, taken in canonical order of the
    mapped indices, must reproduce the canonical D matrix of dimension
    |W|; fiducials of disjoint subspaces must assign probability zero to
    every state supported in W (witnessed by the fiducial states of W,
    i.e. the corresponding columns of D).
    """
    frame = theory.frame
    n = frame.dimension
    w = tuple(sorted(subset))
    if not w or any(not 0 <= i < n for i in w):
        raise GptError(f"subset {subset} is not a set of basis indices for dimension {n}")
    labels = frame.labels or canonical_labels(n)
    wset = frozenset(w)
    inside = [i for i, lab in enumerate(labels) if label_support(lab) <= wset]
    disjoint = [i for i, lab in enumerate(labels) if not (label_support(lab) & wset)]

    d = np.asarray(theory.d, dtype=float)
    sub = d[np.ix_(inside, inside)]
    sub_dev = float(np.abs(sub - build_general_d(len(w))).max())

    if disjoint:
        dis_dev = float(np.abs(d[np.ix_(disjoint, inside)]).max())
    else:
        dis_dev = 0.0

    violations = []
    if sub_dev > atol:
        violations.append(f"restricted D deviates from canonical by {sub_dev:.3g}")
    if dis_dev > atol:
        violations.append(f"disjoint fiducial sees W-supported state with probability {dis_dev:.3g}")
    return SubspaceReport(
        subset=w,
        fiducial_indices=tuple(inside),
        submatrix_deviation=sub_dev,
        disjoint_probability=dis_dev,
        tolerance=atol,
        violations=tuple(violations),
    )


def check_basis_distinguishability(theory: Theory, atol: float = 1e-12) -> bool:
    """True iff basis measurements and states satisfy r_m . p_n = delta_mn
    and the basis measurements sum to the identity measurement."""
    probs = theory.basis_r @ theory.d @ theory.basis_r.T
    if np.abs(probs - np.eye(theory.dimension)).max() > atol:
        return False
    return bool(np.abs(theory.basis_r.sum(axis=0) - theory.r_identity).max() <= atol)


@dataclass(frozen=True)
class FrequencyScale:
    shots: int
    bound: float
    max_deviation: float
    pass_fraction: float


@dataclass(frozen=True)
class FrequencyReport:
    p_true: float
    scales: tuple[FrequencyScale, ...]
    min_pass_fraction: float

    @property
    def passed(self) -> bool:
        return all(s.pass_fraction >= self.min_pass_fraction for s in self.scales)


def check_frequency_convergence(
    counts_by_shots: dict[int, list[int]],
    p_true: float,
    envelope: float = 5.0,
    min_pass_fraction: float = 0.95,
) -> FrequencyReport:
    """Check binomial concentration of observed frequencies.

    ``counts_by_shots`` maps a shot count n to per-trial success counts;
    at each scale the fraction of trials with |count/n - p_true| below
    envelope/sqrt(n) must reach ``min_pass_fraction``.
    """
    if not counts_by_shots:
        raise GptError("no simulation counts supplied")
    scales = []
    for shots in sorted(counts_by_shots):
        counts = np.asarray(counts_by_shots[shots], dtype=float)
        if counts.size == 0:
            raise GptError(f"no trials recorded at n = {shots}")
        bound = envelope / np.sqrt(shots)
        devs = np.abs(counts / shots - p_true)
        scales.append(
            FrequencyScale(
                shots=shots,
                bound=float(bound),
                max_deviation=float(devs.max()),
                pass_fraction=float((devs < bound).mean()),
            )
        )
    return FrequencyReport(
        p_true=p_true, scales=tuple(scales), min_pass_fraction=min_pass_fraction
    )


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
    r_m: np.ndarray,
    states: list[np.ndarray],
    rng: np.random.Generator,
    samples: int = 1000,
    tol: float = 1e-14,
) -> LinearityReport:
    """Exercise the affine and homogeneity identities of p -> r_m . p.

    Both identities hold exactly for a linear functional; the tolerance
    only absorbs floating-point rounding.
    """
    if len(states) < 2:
        raise GptError("need at least two states to form mixtures")
    r_m = np.asarray(r_m, dtype=float)
    pool = np.stack([np.asarray(p, dtype=float) for p in states])
    f = pool @ r_m

    max_affine = 0.0
    max_homog = 0.0
    for _ in range(samples):
        ia, ib = rng.integers(0, len(states), size=2)
        lam = float(rng.random())
        nu = float(2.0 * rng.random())
        mixed = lam * pool[ia] + (1.0 - lam) * pool[ib]
        affine = abs(float(r_m @ mixed) - (lam * f[ia] + (1.0 - lam) * f[ib]))
        homog = abs(float(r_m @ (nu * pool[ia])) - nu * f[ia])
        max_affine = max(max_affine, affine)
        max_homog = max(max_homog, homog)
    return LinearityReport(
        samples=samples,
        max_affine_deviation=max_affine,
        max_homogeneity_deviation=max_homog,
        tolerance=tol,
    )
