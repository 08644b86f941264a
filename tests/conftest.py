"""Shared random-object generators for the test suite, and the fixture
that shrinks the sample budgets of the axiom suite and the composite law.

Everything takes an explicit numpy Generator so tests stay reproducible;
seeds are fixed per test.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from gptkit import Theory, harness, quantum_theory
from gptkit.harness import haar_unitary  # noqa: F401  (re-exported to the tests)

# A budget small enough to run a whole suite in a fraction of a second; the
# axiom-1 sampler keeps its shipped budget, since a draw costs O(outcomes).
SMALL_BUDGET = {
    "CONTINUITY_PAIRS": 2,
    "CONTINUITY_STEPS": 20,
    "COMPOSITE_LAW_SAMPLES": 3,
}


def haar_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random pure state vector from normalized complex Gaussians."""
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_density(rng: np.random.Generator, n: int, trace: float = 1.0) -> np.ndarray:
    """Random density operator (Hilbert-Schmidt ensemble), given trace."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return trace * rho / np.trace(rho).real


def random_trace_preserving_kraus(
    rng: np.random.Generator, n: int, terms: int = 3
) -> np.ndarray:
    """Random Kraus operators with sum M^dag M = I exactly (up to rounding)."""
    blocks = rng.standard_normal((terms, n, n)) + 1j * rng.standard_normal((terms, n, n))
    gram = np.einsum("lji,ljk->ik", blocks.conj(), blocks)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return np.einsum("lij,jk->lik", blocks, inv_sqrt)


def random_kraus(rng: np.random.Generator, n: int, terms: int = 3) -> np.ndarray:
    """Random trace-non-increasing Kraus operators."""
    scale = 0.2 + 0.8 * rng.random()
    return np.sqrt(scale) * random_trace_preserving_kraus(rng, n, terms)


def random_measurement_operator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random POVM element: Hermitian with spectrum in [0, 1]."""
    u = haar_unitary(rng, n)
    return (u * rng.random(n)) @ u.conj().T


@functools.lru_cache(maxsize=None)
def cached_quantum_theory(n: int) -> Theory:
    """``quantum_theory(n)``, built once per test session (n = 24 costs about
    a second)."""
    return quantum_theory(n)


def traced_peak(func, *args):
    """``func(*args)`` and the peak of the memory it allocated, as tracemalloc
    reports it (numpy reports its array buffers there)."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def set_budget(monkeypatch: pytest.MonkeyPatch, **budget) -> None:
    """Set the ``harness`` sample-budget constants named in ``budget``
    (constant name -> value) until ``monkeypatch`` is undone."""
    for name, value in budget.items():
        monkeypatch.setattr(harness, name, value)


@pytest.fixture
def budget(monkeypatch):
    """``budget(FREQUENCY_TRIALS=2, ...)`` sets sample budgets for one test;
    the constants are the only place a budget is set, so no API knob does it."""
    return functools.partial(set_budget, monkeypatch)
