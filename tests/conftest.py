"""Shared random-object generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible;
seeds are fixed per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from gptkit.harness import haar_unitary  # noqa: F401  (re-exported to the tests)


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
