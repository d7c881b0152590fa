"""Haar-random test fixtures: unitaries and pure states, from a given rng."""

from __future__ import annotations

import numpy as np


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity so the distribution is exactly Haar.
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_statevector(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state on ``num_qubits`` qubits."""
    dim = 2**num_qubits
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)
