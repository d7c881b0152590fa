"""The unitarity check."""

from __future__ import annotations

import numpy as np

from repro.config import ATOL

__all__ = ["is_unitary"]


def is_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """True when ``matrix`` is square and satisfies ``U @ U^dag == I``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    ident = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix @ matrix.conj().T, ident, atol=atol))
