"""Dense GF(2) linear algebra for stabilizer-code machinery.

All matrices are uint8 NumPy arrays with entries in {0, 1}; arithmetic is
mod 2.  These routines back code construction (logical operators from
nullspaces), encoder synthesis (RREF pivots) and decoding (coset solving).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import QECError

__all__ = ["rref", "rank", "nullspace", "row_space_contains", "solve"]


def _as_gf2(matrix: np.ndarray) -> np.ndarray:
    out = np.asarray(matrix, dtype=np.uint8) % 2
    if out.ndim != 2:
        raise QECError(f"expected a 2-D matrix, got shape {out.shape}")
    return out


def rref(matrix: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(2).

    Returns ``(R, pivots)`` where ``pivots[i]`` is the pivot column of row
    ``i``; zero rows are moved to the bottom and excluded from ``pivots``.
    """
    mat = _as_gf2(matrix).copy()
    rows, cols = mat.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = np.nonzero(mat[r:, c])[0]
        if sel.size == 0:
            continue
        pivot_row = r + int(sel[0])
        if pivot_row != r:
            mat[[r, pivot_row]] = mat[[pivot_row, r]]
        # Eliminate this column from every other row.
        hits = np.nonzero(mat[:, c])[0]
        for h in hits:
            if h != r:
                mat[h] ^= mat[r]
        pivots.append(c)
        r += 1
    return mat, pivots


def rank(matrix: np.ndarray) -> int:
    """GF(2) rank."""
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace: rows ``v`` with ``M v = 0 (mod 2)``.

    Returns a ``(dim, cols)`` matrix (possibly zero rows).
    """
    mat = _as_gf2(matrix)
    rows, cols = mat.shape
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            if red[r, fc]:
                basis[i, pc] = 1
    return basis


def row_space_contains(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """True when ``vector`` is a GF(2) combination of ``matrix`` rows."""
    mat = _as_gf2(matrix)
    vec = np.asarray(vector, dtype=np.uint8).reshape(1, -1) % 2
    return rank(mat) == rank(np.vstack([mat, vec]))


def solve(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One solution ``x`` of ``M x = b (mod 2)``, or ``None`` if infeasible."""
    mat = _as_gf2(matrix)
    b = np.asarray(rhs, dtype=np.uint8).reshape(-1) % 2
    rows, cols = mat.shape
    if b.shape[0] != rows:
        raise QECError(f"rhs length {b.shape[0]} != {rows} rows")
    aug = np.hstack([mat, b[:, None]])
    red, pivots = rref(aug)
    # Infeasible iff a pivot lands in the augmented column.
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, cols]
    return x
