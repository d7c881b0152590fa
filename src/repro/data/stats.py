"""Distribution statistics used across tests and benchmarks."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DataError

__all__ = [
    "empirical_distribution",
    "total_variation_distance",
    "chi_square_statistic",
]


def empirical_distribution(bits: np.ndarray, num_outcomes: Optional[int] = None) -> np.ndarray:
    """Normalized histogram of an (m, k) bit matrix over all 2**k outcomes
    (column 0 the most significant bit); ``ShotTable.empirical_distribution``
    is this on its bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise DataError(f"bits must be 2-D, got shape {bits.shape}")
    m, k = bits.shape
    if m == 0:
        raise DataError("empty shot set has no distribution")
    if k > 24:
        raise DataError("dense distribution limited to <= 24 bits")
    keys = bits.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    dim = num_outcomes if num_outcomes is not None else (1 << k)
    hist = np.bincount(keys, minlength=dim).astype(np.float64)
    return hist / hist.sum()


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """TVD(p, q) = 0.5 * sum |p - q|; 0 iff identical distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DataError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def chi_square_statistic(
    observed_counts: np.ndarray, expected_probs: np.ndarray
) -> Tuple[float, int]:
    """Pearson chi-square against expected probabilities.

    Returns ``(statistic, dof)`` pooling cells with expected count < 5
    into a single tail cell (the standard validity fix).
    """
    obs = np.asarray(observed_counts, dtype=np.float64)
    exp_p = np.asarray(expected_probs, dtype=np.float64)
    if obs.shape != exp_p.shape:
        raise DataError("observed and expected shapes differ")
    total = obs.sum()
    if total <= 0:
        raise DataError("no observations")
    expected = exp_p * total
    big = expected >= 5.0
    stat = float(np.sum((obs[big] - expected[big]) ** 2 / expected[big]))
    tail_exp = float(expected[~big].sum())
    tail_obs = float(obs[~big].sum())
    cells = int(np.count_nonzero(big))
    if tail_exp > 0:
        stat += (tail_obs - tail_exp) ** 2 / tail_exp
        cells += 1
    return stat, max(1, cells - 1)
