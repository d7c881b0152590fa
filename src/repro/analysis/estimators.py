"""Observable estimation from PTSBE results, with uncertainty.

PTSBE's trajectory structure is a *stratified* sample: each prescribed
Kraus set is a stratum with a known (realized) weight, sampled
with an arbitrary, user-chosen shot budget.  The right estimator for an
observable ``f(bits)`` is therefore the weighted stratified mean

    E[f] ~ sum_a  w_a * mean_a(f)  /  sum_a w_a

with the classic stratified variance — *not* the raw pooled mean
(``result.pooled_distribution(weighted=False)``), which is biased whenever
shots were not allocated proportionally (Algorithm 2's uniform-``nshots``
mode).  This module provides that estimator plus standard observables
(bit expectations, parities / diagonal Pauli strings), so benchmarks and
examples can quote error bars.

This generalizes the paper's "proportionally sampled dataset, e.g., for
expectation value estimation" remark: proportional allocation makes the
raw pooled mean correct; stratified weighting makes *any* allocation
correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import DataError
from repro.execution.results import PTSBEResult

__all__ = [
    "Estimate",
    "stratified_estimate",
    "bit_observable",
    "parity_observable",
]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its standard error and support metadata."""

    value: float
    std_error: float
    total_weight: float
    num_strata: int

    def confidence_interval(self, z: float = 1.96):
        """(lo, hi) normal-approximation interval."""
        return (self.value - z * self.std_error, self.value + z * self.std_error)

    def __repr__(self) -> str:
        return f"Estimate({self.value:.6f} +/- {self.std_error:.6f}, strata={self.num_strata})"


def bit_observable(column: int) -> Callable[[np.ndarray], np.ndarray]:
    """Observable: the value of measured bit ``column`` (0/1)."""

    def f(bits: np.ndarray) -> np.ndarray:
        return bits[:, column].astype(np.float64)

    return f


def parity_observable(columns: Optional[Sequence[int]] = None) -> Callable[[np.ndarray], np.ndarray]:
    """Observable: ``(-1)**parity`` over the given bit columns.

    With ``columns=None`` the full-register parity — i.e. the expectation
    of the diagonal Pauli ``Z...Z`` on the measured qubits.
    """

    def f(bits: np.ndarray) -> np.ndarray:
        sel = bits if columns is None else bits[:, list(columns)]
        return 1.0 - 2.0 * (sel.sum(axis=1) % 2).astype(np.float64)

    return f


def stratified_estimate(
    result: PTSBEResult,
    observable: Callable[[np.ndarray], np.ndarray],
) -> Estimate:
    """Weighted stratified estimator over a PTSBE result.

    Each stratum is weighted by its *realized* branch-probability product
    (:attr:`TrajectoryResult.actual_weight`): exact for general
    (state-dependent) channels, where the nominal pre-sampled probability
    is only a prior, and equal to the nominal probability on unitary
    mixtures.

    Parameters
    ----------
    result:
        Output of batched execution.
    observable:
        Maps an ``(m, k)`` bit block to ``m`` real values.

    Notes
    -----
    Variance: ``Var = sum_a (w_a/W)^2 * s_a^2 / m_a`` with ``s_a^2`` the
    within-stratum sample variance.  Strata with zero weight or zero shots
    are skipped: they add neither weight nor a variance term.  The
    observable runs once over the result's shot table and the strata are
    read from its columns (per-stratum sums by ``bincount``).
    """
    table = result.shot_table()
    count, weight = result.columns.specs["count"], result.columns.specs["weight"]
    values = np.asarray(observable(table.bits), dtype=np.float64)
    if values.shape[0] != table.num_shots:
        raise DataError("observable returned wrong number of values")
    stratum = np.repeat(np.arange(len(count)), count)
    mean = np.bincount(stratum, values, len(count)) / np.maximum(count, 1)
    spread = np.bincount(stratum, (values - mean[stratum]) ** 2, len(count))
    kept = (weight > 0.0) & (count > 0)
    if not kept.any():
        raise DataError("no weighted shots to estimate from")
    weight_total = weight[kept].sum()
    frac, m = weight[kept] / weight_total, count[kept]
    # A one-shot stratum has no spread and adds no variance term.
    var = (frac**2 * spread[kept] / (np.maximum(m - 1, 1) * m)).sum()
    return Estimate(
        value=float(frac @ mean[kept]),
        std_error=float(np.sqrt(var)),
        total_weight=float(weight_total),
        num_strata=int(kept.sum()),
    )
