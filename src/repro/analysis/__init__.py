"""Analysis: convergence and weighted estimators."""

from repro.analysis.convergence import convergence_curve, distribution_error, exact_distribution
from repro.analysis.estimators import (
    Estimate,
    bit_observable,
    parity_observable,
    pooled_estimate,
    stratified_estimate,
)

__all__ = [
    "convergence_curve",
    "distribution_error",
    "exact_distribution",
    "Estimate",
    "bit_observable",
    "parity_observable",
    "pooled_estimate",
    "stratified_estimate",
]
