"""Analysis: convergence and weighted estimators."""

from repro.analysis.convergence import distribution_error, exact_distribution
from repro.analysis.estimators import (
    Estimate,
    bit_observable,
    parity_observable,
    stratified_estimate,
)

__all__ = [
    "distribution_error",
    "exact_distribution",
    "Estimate",
    "bit_observable",
    "parity_observable",
    "stratified_estimate",
]
