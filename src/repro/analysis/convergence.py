"""Trajectory-to-density-matrix convergence measurement.

The statistical contract of every trajectory method: the ensemble over
trajectories must reproduce the exact open-system distribution.  These
helpers quantify that for both the conventional baseline and PTSBE
estimators, backing the integration tests and the proportional-sampling
validation.
"""

from __future__ import annotations

import numpy as np

from repro.backends.density_matrix import DensityMatrixBackend
from repro.circuits.circuit import Circuit
from repro.data.stats import empirical_distribution, total_variation_distance
from repro.errors import DataError

__all__ = ["distribution_error", "exact_distribution"]


def exact_distribution(circuit: Circuit) -> np.ndarray:
    """Exact marginal shot distribution of the noisy circuit.

    Runs the density-matrix reference and marginalizes onto the measured
    qubits (in measurement order).
    """
    measured = list(circuit.measured_qubits)
    if not measured:
        raise DataError("circuit has no measurements")
    backend = DensityMatrixBackend(circuit.num_qubits).run(circuit)
    return backend.marginal_probabilities(measured)


def distribution_error(bits: np.ndarray, exact: np.ndarray) -> float:
    """TVD between an empirical shot set and the exact distribution."""
    return total_variation_distance(empirical_distribution(bits, len(exact)), exact)
