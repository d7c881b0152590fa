"""Simulation backends.

Six backends, mirroring the paper's ecosystem:

* :class:`~repro.backends.statevector.StatevectorBackend` — dense 2**n
  simulator (the CUDA-Q ``nvidia`` backend stand-in), the one-row view of
  the trajectory-stacked
  :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`
  every dense strategy prepares and samples on;
* :class:`~repro.backends.mps.MPSBackend` — truncated matrix-product-state
  simulator, the one-row view of the trajectory-stacked
  :class:`~repro.backends.mps.BatchedMPSStack` the ``tensornet`` strategy
  replays (the CUDA-Q ``tensornet`` stand-in);
* :class:`~repro.backends.density_matrix.DensityMatrixBackend` — exact
  4**n reference used to validate trajectory convergence;
* :class:`~repro.backends.stabilizer.StabilizerBackend` — Aaronson-
  Gottesman CHP tableau (the Clifford/Stim-style comparator);
* :mod:`repro.backends.pauli_frame` — Stim-style bulk Pauli-frame sampler
  for Clifford + Pauli-noise circuits.
"""

from repro.backends.base import PureStateBackend
from repro.backends.statevector import StatevectorBackend
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.mps import MPSBackend
from repro.backends.stabilizer import StabilizerBackend

__all__ = [
    "PureStateBackend",
    "StatevectorBackend",
    "BatchedStatevectorBackend",
    "DensityMatrixBackend",
    "MPSBackend",
    "StabilizerBackend",
]
