"""Measured PTSBE-vs-baseline speedup accounting (the headline claims).

The paper's headline is "speedups of up to 10**6x and 16x" for the
statevector and tensor-network backends.  :func:`measure_speedup` times
both pipelines on identical workloads and reports the ratio;
:func:`speedup_curve` sweeps batch sizes to regenerate the Fig. 4/5
shape: near-linear growth with batch size until the pure-sampling rate
saturates it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import DataError
from repro.execution.batched import BackendSpec, BatchedExecutor
from repro.pts.base import TrajectorySpec
from repro.trajectory.baseline import TrajectorySimulator
from repro.trajectory.events import TrajectoryRecord

__all__ = ["SpeedupMeasurement", "measure_speedup", "speedup_curve"]


@dataclass
class SpeedupMeasurement:
    """One timed PTSBE-vs-baseline comparison."""

    batch_shots: int
    ptsbe_seconds: float
    baseline_seconds: float
    ptsbe_shots_per_second: float
    baseline_shots_per_second: float

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.ptsbe_seconds if self.ptsbe_seconds > 0 else float("inf")


def _time_ptsbe(circuit: Circuit, backend: BackendSpec, batch_shots: int, seed: int) -> float:
    spec = TrajectorySpec(record=TrajectoryRecord(trajectory_id=0, events=()), num_shots=batch_shots)
    executor = BatchedExecutor(backend)
    t0 = time.perf_counter()
    executor.execute(circuit, [spec], seed=seed)
    return time.perf_counter() - t0


def _time_baseline(
    circuit: Circuit, backend_factory: Callable, batch_shots: int, seed: int
) -> float:
    sim = TrajectorySimulator(backend_factory)
    t0 = time.perf_counter()
    sim.sample(circuit, batch_shots, seed=seed, shots_per_trajectory=1)
    return time.perf_counter() - t0


def measure_speedup(
    circuit: Circuit,
    batch_shots: int,
    backend: Optional[BackendSpec] = None,
    seed: int = 0,
    baseline_cap: Optional[int] = None,
) -> SpeedupMeasurement:
    """Time PTSBE (1 preparation, ``batch_shots`` bulk) vs. Algorithm 1.

    ``baseline_cap`` limits how many single-shot preparations the baseline
    actually runs (its cost is then extrapolated linearly) — at paper
    scale the baseline is *defined* by its linear per-shot cost, and
    running 10**6 redundant preparations to prove it is wasteful.
    """
    backend = backend or BackendSpec()
    circuit.freeze()
    ptsbe_s = _time_ptsbe(circuit, backend, batch_shots, seed)
    run_shots = batch_shots if baseline_cap is None else min(batch_shots, baseline_cap)
    base_s = _time_baseline(circuit, lambda n=circuit.num_qubits: backend.create(n), run_shots, seed)
    if run_shots < batch_shots:
        base_s *= batch_shots / run_shots
    return SpeedupMeasurement(
        batch_shots=batch_shots,
        ptsbe_seconds=ptsbe_s,
        baseline_seconds=base_s,
        ptsbe_shots_per_second=batch_shots / ptsbe_s if ptsbe_s > 0 else float("inf"),
        baseline_shots_per_second=batch_shots / base_s if base_s > 0 else float("inf"),
    )


def speedup_curve(
    circuit: Circuit,
    batch_sizes: Sequence[int],
    backend: Optional[BackendSpec] = None,
    seed: int = 0,
    baseline_cap: int = 32,
) -> List[SpeedupMeasurement]:
    """Sweep batch sizes — the Fig. 4/5 x-axis."""
    return [
        measure_speedup(circuit, int(m), backend=backend, seed=seed, baseline_cap=baseline_cap)
        for m in batch_sizes
    ]
