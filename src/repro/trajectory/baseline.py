"""Conventional trajectory simulation — paper Algorithm 1, faithfully.

For every shot requested, the simulator walks the circuit once more:
applies the gate, looks up the noise channel, draws a uniform ``r``, and
either indexes the precomputed probability table (unitary-mixture fast
path) or computes the state-dependent branch probabilities
``<psi|K_i^dag K_i|psi>`` (general path) before applying the renormalized
Kraus operator.  At the end it collects a *single shot* and throws the
state away.

These are exactly the three inefficiencies PTSBE removes: (1) redundant
state preparation per shot, (2) single-shot collection, (3) no error
metadata — although for fairness our implementation *can* record the
events it sampled (``record_events=True``), since the speed comparison
should not be confounded by bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import PureStateBackend, validate_deferred_measurement
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.errors import ExecutionError
from repro.rng import StreamFactory
from repro.trajectory.events import KrausEvent, TrajectoryRecord

__all__ = ["TrajectorySimulator", "TrajectoryShotResult"]


@dataclass
class TrajectoryShotResult:
    """Output of a conventional trajectory run."""

    bits: np.ndarray  # (num_shots, num_measured) uint8
    records: List[TrajectoryRecord]
    state_preparations: int

    @property
    def num_shots(self) -> int:
        return int(self.bits.shape[0])


class TrajectorySimulator:
    """Algorithm-1 style noisy trajectory simulation on any pure-state backend."""

    def __init__(
        self,
        backend_factory: Callable[[], PureStateBackend],
        record_events: bool = False,
    ):
        self.backend_factory = backend_factory
        self.record_events = record_events

    # ------------------------------------------------------------------ #
    def run_single_trajectory(
        self,
        circuit: Circuit,
        rng: np.random.Generator,
        backend: Optional[PureStateBackend] = None,
        trajectory_id: int = 0,
    ) -> Tuple[PureStateBackend, TrajectoryRecord]:
        """Propagate one noisy trajectory; returns the prepared backend.

        This is Algorithm 1's inner loop: gates applied in order, noise
        sites sampled in-line (fast path for unitary mixtures, expectation
        computation for general channels).
        """
        if not circuit.frozen:
            raise ExecutionError("run_single_trajectory requires a frozen circuit")
        validate_deferred_measurement(circuit)
        backend = backend if backend is not None else self.backend_factory()
        backend.reset()
        events: List[KrausEvent] = []
        joint_p = 1.0
        for op in circuit:
            if isinstance(op, GateOp):
                backend.apply_gate(op.gate, op.qubits)
            elif isinstance(op, NoiseOp):
                channel = op.channel
                r = float(rng.random())
                mixture = channel.mixture
                if mixture is not None:
                    # Unitary-mixture branch: state-independent probabilities.
                    k = int(np.searchsorted(mixture.cumulative, r, side="right"))
                    backend.apply_matrix(mixture.unitaries[k], op.qubits)
                    branch_p = mixture.probs[k]
                else:
                    # General branch: p_i = <psi|K_i^dag K_i|psi>.
                    probs = backend.branch_probabilities(channel, op.qubits)
                    cum = np.cumsum(probs)
                    cum[-1] = 1.0
                    k = int(np.searchsorted(cum, r, side="right"))
                    backend.apply_channel_choice(channel, op.qubits, k)
                    branch_p = float(probs[k])
                joint_p *= branch_p
                if self.record_events and k != channel.dominant_index():
                    events.append(
                        KrausEvent(
                            site_id=op.site_id,
                            kraus_index=k,
                            qubits=op.qubits,
                            channel_name=channel.name,
                            probability=branch_p,
                        )
                    )
        record = TrajectoryRecord(
            trajectory_id=trajectory_id,
            events=tuple(events),
            nominal_probability=joint_p,
        )
        return backend, record

    # ------------------------------------------------------------------ #
    def sample(
        self,
        circuit: Circuit,
        num_shots: int,
        seed: Optional[int] = None,
        shots_per_trajectory: int = 1,
    ) -> TrajectoryShotResult:
        """Collect ``num_shots`` shots the conventional way.

        ``shots_per_trajectory=1`` is the paper's baseline (one full state
        preparation per shot).  Values > 1 interpolate toward batched
        execution and are used by the ablation benchmarks.
        """
        if num_shots < 0:
            raise ExecutionError("num_shots must be >= 0")
        circuit.freeze()
        measured = list(circuit.measured_qubits)
        if not measured:
            raise ExecutionError("circuit has no measurements to sample")
        streams = StreamFactory(seed)
        backend = self.backend_factory()
        chunks: List[np.ndarray] = []
        records: List[TrajectoryRecord] = []
        preparations = 0
        collected = 0
        trajectory_id = 0
        while collected < num_shots:
            rng = streams.rng_for(trajectory_id)
            backend, record = self.run_single_trajectory(
                circuit, rng, backend=backend, trajectory_id=trajectory_id
            )
            preparations += 1
            take = min(shots_per_trajectory, num_shots - collected)
            chunks.append(backend.sample(take, measured, rng))
            if self.record_events:
                records.append(record)
            collected += take
            trajectory_id += 1
        bits = (
            np.concatenate(chunks, axis=0)
            if chunks
            else np.empty((0, len(measured)), dtype=np.uint8)
        )
        return TrajectoryShotResult(bits=bits, records=records, state_preparations=preparations)
