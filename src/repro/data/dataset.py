"""Provenance-labeled shot datasets for decoder training.

:class:`LabeledShotDataset` is the "programmable data collection engine"
output the paper closes on: feature rows (syndrome bits) aligned with
supervision labels derived from Kraus-level error provenance — "not a
feature that was previously available for trajectory simulators" and
impossible for hardware data (§2.3).  It keeps the run's trajectory table
(:class:`~repro.pts.base.PTSResult`) beside the arrays; ``records`` is a
view of it, one record built per read.

:func:`build_decoder_dataset` specializes a PTSBE run on a
syndrome-extraction circuit into the standard decoder-training format:
``X = syndrome bits``, ``y = logical-frame flip``.  The label is exact: a
trajectory's Pauli errors, each conjugated through every later gate to the
end of the circuit (:meth:`~repro.backends.pauli_frame.FrameSampler
.end_parities`), anticommute with the code's logical Z on the data qubits
or not — one array pass over the run's table.  A circuit the frame engine
cannot propagate through (a non-Clifford gate, a non-Pauli channel) is
refused with :class:`~repro.errors.DataError` naming the gate or channel.
It accepts either a materialized
:class:`~repro.execution.results.PTSBEResult` or a live
:class:`~repro.execution.streaming.StreamedResult`, and
:func:`iter_decoder_batches` exposes the streaming form directly:
``(features, labels, trajectory_ids)`` mini-batches emitted as each
execution chunk completes, so an incremental learner
(``partial_fit``-style) trains while the tail of the run is still
preparing states.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.backends.pauli_frame import FrameSampler
from repro.circuits.circuit import Circuit
from repro.errors import BackendError, DataError
from repro.execution.results import PTSBEResult
from repro.execution.streaming import StreamedResult
from repro.prescriptions import Prescriptions
from repro.pts.base import PTSResult
from repro.qec.codes import CSSCode
from repro.qec.syndrome import SyndromeLayout
from repro.trajectory.events import TrajectoryRecord

__all__ = ["LabeledShotDataset", "build_decoder_dataset", "iter_decoder_batches"]


@dataclass
class LabeledShotDataset:
    """Features + labels + per-shot provenance.

    Attributes
    ----------
    features:
        (m, f) uint8 — e.g. syndrome bits per shot.
    labels:
        (m,) integer labels — e.g. logical-flip class.
    trajectory_ids:
        (m,) alignment back to the run's trajectories.
    run:
        The run's trajectory table: each trajectory's deviations, id and
        nominal probability (``None`` for a dataset without provenance).
    metadata:
        Free-form experiment description.
    """

    features: np.ndarray
    labels: np.ndarray
    trajectory_ids: np.ndarray
    run: Optional[PTSResult] = None
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.uint8)
        self.labels = np.asarray(self.labels)
        self.trajectory_ids = np.asarray(self.trajectory_ids, dtype=np.int64)
        m = self.features.shape[0]
        if self.labels.shape[0] != m or self.trajectory_ids.shape[0] != m:
            raise DataError("features, labels and trajectory_ids must align")

    @cached_property
    def records(self) -> Mapping:
        """``records[tid]`` is the provenance of trajectory ``tid``, built
        from ``run`` when read."""
        return _Records(self.run)

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    def class_balance(self) -> Dict[int, float]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): float(c / self.num_samples) for v, c in zip(values, counts)}

    def split(self, train_fraction: float, rng: np.random.Generator) -> Tuple["LabeledShotDataset", "LabeledShotDataset"]:
        """Shuffled train/test split preserving provenance alignment."""
        if not (0.0 < train_fraction < 1.0):
            raise DataError("train_fraction must be in (0, 1)")
        m = self.num_samples
        order = rng.permutation(m)
        cut = int(round(train_fraction * m))
        if cut == 0 or cut == m:
            raise DataError("split produced an empty side")

        def take(idx: np.ndarray) -> "LabeledShotDataset":
            return LabeledShotDataset(
                self.features[idx],
                self.labels[idx],
                self.trajectory_ids[idx],
                self.run,
                dict(self.metadata),
            )

        return take(order[:cut]), take(order[cut:])

    def __repr__(self) -> str:
        return (
            f"LabeledShotDataset(samples={self.num_samples}, "
            f"features={self.features.shape[1]}, classes={len(set(self.labels.tolist()))})"
        )


class _Records(Mapping):
    """:attr:`LabeledShotDataset.records`: trajectory id -> record, each
    built by :meth:`PTSResult.record` when read (a repeated id reads its
    last row)."""

    def __init__(self, run: Optional[PTSResult]):
        self.run, ids = run, [] if run is None else run.trajectory_ids.tolist()
        self._rows = dict(zip(ids, range(len(ids))))

    def __getitem__(self, tid: int) -> TrajectoryRecord:
        return self.run.record(self._rows[tid])

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _labeller(circuit: Circuit, code: CSSCode) -> Callable[[Prescriptions], np.ndarray]:
    """Per row of a trajectory table on ``circuit``: does the row's frame,
    propagated to the end, flip the code's logical Z on the data qubits?"""
    try:
        frame = FrameSampler(circuit)
    except BackendError as err:
        raise DataError(f"exact logical-flip labels need Clifford gates and Pauli noise: {err}") from None
    support = np.zeros(circuit.num_qubits, dtype=np.uint8)
    support[: code.n] = code.logical_z_support(0)
    return lambda table: frame.end_parities(table, support).astype(np.int64)


def iter_decoder_batches(
    stream: StreamedResult,
    circuit: Circuit,
    code: CSSCode,
    layout: SyndromeLayout,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(features, labels, trajectory_ids)`` per streamed chunk.

    The incremental companion of :func:`build_decoder_dataset`: each
    :class:`~repro.execution.streaming.ShotChunk` the executor delivers
    becomes one training mini-batch the moment it completes, so decoder
    training starts while the run's remaining stacks/shards are still
    executing.  Every row of the run's table is labelled once, at the
    first chunk, and each chunk takes its slice; concatenating every
    batch in order reproduces exactly what :func:`build_decoder_dataset`
    builds from the materialized result.  A circuit that cannot be
    labelled is refused before the first chunk is pulled.

    Chunks with zero shots (all-dead trajectories) are skipped — they
    contribute no training rows.
    """
    label = _labeller(circuit, code)
    syndrome_bits = layout.syndrome_bit_count()
    labels = None
    for chunk in stream:
        columns = chunk.columns
        if labels is None:
            labels = label(columns.run.table)
        if chunk.num_shots == 0:
            continue
        table = chunk.shot_table()
        counts = columns.specs["count"]
        rows = labels[columns.start : columns.start + len(counts)]
        yield table.bits[:, :syndrome_bits], np.repeat(rows, counts), table.trajectory_ids


def build_decoder_dataset(
    result: Union[PTSBEResult, StreamedResult],
    circuit: Circuit,
    code: CSSCode,
    layout: SyndromeLayout,
) -> LabeledShotDataset:
    """Decoder-training dataset from a PTSBE run on a syndrome circuit.

    Features: the shot's syndrome bits (all rounds).  Labels: the logical
    Z-frame flip of the shot's trajectory, exact on any Clifford +
    Pauli-noise circuit (a circuit with a non-Clifford gate or a non-Pauli
    channel raises :class:`~repro.errors.DataError`).

    ``result`` may be a materialized
    :class:`~repro.execution.results.PTSBEResult` or a fresh live
    :class:`~repro.execution.streaming.StreamedResult` (from
    :func:`~repro.execution.batched.run_ptsbe_stream`), which is finalized
    first; :func:`iter_decoder_batches` labels a stream chunk by chunk
    instead.  Each trajectory is labelled once and its label repeated over
    its shots.
    """
    label = _labeller(circuit, code)
    if isinstance(result, StreamedResult):
        if result.delivered_trajectories:
            # Chunks consumed before this call would be silently missing
            # from the dataset while records/metadata claim the full run.
            raise DataError(
                "stream was already partially consumed "
                f"({result.delivered_trajectories} trajectories); pass a fresh "
                "StreamedResult, or finalize() it and pass the PTSBEResult"
            )
        result = result.finalize()
    table = result.shot_table()
    run = result.columns.run
    return LabeledShotDataset(
        features=table.bits[:, : layout.syndrome_bit_count()],
        labels=np.repeat(label(run.table), result.columns.specs["count"]),
        trajectory_ids=table.trajectory_ids,
        run=run,
        metadata={
            "code": code.name,
            "rounds": str(layout.rounds),
            "num_trajectories": str(result.num_trajectories),
        },
    )
