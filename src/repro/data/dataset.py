"""Provenance-labeled shot datasets for decoder training.

:class:`LabeledShotDataset` is the "programmable data collection engine"
output the paper closes on: feature rows (syndrome bits) aligned with
supervision labels derived from Kraus-level error provenance — "not a
feature that was previously available for trajectory simulators" and
impossible for hardware data (§2.3).

:func:`build_decoder_dataset` specializes a PTSBE run on a
syndrome-extraction circuit into the standard decoder-training format:
``X = syndrome bits``, ``y = logical-frame flip`` computed from each
trajectory's injected Pauli errors.  It accepts either a materialized
:class:`~repro.execution.results.PTSBEResult` or a live
:class:`~repro.execution.streaming.StreamedResult`, and
:func:`iter_decoder_batches` exposes the streaming form directly:
``(features, labels, trajectory_ids)`` mini-batches emitted as each
execution chunk completes, so an incremental learner
(``partial_fit``-style) trains while the tail of the run is still
preparing states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.operations import NoiseOp
from repro.errors import DataError
from repro.execution.results import PTSBEResult
from repro.execution.streaming import StreamedResult
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
        (m,) alignment back to trajectory records.
    records:
        ``records[tid]`` is the provenance of trajectory ``tid``.
    metadata:
        Free-form experiment description.
    """

    features: np.ndarray
    labels: np.ndarray
    trajectory_ids: np.ndarray
    records: Dict[int, TrajectoryRecord] = field(default_factory=dict)
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.uint8)
        self.labels = np.asarray(self.labels)
        self.trajectory_ids = np.asarray(self.trajectory_ids, dtype=np.int64)
        m = self.features.shape[0]
        if self.labels.shape[0] != m or self.trajectory_ids.shape[0] != m:
            raise DataError("features, labels and trajectory_ids must align")

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
                self.records,
                dict(self.metadata),
            )

        return take(order[:cut]), take(order[cut:])

    def __repr__(self) -> str:
        return (
            f"LabeledShotDataset(samples={self.num_samples}, "
            f"features={self.features.shape[1]}, classes={len(set(self.labels.tolist()))})"
        )


def _logical_flip_label(
    record: TrajectoryRecord, circuit: Circuit, code: CSSCode
) -> int:
    """Did this trajectory's injected Paulis flip the logical Z frame?

    Propagation-free label: for our syndrome workloads the injected
    channels are Pauli mixtures applied directly on data qubits, so the
    accumulated X-support on data qubits decides the logical-Z flip:
    label 1 iff it anticommutes with logical Z and is not a stabilizer
    action.  (The exact label for general circuits would conjugate each
    Pauli through the downstream Cliffords; the syndrome workloads used
    here attach noise after the encoder, where that propagation is
    trivial for final-frame purposes.)
    """
    from repro.qec import gf2

    x_support = np.zeros(code.n, dtype=np.uint8)
    site_channels: Dict[int, NoiseOp] = {
        op.site_id: op for op in circuit.noise_sites
    }
    for event in record.events:
        op = site_channels[event.site_id]
        mixture = op.channel.mixture
        local = None if mixture is None else mixture.paulis[event.kraus_index]
        if local is None:
            raise DataError(
                f"channel {op.channel.name!r} branch {event.kraus_index} is not Pauli; "
                "logical-flip labels need Pauli noise"
            )
        for pos, q in enumerate(op.qubits):
            if q < code.n:  # data qubits only
                x_support[q] ^= local.x[pos]
    lz = code.logical_z_support(0)
    return int(np.dot(x_support, lz) % 2)


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
    executing.  Per-trajectory labels are memoized across chunks (a
    trajectory's label never changes), and concatenating every batch in
    order reproduces exactly what :func:`build_decoder_dataset` builds
    from the materialized result.

    Chunks with zero shots (all-dead trajectories) are skipped — they
    contribute no training rows.
    """
    syndrome_bits = layout.syndrome_bit_count()
    label_of: Dict[int, int] = {}
    for chunk in stream:
        records = list(chunk.records)
        for record in records:
            if record.trajectory_id not in label_of:
                label_of[record.trajectory_id] = _logical_flip_label(
                    record, circuit, code
                )
        if chunk.num_shots == 0:
            continue
        table = chunk.shot_table()
        labels = _shot_labels(label_of, records, chunk.columns.specs["count"])
        yield table.bits[:, :syndrome_bits], labels, table.trajectory_ids


def _shot_labels(
    label_of: Dict[int, int], records: Sequence[TrajectoryRecord], shots: np.ndarray
) -> np.ndarray:
    """Each trajectory's label, repeated over its ``shots``."""
    labels = np.array([label_of[r.trajectory_id] for r in records], dtype=np.int64)
    return np.repeat(labels, shots)


def build_decoder_dataset(
    result: Union[PTSBEResult, StreamedResult],
    circuit: Circuit,
    code: CSSCode,
    layout: SyndromeLayout,
) -> LabeledShotDataset:
    """Decoder-training dataset from a PTSBE run on a syndrome circuit.

    Features: the shot's syndrome bits (all rounds).  Labels: the logical
    Z-frame flip implied by the trajectory's provenance record.

    ``result`` may be a materialized
    :class:`~repro.execution.results.PTSBEResult` or a fresh live
    :class:`~repro.execution.streaming.StreamedResult` (from
    :func:`~repro.execution.batched.run_ptsbe_stream`), which is finalized
    first; :func:`iter_decoder_batches` labels a stream chunk by chunk
    instead.  Each trajectory is labelled once and its label repeated over
    its shots.
    """
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
    syndrome_bits = layout.syndrome_bit_count()
    table = result.shot_table()
    features = table.bits[:, :syndrome_bits]
    trajectory_records = list(result.records)
    records = {r.trajectory_id: r for r in trajectory_records}
    label_of = {tid: _logical_flip_label(r, circuit, code) for tid, r in records.items()}
    return LabeledShotDataset(
        features=features,
        labels=_shot_labels(label_of, trajectory_records, result.columns.specs["count"]),
        trajectory_ids=table.trajectory_ids,
        records=records,
        metadata={
            "code": code.name,
            "rounds": str(layout.rounds),
            "num_trajectories": str(result.num_trajectories),
        },
    )
