"""Shot tables and provenance-aligned execution results.

A :class:`ShotTable` is the library's uniform shot container: an
``(m, k)`` uint8 bit matrix plus an ``(m,)`` trajectory-index column
aligning every shot with the :class:`~repro.trajectory.events
.TrajectoryRecord` that produced it.  That alignment *is* the paper's
error-provenance feature: downstream consumers (e.g. decoder training in
:mod:`repro.data.dataset`) join shots to error labels by this index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError
from repro.trajectory.events import TrajectoryRecord

__all__ = ["ShotTable", "TrajectoryResult", "PTSBEResult", "pack_bits"]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an (m, k<=63) bit matrix into int64 keys (column 0 = MSB)."""
    bits = np.asarray(bits)
    m, k = bits.shape
    if k > 63:
        raise DataError("pack_bits supports at most 63 columns")
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    return bits.astype(np.int64) @ weights


@dataclass
class ShotTable:
    """Measured bits with per-shot trajectory provenance."""

    bits: np.ndarray  # (m, k) uint8
    trajectory_ids: np.ndarray  # (m,) int64
    measured_qubits: Tuple[int, ...] = ()

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        self.trajectory_ids = np.asarray(self.trajectory_ids, dtype=np.int64)
        if self.bits.ndim != 2:
            raise DataError(f"bits must be 2-D, got shape {self.bits.shape}")
        if self.trajectory_ids.shape != (self.bits.shape[0],):
            raise DataError("trajectory_ids length must match the number of shots")

    @property
    def num_shots(self) -> int:
        return int(self.bits.shape[0])

    @property
    def num_bits(self) -> int:
        return int(self.bits.shape[1])

    def keys(self) -> np.ndarray:
        """Packed int64 bitstring keys (for counting / uniqueness)."""
        return pack_bits(self.bits)

    def counts(self) -> Dict[str, int]:
        """Histogram keyed by bitstring text (column 0 leftmost)."""
        keys, counts = np.unique(self.keys(), return_counts=True)
        width = self.num_bits
        return {format(int(k), f"0{width}b"): int(c) for k, c in zip(keys, counts)}

    def empirical_distribution(self, dim: Optional[int] = None) -> np.ndarray:
        """Normalized histogram over all 2**k outcomes (dense, small k)."""
        k = self.num_bits
        if k > 24:
            raise DataError("dense distribution limited to <= 24 bits")
        dim = dim if dim is not None else (1 << k)
        hist = np.bincount(self.keys(), minlength=dim).astype(np.float64)
        total = hist.sum()
        if total == 0:
            raise DataError("empty shot table has no distribution")
        return hist / total

    def unique_fraction(self) -> float:
        """Fraction of shots that are distinct bitstrings (Fig. 4, right axis)."""
        if self.num_shots == 0:
            raise DataError("empty shot table")
        return float(len(np.unique(self.keys())) / self.num_shots)

    def select(self, mask: np.ndarray) -> "ShotTable":
        """Row subset (boolean mask or index array)."""
        return ShotTable(self.bits[mask], self.trajectory_ids[mask], self.measured_qubits)

    def for_trajectory(self, trajectory_id: int) -> "ShotTable":
        return self.select(self.trajectory_ids == trajectory_id)

    @classmethod
    def from_trajectories(
        cls, trajectories: Sequence["TrajectoryResult"], measured_qubits: Tuple[int, ...]
    ) -> "ShotTable":
        """The trajectories' shots in order, each row tagged with its
        trajectory's id: the table of a result and of a streamed chunk."""
        bits = np.concatenate([t.bits for t in trajectories], axis=0)
        ids = np.concatenate(
            [np.full(t.num_shots, t.record.trajectory_id, dtype=np.int64) for t in trajectories]
        )
        return cls(bits, ids, measured_qubits)

    @classmethod
    def concatenate(cls, tables: Sequence["ShotTable"]) -> "ShotTable":
        tables = [t for t in tables if t.num_shots > 0]
        if not tables:
            raise DataError("nothing to concatenate")
        widths = {t.num_bits for t in tables}
        if len(widths) != 1:
            raise DataError(f"mismatched bit widths {widths}")
        return cls(
            np.concatenate([t.bits for t in tables], axis=0),
            np.concatenate([t.trajectory_ids for t in tables]),
            tables[0].measured_qubits,
        )

    def __repr__(self) -> str:
        return f"ShotTable(shots={self.num_shots}, bits={self.num_bits})"


@dataclass
class TrajectoryResult:
    """One realized trajectory: its record, shots, and timing."""

    record: TrajectoryRecord
    bits: np.ndarray  # (m_alpha, k) uint8
    actual_weight: float = 1.0  # product of realized branch probabilities
    #: Wall seconds of the state preparation this spec was charged with
    #: (its dedup group's first spec only).  A unit prepared ahead was timed
    #: on the helper thread while the unit before it drew its shots.
    prep_seconds: float = 0.0
    #: This spec's shot share of its unit's one draw.
    sample_seconds: float = 0.0

    @property
    def num_shots(self) -> int:
        return int(self.bits.shape[0])


@dataclass
class PTSBEResult:
    """Aggregated output of a batched-execution run."""

    trajectories: List[TrajectoryResult]
    measured_qubits: Tuple[int, ...]
    #: The trajectories' prepare and sample seconds, summed.  The serial
    #: engine's look-ahead prepares a unit while the one before it draws,
    #: so on such a run the two together can exceed the wall time.
    prep_seconds: float = 0.0
    sample_seconds: float = 0.0
    #: Number of distinct state preparations actually performed (identical
    #: specs are prepared once): the run's dedup groups, counted before any
    #: fan-out, so the same number on every strategy.  ``None`` only for
    #: results assembled outside the execution layer.
    unique_preparations: Optional[int] = None
    #: The resolved root seed of the run.  Executors resolve ``seed=None``
    #: to one concrete entropy seed up front and record it here, so *any*
    #: run — seeded or not — can be replayed bitwise by passing this value
    #: back as ``seed=``.  ``None`` only for results assembled outside the
    #: execution layer.
    seed: Optional[int] = None
    #: Which execution engine realized the trajectories: the strategy
    #: name the :class:`~repro.execution.driver.Engine` adapter ran under
    #: ("serial", "vectorized", "clifford", "tensornet", or the alias
    #: names "parallel" and "sharded").  ``None`` only for results
    #: assembled outside the execution layer.
    engine: Optional[str] = None
    #: The router's decision trail for this run (set by
    #: :func:`~repro.execution.batched.run_ptsbe_stream`): why
    #: ``strategy="auto"`` picked the engine it did, or that the strategy
    #: was explicitly requested.  ``None`` when execution was invoked
    #: below the dispatch layer.
    routing: Optional[str] = None
    #: Structured :class:`~repro.faults.retry.RecoveryEvent` records of
    #: every recovery action the run performed (retries, batch halvings).  Empty for fault-free runs; populated by
    #: ``StreamedResult.finalize`` from the live stream's event list.
    recovery: List = field(default_factory=list)

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def total_shots(self) -> int:
        return sum(t.num_shots for t in self.trajectories)

    @property
    def records(self) -> List[TrajectoryRecord]:
        return [t.record for t in self.trajectories]

    def shot_table(self) -> ShotTable:
        """All shots, provenance-aligned by trajectory index."""
        if not self.trajectories:
            raise DataError("no trajectories were executed")
        return ShotTable.from_trajectories(self.trajectories, self.measured_qubits)

    def pooled_distribution(self, weighted: bool = True) -> np.ndarray:
        """Pooled outcome distribution over the sampled trajectory subsets.

        With ``weighted=True`` each trajectory's empirical conditional
        distribution is weighted by its nominal probability (renormalized
        over the sampled subsets) — the estimator that converges to the
        exact noisy distribution as coverage -> 1.  With ``weighted=False``
        shots are pooled raw (appropriate when shot counts were already
        apportioned proportionally).
        """
        if not self.trajectories:
            raise DataError("no trajectories were executed")
        k = self.trajectories[0].bits.shape[1]
        if k > 24:
            raise DataError("dense distribution limited to <= 24 bits")
        dim = 1 << k
        if not weighted:
            return self.shot_table().empirical_distribution(dim)
        out = np.zeros(dim, dtype=np.float64)
        total_weight = 0.0
        for t in self.trajectories:
            if t.num_shots == 0:
                continue
            w = t.record.nominal_probability
            hist = np.bincount(pack_bits(t.bits), minlength=dim).astype(np.float64)
            out += w * hist / hist.sum()
            total_weight += w
        if total_weight <= 0:
            raise DataError("zero total trajectory weight")
        return out / total_weight

    def __repr__(self) -> str:
        return (
            f"PTSBEResult(trajectories={self.num_trajectories}, shots={self.total_shots}, "
            f"prep={self.prep_seconds:.3f}s, sample={self.sample_seconds:.3f}s)"
        )
