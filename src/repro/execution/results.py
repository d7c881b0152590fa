"""Shot tables and provenance-aligned execution results.

A :class:`ShotTable` is the library's uniform shot container: an
``(m, k)`` uint8 bit matrix plus an ``(m,)`` trajectory-index column
aligning every shot with the :class:`~repro.trajectory.events
.TrajectoryRecord` that produced it.  That alignment *is* the paper's
error-provenance feature: downstream consumers (e.g. decoder training in
:mod:`repro.data.dataset`) join shots to error labels by this index.

A run's results are columnar.  Each drawn unit's shots are one block
(:class:`UnitShots`), and a streamed chunk or a :class:`PTSBEResult`
keeps the blocks it covers plus one :data:`SPEC_COLUMNS` row per spec
(:class:`SpecColumns`) beside the run's trajectory table.  Its
``trajectories`` and ``records`` are sequence views that build a
:class:`TrajectoryResult` or a record per item read; ``shot_table()`` is
one row gather of the blocks in spec order plus ``np.repeat`` ids, and
the pooled distribution reads the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError
from repro.pts.base import LazySequence, PTSResult
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
    """One realized trajectory: its record, shots, and timing.  A result
    keeps none of these; :attr:`PTSBEResult.trajectories` builds one per
    read."""

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


#: Per spec: the unit it was drawn in, its first row and shot count in
#: that unit's block, its realized weight and the seconds it was charged.
SPEC_COLUMNS = np.dtype([
    ("unit", np.intp), ("row", np.intp), ("count", np.intp),
    ("weight", np.float64), ("prep", np.float64), ("sample", np.float64),
])


@dataclass(frozen=True, eq=False)
class UnitShots:
    """One drawn unit as the driver returns it: spec ``positions[i]`` (a
    row of the run's trajectory table) drew ``specs[i]["count"]`` rows of
    ``bits`` from ``specs[i]["row"]`` on (``unit`` is set on delivery)."""

    positions: np.ndarray  # (s,) intp
    bits: np.ndarray  # (shots, k) uint8, spec after spec
    specs: np.ndarray  # (s,) SPEC_COLUMNS


@dataclass(frozen=True, eq=False)
class SpecColumns:
    """Delivered specs ``start .. start + len(specs)`` of ``run`` (its
    :class:`~repro.pts.base.PTSResult`), in spec order: ``specs[i]`` are
    spec ``start + i``'s :data:`SPEC_COLUMNS`, its ``unit`` a key of
    ``blocks``, the drawn units' bits."""

    run: Optional[PTSResult]
    start: int
    blocks: Dict[int, np.ndarray]
    specs: np.ndarray

    @classmethod
    def concatenate(cls, parts: Sequence["SpecColumns"]) -> "SpecColumns":
        """A run's delivered parts, from its first spec on, as one."""
        specs = np.concatenate([p.specs for p in parts] or [np.zeros(0, SPEC_COLUMNS)])
        blocks = {u: block for p in parts for u, block in p.blocks.items()}
        return cls(parts[0].run if parts else None, 0, blocks, specs)

    def record(self, i: int) -> TrajectoryRecord:
        return self.run.record(self.start + i)

    def trajectory(self, i: int) -> TrajectoryResult:
        unit, row, count, weight, prep, sample = self.specs[i].tolist()
        bits = self.blocks[unit][row : row + count]
        return TrajectoryResult(self.record(i), bits, weight, prep, sample)

    def shot_table(self, measured_qubits: Tuple[int, ...], retained: bool) -> ShotTable:
        """The specs' shots in spec order, each row tagged with its spec's
        trajectory id: one slice copy per run of specs whose rows follow
        each other in one block (``retained=False``: a lone run's rows are
        handed over as they are)."""
        unit, row, count = (self.specs[name] for name in ("unit", "row", "count"))
        ids = np.repeat(self.run.trajectory_ids[self.start : self.start + len(unit)], count)
        new = np.flatnonzero(
            np.append(True, (unit[1:] != unit[:-1]) | (row[1:] != row[:-1] + count[:-1]))
        )
        runs = zip(unit[new].tolist(), row[new].tolist(), np.add.reduceat(count, new).tolist())
        if len(new) == 1 and not retained:
            (u, first, n), = runs
            return ShotTable(self.blocks[u][first : first + n], ids, measured_qubits)
        bits = np.empty((len(ids), len(measured_qubits)), dtype=np.uint8)
        at = 0
        for u, first, n in runs:
            bits[at : at + n] = self.blocks[u][first : first + n]
            at += n
        return ShotTable(bits, ids, measured_qubits)


class SpecViews:
    """What a streamed chunk and a result share: their :class:`SpecColumns`,
    how many specs and shots they cover and two views of them,
    ``trajectories`` and ``records``, whose items are built when read."""

    columns: SpecColumns
    num_trajectories: int
    num_shots: int
    trajectories: Sequence[TrajectoryResult]
    records: Sequence[TrajectoryRecord]

    def __post_init__(self) -> None:
        n = len(self.columns.specs)
        object.__setattr__(self, "num_trajectories", n)
        object.__setattr__(self, "num_shots", int(self.columns.specs["count"].sum()))
        object.__setattr__(self, "trajectories", LazySequence(n, self.columns.trajectory))
        object.__setattr__(self, "records", LazySequence(n, self.columns.record))


@dataclass(eq=False)
class PTSBEResult(SpecViews):
    """Aggregated output of a batched-execution run: each drawn unit's
    shots as one block, and per spec its place in them, its weight and its
    seconds (``columns``).  ``trajectories`` and ``records`` are views,
    built on access."""

    columns: SpecColumns
    measured_qubits: Tuple[int, ...]
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
    #: ("serial", "vectorized", "clifford", "tensornet", or "parallel" /
    #: "sharded", which run serial / vectorized under another name).  ``None`` only for results
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
    def prep_seconds(self) -> float:
        """The trajectories' prepare seconds, summed.  The serial engine's
        look-ahead prepares a unit while the one before it draws, so on
        such a run this and :attr:`sample_seconds` together can exceed the
        wall time."""
        return float(self.columns.specs["prep"].sum())

    @property
    def sample_seconds(self) -> float:
        return float(self.columns.specs["sample"].sum())

    @property
    def total_shots(self) -> int:
        return self.num_shots

    def shot_table(self) -> ShotTable:
        """All shots, provenance-aligned by trajectory index."""
        if not self.num_trajectories:
            raise DataError("no trajectories were executed")
        return self.columns.shot_table(self.measured_qubits, retained=True)

    def pooled_distribution(self, weighted: bool = True) -> np.ndarray:
        """Pooled outcome distribution over the sampled trajectory subsets.

        With ``weighted=True`` each trajectory's empirical conditional
        distribution is weighted by its :attr:`TrajectoryResult.actual_weight`
        — the realized probability of its Kraus choices on the actual
        state — renormalized over the sampled trajectories.  The estimator
        converges to the exact noisy distribution restricted to the sampled
        trajectory subsets (the exact one as their total weight -> 1), for
        general-Kraus channels too, where the nominal probability is only a
        prior.  On ``tensornet`` the weight carries the truncated MPS norm.
        With ``weighted=False`` shots are pooled raw (appropriate when
        shot counts were already apportioned proportionally).  One
        ``bincount`` over the shot table, each shot weighted by its
        trajectory's weight over its shot count.
        """
        table = self.shot_table()
        if not weighted:
            return table.empirical_distribution()
        if table.num_bits > 24:
            raise DataError("dense distribution limited to <= 24 bits")
        count, weight = self.columns.specs["count"], self.columns.specs["weight"]
        total_weight = weight[count > 0].sum()
        if total_weight <= 0:
            raise DataError("zero total trajectory weight")
        per_shot = np.repeat(weight / np.maximum(count, 1), count)
        return np.bincount(table.keys(), per_shot, minlength=1 << table.num_bits) / total_weight

    def __repr__(self) -> str:
        return (
            f"PTSBEResult(trajectories={self.num_trajectories}, shots={self.total_shots}, "
            f"prep={self.prep_seconds:.3f}s, sample={self.sample_seconds:.3f}s)"
        )
