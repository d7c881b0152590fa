"""Streaming shot delivery: consume a PTSBE run chunk by chunk.

The materialized path (:func:`~repro.execution.batched.run_ptsbe`) holds
every realized trajectory until the whole run finishes.  For the paper's
closing workload — "a programmable data collection engine" feeding decoder
training (§2.3) — that wastes the run's own latency: a consumer could
already be training on the first stack's shots while the last one is
still being prepared.  This module is the delivery layer for
:func:`~repro.execution.batched.run_ptsbe_stream`:

* every executor exposes ``execute_stream(circuit, specs, seed)``
  returning a :class:`StreamedResult` — a lazy handle over
  :class:`ShotChunk`\\ s that are yielded *as each task completes*
  instead of after the full run (every strategy shares one such loop,
  :func:`repro.execution.driver.drive`);
* a drawn unit arrives as one block of bits and one row of
  :data:`~repro.execution.results.SPEC_COLUMNS` per spec
  (:class:`~repro.execution.results.UnitShots`); a deduplicated unit's
  specs interleave positions with other units', so units pass through an
  :class:`OrderedDelivery` reorder buffer, which releases the specs that
  became contiguous as one chunk — chunk order is the **materialized trajectory order** (spec
  order), so concatenating the streamed chunks reproduces
  ``PTSBEResult.shot_table()`` bitwise;
* a chunk and a result keep the blocks and the columns beside the run's
  :class:`~repro.pts.base.PTSResult`; their ``trajectories`` and
  ``records`` are views, one object built per item read, and a table is
  one row gather of the blocks plus repeated trajectory ids;
* :meth:`StreamedResult.finalize` drains whatever has not been consumed
  and assembles the exact :class:`~repro.execution.results.PTSBEResult`
  the materialized path would have returned — same shots, same records,
  same weights — so streaming is strictly additive;
* :meth:`StreamedResult.close` abandons the run mid-stream: the
  underlying generator's cleanup runs (the look-ahead helper joined,
  state buffers released), so a consumer that got what it needed leaks
  nothing;
* ``retain=False`` (every ``execute_stream`` and
  :func:`~repro.execution.batched.run_ptsbe_stream` accept it) drops
  each chunk after delivery so pure-ingest consumers hold at most one
  chunk of shots at a time — ``finalize()`` is unavailable in that mode,
  and a chunk whose shots are one block's contiguous rows hands those
  rows over as its table's bits, uncopied (a retained block is always
  copied, so no table aliases what a result keeps).

Determinism is untouched: streaming changes *when* results are handed
over, never how they are computed — every trajectory still samples from
the stream derived from ``(seed, trajectory_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.execution.results import (
    SPEC_COLUMNS, PTSBEResult, ShotTable, SpecColumns, SpecViews, UnitShots,
)
from repro.faults.retry import RecoveryEvent
from repro.pts.base import PTSResult

__all__ = [
    "ShotChunk",
    "StreamedResult",
    "OrderedDelivery",
]


@dataclass(frozen=True)
class ShotChunk(SpecViews):
    """One streamed delivery: the specs a completed unit of work made
    deliverable, in spec order.

    A chunk covers whatever became deliverable together — one spec
    (serial, parallel), one or more ``(B, 2**n)`` stacks (vectorized,
    sharded) — already in final trajectory order
    relative to neighbouring chunks.  It holds the drawn unit blocks and
    per-spec columns (``columns``); ``trajectories`` and ``records`` are
    views built on access.
    """

    columns: SpecColumns
    measured_qubits: Tuple[int, ...]
    #: Whether the stream keeps the chunk's blocks for ``finalize()``: then
    #: its table copies them, else a lone block's rows are handed over.
    retained: bool = True

    def shot_table(self) -> ShotTable:
        """This chunk's shots, provenance-aligned by trajectory index."""
        if not self.num_trajectories:
            raise ExecutionError("empty shot chunk has no table")
        return self.columns.shot_table(self.measured_qubits, self.retained)

    def __repr__(self) -> str:
        return (
            f"ShotChunk(trajectories={self.num_trajectories}, "
            f"shots={self.num_shots})"
        )


class StreamedResult:
    """Lazy handle over an in-flight PTSBE run.

    Iterate it (``for chunk in stream``) to receive :class:`ShotChunk`\\ s
    as the executor completes them; call :meth:`finalize` at any point to
    drain the remainder and obtain the bitwise-identical
    :class:`~repro.execution.results.PTSBEResult` of the materialized
    path; or :meth:`close` to abandon the run (also triggered by using
    the stream as a context manager).

    Attributes
    ----------
    measured_qubits:
        Measured qubit tuple every chunk's table carries.
    seed:
        The resolved root seed of the run (never ``None`` — unseeded runs
        resolve one entropy seed up front), sufficient to replay the run
        exactly via ``run_ptsbe(..., seed=stream.seed)``.
    unique_preparations:
        Distinct state preparations the run will perform: its number of
        dedup groups, on every strategy.
    retain:
        ``True`` (default) keeps every delivered trajectory so
        :meth:`finalize` stays free.  ``False`` drops chunks the moment
        they are handed over — memory stays bounded by one in-flight
        chunk regardless of run length, the mode pure-ingest consumers
        (e.g. a streaming decoder-training loop that never materializes
        the run) want — at the price of :meth:`finalize` becoming
        unavailable: a retained full result would defeat the point, so it
        raises instead.
    recovery:
        Live list of :class:`~repro.faults.retry.RecoveryEvent` records —
        every retry and batch-halving the run performed so far.
        Shared with the executor's delivery generator, so it grows as the
        stream is consumed; :meth:`finalize` snapshots it onto
        ``PTSBEResult.recovery``.  Empty for fault-free runs.
    """

    def __init__(
        self,
        chunks: Iterator[SpecColumns],
        measured_qubits: Tuple[int, ...],
        seed: int,
        total_trajectories: int,
        unique_preparations: Optional[int] = None,
        on_close: Optional[Callable[[], None]] = None,
        retain: bool = True,
        engine: Optional[str] = None,
        routing: Optional[str] = None,
        recovery: Optional[List["RecoveryEvent"]] = None,
    ):
        self._chunks = chunks
        self.measured_qubits = tuple(measured_qubits)
        self.seed = int(seed)
        self.unique_preparations = unique_preparations
        #: Engine name of the executor that produced this stream; the
        #: routing trail is attached by run_ptsbe_stream after dispatch.
        self.engine = engine
        self.routing = routing
        self.retain = bool(retain)
        self.recovery: List[RecoveryEvent] = recovery if recovery is not None else []
        self._total = int(total_trajectories)
        self._collected: List[SpecColumns] = []
        self._delivered = 0
        self._closed = False
        self._exhausted = False
        # Extra cleanup close() must run even when the generator body never
        # started (generator.close() on an unstarted generator skips its
        # finally blocks): the driver passes the engine's (idempotent)
        # release here.
        self._on_close = on_close

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> "StreamedResult":
        return self

    def __next__(self) -> ShotChunk:
        if self._closed:
            raise StopIteration
        try:
            delivered = next(self._chunks)
        except StopIteration:
            self._exhausted = True
            raise
        self._delivered += len(delivered.specs)
        if self.retain:
            self._collected.append(delivered)
        return ShotChunk(delivered, self.measured_qubits, self.retain)

    def tables(self) -> Iterator[ShotTable]:
        """Yield each chunk's :class:`ShotTable` directly."""
        for chunk in self:
            yield chunk.shot_table()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def delivered_trajectories(self) -> int:
        """Trajectories handed over so far."""
        return self._delivered

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Abandon the run: cancel pending work, release buffers.

        Safe to call at any point (idempotent): a second close is a
        no-op, and close after exhaustion (``finalize()`` or a completed
        iteration) skips cleanup entirely — the generator's own
        ``finally`` already released every buffer, so re-touching them
        here would operate on freed resources.
        """
        if self._closed:
            return
        self._closed = True
        if self._exhausted:
            return
        self._chunks.close()
        if self._on_close is not None:
            self._on_close()

    def __enter__(self) -> "StreamedResult":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def finalize(self) -> PTSBEResult:
        """Drain the stream and assemble the materialized result.

        Returns the exact :class:`PTSBEResult` the executor's ``execute``
        would have produced for the same ``(circuit, specs, seed)`` —
        identical shot tables, records, and weights.  Raises
        :class:`~repro.errors.ExecutionError` if the stream was closed
        before every trajectory was delivered, or if it was opened with
        ``retain=False`` (delivered chunks were dropped, so there is
        nothing to assemble).
        """
        if not self.retain:
            raise ExecutionError(
                "stream was opened with retain=False: delivered chunks are "
                "dropped after hand-over, so no materialized result can be "
                "assembled; iterate the stream instead"
            )
        for _ in self:
            pass
        columns = SpecColumns.concatenate(self._collected)
        if len(columns.specs) != self._total:
            raise ExecutionError(
                f"stream was closed after {len(columns.specs)} of "
                f"{self._total} trajectories; a finalized result requires "
                "the full run"
            )
        return PTSBEResult(
            columns,
            measured_qubits=self.measured_qubits,
            unique_preparations=self.unique_preparations,
            seed=self.seed,
            engine=self.engine,
            routing=self.routing,
            recovery=list(self.recovery),
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("done" if self._exhausted else "open")
        return (
            f"StreamedResult({state}, delivered={self.delivered_trajectories}"
            f"/{self._total}, seed={self.seed})"
        )


class OrderedDelivery:
    """Reorder buffer turning out-of-order unit completions into ordered
    chunks.

    The driver's units of work finish out of trajectory order (a
    deduplicated unit's groups interleave spec positions; a sorting
    engine runs its groups in trie order): each drawn
    :class:`~repro.execution.results.UnitShots` is fed in, and
    :meth:`add` returns the contiguous run of specs that became ready
    — possibly none, possibly spanning several buffered units — as
    :class:`~repro.execution.results.SpecColumns` over the units' blocks,
    so the stream always delivers trajectories in exact materialized
    order.  ``run`` is the run's :class:`~repro.pts.base.PTSResult`; a
    unit's spec positions are its rows.
    """

    def __init__(self, run: PTSResult):
        self.run = run
        #: Per position, its spec's columns; unit 0 until it is delivered.
        self._specs = np.zeros(run.num_trajectories, dtype=SPEC_COLUMNS)
        #: Unit id (from 1) -> its block and how many of its specs are undelivered.
        self._blocks: Dict[int, List] = {}
        self._issued, self._next = 1, 0

    def add(self, unit: UnitShots) -> Optional[SpecColumns]:
        """Buffer a drawn unit; return the newly-contiguous specs.

        A failed or halved unit files nothing, so every position is filed
        once: a position already delivered or buffered, or repeated in the
        unit, raises (the executor-bug tripwire, retried units included).
        """
        total, held = len(self._specs), self._specs["unit"]
        positions = unit.positions
        outside = positions[(positions < 0) | (positions >= total)]
        if outside.size:
            raise ExecutionError(
                f"delivery position {outside[0]} out of range for {total} trajectories"
            )
        ordered = np.sort(positions)
        clash = np.append(positions[held[positions] > 0], ordered[1:][ordered[1:] == ordered[:-1]])
        if clash.size:
            raise ExecutionError(f"duplicate delivery for trajectory position {clash[0]}")
        if positions.size:
            self._specs[positions] = unit.specs
            held[positions] = self._issued
            self._blocks[self._issued] = [unit.bits, positions.size]
            self._issued += 1
        # The first undelivered position, searched in windows that double.
        start = stop = self._next
        while stop < total and held[stop]:
            stop += int(np.append(held[stop : 2 * stop - start + 64], 0).argmin())
        if stop == start:
            return None
        self._next = stop
        uids, counts = np.unique(held[start:stop], return_counts=True)
        blocks = {}
        for uid, count in zip(uids.tolist(), counts.tolist()):
            blocks[uid] = self._blocks[uid][0]
            self._blocks[uid][1] -= count
            if not self._blocks[uid][1]:
                del self._blocks[uid]
        return SpecColumns(self.run, start, blocks, self._specs[start:stop])

    @property
    def outstanding(self) -> int:
        """Trajectories not yet delivered (buffered or still in flight)."""
        return len(self._specs) - self._next
