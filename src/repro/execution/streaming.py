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
  :func:`repro.execution.driver.drive`, in-process or over a pool);
* chunk order is the **materialized trajectory order** (spec order), so
  concatenating the streamed chunks reproduces
  ``PTSBEResult.shot_table()`` bitwise — work completes out of order
  (pool workers, deduplicated stacks), so results pass through an
  :class:`OrderedDelivery` reorder buffer;
* :meth:`StreamedResult.finalize` drains whatever has not been consumed
  and assembles the exact :class:`~repro.execution.results.PTSBEResult`
  the materialized path would have returned — same shots, same records,
  same weights — so streaming is strictly additive;
* :meth:`StreamedResult.close` abandons the run mid-stream: the
  underlying generator's cleanup runs (process pools shut down with
  pending tasks cancelled, stacked state buffers released), so a
  consumer that got what it needed leaks nothing;
* ``retain=False`` (every ``execute_stream`` and
  :func:`~repro.execution.batched.run_ptsbe_stream` accept it) drops
  each chunk after delivery so pure-ingest consumers hold at most one
  chunk of shots at a time — ``finalize()`` is unavailable in that mode.

Determinism is untouched: streaming changes *when* results are handed
over, never how they are computed — every trajectory still samples from
the stream derived from ``(seed, trajectory_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.execution.results import PTSBEResult, ShotTable, TrajectoryResult
from repro.faults.retry import RecoveryEvent
from repro.trajectory.events import TrajectoryRecord

__all__ = [
    "ShotChunk",
    "StreamedResult",
    "OrderedDelivery",
]


@dataclass(frozen=True)
class ShotChunk:
    """One streamed delivery: the trajectories of a completed unit of work.

    A chunk covers whatever became deliverable together — one spec
    (serial), one ``(B, 2**n)`` stack (vectorized), one or more pool
    tasks (parallel, sharded) — already in final trajectory order
    relative to neighbouring chunks.
    """

    trajectories: Tuple[TrajectoryResult, ...]
    measured_qubits: Tuple[int, ...]

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def num_shots(self) -> int:
        return sum(t.num_shots for t in self.trajectories)

    @property
    def records(self) -> List[TrajectoryRecord]:
        return [t.record for t in self.trajectories]

    def shot_table(self) -> ShotTable:
        """This chunk's shots, provenance-aligned by trajectory index."""
        if not self.trajectories:
            raise ExecutionError("empty shot chunk has no table")
        return ShotTable.from_trajectories(self.trajectories, self.measured_qubits)

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
        chunks: Iterator[List[TrajectoryResult]],
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
        self._collected: List[TrajectoryResult] = []
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
        self._delivered += len(delivered)
        if self.retain:
            self._collected.extend(delivered)
        return ShotChunk(tuple(delivered), self.measured_qubits)

    def chunks(self) -> Iterator[ShotChunk]:
        """Alias for iteration (reads better at call sites)."""
        return self

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
        if len(self._collected) != self._total:
            raise ExecutionError(
                f"stream was closed after {len(self._collected)} of "
                f"{self._total} trajectories; a finalized result requires "
                "the full run"
            )
        return PTSBEResult(
            trajectories=list(self._collected),
            measured_qubits=self.measured_qubits,
            prep_seconds=sum(t.prep_seconds for t in self._collected),
            sample_seconds=sum(t.sample_seconds for t in self._collected),
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
    """Reorder buffer turning out-of-order completions into ordered chunks.

    Executors whose units of work finish out of trajectory order (process
    pools, deduplicated stacks whose groups interleave spec positions)
    feed completed ``(position, TrajectoryResult)`` pairs in; :meth:`add`
    returns the contiguous prefix that became ready — possibly empty,
    possibly spanning several buffered completions — so the stream always
    delivers trajectories in exact materialized order.
    """

    def __init__(self, total: int):
        self._pending: Dict[int, TrajectoryResult] = {}
        self._next = 0
        self._total = int(total)

    def add(
        self,
        completions: Sequence[Tuple[int, TrajectoryResult]],
        reissue: bool = False,
    ) -> List[TrajectoryResult]:
        """Buffer completions; return the newly-contiguous ordered prefix.

        ``reissue=True`` is the retry layer's accounting mode: positions
        already delivered or buffered are silently dropped instead of
        raising.  Seed threading guarantees a reissued trajectory is
        bitwise identical to the first delivery, so keeping the original
        is correct — the recovered stream concatenates exactly like a
        fault-free one.  Duplicate positions in a *non*-reissued unit
        still raise, preserving the executor-bug tripwire.
        """
        for position, trajectory in completions:
            if not (0 <= position < self._total):
                raise ExecutionError(
                    f"delivery position {position} out of range for "
                    f"{self._total} trajectories"
                )
            if position < self._next or position in self._pending:
                if reissue:
                    continue
                raise ExecutionError(
                    f"duplicate delivery for trajectory position {position}"
                )
            self._pending[position] = trajectory
        ready: List[TrajectoryResult] = []
        while self._next in self._pending:
            ready.append(self._pending.pop(self._next))
            self._next += 1
        return ready

    @property
    def outstanding(self) -> int:
        """Trajectories not yet delivered (buffered or still in flight)."""
        return self._total - self._next
