"""One execution driver, N engine adapters, one in-process runner.

The paper's batched execution is one loop whatever the state
representation is: prepare each pre-sampled Kraus prescription once, draw
that trajectory's whole shot budget, attach its provenance.  :func:`drive`
is that loop, written once.  An :class:`Engine` adapter supplies only what
differs between state representations — how a stack of prescriptions is
prepared and how a prepared unit's shot requests are drawn — and every
executor is a :class:`StreamingExecutor`: a constructor that validates and
an ``_engine(circuit)`` recipe that builds the adapter.

What :func:`drive` owns, for every engine:

* the preamble — freeze, the "no measurements" / "no specs" checks, the
  deferred-measurement contract (no operation on a measured qubit,
  :func:`~repro.backends.base.validate_deferred_measurement`), checked
  once with the same error on every engine, the resolved root seed, the
  fault context;
* the run's trajectory table, one row per spec: PTS emits it
  (:class:`~repro.pts.base.PTSResult`, whose ``specs`` view converts back
  to it at no cost), and any other spec sequence is converted once
  (:meth:`~repro.pts.base.PTSResult.from_specs`) by
  :func:`~repro.prescriptions.prescribe`, which checks every prescribed
  site and Kraus index before any unit runs, with the same error on every
  engine;
* deduplication (:func:`~repro.pts.base.deduplicate_specs`: the table's
  equal rows, grouped; one row per group is the run's prescription
  table) and the queue of tasks, each a range of dedup groups named
  ``"<name>/stack:<a>:<b>"`` that an engine prepares from its slice of
  the prescription table;
* per task: the fault hook, the retry rule
  (:meth:`~repro.faults.retry.FaultContext.next_attempt`), the
  ``CapacityError`` halving split, the per-trajectory Philox stream
  ``(seed, trajectory_id)``, the shot counts each row will be asked for
  (handed to ``prepare`` with the prescriptions), the dead-row rule
  (zero weight if and only if ``prepare`` said so: no shots, weight
  ``0.0``), the unit's block and spec columns;
* one timing rule — a unit's prepare wall time is split evenly across its
  rows, duplicates of a row ride free, and the engine's compile seconds
  are charged to the first unit; a unit's shots are
  drawn by one ``engine.sample(requests)`` call, one request per spec
  that has shots to draw from a live row, and that call's wall time is
  split over those specs by shot share (``sample_seconds`` = wall x spec
  shots / unit shots; a dead row's specs and a zero-shot spec are not in
  the list and read ``0.0``).  The call fills one ``(shots, bits)`` block
  for the unit, and the unit returns as
  :class:`~repro.execution.results.UnitShots`: its spec positions, that
  block and each spec's row, shot count, weight and seconds — no
  per-trajectory object and no provenance record (records are built
  from the run's trajectory table when read).  A look-ahead unit's
  prepare wall is timed on the helper thread, while the unit before it
  draws, so a run's
  ``prep_seconds + sample_seconds`` can exceed its wall time;
* ordered delivery and the :class:`~repro.execution.streaming.StreamedResult`.

A unit is cut greedily from the dedup groups, in order: it takes groups
until the next would make it more than ``max_rows`` groups or — on an
engine that sets it — more than ``max_unit_shots`` shots, and always at
least one.  (The state engines size a unit by the rows they hold; the
frame engine's rows are nearly free, so its unit is sized by the shots it
samples and a chunk stays bounded whatever the budget per trajectory.)
On an engine whose rows are independent of each other, group 0 is a
unit of its own and the greedy cuts start at group 1
(:func:`_task_cuts`): the first chunk waits for one trajectory's
preparation and draw, not a whole unit's.  An engine with
``coupled_rows`` (the tensornet stack) keeps the greedy cuts from group 0.

On an engine that sets ``sort_bytes`` (the dense stack, whose rows share
the walk of the prefix they agree on) the cuts after that first unit are
grouped into *sort windows* (:func:`_windows`): runs of whole units whose
shots' bits — ``len(measured)`` bytes a shot — fit ``sort_bytes``, one
resident stack's bytes, and always at least one unit.  Inside each window
the groups go in trie order
(:meth:`~repro.prescriptions.Prescriptions.trie_order`), so rows that
took the same errors share a unit; the cuts, on rows alone, are the same
ranges of that order.  A fault-unit name's range indexes the sorted
order.  The order is computed after the first chunk is delivered, and it
never depends on ``retain``.
When the tasks after the head are cut, the engine is handed their
prescription table in the order they run (:meth:`Engine.share`), once:
an engine whose units share preparation plans it there (the serial
engine's checkpoint ladder), and a look-ahead's second adapter shares that
plan.  It lasts until the run ends (:meth:`Engine.release`).
Delivery is in spec order whatever the order of preparation, so a chunk
is whatever a unit's completion makes deliverable: on a sorting engine at
most one window (the first chunk is group 0 alone), on every
other engine one unit.

Tasks run in this process, one unit each, and a unit whose shots exceed
its adapter's ``lookahead_shots`` hides the next task's
``engine.prepare`` behind its draw: one helper thread prepares that unit
on a second adapter (built by ``build()`` on first use), so at most one
prepared unit is resident ahead.  The helper runs nothing but
``prepare``: the fault hook, retry and halving stay on this thread, and a
look-ahead that raised, or whose task is not the next one popped, is
dropped and its unit prepared again in line, so an error surfaces once,
where it does without one (the dropped adapter's state goes when it
prepares again, or when the run ends).  Rows draw from their own Philox
streams and dense preparation is row-wise independent, so which thread
prepared a unit changes no bits.  A task is a pure function of its group range and
the root seed, so a retried or halved task re-emits bitwise-identical
shots on every engine.  Where a unit is cut, and halving, change no bits
where preparation is row-wise independent (the dense stack and the frame
stack); the tensornet stack's truncated SVDs keep a common rank across
the unit, so there halving preserves the sampled distribution only.

The paper runs its inter-trajectory axis ("embarrassingly parallel", §3)
across devices.  This driver has no such axis: on one host a process
pool of the same tasks measured slower than this loop on every shape
tried (``docs/architecture.md``, "Strategies").
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import (
    Any, Callable, Deque, Iterator, List, Optional, Protocol, Sequence, Tuple, TypeVar,
    runtime_checkable,
)

import numpy as np
from numpy.typing import NDArray

from repro.backends.base import validate_deferred_measurement
from repro.circuits.circuit import Circuit
from repro.config import Config
from repro.errors import BackendError, CapacityError, ExecutionError, FaultError
from repro.execution.results import SPEC_COLUMNS, PTSBEResult, SpecColumns, UnitShots
from repro.execution.streaming import OrderedDelivery, StreamedResult
from repro.faults.plan import FaultPlan, maybe_inject
from repro.faults.retry import FaultContext, RecoveryEvent, describe_exception
from repro.prescriptions import Prescriptions
from repro.pts.base import PTSResult, SpecGroups, TrajectorySpec, deduplicate_specs
from repro.rng import StreamFactory

__all__ = ["Engine", "StreamingExecutor", "check_measurements", "drive", "timed"]

T = TypeVar("T")
#: ``(first group, one past the last group, attempt)``.
Task = Tuple[int, int, int]
#: ``(prepared row, shots, that trajectory's Philox generator)``: what one
#: live spec asks of :meth:`Engine.sample`.
Request = Tuple[int, int, np.random.Generator]
#: A prepared unit: the weights ``prepare`` returned and its wall seconds.
Prepared = Tuple[Sequence[float], float]


@runtime_checkable
class Engine(Protocol):
    """What a state representation supplies to :func:`drive`.

    Adapters are built per run, around one frozen circuit.  Whatever the
    engine compiles once per circuit (fused plan, frame tables, gate
    schedule) is compiled in the adapter's constructor, so an ineligible
    circuit fails at the ``execute_stream`` call, not at the first chunk.
    """

    #: Stamped on ``StreamedResult.engine``; prefixes the fault-unit names.
    name: str
    #: Dedup groups per prepared unit (1 for one-state-at-a-time engines).
    max_rows: int
    #: Shots per prepared unit, for an engine whose rows are nearly free and
    #: whose unit is sized by what it samples (``None``: rows alone cut).
    max_unit_shots: Optional[int]
    #: Whether a row's prepared state depends on the rows stacked with it
    #: (the tensornet stack's shared truncation ranks).  An engine
    #: without it prepares group 0 as a unit of its own.
    coupled_rows: bool
    #: Bytes of one prepared unit, on an engine whose rows share the prefix
    #: they agree on (the dense stack; its units are cut on rows alone):
    #: its groups run in trie order inside windows of units whose shot
    #: bits fit it (``None``: caller order).
    sort_bytes: Optional[int]
    #: Source of the run's fault plan and retry policy.
    config: Config
    #: Wall seconds the constructor spent compiling (see :func:`timed`).
    compile_seconds: float

    @property
    def lookahead_shots(self) -> Optional[int]:
        """A unit with more shots than this prepares the next unit on a
        helper thread while it draws (``None``: never)."""
        ...

    def share(self, table: Prescriptions, peer: Optional["Engine"]) -> None:
        """Plan what the units after the head share.  ``table`` holds their
        prescriptions in the order they run, handed over once, when they
        are cut (``peer`` is ``None``); a look-ahead's second adapter gets
        the same table with the first adapter as ``peer``, and shares its
        plan instead of making one.  The plan lasts until :meth:`release`.
        An engine whose units share nothing ignores it."""
        ...

    def prepare(self, table: Prescriptions, sizes: Sequence[Sequence[int]]) -> Sequence[float]:
        """Prepare one state per row of ``table``, the unit's slice of the
        run's checked prescription table; return the realized weights.
        ``0.0`` marks a dead row (the prescription annihilates the state),
        which is never sampled.  ``sizes[row]`` lists the shot counts that
        row's requests will draw, so the tables the draws read are built
        here (an engine whose draws need none ignores it)."""
        ...

    def sample(self, requests: Sequence[Request]) -> NDArray[np.uint8]:
        """One ``(shots, len(measured))`` bits block for the unit: each
        request's shots, drawn from its own prepared row with its own
        generator, request after request."""
        ...

    def release(self) -> None:
        """Drop prepared state and what :meth:`share` planned; the
        adapter stays usable.  Idempotent: called when the run ends and
        again by ``StreamedResult.close()``."""
        ...


def timed(fn: Callable[..., T], *args: Any) -> Tuple[T, float]:
    """``fn(*args)`` and the wall seconds it took.

    How adapters measure ``compile_seconds`` and the runner a unit's
    prepare and sample walls: every clock read of the execution layer
    stays in this module.
    """
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _unit_name(engine: str, start: int, end: int) -> str:
    return f"{engine}/stack:{start}:{end}"


def _task_cuts(groups: SpecGroups, engine: Engine) -> List[Tuple[int, int]]:
    """The task list, one unit each: greedy ranges over the groups, each
    taking groups until the next would make it more than ``max_rows``
    groups or ``max_unit_shots`` shots, and always at least one.  An engine
    without ``coupled_rows`` prepares group 0 alone first, so the first
    chunk waits for one trajectory, not a unit."""
    first = 0 if engine.coupled_rows else 1
    cuts = [(0, 1)] if first else []
    max_shots, shots = engine.max_unit_shots, 0
    for g, total in enumerate(groups.total_shots[first:].tolist(), first):
        over = max_shots is not None and shots + total > max_shots
        if g > first and (g - first == engine.max_rows or over):
            cuts.append((first, g))
            first, shots = g, 0
        shots += total
    if first < len(groups):
        cuts.append((first, len(groups)))
    return cuts


def _windows(
    groups: SpecGroups, tasks: Sequence[Tuple[int, int]], max_shots: int
) -> NDArray[np.intp]:
    """Each group's sort window, numbered from 1: greedy runs of
    consecutive ``tasks``, each taking tasks until the next would take its
    groups past ``max_shots`` shots, and always at least one.  Groups no
    task holds are window 0."""
    window = np.zeros(len(groups), dtype=np.intp)
    number = total = 0
    for start, end in tasks:
        shots = int(groups.total_shots[start:end].sum())
        if number == 0 or total + shots > max_shots:
            number, total = number + 1, 0
        window[start:end] = number
        total += shots
    return window


class _Runner:
    """A run's engine, plus everything that makes a task a pure function
    of its group range and the root seed.  A task is one unit, and a unit
    with more than ``lookahead_shots`` shots prepares the next task's unit
    on a second adapter, on one helper thread, while it draws.  The unit
    at group 0 never looks ahead, so the first chunk costs what it did."""

    def __init__(
        self,
        build: Callable[[], Engine],
        engine: Engine,
        trajectories: PTSResult,
        groups: SpecGroups,
        streams: StreamFactory,
        plan: Optional[FaultPlan],
    ):
        self.build = build
        self.engine = engine
        self.trajectories = trajectories
        self.groups = groups
        self.streams = streams
        self.plan = plan
        self.carry = engine.compile_seconds
        self.spare: Optional[Engine] = None
        #: The prescriptions of the tasks after the head (:meth:`share`).
        self.scheduled: Optional[Prescriptions] = None
        self.helper: Optional[ThreadPoolExecutor] = None
        #: The unit prepared ahead on ``spare``: its group range and future.
        self.ahead: Optional[Tuple[int, int, "Future[Prepared]"]] = None

    def task(self, start: int, end: int, attempt: int, upcoming: Optional[Task]) -> UnitShots:
        """The unit of groups ``[start, end)``; ``upcoming`` is the task
        popped after it, which a large unit prepares ahead."""
        unit = _unit_name(self.engine.name, start, end)
        maybe_inject(self.plan, unit, attempt, self.streams.seed)
        prepared = self.claim(start, end)
        if prepared is None:
            prepared = self.prepare(self.engine, start, end)
        threshold = self.engine.lookahead_shots
        shots = int(self.groups.total_shots[start:end].sum())
        if start > 0 and upcoming is not None and threshold is not None and shots > threshold:
            self.look_ahead(*upcoming[:2])
        return self.draw(self.engine, start, end, prepared)

    def unit(self, start: int, end: int) -> Tuple[NDArray[np.intp], NDArray[np.int64], List[int]]:
        """The trajectory rows of groups ``[start, end)``, their shots, and
        where each group's rows start in those (one past the last ends)."""
        offsets = self.groups.offsets[start : end + 1]
        members = self.groups.members[offsets[0] : offsets[-1]]
        return members, self.trajectories.shots[members], (offsets - offsets[0]).tolist()

    def prepare(self, engine: Engine, start: int, end: int) -> Prepared:
        """``engine.prepare`` on groups ``[start, end)``, timed."""
        _, shots, bounds = self.unit(start, end)
        shots = shots.tolist()
        sizes = [shots[a:b] for a, b in zip(bounds, bounds[1:])]
        return timed(engine.prepare, self.groups.table[start:end], sizes)

    def draw(self, engine: Engine, start: int, end: int, prepared: Prepared) -> UnitShots:
        """Draw the shots of groups ``[start, end)``, prepared on ``engine``,
        into one block, spec after spec."""
        members, shots, bounds = self.unit(start, end)
        rows = np.repeat(np.arange(end - start), np.diff(bounds))
        weights, wall = prepared
        specs = np.zeros(len(members), dtype=SPEC_COLUMNS)
        specs["weight"] = np.asarray(weights, dtype=np.float64)[rows]
        specs["prep"][bounds[:-1]] = (self.carry + wall) / (end - start)
        self.carry = 0.0  # compile seconds are charged to one finished unit
        # One request per spec that has shots to draw from a live row, all
        # of the unit's in one call; its wall time is split by shot share.
        drawn = specs["count"] = np.where(specs["weight"] != 0.0, shots, 0)
        specs["row"] = np.cumsum(drawn) - drawn
        live = np.flatnonzero(drawn)
        ids = self.trajectories.trajectory_ids[members[live]].tolist()
        requests = [
            (row, count, self.streams.rng_for(tid))
            for row, count, tid in zip(rows[live].tolist(), drawn[live].tolist(), ids)
        ]
        bits, wall = timed(engine.sample, requests)
        specs["sample"] = drawn * (wall / max(1, len(bits)))
        return UnitShots(members, bits, specs)

    def share(self, head: int) -> None:
        """Hand the engine the prescriptions of the tasks after the ``head``
        groups, in the order they run."""
        self.scheduled = self.groups.table[head:]
        self.engine.share(self.scheduled, None)

    def claim(self, start: int, end: int) -> Optional[Prepared]:
        """The look-ahead, when it prepared groups ``[start, end)`` and did
        not raise; its adapter then draws.  Otherwise it is dropped: its
        adapter keeps what it prepared until it prepares the next one, and
        what the two adapters share (:meth:`Engine.share`) stays."""
        if self.ahead is None:
            return None
        first, last, future = self.ahead
        self.ahead = None
        # exception() waits for the helper: from here on it is idle.
        if future.exception() is None and (first, last) == (start, end):
            assert self.spare is not None
            self.engine, self.spare = self.spare, self.engine
            return future.result()
        return None

    def look_ahead(self, start: int, end: int) -> None:
        if self.spare is None:
            assert self.scheduled is not None  # a look-ahead follows the head
            self.spare = self.build()
            self.spare.share(self.scheduled, self.engine)
            self.carry += self.spare.compile_seconds
            self.helper = ThreadPoolExecutor(1, thread_name_prefix="repro-lookahead")
        assert self.helper is not None
        self.ahead = (start, end, self.helper.submit(self.prepare, self.spare, start, end))

    def close(self) -> None:
        """Join the helper and release both adapters.  Idempotent."""
        if self.helper is not None:
            self.helper.shutdown(wait=True, cancel_futures=True)
        self.ahead = None
        self.engine.release()
        if self.spare is not None:
            self.spare.release()


def check_measurements(circuit: Circuit) -> Tuple[int, ...]:
    """The measured qubits of ``circuit``, refusing one that breaks the
    deferred-measurement contract or measures nothing."""
    try:
        measured = validate_deferred_measurement(circuit)
    except BackendError as exc:
        raise ExecutionError(str(exc)) from None
    if not measured:
        raise ExecutionError("circuit has no measurements to sample")
    return measured


def drive(
    build: Callable[[], Engine],
    circuit: Circuit,
    specs: Sequence[TrajectorySpec],
    seed: Optional[int] = None,
    retain: bool = True,
) -> StreamedResult:
    """Stream ``specs`` through the engine ``build()`` makes, one chunk per
    completed task.

    ``build`` runs here, and once more if a unit looks ahead.  Chunks are
    released in spec order (a dedup group can interleave spec positions),
    so concatenating them reproduces ``finalize()`` bitwise.  Abandoning
    the stream joins the look-ahead helper and releases both adapters.
    """
    circuit.freeze()
    measured = check_measurements(circuit)
    if not specs:
        raise ExecutionError("no trajectory specs to execute")
    trajectories = PTSResult.from_specs(circuit, specs)
    groups = deduplicate_specs(trajectories.table, trajectories.shots)
    streams = StreamFactory(seed)
    engine = build()
    name = engine.name
    ctx = FaultContext.from_config(engine.config, strategy=name)
    events: List[RecoveryEvent] = []
    # A task is one unit (_task_cuts: group 0 alone unless the engine's
    # rows are coupled, then max_rows groups or max_unit_shots shots).  The
    # tasks after the head are cut and ordered once its chunk is delivered
    # (rest()).
    head = int(not engine.coupled_rows)
    runner = _Runner(build, engine, trajectories, groups, streams, ctx.plan)

    def rest() -> List[Tuple[int, int]]:
        """The tasks after the head.  On a sorting engine the groups of each
        window of them whose shot bits fit ``sort_bytes`` go in trie order,
        and group ranges index that order from here on.  A window holds
        whole units cut on rows alone, so the cuts still hold, and delivery
        buffers at most one window's bits or one unit's."""
        cuts = _task_cuts(groups, engine)[head:]
        if engine.sort_bytes is not None:
            window = _windows(groups, cuts, engine.sort_bytes // len(measured))
            runner.groups = groups.take(groups.table.trie_order(window))
        runner.share(head)
        return cuts

    def deliver() -> Iterator[SpecColumns]:
        delivery = OrderedDelivery(trajectories)
        pending: Deque[Task] = deque([(0, 1, 0)] * head)
        ordered = False
        try:
            while pending or not ordered:
                if not pending:
                    # The head is delivered: the first chunk never waits
                    # for the rest of the run to be ordered.
                    pending.extend((start, end, 0) for start, end in rest())
                    ordered = True
                    continue
                start, end, attempt = task = pending.popleft()
                unit = _unit_name(name, start, end)
                try:
                    completed = runner.task(*task, pending[0] if pending else None)
                except CapacityError as exc:
                    # Repeating the identical allocation cannot help;
                    # split the unit in place instead.
                    if end - start == 1:
                        raise FaultError(
                            f"preparation of {unit!r} failed at the "
                            f"single-row floor: {describe_exception(exc)}",
                            unit=unit,
                            attempts=1,
                        ) from exc
                    mid = (start + end) // 2
                    events.append(
                        RecoveryEvent(
                            kind="batch-halved",
                            strategy=name,
                            unit=unit,
                            attempt=0,
                            error=describe_exception(exc),
                            detail=f"split into stack:{start}:{mid} and stack:{mid}:{end}",
                        )
                    )
                    pending.appendleft((mid, end, 0))
                    pending.appendleft((start, mid, 0))
                    continue
                except ctx.policy.retryable as exc:
                    again = ctx.next_attempt(unit, attempt, exc, events)
                    pending.appendleft((start, end, again))
                    continue
                ready = delivery.add(completed)
                if ready is not None:
                    yield ready
        finally:
            runner.close()

    return StreamedResult(
        deliver(),
        measured_qubits=measured,
        seed=streams.seed,
        total_trajectories=trajectories.num_trajectories,
        unique_preparations=len(groups),
        # close() before the first chunk never enters the generator, so
        # its finally cannot release what the adapter allocated eagerly.
        on_close=runner.close,
        retain=retain,
        engine=name,
        recovery=events,
    )


class StreamingExecutor:
    """Base of every executor: a constructor that validates, an
    ``_engine(circuit)`` recipe, and the one ``execute_stream``."""

    def _engine(self, circuit: Circuit) -> Engine:
        """Build this run's adapter."""
        raise NotImplementedError

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream one :class:`~repro.execution.streaming.ShotChunk` per
        completed task, in spec order.

        A task is one prepared unit (a single state on the one-row
        engine, a stack of up to ``max_rows`` on the stacked ones, up to
        ``max_unit_shots`` shots of frames), so the first chunk arrives
        when the unit holding the first specs is drawn, not when the run
        drains.  :meth:`StreamedResult.finalize` reproduces
        :meth:`execute` bitwise; abandoning the stream releases the
        engine.  ``retain=False`` drops chunks after delivery
        (``finalize`` unavailable) to bound memory for pure-ingest
        consumers.
        """
        return drive(partial(self._engine, circuit), circuit, specs, seed, retain)

    def execute(
        self, circuit: Circuit, specs: Sequence[TrajectorySpec], seed: Optional[int] = None
    ) -> PTSBEResult:
        """Run every spec and return the materialized result."""
        return self.execute_stream(circuit, specs, seed=seed).finalize()
