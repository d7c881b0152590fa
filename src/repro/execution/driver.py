"""One execution driver, N engine adapters.

The paper's batched execution is one loop whatever the state
representation is: prepare each pre-sampled Kraus prescription once, draw
that trajectory's whole shot budget, attach its provenance.  :func:`drive`
is that loop, written once.  An :class:`Engine` adapter supplies only what
differs between state representations — how a stack of prescriptions is
prepared and how one prepared row is sampled — and the serial, vectorized,
clifford and tensornet executors each shrink to "build the adapter,
``return drive(...)``".

What :func:`drive` owns, for every engine:

* the preamble — freeze, the "no measurements" / "no specs" checks, the
  resolved root seed, the fault context;
* deduplication (:func:`~repro.pts.base.deduplicate_specs`) and the queue
  of ``max_rows``-sized group ranges;
* per unit ``"<name>/stack:<a>:<b>"``: seed-exact retry
  (:func:`~repro.faults.retry.run_unit_with_retry`), the
  ``CapacityError`` halving ladder, the per-trajectory Philox stream
  ``(seed, trajectory_id)``, the dead-row rule (zero weight if and only
  if ``prepare`` said so: no shots, weight ``0.0``), result assembly;
* one timing rule — a unit's prepare wall time is split evenly across its
  rows, duplicates of a row ride free, and the engine's compile seconds
  are charged to the first unit;
* ordered delivery and the :class:`~repro.execution.streaming.StreamedResult`.

A unit is a pure function of its group range and the root seed, so a
retried unit re-emits bitwise-identical shots on every engine.  Halving
changes no bits where preparation is row-wise independent (the dense
stack); the tensornet stack's truncated SVDs keep a common rank across
the unit, so there halving preserves the sampled distribution only.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple,
    TypeVar, runtime_checkable,
)

import numpy as np
from numpy.typing import NDArray

from repro.circuits.circuit import Circuit
from repro.config import Config
from repro.errors import CapacityError, ExecutionError, FaultError
from repro.execution.results import TrajectoryResult
from repro.execution.streaming import OrderedDelivery, StreamedResult
from repro.faults.retry import (
    FaultContext, RecoveryEvent, describe_exception, run_unit_with_retry,
)
from repro.pts.base import TrajectorySpec, deduplicate_specs
from repro.rng import StreamFactory

__all__ = ["Engine", "drive", "open_run", "timed"]

T = TypeVar("T")


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
    #: Source of the run's fault plan and retry policy (``None``: no plan,
    #: default policy).
    config: Optional[Config]
    #: Wall seconds the constructor spent compiling (see :func:`timed`).
    compile_seconds: float

    def prepare(self, choices_list: Sequence[Dict[int, int]]) -> Sequence[float]:
        """Prepare one row per Kraus prescription; return the realized
        weights.  ``0.0`` marks a dead row (the prescription annihilates
        the state), which is never sampled."""
        ...

    def sample(
        self, row: int, num_shots: int, rng: np.random.Generator
    ) -> NDArray[np.uint8]:
        """``(num_shots, len(measured))`` bits from prepared row ``row``."""
        ...

    def release(self) -> None:
        """Drop prepared state.  Idempotent: called when the run ends and
        again by ``StreamedResult.close()``."""
        ...


def timed(fn: Callable[..., T], *args: Any) -> Tuple[T, float]:
    """``fn(*args)`` and the wall seconds it took.

    How adapters measure ``compile_seconds``: every clock read of the
    in-process engines stays in this module.
    """
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def open_run(
    circuit: Circuit, specs: Sequence[TrajectorySpec], seed: Optional[int]
) -> Tuple[Tuple[int, ...], StreamFactory]:
    """Every executor's preamble: freeze the circuit, refuse an empty run,
    resolve the root seed once.  Returns ``(measured_qubits, streams)``."""
    circuit.freeze()
    measured = tuple(circuit.measured_qubits)
    if not measured:
        raise ExecutionError("circuit has no measurements to sample")
    if not specs:
        raise ExecutionError("no trajectory specs to execute")
    return measured, StreamFactory(seed)


def drive(
    engine: Engine,
    circuit: Circuit,
    specs: Sequence[TrajectorySpec],
    seed: Optional[int] = None,
    retain: bool = True,
) -> StreamedResult:
    """Stream ``specs`` through ``engine``, one chunk per completed unit.

    Chunks are released in spec order (a dedup group can interleave spec
    positions), so concatenating them reproduces ``finalize()`` bitwise.
    Abandoning the stream releases the engine's prepared state.
    """
    measured, streams = open_run(circuit, specs, seed)
    ctx = FaultContext.from_config(engine.config, streams.seed, strategy=engine.name)
    events: List[RecoveryEvent] = []
    groups = deduplicate_specs(specs)
    max_rows = engine.max_rows

    def run_unit(
        start: int, end: int, carry: float
    ) -> List[Tuple[int, TrajectoryResult]]:
        unit = groups[start:end]
        t0 = time.perf_counter()
        weights = engine.prepare([specs[g.indices[0]].choices for g in unit])
        prep_each = (carry + time.perf_counter() - t0) / len(unit)
        completed = []
        for row, group in enumerate(unit):
            weight = float(weights[row])
            for j, index in enumerate(group.indices):
                spec = specs[index]
                if weight == 0.0:
                    bits = np.empty((0, len(measured)), dtype=np.uint8)
                    sample_seconds = 0.0
                else:
                    rng = streams.rng_for(spec.record.trajectory_id)
                    t1 = time.perf_counter()
                    bits = engine.sample(row, spec.num_shots, rng)
                    sample_seconds = time.perf_counter() - t1
                result = TrajectoryResult(
                    record=spec.record,
                    bits=bits,
                    actual_weight=weight,
                    prep_seconds=prep_each if j == 0 else 0.0,
                    sample_seconds=sample_seconds,
                )
                completed.append((index, result))
        return completed

    def deliver() -> Iterator[List[TrajectoryResult]]:
        delivery = OrderedDelivery(len(specs))
        pending = deque(
            (start, min(start + max_rows, len(groups)))
            for start in range(0, len(groups), max_rows)
        )
        carry = engine.compile_seconds
        try:
            while pending:
                start, end = pending.popleft()
                unit = f"{engine.name}/stack:{start}:{end}"
                try:
                    completed = run_unit_with_retry(
                        lambda attempt: run_unit(start, end, carry),
                        unit=unit,
                        ctx=ctx,
                        recovery=events,
                    )
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
                            strategy=ctx.strategy,
                            unit=unit,
                            attempt=0,
                            error=describe_exception(exc),
                            detail=f"split into stack:{start}:{mid} and stack:{mid}:{end}",
                        )
                    )
                    pending.appendleft((mid, end))
                    pending.appendleft((start, mid))
                    continue
                carry = 0.0
                ready = delivery.add(completed)
                if ready:
                    yield ready
        finally:
            engine.release()

    return StreamedResult(
        deliver(),
        measured_qubits=measured,
        seed=streams.seed,
        total_trajectories=len(specs),
        unique_preparations=len(groups),
        # close() before the first chunk never enters the generator, so
        # its finally cannot release what the adapter allocated eagerly.
        on_close=engine.release,
        retain=retain,
        engine=engine.name,
        recovery=events,
    )
