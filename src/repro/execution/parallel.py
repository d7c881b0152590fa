"""Inter-trajectory parallelism over worker processes.

The paper's inter-trajectory axis: "the preparation and sampling of
different trajectories is embarrassingly parallel, the calculation process
trivially scales to arbitrarily many GPUs."  Here workers are OS processes
standing in for GPUs; each receives a (picklable) circuit, backend recipe
and its scheduled slice of trajectory specs, executes them with the serial
:class:`~repro.execution.batched.BatchedExecutor`, and ships the shots
back.

Determinism: every trajectory derives its RNG stream from
``(seed, trajectory_id)`` (see :mod:`repro.rng`), so a parallel run is
shot-for-shot identical to the serial run regardless of the worker count
or the schedule — verified in ``tests/test_parallel.py``.  An unseeded run
resolves one root seed *before* fan-out, so every worker derives from the
same stream tree (and the resolved value is recorded on the result for
exact replay).

Streaming: :meth:`ParallelExecutor.execute_stream` hands worker slices
over as they complete.  Completions arrive in pool order, so they pass
through an :class:`~repro.execution.streaming.OrderedDelivery` buffer that
re-establishes ascending-trajectory-id order — the same order
:meth:`ParallelExecutor.execute` materializes — before chunks reach the
consumer.

Fault tolerance: each worker slice is one retryable unit
(``parallel/slice:{k}``).  The fault-injection hook fires *inside* the
worker (the payload carries the plan and attempt number), so injected
crashes emulate real subprocess deaths; the pool loop in
:func:`~repro.execution.streaming.stream_pool` retries failed slices
under ``Config.retry`` — bitwise-identical re-emission, by the same seed
threading — and translates raw pool exceptions into repro errors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.circuits.circuit import Circuit
from repro.errors import ExecutionError
from repro.execution.batched import BackendSpec, BatchedExecutor, backend_config
from repro.execution.driver import open_run
from repro.execution.results import TrajectoryResult
from repro.execution.scheduler import Scheduler
from repro.execution.streaming import (
    OrderedDelivery,
    PoolJob,
    StreamedResult,
    StreamingExecutor,
    stream_pool,
)
from repro.faults.retry import FaultContext, RecoveryEvent, run_unit_with_retry
from repro.faults.plan import maybe_inject
from repro.pts.base import TrajectorySpec

__all__ = ["ParallelExecutor"]


def _worker(args) -> List[TrajectoryResult]:
    """Top-level worker (must be module-level for pickling).

    The trailing ``(unit, attempt, plan)`` triple is the fault-injection
    context: the hook fires here, inside the subprocess, so an injected
    worker-crash surfaces to the pool exactly like a real one.
    """
    circuit, backend_spec, specs, seed, sample_kwargs, fault = args
    unit, attempt, plan = fault
    maybe_inject(plan, unit, attempt, seed)
    executor = BatchedExecutor(backend_spec, sample_kwargs=sample_kwargs)
    result = executor.execute(circuit, specs, seed=seed)
    return result.trajectories


class ParallelExecutor(StreamingExecutor):
    """Fan trajectory specs out over a process pool."""

    def __init__(
        self,
        backend: BackendSpec = BackendSpec(),
        num_workers: int = 2,
        scheduler: Optional[Scheduler] = None,
        sample_kwargs: Optional[Dict] = None,
    ):
        if num_workers <= 0:
            raise ExecutionError("num_workers must be positive")
        if not isinstance(backend, BackendSpec):
            raise ExecutionError(
                "ParallelExecutor requires a picklable BackendSpec, not a callable"
            )
        if backend.kind == "batched_statevector":
            raise ExecutionError(
                "ParallelExecutor workers run the serial per-trajectory engine; "
                "use VectorizedExecutor for the 'batched_statevector' kind"
            )
        self.backend = backend
        self.num_workers = int(num_workers)
        self.scheduler = scheduler or Scheduler("greedy")
        self.sample_kwargs = dict(sample_kwargs or {})

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream worker slices as they complete, in trajectory-id order.

        Each completed worker feeds the reorder buffer; a chunk is
        released as soon as it extends the contiguous ascending-id prefix
        (so the first chunk arrives when the worker holding the lowest
        ids finishes, not when the whole pool drains).  Abandoning the
        stream cancels unstarted worker slices and shuts the pool down.
        ``retain=False`` drops chunks after delivery (``finalize``
        unavailable) to bound memory for pure-ingest consumers.
        """
        measured, streams = open_run(circuit, specs, seed)
        ctx = FaultContext.from_config(
            backend_config(self.backend), streams.seed, strategy="parallel"
        )
        events: List[RecoveryEvent] = []
        assignment = self.scheduler.assign(specs, self.num_workers)
        chunks = [chunk for chunk in assignment.per_device if chunk]
        # Materialized order is a stable sort of (worker, slot) flattening
        # by trajectory id; precompute each slot's global position so the
        # reorder buffer can release contiguous prefixes as workers finish.
        flat = [
            (spec.record.trajectory_id, w, j)
            for w, chunk in enumerate(chunks)
            for j, spec in enumerate(chunk)
        ]
        rank_of = {
            (w, j): rank
            for rank, (_, w, j) in enumerate(sorted(flat, key=lambda item: item[0]))
        }

        def make_job(w: int, chunk) -> PoolJob:
            unit = f"parallel/slice:{w}"
            return PoolJob(
                unit=unit,
                payload_for=lambda attempt: (
                    circuit,
                    self.backend,
                    chunk,
                    streams.seed,
                    self.sample_kwargs,
                    (unit, attempt, ctx.plan),
                ),
                tag=lambda trajectories: [
                    (rank_of[(w, j)], t) for j, t in enumerate(trajectories)
                ],
            )

        jobs = [make_job(w, chunk) for w, chunk in enumerate(chunks)]

        def deliver():
            delivery = OrderedDelivery(len(specs))
            if len(jobs) == 1:
                job = jobs[0]
                trajectories = run_unit_with_retry(
                    lambda attempt: _worker(job.payload_for(attempt)),
                    unit=job.unit,
                    ctx=ctx,
                    recovery=events,
                    inject=False,  # the worker injects from its payload
                )
                ready = delivery.add(job.tag(trajectories))
                if ready:
                    yield ready
                return
            yield from stream_pool(
                jobs,
                _worker,
                delivery,
                self.num_workers,
                ctx=ctx,
                recovery=events,
            )

        return StreamedResult(
            deliver(),
            measured_qubits=measured,
            seed=streams.seed,
            total_trajectories=len(specs),
            engine="parallel",
            retain=retain,
            recovery=events,
        )
