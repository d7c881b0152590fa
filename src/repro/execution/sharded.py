"""Device-sharded trajectory-stacked execution (the fourth BE strategy).

The paper's two parallel axes composed in one engine ("the calculation
process trivially scales to arbitrarily many GPUs", §3):

1. **Deduplicate once** — specs are grouped by
   :meth:`~repro.pts.base.TrajectorySpec.dedup_key` *before* scheduling,
   so a unique Kraus prescription is prepared exactly once globally, never
   once per device;
2. **Shard groups across devices** —
   :func:`~repro.execution.scheduler.greedy_by_cost` bins whole dedup
   groups over a device pool, with per-group costs from the
   :mod:`repro.devices.perf_model` timing constants (prep once + merged
   shot budget), so skewed shot budgets still balance;
3. **Stack within each device** — every shard runs as chunked
   ``(B, 2**n)`` stacks via the
   :class:`~repro.execution.vectorized.VectorizedExecutor` machinery —
   including its compiled :class:`~repro.execution.plan.FusedPlan`
   (resolved once per process; every chunk of every shard reuses it) —
   with the chunk row count sized *per device* from its memory capacity
   (:func:`~repro.devices.memory.statevector_bytes`) on top of the global
   dense budget and any user ``max_batch``.

Determinism: every trajectory samples from the stream derived from
``(seed, trajectory_id)`` and stacked preparation is bitwise identical to
serial preparation row by row, so the resulting ``ShotTable`` is bitwise
identical to the ``"serial"`` and ``"vectorized"`` strategies for *any*
device count, shard assignment, or per-device ``max_batch`` — verified in
``tests/test_sharded.py``.

Devices are emulated by default (shards run sequentially in-process,
standing in for GPUs); ``num_workers > 1`` fans shards over OS processes
like :class:`~repro.execution.parallel.ParallelExecutor` does, with the
same result ordering guarantees.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.devices.device import Device, DeviceMesh
from repro.devices.memory import statevector_bytes
from repro.devices.perf_model import BackendTimings, PAPER_STATEVECTOR_TIMINGS
from repro.errors import CapacityError, ExecutionError, FaultError
from repro.execution.batched import BackendSpec, backend_config
from repro.linalg.apply import MAX_VIEW_QUBITS
from repro.execution.driver import open_run
from repro.execution.scheduler import Scheduler
from repro.execution.streaming import (
    OrderedDelivery,
    PoolJob,
    StreamedResult,
    StreamingExecutor,
    handle_failure,
    stream_pool,
)
from repro.execution.vectorized import VectorizedExecutor
from repro.faults.plan import maybe_inject
from repro.faults.retry import FaultContext, RecoveryEvent, describe_exception
from repro.pts.base import SpecGroup, TrajectorySpec, deduplicate_specs

__all__ = ["ShardedExecutor"]

#: Memory headroom per stacked row with only the reshape-view kernels in
#: play (every operator <= 3 qubits, the tiers of ``repro.linalg.apply``):
#: dense operators write into a fresh output buffer
#: (``out = xp.empty_like(view)``), so peak usage is ~2x the resident
#: ``(B, 2**n)`` stack.  The dedicated k=3 view tier is what moved fused
#: 3-qubit windows and the native ``ccx`` under this cheaper bound —
#: directly enlarging per-device shard capacity.
_WORKSPACE_FACTOR_DENSE = 2

#: Headroom once any operator can span >= 4 qubits — a fused window under
#: a resolved window cap of 4 (the width-aware auto-cap on >= 12 qubit
#: circuits) or a native >= 4-qubit gate: such operators take the
#: moveaxis + batched-GEMM path (``repro.linalg.apply.apply_gemm_stack``),
#: whose peak holds the resident stack, the contiguous gathered input,
#: *and* the GEMM output simultaneously — ~3x the stack, not 2x.
_WORKSPACE_FACTOR_GEMM = 3


class _MeasuredCosts:
    """Running totals of observed per-group prep/sample wall times.

    The trajectory results already carry measured ``prep_seconds`` (only
    the first spec of a dedup group is charged) and ``sample_seconds``;
    accumulating them across runs yields empirical per-preparation and
    per-shot constants that replace the analytic perf-model ratio in the
    scheduler's cost function once :attr:`Config.measured_cost_feedback`
    is on.  Scheduling never changes results — only how well the bins
    balance — so the feedback is purely a makespan refinement.
    """

    __slots__ = ("prep_seconds", "num_preps", "sample_seconds", "num_shots")

    def __init__(self):
        self.prep_seconds = 0.0
        self.num_preps = 0
        self.sample_seconds = 0.0
        self.num_shots = 0

    def observe(self, trajectories) -> None:
        for t in trajectories:
            if t.prep_seconds > 0.0:
                self.prep_seconds += t.prep_seconds
                self.num_preps += 1
            self.sample_seconds += t.sample_seconds
            self.num_shots += t.num_shots

    def timings(self, like: BackendTimings) -> Optional[BackendTimings]:
        """Empirical :class:`BackendTimings`, or ``None`` before any data.

        Requires at least one observed preparation *and* one observed
        shot so both constants are grounded; device-count metadata is
        inherited from the analytic timings being refined.
        """
        if self.num_preps == 0 or self.num_shots == 0:
            return None
        return BackendTimings(
            prep_seconds=self.prep_seconds / self.num_preps,
            shot_seconds=self.sample_seconds / self.num_shots,
            ref_devices=like.ref_devices,
            scaling_efficiency=like.scaling_efficiency,
        )


def _shard_worker(args):
    """Top-level worker (must be module-level for pickling).

    Receives one device shard as ``(global_index, spec)`` pairs and runs
    it as chunked trajectory stacks; returns ``(tagged, recovery)`` —
    results tagged with their global spec positions so the caller can
    restore exact spec order, plus any recovery events the inner
    vectorized run performed (its capacity ladder and chunk retries run
    *inside* the worker, under the plan carried by the backend config).

    The trailing ``(unit, attempt, plan)`` payload element is the
    shard-level fault hook: it fires here, inside the worker, so an
    injected shard crash reaches the parent like a real device death.
    """
    circuit, backend_spec, indexed_specs, chunk_rows, seed, fault = args
    unit, attempt, plan = fault
    maybe_inject(plan, unit, attempt, seed)
    indices = [i for i, _ in indexed_specs]
    specs = [s for _, s in indexed_specs]
    executor = VectorizedExecutor(backend_spec, max_batch=chunk_rows)
    result = executor.execute(circuit, specs, seed=seed)
    return list(zip(indices, result.trajectories)), result.recovery


class ShardedExecutor(StreamingExecutor):
    """Shard dedup groups across a device pool; stack within each shard.

    Parameters
    ----------
    backend:
        A :class:`BackendSpec` of kind ``"batched_statevector"`` or
        ``"statevector"`` (upgraded to the stacked backend), or a callable
        ``num_qubits -> backend`` — the same contract as
        :class:`VectorizedExecutor`.  A picklable :class:`BackendSpec` is
        required when ``num_workers > 1``.
    devices:
        The device pool: a :class:`~repro.devices.device.DeviceMesh`, an
        explicit sequence of :class:`~repro.devices.device.Device`, or an
        integer count of identical 80 GB emulated GPUs.  Unlike the
        distributed-statevector mesh, trajectory sharding has no
        power-of-two constraint.
    max_batch:
        Optional global upper bound on stacked rows per chunk; the
        effective per-device bound is ``min(max_batch, rows that fit the
        device's memory, the backend's dense amplitude budget)``.
    scheduler:
        A :class:`~repro.execution.scheduler.Scheduler` binning
        :class:`~repro.pts.base.SpecGroup` items.  Defaults to greedy
        longest-processing-time-first with costs from ``timings``.
    timings:
        :class:`~repro.devices.perf_model.BackendTimings` supplying the
        prep/shot cost constants for group scheduling (defaults to the
        paper-calibrated statevector timings — only the *ratio* matters
        for binning).
    num_workers:
        ``1`` (default) runs shards sequentially in-process (emulated
        devices); larger values fan shards over a process pool.
    sample_kwargs:
        Accepted for signature symmetry; must be empty (the stacked dense
        backend takes no sampling options).
    """

    def __init__(
        self,
        backend: Union[BackendSpec, Callable, None] = None,
        devices: Union[DeviceMesh, Sequence[Device], int] = 2,
        max_batch: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        timings: Optional[BackendTimings] = None,
        num_workers: int = 1,
        sample_kwargs: Optional[Dict] = None,
    ):
        if backend is None:
            backend = BackendSpec.batched_statevector()
        # Reuse the vectorized executor's backend validation up front so
        # misconfiguration fails at construction, not mid-run.
        VectorizedExecutor(backend, max_batch=max_batch or 64, sample_kwargs=sample_kwargs)
        self.backend = backend
        self.devices = self._normalize_devices(devices)
        if max_batch is not None and max_batch <= 0:
            raise ExecutionError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch
        self.timings = timings or PAPER_STATEVECTOR_TIMINGS
        self._observed = _MeasuredCosts()
        self.scheduler = scheduler or Scheduler("greedy", cost_fn=self._group_cost)
        if num_workers <= 0:
            raise ExecutionError(f"num_workers must be positive, got {num_workers}")
        if num_workers > 1 and not isinstance(backend, BackendSpec):
            raise ExecutionError(
                "ShardedExecutor with num_workers > 1 requires a picklable "
                "BackendSpec, not a callable backend factory"
            )
        self.num_workers = int(num_workers)

    @staticmethod
    def _normalize_devices(
        devices: Union[DeviceMesh, Sequence[Device], int]
    ) -> List[Device]:
        if isinstance(devices, DeviceMesh):
            return list(devices)
        if isinstance(devices, int):
            if devices <= 0:
                raise ExecutionError(f"devices must be positive, got {devices}")
            return [
                Device(device_id=i, memory_bytes=80 * 10**9, name=f"emulated[{i}]")
                for i in range(devices)
            ]
        pool = list(devices)
        if not pool:
            raise ExecutionError("device pool must not be empty")
        return pool

    def observed_timings(self) -> Optional[BackendTimings]:
        """Empirical prep/shot constants from completed runs (or ``None``).

        Populated as runs stream through this executor; consulted by the
        group cost function only when ``Config.measured_cost_feedback``
        is enabled on the backend config.
        """
        return self._observed.timings(self.timings)

    def _cost_timings(self) -> BackendTimings:
        """The timing constants scheduling uses for this executor.

        Analytic perf-model constants by default; once the backend config
        enables ``measured_cost_feedback`` *and* at least one run has
        completed, the measured per-group prep/sample averages take over —
        tightening makespan on pools whose real prep/shot ratio diverges
        from the paper-calibrated one.
        """
        if backend_config(self.backend).measured_cost_feedback:
            measured = self.observed_timings()
            if measured is not None:
                return measured
        return self.timings

    def _group_cost(self, group: SpecGroup) -> float:
        """Cost of one dedup group: prepare once, sample the merged budget."""
        timings = self._cost_timings()
        return timings.prep_seconds + group.total_shots * timings.shot_seconds

    def _workspace_factor(self, circuit: Circuit) -> int:
        """Per-row memory multiplier for chunk sizing.

        Any operator on >= 4 qubits takes the moveaxis+GEMM kernel in
        :mod:`repro.linalg.apply`, whose transient peaks at ~3x the
        resident stack (stack + contiguous gathered input + GEMM output);
        everything up to 3 qubits runs the reshape-view kernels — the
        dedicated k=3 tier included — whose only transient is a fresh
        output buffer (~2x).  Wide operators come from two sources: fused
        windows (possible whenever fusion is on and the resolved window
        cap exceeds 3 — e.g. the width-aware auto-cap of 4 on >= 12 qubit
        circuits) and the circuit's own native gates/channels (a 4-qubit
        gate hits the GEMM path with fusion off too), so both are
        inspected.
        """
        from repro.circuits.operations import GateOp, NoiseOp

        config = backend_config(self.backend)
        # Only operators applied as matrices count — a MeasureOp may span
        # every qubit but sampling never touches the GEMM kernel.
        widest = max(
            (
                len(op.qubits)
                for op in circuit
                if isinstance(op, (GateOp, NoiseOp))
            ),
            default=1,
        )
        if config.fusion != "off":
            # A fused window can never span more qubits than the circuit
            # has — don't charge a narrow circuit the GEMM headroom.
            widest = max(
                widest,
                min(
                    config.resolved_fusion_max_qubits(circuit.num_qubits),
                    circuit.num_qubits,
                ),
            )
        if widest > MAX_VIEW_QUBITS:
            return _WORKSPACE_FACTOR_GEMM
        return _WORKSPACE_FACTOR_DENSE

    def _device_chunk_rows(self, device: Device, circuit: Circuit) -> int:
        """Largest stack chunk this device's memory can hold (with the
        kernel's workspace transient accounted for — see
        :meth:`_workspace_factor`)."""
        num_qubits = circuit.num_qubits
        factor = self._workspace_factor(circuit)
        bytes_per_row = statevector_bytes(num_qubits, dtype=backend_config(self.backend).dtype)
        rows = device.memory_bytes // (factor * bytes_per_row)
        if rows < 1:
            raise CapacityError(
                f"device {device.name!r} ({device.memory_bytes} bytes) cannot hold "
                f"one 2**{num_qubits} statevector row plus kernel workspace "
                f"({factor} x {bytes_per_row} bytes)"
            )
        if self.max_batch is not None:
            rows = min(rows, self.max_batch)
        return int(rows)

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream each device shard's trajectories as the shard completes.

        With ``num_workers > 1`` shards finish in pool order; either way
        an :class:`~repro.execution.streaming.OrderedDelivery` buffer
        releases chunks in spec order, so concatenated streamed tables
        match :meth:`execute` bitwise.  Abandoning the stream cancels
        unstarted shards and shuts the pool down.  ``retain=False`` drops
        chunks after delivery (``finalize`` unavailable) to bound memory
        for pure-ingest consumers.

        Fault tolerance: each shard is one retryable unit
        (``sharded/shard:{device_id}``).  A crash-class failure marks the
        device dead and *rebins* its groups across the surviving devices
        (same greedy perf-model scheduling as the initial assignment;
        shard assignment never changes bits, so the degraded run stays
        bitwise identical).  When the last device dies, a
        :class:`~repro.errors.FaultError` escalates with the full chain.
        """
        measured, streams = open_run(circuit, specs, seed)
        ctx = FaultContext.from_config(
            backend_config(self.backend), streams.seed, strategy="sharded"
        )
        events: List[RecoveryEvent] = []
        groups = deduplicate_specs(specs)
        assignment = self.scheduler.assign(groups, len(self.devices))

        def make_job(
            device: Device, shard_groups: List[SpecGroup], unit: str
        ) -> PoolJob:
            # Keep first-occurrence order within the shard so its local
            # dedup reproduces exactly these groups.
            indices = sorted(i for g in shard_groups for i in g.indices)
            indexed = [(i, specs[i]) for i in indices]
            chunk_rows = self._device_chunk_rows(device, circuit)

            def tag(result):
                tagged, inner_events = result
                # Inner events carry the worker-local unit names
                # (vectorized/stack:a:b); prefix the shard so the run's
                # recovery log says *where* each inner recovery happened.
                events.extend(
                    dataclasses.replace(e, unit=f"{unit}/{e.unit}")
                    for e in inner_events
                )
                return tagged

            return PoolJob(
                unit=unit,
                payload_for=lambda attempt: (
                    circuit,
                    self.backend,
                    indexed,
                    chunk_rows,
                    streams.seed,
                    (unit, attempt, ctx.plan),
                ),
                tag=tag,
                meta=(device, shard_groups),
            )

        jobs = [
            make_job(device, shard_groups, f"sharded/shard:{device.device_id}")
            for device, shard_groups in zip(self.devices, assignment.per_device)
            if shard_groups
        ]

        dead: set = set()
        generation = [0]

        def rebin(job: PoolJob, exc: BaseException) -> List[PoolJob]:
            """Degradation ladder: redistribute a dead device's groups.

            The rebin reuses the executor's own scheduler (greedy by
            perf-model cost) over the surviving devices; because the
            bitwise cross-strategy contract holds for *any* shard
            assignment, the degraded run's shots are unchanged.
            """
            device, shard_groups = job.meta
            dead.add(device.device_id)
            survivors = [d for d in self.devices if d.device_id not in dead]
            if not survivors:
                raise FaultError(
                    f"device {device.name!r} died ({describe_exception(exc)}) "
                    f"and no devices survive to absorb its "
                    f"{len(shard_groups)} group(s)",
                    unit=job.unit,
                    attempts=1,
                ) from exc
            generation[0] += 1
            events.append(
                RecoveryEvent(
                    kind="rebin",
                    strategy="sharded",
                    unit=job.unit,
                    attempt=0,
                    error=describe_exception(exc),
                    detail=(
                        f"{len(shard_groups)} group(s) rebinned across "
                        f"{len(survivors)} surviving device(s)"
                    ),
                )
            )
            sub_assignment = self.scheduler.assign(shard_groups, len(survivors))
            return [
                make_job(
                    survivor,
                    sub_groups,
                    f"sharded/shard:{survivor.device_id}/rebin:{generation[0]}",
                )
                for survivor, sub_groups in zip(survivors, sub_assignment.per_device)
                if sub_groups
            ]

        def deliver():
            delivery = OrderedDelivery(len(specs))
            if self.num_workers > 1 and len(jobs) > 1:
                # Shard workers already tag results with global spec
                # positions; the pool helper handles completion order,
                # retry/rebin, and abandonment cleanup.
                for ready in stream_pool(
                    jobs,
                    _shard_worker,
                    delivery,
                    self.num_workers,
                    ctx=ctx,
                    recovery=events,
                    on_crash=rebin,
                ):
                    self._observed.observe(ready)
                    yield ready
                return
            # In-process path (emulated devices): the same retry/rebin
            # ladder as the pool, minus the pool-substrate concerns.
            queue = deque((job, 0) for job in jobs)
            while queue:
                job, attempt = queue.popleft()
                try:
                    result = _shard_worker(job.payload_for(attempt))
                except ctx.policy.retryable as exc:
                    queue.extend(handle_failure(job, attempt, exc, ctx, events, rebin))
                    continue
                ready = delivery.add(job.tag(result), reissue=attempt > 0)
                if ready:
                    self._observed.observe(ready)
                    yield ready

        return StreamedResult(
            deliver(),
            measured_qubits=measured,
            seed=streams.seed,
            total_trajectories=len(specs),
            unique_preparations=len(groups),
            engine="sharded",
            retain=retain,
            recovery=events,
        )
