"""Device-pool trajectory-stacked execution (the fourth BE strategy).

The paper's two parallel axes composed in one engine ("the calculation
process trivially scales to arbitrarily many GPUs", §3):
``strategy="sharded"`` is the stacked ``(B, 2**n)`` engine of
:mod:`repro.execution.vectorized` run through
:func:`repro.execution.driver.drive` with ``workers=num_workers``, its
stack sized to the device pool:

1. **Deduplicate once** — the driver groups specs by
   :meth:`~repro.pts.base.TrajectorySpec.dedup_key` *before* any work is
   handed out, so a unique Kraus prescription is prepared exactly once
   globally, never once per worker;
2. **Size the stack to the pool** — the row count of one prepared unit
   is what the *smallest* device can hold
   (:func:`~repro.devices.memory.statevector_bytes` times the kernel
   tier's workspace factor), on top of the dense amplitude budget and
   any user ``max_batch``, so a unit fits whichever device picks it up;
3. **Hand units to whoever is free** — the driver's task queue replaces
   a static assignment: a worker that finishes early takes the next
   range, and a worker that dies has its range resubmitted.

Determinism: every trajectory samples from the stream derived from
``(seed, trajectory_id)`` and stacked preparation is bitwise identical to
serial preparation row by row, so the resulting ``ShotTable`` is bitwise
identical to the ``"serial"`` and ``"vectorized"`` strategies for *any*
device pool, worker count, or ``max_batch`` — verified in
``tests/test_sharded.py`` and ``tests/test_driver.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.circuits.circuit import Circuit
from repro.devices.device import Device, DeviceMesh
from repro.devices.memory import statevector_bytes
from repro.errors import CapacityError, ExecutionError
from repro.execution.batched import BackendSpec, backend_config
from repro.execution.driver import drive
from repro.execution.streaming import StreamedResult, StreamingExecutor
from repro.execution.vectorized import VectorizedExecutor, _StackEngine
from repro.linalg.apply import MAX_VIEW_QUBITS
from repro.pts.base import TrajectorySpec

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


class _ShardEngine(_StackEngine):
    name = "sharded"


class ShardedExecutor(StreamingExecutor):
    """Stacked execution sized to a device pool, on ``num_workers`` processes.

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
        Optional upper bound on stacked rows per prepared unit; the
        effective bound is ``min(max_batch, rows that fit the smallest
        device's memory, the backend's dense amplitude budget)``.
    num_workers:
        ``1`` (default) runs every unit in-process (emulated devices);
        larger values hand units to a process pool of that size.
    sample_kwargs:
        Accepted for signature symmetry; must be empty (the stacked dense
        backend takes no sampling options).
    """

    def __init__(
        self,
        backend: Union[BackendSpec, Callable, None] = None,
        devices: Union[DeviceMesh, Sequence[Device], int] = 2,
        max_batch: Optional[int] = None,
        num_workers: int = 1,
        sample_kwargs: Optional[Dict] = None,
    ):
        if backend is None:
            backend = BackendSpec.batched_statevector()
        # Reuse the vectorized executor's backend validation up front so
        # misconfiguration fails at construction, not mid-run.
        self._stacked = VectorizedExecutor(
            backend, max_batch=max_batch or 64, sample_kwargs=sample_kwargs
        )
        self.backend = backend
        self.devices = self._normalize_devices(devices)
        if max_batch is not None and max_batch <= 0:
            raise ExecutionError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch
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

    def _engine(self, circuit: Circuit) -> _ShardEngine:
        """The engine recipe: runs here and once in every worker process."""
        rows = min(self._device_chunk_rows(device, circuit) for device in self.devices)
        return _ShardEngine(self._stacked._make_backend(circuit.num_qubits), circuit, rows)

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream each unit's trajectories as it completes, in spec order.

        With ``num_workers > 1`` units finish in pool order; either way
        the driver's reorder buffer releases chunks in spec order, so
        concatenated streamed tables match :meth:`execute` bitwise.
        Abandoning the stream cancels unstarted units and shuts the pool
        down.  ``retain=False`` drops chunks after delivery (``finalize``
        unavailable) to bound memory for pure-ingest consumers.
        """
        return drive(
            partial(self._engine, circuit), circuit, specs, seed, retain,
            workers=self.num_workers,
        )
