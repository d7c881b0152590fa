"""Trajectory-stacked dense execution, sized to a device pool.

``strategy="vectorized"`` (and its alias ``"sharded"``):

1. **Deduplicate** — the driver groups specs by
   :meth:`~repro.pts.base.TrajectorySpec.dedup_key` before any work is
   handed out, so a unique Kraus prescription is prepared exactly once
   globally (never once per worker) and its duplicates' shot budgets are
   served from the same stacked row;
2. **Compile** — the circuit's :class:`~repro.execution.plan.FusedPlan`
   is resolved once up front (fused gate/noise windows under
   ``Config.fusion="auto"``, one step per op under ``"off"``) and shared
   by every unit, so B trajectories with the same Kraus prescription pay
   window compilation once;
3. **Stack** — each unit of unique trajectories becomes one
   ``(B, 2**n)`` stack on a
   :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`,
   prepared with one plan walk (shared windows hit all rows in a single
   broadcast kernel, divergent Kraus variants hit row sub-slices).  ``B``
   is ``min(max_batch, the backend's dense amplitude budget, rows the
   smallest device of the pool holds)``, so a unit fits whichever worker
   picks it up;
4. **Bulk-sample** — every spec draws its full shot budget from the
   stack-wide cached cumulative tensor with the stream derived from
   ``(seed, trajectory_id)``.

Steps 1 and 4 are the shared :func:`repro.execution.driver.drive` loop
(which also owns the ``num_workers`` task queue, retry, the
``CapacityError`` halving ladder and ordered delivery); this module
supplies steps 2 and 3 as an :class:`~repro.execution.driver.Engine`
adapter.

Because the per-row arithmetic deliberately mirrors the serial backend
operation-for-operation, and sampling uses the exact same per-trajectory
Philox streams, the ``ShotTable`` is bitwise identical to a serial
``BatchedExecutor`` run with the same seed for *any* device pool, worker
count or ``max_batch`` — verified in ``tests/test_vectorized.py``,
``tests/test_sharded.py`` and ``tests/test_driver.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, NoiseOp
from repro.config import DEFAULT_CONFIG, Config
from repro.devices.device import Device, DeviceMesh
from repro.devices.memory import statevector_bytes
from repro.errors import CapacityError, ExecutionError
from repro.execution.batched import BackendSpec, check_workers
from repro.execution.driver import StreamingExecutor, timed
from repro.execution.plan import get_fused_plan
from repro.linalg.apply import MAX_VIEW_QUBITS

__all__ = ["VectorizedExecutor", "ShardedExecutor"]

Devices = Union[DeviceMesh, Sequence[Device], int]


class VectorizedExecutor(StreamingExecutor):
    """Execute trajectory specs as ``(B, 2**n)`` stacks.

    Parameters
    ----------
    backend:
        A :class:`BackendSpec` of kind ``"batched_statevector"`` or
        ``"statevector"`` (the latter is upgraded to the stacked backend
        with the same options), or a callable ``num_qubits -> backend``
        returning a :class:`BatchedStatevectorBackend`-compatible object.
    max_batch:
        Upper bound on stacked rows per prepared unit (``None``: no bound
        of its own).  The rows of a unit are ``min(max_batch, the
        backend's dense amplitude budget, rows the smallest device
        holds)``.
    sample_kwargs:
        Accepted for signature symmetry with the other executors, but the
        stacked dense backend takes no sampling options — a non-empty
        value is rejected up front rather than crashing mid-run.
    devices:
        The device pool a unit must fit: a
        :class:`~repro.devices.device.DeviceMesh`, an explicit sequence
        of :class:`~repro.devices.device.Device`, or an integer count of
        identical 80 GB emulated GPUs (no power-of-two constraint).  A
        unit is sized to the *smallest* device —
        :func:`~repro.devices.memory.statevector_bytes` per row times the
        kernel tier's workspace factor — so it fits whichever worker
        picks it up.  ``None`` (default): no device bound.
    num_workers:
        ``1`` (default) runs every unit in this process; larger values
        hand tasks to a process pool of that size, which needs a
        picklable :class:`BackendSpec`.  Stacked preparation is bitwise
        identical to serial preparation row by row, so the shot table is
        the same for any device pool, worker count or ``max_batch``.
    """

    strategy = "vectorized"

    def __init__(
        self,
        backend: Union[BackendSpec, Callable[[int], BatchedStatevectorBackend], None] = None,
        max_batch: Optional[int] = 64,
        sample_kwargs: Optional[Dict] = None,
        devices: Optional[Devices] = None,
        num_workers: int = 1,
    ):
        if backend is None:
            backend = BackendSpec.batched_statevector()
        name = type(self).__name__
        if isinstance(backend, BackendSpec) and backend.kind not in (
            "statevector",
            "batched_statevector",
        ):
            raise ExecutionError(
                f"{name} supports dense statevector stacks only, "
                f"not backend kind {backend.kind!r}"
            )
        if max_batch is not None and max_batch <= 0:
            raise ExecutionError(f"max_batch must be positive, got {max_batch}")
        if sample_kwargs:
            raise ExecutionError(
                f"{name}'s stacked statevector backend takes no "
                f"sample options, got sample_kwargs={dict(sample_kwargs)!r}"
            )
        self.backend = backend
        self.max_batch = max_batch
        self.devices = _device_pool(devices)
        self.num_workers = check_workers(self, num_workers, backend)

    def _engine(self, circuit: Circuit) -> "_StackEngine":
        if isinstance(self.backend, BackendSpec):
            backend = BatchedStatevectorBackend(
                circuit.num_qubits, **dict(self.backend.options)
            )
        else:
            backend = self.backend(circuit.num_qubits)
            if not hasattr(backend, "run_fixed_stack"):
                raise ExecutionError(
                    f"backend factory returned {type(backend).__name__}, which lacks "
                    "run_fixed_stack; VectorizedExecutor needs a stacked backend"
                )
        # The one row-sizing rule.  Bytes and workspace come from the
        # config the built backend runs under, not from the recipe's.
        rows = [backend.max_batch_rows]
        if self.max_batch is not None:
            rows.append(self.max_batch)
        if self.devices:
            config = getattr(backend, "config", None) or DEFAULT_CONFIG
            factor = _workspace_factor(circuit, config)
            row_bytes = statevector_bytes(circuit.num_qubits, dtype=config.dtype)
            smallest = min(self.devices, key=lambda device: device.memory_bytes)
            if smallest.memory_bytes < factor * row_bytes:
                raise CapacityError(
                    f"device {smallest.name!r} ({smallest.memory_bytes} bytes) cannot "
                    f"hold one 2**{circuit.num_qubits} statevector row plus kernel "
                    f"workspace ({factor} x {row_bytes} bytes)"
                )
            rows.append(smallest.memory_bytes // (factor * row_bytes))
        return _StackEngine(self.strategy, backend, circuit, int(min(rows)))


class ShardedExecutor(VectorizedExecutor):
    """``VectorizedExecutor`` under the name ``"sharded"``, sized to two
    emulated devices and to no ``max_batch`` by default.  Kept as an alias
    so seeds, fault sites (``sharded/stack:*``) and user code replay
    unchanged."""

    strategy = "sharded"

    def __init__(
        self,
        backend: Union[BackendSpec, Callable, None] = None,
        devices: Devices = 2,
        max_batch: Optional[int] = None,
        num_workers: int = 1,
        sample_kwargs: Optional[Dict] = None,
    ):
        super().__init__(
            backend, max_batch=max_batch, sample_kwargs=sample_kwargs,
            devices=devices, num_workers=num_workers,
        )


def _device_pool(devices: Optional[Devices]) -> List[Device]:
    if devices is None:
        return []
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


def _workspace_factor(circuit: Circuit, config: Config) -> int:
    """Peak bytes of a stacked kernel pass, in units of the resident stack.

    Operators on up to :data:`~repro.linalg.apply.MAX_VIEW_QUBITS` qubits
    run the reshape-view kernels of :mod:`repro.linalg.apply` — the
    dedicated k=3 tier included — whose only transient is a fresh output
    buffer: 2x.  Anything wider takes the moveaxis + batched-GEMM path,
    whose peak holds the stack, the contiguous gathered input *and* the
    GEMM output: 3x.  Wide operators come from the circuit's own gates and
    channels (fusion on or off; a ``MeasureOp`` spans every qubit but is
    never applied as a matrix) and from fused windows, which reach the
    resolved window cap but never past the circuit's width.
    """
    widest = max(
        (len(op.qubits) for op in circuit if isinstance(op, (GateOp, NoiseOp))),
        default=1,
    )
    if config.fusion != "off":
        cap = config.resolved_fusion_max_qubits(circuit.num_qubits)
        widest = max(widest, min(cap, circuit.num_qubits))
    return 3 if widest > MAX_VIEW_QUBITS else 2


class _StackEngine:
    """:class:`~repro.execution.driver.Engine` over one ``(B, 2**n)``
    stacked backend: a unit is one ``run_fixed_stack`` walk, and every row
    samples from the stack-wide cached cumulative tensor."""

    max_unit_shots = None

    def __init__(
        self, name: str, backend: BatchedStatevectorBackend, circuit: Circuit, max_rows: int
    ):
        self.name = name
        self.backend = backend
        self.circuit = circuit.freeze()
        self.measured = tuple(circuit.measured_qubits)
        self.max_rows = max_rows
        # A factory's backend may carry no config (and walk no fused plan).
        self.config: Optional[Config] = getattr(backend, "config", None)
        self.compile_seconds = 0.0
        if self.config is not None:
            # Resolve (and memoize) the fused plan up front; every unit's
            # run_fixed_stack call hits the plan cache.
            _, self.compile_seconds = timed(get_fused_plan, circuit, self.config)

    def prepare(self, choices_list):
        weights, alive = self.backend.run_fixed_stack(self.circuit, choices_list)
        return weights * alive  # host (B,) vectors; a dead row reads 0.0

    def sample(self, requests):
        return [self.backend.sample(row, n, self.measured, rng) for row, n, rng in requests]

    def release(self) -> None:
        release = getattr(self.backend, "release", None)
        if release is not None:
            release()
