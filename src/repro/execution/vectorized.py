"""Vectorized trajectory-stacked execution.

The third execution strategy, alongside the serial
:class:`~repro.execution.batched.BatchedExecutor` and the process-pool
:class:`~repro.execution.parallel.ParallelExecutor`:

1. **Deduplicate** — specs are grouped by
   :meth:`~repro.pts.base.TrajectorySpec.dedup_key` so identical Kraus
   prescriptions are prepared exactly once (their shot budgets are served
   from the same stacked row);
2. **Compile** — the circuit's :class:`~repro.execution.plan.FusedPlan`
   is resolved once up front (fused gate/noise windows under
   ``Config.fusion="auto"``, one step per op under ``"off"``) and shared
   by every chunk, so B trajectories with the same Kraus prescription pay
   window compilation once;
3. **Stack** — each chunk of unique trajectories becomes one
   ``(B, 2**n)`` stack on a
   :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`,
   prepared with one plan walk (shared windows hit all rows in a single
   broadcast kernel, divergent Kraus variants hit row sub-slices);
4. **Bulk-sample** — every spec draws its full shot budget from the
   stack-wide cached cumulative tensor with the stream derived from
   ``(seed, trajectory_id)``.

Steps 1 and 4 are the shared :func:`repro.execution.driver.drive` loop
(which also owns retry, the ``CapacityError`` halving ladder and ordered
delivery); this module supplies steps 2 and 3 as an
:class:`~repro.execution.driver.Engine` adapter.

Because the per-row arithmetic deliberately mirrors the serial backend
operation-for-operation, and sampling uses the exact same per-trajectory
Philox streams, a vectorized run is *shot-for-shot identical* to a serial
``BatchedExecutor`` run with the same seed — the same determinism
contract :mod:`repro.execution.parallel` upholds, verified in
``tests/test_vectorized.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.circuits.circuit import Circuit
from repro.config import Config
from repro.errors import ExecutionError
from repro.execution.batched import BackendSpec
from repro.execution.driver import drive, timed
from repro.execution.plan import get_fused_plan
from repro.execution.streaming import StreamedResult, StreamingExecutor
from repro.pts.base import TrajectorySpec

__all__ = ["VectorizedExecutor"]


class VectorizedExecutor(StreamingExecutor):
    """Execute trajectory specs as stacked tensors on one process.

    Parameters
    ----------
    backend:
        A :class:`BackendSpec` of kind ``"batched_statevector"`` or
        ``"statevector"`` (the latter is upgraded to the stacked backend
        with the same options), or a callable ``num_qubits -> backend``
        returning a :class:`BatchedStatevectorBackend`-compatible object.
    max_batch:
        Upper bound on stacked rows per preparation chunk; the effective
        bound also respects the backend's dense amplitude budget.
    sample_kwargs:
        Accepted for signature symmetry with the other executors, but the
        stacked dense backend takes no sampling options — a non-empty
        value is rejected up front rather than crashing mid-run.
    """

    def __init__(
        self,
        backend: Union[BackendSpec, Callable[[int], BatchedStatevectorBackend], None] = None,
        max_batch: int = 64,
        sample_kwargs: Optional[Dict] = None,
    ):
        if backend is None:
            backend = BackendSpec.batched_statevector()
        if isinstance(backend, BackendSpec) and backend.kind not in (
            "statevector",
            "batched_statevector",
        ):
            raise ExecutionError(
                f"VectorizedExecutor supports dense statevector stacks only, "
                f"not backend kind {backend.kind!r}"
            )
        if max_batch <= 0:
            raise ExecutionError(f"max_batch must be positive, got {max_batch}")
        if sample_kwargs:
            raise ExecutionError(
                "VectorizedExecutor's stacked statevector backend takes no "
                f"sample options, got sample_kwargs={dict(sample_kwargs)!r}"
            )
        self.backend = backend
        self.max_batch = int(max_batch)

    def _make_backend(self, num_qubits: int) -> BatchedStatevectorBackend:
        if isinstance(self.backend, BackendSpec):
            opts = dict(self.backend.options)
            return BatchedStatevectorBackend(num_qubits, **opts)
        backend = self.backend(num_qubits)
        if not hasattr(backend, "run_fixed_stack"):
            raise ExecutionError(
                f"backend factory returned {type(backend).__name__}, which lacks "
                "run_fixed_stack; VectorizedExecutor needs a stacked backend"
            )
        return backend

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream each ``(B, 2**n)`` stack's trajectories as it completes.

        Chunks are released in spec order (an
        :class:`~repro.execution.streaming.OrderedDelivery` buffer holds
        back specs whose dedup group lands in a later stack), so
        concatenated streamed tables match :meth:`execute` bitwise.
        Abandoning the stream releases the backend's stack and sampling
        caches (device buffers under CuPy).  ``retain=False`` drops
        chunks after delivery (``finalize`` unavailable) to bound memory
        for pure-ingest consumers.
        """
        engine = _StackEngine(
            self._make_backend(circuit.num_qubits), circuit, self.max_batch
        )
        return drive(lambda: engine, circuit, specs, seed, retain)


class _StackEngine:
    """:class:`~repro.execution.driver.Engine` over one ``(B, 2**n)``
    stacked backend: a unit is one ``run_fixed_stack`` walk, and every row
    samples from the stack-wide cached cumulative tensor."""

    name = "vectorized"

    def __init__(
        self, backend: BatchedStatevectorBackend, circuit: Circuit, max_batch: int
    ):
        self.backend = backend
        self.circuit = circuit.freeze()
        self.measured = tuple(circuit.measured_qubits)
        self.max_rows = min(max_batch, backend.max_batch_rows)
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
