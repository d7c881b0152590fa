"""Trajectory-stacked dense execution.

``strategy="vectorized"`` (and ``"sharded"``, the same executor under
another name, with no ``max_batch`` by default):

1. **Deduplicate** — the driver groups the equal rows of the run's
   trajectory table (:func:`~repro.pts.base.deduplicate_specs`) before
   any work is handed out, so a unique Kraus prescription is prepared
   exactly once and its duplicates' shot budgets are served from the same
   stacked row;
2. **Compile** — the circuit's :class:`~repro.execution.plan.FusedPlan`
   is resolved once up front (fused gate/noise windows) and shared by
   every unit, so B trajectories with the same Kraus prescription pay
   window compilation once;
3. **Stack** — each unit of unique trajectories becomes one
   ``(B, 2**n)`` stack on a
   :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`,
   prepared with one plan walk: each step is one kernel call over the
   rows that have joined by it, each row under its own Kraus variant, and
   rows that took the same variants up to a step share the walk there
   (the driver hands this engine its groups in trie order, inside sort
   windows of ``sort_bytes``).  ``B`` is ``min(max_batch, the backend's
   dense amplitude budget)``;
4. **Bulk-sample** — every spec draws its full shot budget from the
   stack-wide cached cumulative tensor with the stream derived from
   ``(seed, trajectory_id)``.

Steps 1 and 4 are the shared :func:`repro.execution.driver.drive` loop
(which also owns the task queue, retry, the
``CapacityError`` halving ladder and ordered delivery); this module
supplies steps 2 and 3 as an :class:`~repro.execution.driver.Engine`
adapter.

Because the serial backend *is* this stack at one row (every kernel and
reduction is row-independent), and sampling uses the exact same
per-trajectory Philox streams, the ``ShotTable`` is bitwise identical to a serial
``BatchedExecutor`` run with the same seed for *any* ``max_batch`` —
verified in ``tests/test_vectorized.py``,
``tests/test_sharded.py`` and ``tests/test_driver.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.circuits.circuit import Circuit
from repro.errors import ExecutionError
from repro.execution.batched import DENSE_KINDS, BackendSpec, check_backend
from repro.execution.driver import StreamingExecutor, timed
from repro.execution.plan import get_fused_plan

__all__ = ["VectorizedExecutor"]


class VectorizedExecutor(StreamingExecutor):
    """Execute trajectory specs as ``(B, 2**n)`` stacks.

    Parameters
    ----------
    backend:
        A :class:`BackendSpec` of kind ``"batched_statevector"`` or
        ``"statevector"`` (the latter is upgraded to the stacked backend
        with the same options).
    max_batch:
        Upper bound on stacked rows per prepared unit (``None``: no bound
        of its own).  The rows of a unit are ``min(max_batch, the
        backend's dense amplitude budget)``.  Stacked preparation is
        bitwise identical to serial preparation row by row, so the shot
        table is the same for any ``max_batch``.
    """

    strategy = "vectorized"

    def __init__(
        self,
        backend: BackendSpec = BackendSpec.batched_statevector(),
        max_batch: Optional[int] = 64,
    ):
        self.backend = check_backend(type(self).__name__, backend, DENSE_KINDS)
        if max_batch is not None and max_batch <= 0:
            raise ExecutionError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch

    def _engine(self, circuit: Circuit) -> "_StackEngine":
        backend = BatchedStatevectorBackend(circuit.num_qubits, **dict(self.backend.options))
        # The one row-sizing rule: the built backend's own amplitude
        # budget, tightened by max_batch.
        rows = backend.max_batch_rows
        if self.max_batch is not None:
            rows = min(rows, self.max_batch)
        return _StackEngine(self.strategy, backend, circuit, int(rows))


class _StackEngine:
    """:class:`~repro.execution.driver.Engine` over one ``(B, 2**n)``
    stacked backend: a unit is one ``run_fixed_stack`` walk, and every row
    samples from the stack-wide cached cumulative tensor."""

    max_unit_shots = None
    coupled_rows = False
    # Measured with the look-ahead always on (stack_many_12q, 2-core host):
    # 0.97-0.98x shots/s, peak RSS +20 % and first chunk +10 %.
    lookahead_shots = None

    def __init__(
        self, name: str, backend: BatchedStatevectorBackend, circuit: Circuit, max_rows: int
    ):
        self.name = name
        self.backend = backend
        self.circuit = circuit.freeze()
        self.measured = tuple(circuit.measured_qubits)
        self.max_rows = max_rows
        self.config = backend.config
        # Rows that agree on a prefix share its walk, so the driver sorts
        # them, in windows of whole units whose shots' bits fit one stack.
        itemsize = np.dtype(self.config.dtype).itemsize
        self.sort_bytes = max_rows * 2**backend.num_qubits * itemsize
        # Resolve (and memoize) the fused plan up front; every unit's
        # run_fixed_stack call hits the plan cache.
        _, self.compile_seconds = timed(get_fused_plan, circuit, self.config)

    def share(self, table, peer) -> None:
        """Units share nothing on this engine."""

    def prepare(self, table, sizes):
        weights, alive = self.backend.run_fixed_stack(self.circuit, table)
        self.backend.cumulative_stack(sizes)  # the draw tables
        return weights * alive  # host (B,) vectors; a dead row reads 0.0

    def sample(self, requests):
        return self.backend.sample(requests, self.measured)

    def release(self) -> None:
        self.backend.release()
