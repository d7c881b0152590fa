"""Inter-trajectory parallelism over worker processes.

The paper's inter-trajectory axis: "the preparation and sampling of
different trajectories is embarrassingly parallel, the calculation process
trivially scales to arbitrarily many GPUs."  Here workers are OS processes
standing in for GPUs: ``strategy="parallel"`` is the serial
per-trajectory engine of :mod:`repro.execution.batched` run through
:func:`repro.execution.driver.drive` with ``workers=num_workers``.  The
driver owns everything about the fan-out — task sizing, the bounded
in-flight window, retry, ordered delivery, pool shutdown — so this module
is a constructor and an engine recipe.

Determinism: every trajectory derives its RNG stream from
``(seed, trajectory_id)`` (see :mod:`repro.rng`), so a parallel run is
shot-for-shot identical to the serial run whatever the worker count —
verified in ``tests/test_driver.py``.  An unseeded run resolves one root
seed *before* fan-out, so every worker derives from the same stream tree
(and the resolved value is recorded on the result for exact replay).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence

from repro.circuits.circuit import Circuit
from repro.errors import ExecutionError
from repro.execution.batched import BackendSpec, _SerialEngine, backend_config
from repro.execution.driver import drive
from repro.execution.streaming import StreamedResult, StreamingExecutor
from repro.pts.base import TrajectorySpec

__all__ = ["ParallelExecutor"]


class _ParallelEngine(_SerialEngine):
    name = "parallel"


class ParallelExecutor(StreamingExecutor):
    """Fan trajectory specs out over a process pool."""

    def __init__(
        self,
        backend: BackendSpec = BackendSpec(),
        num_workers: int = 2,
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
        self.sample_kwargs = dict(sample_kwargs or {})

    def _engine(self, circuit: Circuit) -> _ParallelEngine:
        """The engine recipe: runs here and once in every worker process."""
        return _ParallelEngine(
            self.backend.create(circuit.num_qubits),
            circuit,
            self.sample_kwargs,
            backend_config(self.backend),
        )

    def execute_stream(
        self,
        circuit: Circuit,
        specs: Sequence[TrajectorySpec],
        seed: Optional[int] = None,
        retain: bool = True,
    ) -> StreamedResult:
        """Stream tasks as the workers complete them, in spec order.

        The first chunk arrives when the task holding the first specs
        finishes, not when the pool drains.  Abandoning the stream
        cancels unstarted tasks and shuts the pool down.
        ``retain=False`` drops chunks after delivery (``finalize``
        unavailable) to bound memory for pure-ingest consumers.
        """
        return drive(
            partial(self._engine, circuit), circuit, specs, seed, retain,
            workers=self.num_workers,
        )
