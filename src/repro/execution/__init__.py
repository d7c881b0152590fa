"""Batched execution (BE): realizing PTS trajectory specs efficiently.

Every strategy prepares each prescribed noisy state exactly once and draws
its full shot batch in bulk.  That loop exists once —
:func:`repro.execution.driver.drive`, reached through the one
``execute_stream`` of :class:`~repro.execution.driver.StreamingExecutor` —
over four executors, each a constructor plus an
:class:`~repro.execution.driver.Engine` recipe: ``serial``
(:mod:`~repro.execution.batched`), ``vectorized`` ``(B, 2**n)`` stacks
(:mod:`~repro.execution.vectorized`), ``clifford`` Pauli frames
(:mod:`~repro.execution.clifford`) and ``tensornet`` trajectory-stacked
MPS (:mod:`~repro.execution.tensornet`), all in this process.
``max_batch`` (the stacked executors) is a constructor parameter;
``parallel`` and ``sharded`` are ``serial`` and ``vectorized`` under
another name, differing in defaults only.  The name → (class, defaults)
table is :data:`~repro.execution.batched.STRATEGIES`, built by
:func:`~repro.execution.batched.build_executor`; ``strategy="auto"``
picks per circuit through :mod:`repro.execution.router`.

Results carry per-shot provenance (:mod:`repro.execution.results`) and
stream as :class:`~repro.execution.streaming.ShotChunk`\\ s while the run is
in flight (:func:`~repro.execution.batched.run_ptsbe_stream`).  Every
dense strategy draws identical per-trajectory shots for a fixed seed, and
an unseeded run records the root seed it resolved, so it replays exactly
too.  See ``docs/architecture.md`` for when to pick which.
"""

from repro.execution.results import ShotTable, TrajectoryResult, PTSBEResult
from repro.execution.streaming import ShotChunk, StreamedResult
from repro.execution.batched import (
    BackendSpec,
    BatchedExecutor,
    run_ptsbe,
    run_ptsbe_stream,
    VALID_STRATEGIES,
)
from repro.execution.plan import (
    FusedPlan,
    build_fused_plan,
    clear_plan_cache,
    get_fused_plan,
)
from repro.execution.vectorized import VectorizedExecutor
from repro.execution.clifford import CliffordFrameExecutor
from repro.execution.tensornet import TensorNetExecutor, compile_schedule
from repro.execution.router import (
    CircuitProfile,
    analyze_circuit,
    resolve_strategy,
)

__all__ = [
    "ShotTable",
    "TrajectoryResult",
    "PTSBEResult",
    "ShotChunk",
    "StreamedResult",
    "BackendSpec",
    "BatchedExecutor",
    "run_ptsbe",
    "run_ptsbe_stream",
    "VALID_STRATEGIES",
    "FusedPlan",
    "build_fused_plan",
    "clear_plan_cache",
    "get_fused_plan",
    "VectorizedExecutor",
    "CliffordFrameExecutor",
    "TensorNetExecutor",
    "compile_schedule",
    "CircuitProfile",
    "analyze_circuit",
    "resolve_strategy",
]
