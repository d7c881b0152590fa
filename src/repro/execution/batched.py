"""The batched-execution (BE) engine.

For every trajectory of the PTS table (:class:`~repro.pts.base.PTSResult`)
the engine:

1. prepares the prescribed noisy state **once** (``backend.run_fixed`` with
   the spec's fixed Kraus choices) — the O(2**n) part;
2. draws the spec's entire shot budget in one bulk ``sample`` call — the
   polynomial part ("sampling all m_alpha desired quantum bitstrings at
   once", paper §3);
3. attaches the provenance record to the shots.

Contrast with :class:`~repro.trajectory.baseline.TrajectorySimulator`,
which re-runs step 1 for every single shot, and with
:class:`~repro.execution.vectorized.VectorizedExecutor`, which prepares
whole *stacks* of trajectories per pass instead of looping specs in
Python.  Dense preparations walk the circuit's compiled
:class:`~repro.execution.plan.FusedPlan` (shared with the stacked
backends, so the strategies stay bitwise interchangeable).  The loop
itself — dedup, the task queue, retry, per-trajectory streams, ordered
delivery, separate prep and sample wall-times for the paper's
shots-per-second curves — is the shared
:func:`repro.execution.driver.drive`; this module supplies the one way to
name a backend (:class:`BackendSpec`, checked by :func:`check_backend`),
the serial dense :class:`~repro.execution.driver.Engine` adapter (serial
on ``"mps"`` is the tensornet adapter at one row), the strategy table and
the dispatch.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from importlib import import_module
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backends.batched_statevector import BatchedStatevectorBackend, Ladder
from repro.backends.mps import MPSBackend
from repro.backends.statevector import StatevectorBackend
from repro.circuits.circuit import Circuit
from repro.config import DEFAULT_CONFIG, Config
from repro.errors import CapacityError, ExecutionError, ZeroProbabilityTrajectory
from repro.execution.driver import Engine, StreamingExecutor, check_measurements
from repro.execution.plan import get_fused_plan
from repro.execution.results import PTSBEResult
from repro.execution.router import check_engine_fits, resolve_strategy
from repro.execution.streaming import StreamedResult
from repro.pts.base import PTSAlgorithm
from repro.rng import StreamFactory

__all__ = [
    "BackendSpec",
    "check_backend",
    "BatchedExecutor",
    "build_executor",
    "run_ptsbe",
    "run_ptsbe_stream",
    "STRATEGIES",
    "DENSE_STRATEGIES",
    "VALID_STRATEGIES",
]


@dataclass(frozen=True)
class BackendSpec:
    """The recipe for the backend a run uses.

    ``kind`` is ``"statevector"``, ``"mps"``, or ``"batched_statevector"``
    (the trajectory-stacked backend used by
    :class:`~repro.execution.vectorized.VectorizedExecutor`); ``options``
    are the settings that kind's engine reads (``_BACKEND_KINDS``): every
    kind takes ``config``, and ``"mps"`` also its truncation, ``max_bond``
    and ``cutoff`` (e.g. ``{"max_bond": 32}``).  A spec is the only way
    to say which backend runs: every executor and :func:`run_ptsbe`
    refuse anything else, and refuse an option the kind does not take
    (:func:`check_backend`).

    ``options`` is stored as a sorted tuple of ``(key, value)`` pairs so
    equal recipes compare equal; the spec is hashable only
    when every option value is (a ``config=Config(...)`` option, being a
    mutable dataclass, is not — keep such specs out of hash-keyed
    containers).
    """

    kind: str = "statevector"
    options: tuple = ()  # sorted (key, value) pairs; see class docstring

    @classmethod
    def statevector(cls, **options) -> "BackendSpec":
        return cls("statevector", tuple(sorted(options.items())))

    @classmethod
    def mps(cls, **options) -> "BackendSpec":
        return cls("mps", tuple(sorted(options.items())))

    @classmethod
    def batched_statevector(cls, **options) -> "BackendSpec":
        return cls("batched_statevector", tuple(sorted(options.items())))

    @property
    def config(self) -> Config:
        """The :class:`Config` the recipe runs under: its ``config`` option,
        else :data:`~repro.config.DEFAULT_CONFIG` (set with
        ``configure(...)``).  The state dtype, the dense width cap, the
        fault plan and the retry policy are read from it."""
        config = dict(self.options).get("config")
        return config if config is not None else DEFAULT_CONFIG


#: Each spec kind's backend and the options a spec of that kind takes: the
#: run's ``config``, and on ``"mps"`` the truncation its engine reads.
_BACKEND_KINDS = {
    "statevector": (StatevectorBackend, ("config",)),
    "mps": (MPSBackend, ("max_bond", "cutoff", "config")),
    "batched_statevector": (BatchedStatevectorBackend, ("config",)),
}

#: The kinds that hold a dense state vector.
DENSE_KINDS = ("statevector", "batched_statevector")

#: The state dtype of every non-dense engine: the only one they honour.
_STATE_DTYPE = np.dtype(Config.dtype)


def check_backend(
    owner: str,
    backend: object,
    kinds: Tuple[str, ...] = tuple(_BACKEND_KINDS),
    dense: Tuple[str, ...] = DENSE_KINDS,
) -> BackendSpec:
    """The execution layer's one input check: ``backend`` is a
    :class:`BackendSpec` of one of ``kinds`` (the kinds the refusing
    entry point, ``owner``, runs) whose options its kind takes.
    ``dense`` are the kinds on which ``owner`` holds a dense state vector;
    on any other it runs a complex128 MPS, so a spec whose config asks
    for another state dtype is refused rather than silently ignored."""
    if not isinstance(backend, BackendSpec):
        raise ExecutionError(
            f"{owner} takes a BackendSpec (BackendSpec.statevector(), "
            f".mps(...) or .batched_statevector()), not {type(backend).__name__}"
        )
    if backend.kind not in kinds:
        raise ExecutionError(
            f"{owner} cannot run backend kind {backend.kind!r}; "
            f"it runs: {', '.join(map(repr, kinds))}"
        )
    cls, accepted = _BACKEND_KINDS[backend.kind]
    unknown = sorted(set(dict(backend.options)) - set(accepted))
    if unknown:
        raise ExecutionError(
            f"backend kind {backend.kind!r} ({cls.__name__}) takes no option "
            f"{', '.join(map(repr, unknown))}; it accepts: {', '.join(map(repr, accepted))}"
        )
    if backend.kind not in dense:
        dtype = np.dtype(backend.config.dtype)
        if dtype != _STATE_DTYPE:
            raise ExecutionError(
                f"{owner} runs backend kind {backend.kind!r} as a {_STATE_DTYPE} matrix "
                f"product state and cannot honour dtype {dtype}; only a dense state "
                f"vector takes a dtype (kinds {', '.join(map(repr, DENSE_KINDS))} "
                f"under a dense strategy)"
            )
    return backend


class BatchedExecutor(StreamingExecutor):
    """Batched execution of trajectory specs, one prepared state at a time.

    Parameters
    ----------
    backend:
        A per-trajectory :class:`BackendSpec`, ``"statevector"`` or
        ``"mps"``.  On ``"statevector"`` a unit is one row of the stacked
        dense engine (:class:`~repro.backends.statevector.StatevectorBackend`
        is a one-row
        :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`).
        On ``"mps"`` a unit is the tensornet adapter at one row, under this
        executor's name, so the shots are ``strategy="tensornet"``'s at
        ``max_batch=1``.
    """

    strategy = "serial"

    def __init__(self, backend: BackendSpec = BackendSpec()):
        self.backend = check_backend(type(self).__name__, backend, ("statevector", "mps"))

    def _engine(self, circuit: Circuit) -> Engine:
        if self.backend.kind == "mps":
            # Imported here: repro.execution.tensornet imports this module.
            from repro.execution.tensornet import _MPSStackEngine

            return _MPSStackEngine(self.strategy, self.backend, circuit, max_rows=1)
        backend = StatevectorBackend(circuit.num_qubits, **dict(self.backend.options))
        return _SerialEngine(self.strategy, backend, circuit, self.backend.config)


class _SerialEngine:
    """:class:`~repro.execution.driver.Engine` over one dense statevector:
    a unit is a single ``run_fixed`` + bulk ``sample``.

    The units after the head share one :class:`Ladder` of ideal-prefix
    states, chosen when they are scheduled and shared with the
    look-ahead's adapter, so a row walks only from the deepest held rung
    on its ideal prefix; :meth:`release` drops it with the run."""

    max_rows = 1
    max_unit_shots = None
    coupled_rows = False
    sort_bytes = None
    # The fused plan compiles lazily inside the first run_fixed.
    compile_seconds = 0.0

    def __init__(
        self, name: str, backend: StatevectorBackend, circuit: Circuit, config: Config
    ):
        self.name = name
        self.backend = backend
        self.circuit = circuit
        self.measured = tuple(circuit.measured_qubits)
        self.config = config
        self.ladder: Optional[Ladder] = None

    @property
    def lookahead_shots(self) -> Optional[int]:
        """Past ``max(2**16, 2**n)`` shots a unit's draw hides the next
        unit's preparation.  Measured on a 2-core host with the look-ahead
        always on: 1.6-1.9x shots/s at 16 qubits and 200 000 shots per
        unit; 0.85-0.96x at 6 and 10 qubits with 100 or 1 000 shots; 1.0x,
        and peak RSS 120 -> 186 MiB, at 20 qubits and 2**17 shots.

        Those figures, and the gain, hold with BLAS pinned to one thread
        (as the benchmark harness runs).  With OpenBLAS left at its
        default thread count the helper competes with BLAS's own threads
        for the cores: on the brickwork 16q, 60 x 200 000-shot streamed
        shape the look-ahead read 1.34x shots/s pinned (16 of 16
        interleaved pairs) but 0.91x unpinned (2 of 16).  The threshold
        stays until an unpinned benchmark row can decide it."""
        return max(1 << 16, 2**self.circuit.num_qubits)

    def share(self, table, peer) -> None:
        """Choose the run's rungs from the rows still to run, or share the
        first adapter's ladder (``peer``)."""
        if peer is not None:
            self.ladder = peer.ladder
        else:
            self.ladder = Ladder(get_fused_plan(self.circuit, self.config), table)

    def prepare(self, table, sizes):
        try:
            weight = self.backend.run_fixed(self.circuit, table, self.ladder)
            # The draw tables and their guide tables, built here so a
            # look-ahead helper pays for them, not the draw.
            self.backend.cumulative(sizes[0])
            return [weight]
        except ZeroProbabilityTrajectory:
            # The prescribed combination is impossible for the actual
            # state (nominal probabilities are only priors for general
            # channels): a dead row, not a failure.  Caught here because
            # it is a BackendError, which the retry layer would otherwise
            # treat as transient.
            return [0.0]

    def sample(self, requests):
        bits = [self.backend.sample(n, self.measured, rng) for _, n, rng in requests]
        # A unit is drawn once: its 2**n state and sampling tables go now,
        # not when the next unit is prepared over them.
        self.backend.release()
        empty = np.empty((0, len(self.measured)), dtype=np.uint8)
        return bits[0] if len(bits) == 1 else np.concatenate([empty, *bits])

    def release(self) -> None:
        self.backend.release()
        if self.ladder is not None:
            self.ladder.release()


#: The strategy table: every BE engine behind one name, as the
#: ``(module, executor class, default kwargs)`` that serves it (the modules
#: import this one, so the classes are looked up at dispatch).
#: ``"parallel"`` and ``"sharded"`` are ``"serial"`` and ``"vectorized"``
#: under another name (``result.engine``, fault sites ``parallel/stack:*``),
#: ``"sharded"`` with no ``max_batch`` by default.  ``"auto"`` resolves to
#: one of these names first, through :mod:`repro.execution.router`.
STRATEGIES = {
    "serial": ("repro.execution.batched", "BatchedExecutor", {}),
    "parallel": ("repro.execution.batched", "BatchedExecutor", {}),
    "vectorized": ("repro.execution.vectorized", "VectorizedExecutor", {}),
    "sharded": ("repro.execution.vectorized", "VectorizedExecutor", {"max_batch": None}),
    "clifford": ("repro.execution.clifford", "CliffordFrameExecutor", {}),
    "tensornet": ("repro.execution.tensornet", "TensorNetExecutor", {}),
}

#: The strategies that materialize dense ``2**n`` statevectors and are
#: therefore bounded by ``Config.max_dense_qubits``.  ``"clifford"`` and
#: ``"tensornet"`` live outside the cap.
DENSE_STRATEGIES = ("serial", "parallel", "vectorized", "sharded")

VALID_STRATEGIES = ("auto",) + tuple(STRATEGIES)


def build_executor(
    strategy: str, backend: Optional[BackendSpec] = None, /, **kwargs
) -> StreamingExecutor:
    """The executor behind a concrete strategy name: the row's class, built
    on ``backend`` (the class's default when ``None``) with the row's
    default kwargs under ``kwargs``, and named ``strategy``.

    Unknown names fail up front with the full list of valid strategies,
    and a keyword the class does not take (``backend`` is a parameter of
    its own) with the names it does — the misuse guards for
    ``run_ptsbe(strategy=..., executor_kwargs=...)``, before anything is
    built.
    """
    if strategy not in STRATEGIES:
        valid = ", ".join(repr(name) for name in VALID_STRATEGIES)
        raise ExecutionError(
            f"unknown strategy {strategy!r}; valid strategies are: {valid}"
        )
    module, name, defaults = STRATEGIES[strategy]
    cls = getattr(import_module(module), name)
    if kwargs:  # else nothing to refuse: skip the signature lookup
        accepted = [key for key in inspect.signature(cls).parameters if key != "backend"]
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            takes = ", ".join(repr(key) for key in accepted) or "none"
            raise ExecutionError(
                f"strategy {strategy!r} ({name}) takes no executor argument "
                f"{', '.join(repr(key) for key in unknown)}; it accepts: {takes}"
            )
    if backend is not None:
        kwargs["backend"] = backend
    executor = cls(**{**defaults, **kwargs})
    executor.strategy = strategy
    return executor


def _check_dense_capacity(
    circuit: Circuit, backend: BackendSpec, resolved: str, config: Config
) -> None:
    """Refuse over-cap dense dispatches with an actionable error.

    Without this, an oversized run surfaces as a raw ``MemoryError`` from
    the ``(B, 2**n)`` allocation deep in the executor.  The check fires
    only for the dense strategies on the dense backend kinds: serial on
    ``"mps"`` has no dense width cap.
    """
    if resolved not in DENSE_STRATEGIES or backend.kind not in DENSE_KINDS:
        return
    width = circuit.num_qubits
    if width <= config.max_dense_qubits:
        return
    raise CapacityError(
        f"circuit width {width} exceeds the dense width cap "
        f"(Config.max_dense_qubits={config.max_dense_qubits}), so dense "
        f"strategy {resolved!r} cannot serve it; strategies that can: "
        f"'tensornet' (trajectory-stacked truncated MPS, any circuit) and "
        f"'clifford' (pure-Clifford circuits with Pauli-mixture noise)"
    )


def run_ptsbe(
    circuit: Circuit,
    sampler: PTSAlgorithm,
    backend: BackendSpec = BackendSpec(),
    seed: Optional[int] = None,
    strategy: str = "auto",
    executor_kwargs: Optional[Dict] = None,
) -> PTSBEResult:
    """The full PTSBE pipeline in one call (paper Fig. 1).

    1. PTS: ``sampler`` pre-samples trajectory specs from the circuit;
    2. BE: the chosen executor realizes each spec with batched sampling.

    Both stages run on ``circuit`` as given.  To run twirled noise, twirl
    first: ``run_ptsbe(twirl_circuit(circuit), sampler)``
    (:func:`repro.pts.twirl_circuit`).

    Parameters
    ----------
    backend:
        The :class:`BackendSpec` to run on; anything else, and an option
        its kind's backend does not take, raises
        :class:`~repro.errors.ExecutionError` before the sampler draws.
    strategy:
        Which batched-execution engine realizes the specs:

        * ``"auto"`` (default) — routed per circuit by
          :mod:`repro.execution.router`: pure-Clifford circuits with
          Pauli-mixture noise go to ``"clifford"``, circuits wider than
          ``Config.max_dense_qubits`` that the clifford engine cannot
          serve go to ``"tensornet"``; everything else resolves exactly
          as before — ``"vectorized"`` when ``backend`` is of kind
          ``"batched_statevector"``, else ``"serial"``.  An ``"mps"``
          spec always resolves to ``"serial"``.  The decision is
          recorded as ``result.routing`` and the engine that ran as
          ``result.engine``;
        * ``"serial"`` — one prepared state per spec
          (:class:`BatchedExecutor`; on ``BackendSpec.mps`` the tensornet
          adapter at one row, so the shots are ``"tensornet"``'s at
          ``max_batch=1``);
        * ``"vectorized"`` — deduplicated ``(B, 2**n)`` trajectory stacks
          (:class:`~repro.execution.vectorized.VectorizedExecutor`;
          a stack holds ``min(max_batch, the backend's dense amplitude
          budget)`` rows);
        * ``"parallel"`` — ``"serial"`` under another name;
        * ``"sharded"`` — ``"vectorized"`` under another name, with
          ``max_batch`` defaulting to ``None``.  Each is a row of
          :data:`STRATEGIES` and differs from its parent in name
          (``result.engine``, fault sites) and defaults only.  Every
          strategy runs in this process; there is no worker-count option;
        * ``"clifford"`` — batched Pauli-frame propagation for
          pure-Clifford circuits with Pauli-mixture noise, at any width
          (:class:`~repro.execution.clifford.CliffordFrameExecutor`);
        * ``"tensornet"`` — trajectory-stacked truncated-MPS contraction
          past the dense width cap: one swap-routed gate schedule
          compiled per circuit, replayed over a ``(B, D_l, 2, D_r)``
          batched stack with only the per-trajectory Kraus operators
          varying (:class:`~repro.execution.tensornet.TensorNetExecutor`).
          ``strategy="auto"`` routes here for circuits wider than
          ``Config.max_dense_qubits`` that the clifford engine cannot
          serve.

        Unknown names are rejected up front, before the sampler draws,
        with the list of valid strategies.  Dense strategies refuse
        circuits wider than ``Config.max_dense_qubits`` at dispatch, also
        before the sampler draws, with a
        :class:`~repro.errors.CapacityError` naming the strategies that
        can serve the width.

        Every *dense* strategy draws identical per-trajectory shots for a fixed
        ``seed`` and orders results by spec position, so shot tables
        match row for row, whatever ``max_batch`` is.  All dense
        strategies execute through the same
        compiled :class:`~repro.execution.plan.FusedPlan`, which is
        what carries the cross-strategy guarantee.  ``"clifford"``
        samples by a different stochastic mechanism (frame XORs instead
        of dense amplitude sampling), so it matches the dense strategies
        *distributionally* — exact per-trajectory conditionals and
        weights — while its own seeded runs replay bitwise.

        The guarantee covers unseeded runs too: ``seed=None`` is resolved
        to **one** concrete root seed before anything draws from it — the
        PTS sampler and the executor share that same seed — and the
        resolved value is recorded as ``result.seed``, so any run can be
        replayed bitwise with ``run_ptsbe(..., seed=result.seed)``.
    executor_kwargs:
        Extra constructor arguments for the chosen executor, e.g.
        ``{"max_batch": 32}`` for ``"vectorized"`` / ``"sharded"`` /
        ``"tensornet"`` (``"serial"`` and ``"parallel"`` take none).  A
        name the resolved strategy's executor does not take (such as
        ``num_workers``) raises :class:`~repro.errors.ExecutionError`
        listing the names it does, before anything is built.

    Examples
    --------
    >>> run_ptsbe(noisy, ProbabilisticPTS(nsamples=200, nshots=10_000),
    ...           seed=7)                                  # doctest: +SKIP
    >>> run_ptsbe(noisy, sampler, strategy="vectorized",
    ...           executor_kwargs={"max_batch": 32}, seed=7)  # doctest: +SKIP
    >>> run_ptsbe(noisy, sampler, BackendSpec.batched_statevector(),
    ...           seed=7)  # auto -> vectorized             # doctest: +SKIP
    >>> replay = run_ptsbe(noisy, sampler, seed=result.seed)  # doctest: +SKIP
    """
    return run_ptsbe_stream(
        circuit,
        sampler,
        backend=backend,
        seed=seed,
        strategy=strategy,
        executor_kwargs=executor_kwargs,
    ).finalize()


def run_ptsbe_stream(
    circuit: Circuit,
    sampler: PTSAlgorithm,
    backend: BackendSpec = BackendSpec(),
    seed: Optional[int] = None,
    strategy: str = "auto",
    executor_kwargs: Optional[Dict] = None,
    retain: bool = True,
) -> StreamedResult:
    """The PTSBE pipeline with streaming shot delivery.

    Same parameters and determinism contract as :func:`run_ptsbe`, but
    instead of materializing the full :class:`PTSBEResult` it returns a
    :class:`~repro.execution.streaming.StreamedResult` immediately:
    iterate it to receive :class:`~repro.execution.streaming.ShotChunk`\\ s
    as each spec / stack / shard completes (in the exact order of the
    materialized shot table, so concatenating the chunks reproduces it
    bitwise), call ``finalize()`` to drain into the identical
    :class:`PTSBEResult`, or ``close()`` to abandon the run cleanly.
    ``retain=False`` puts the stream in pure-ingest mode: each chunk is
    dropped once handed over, bounding memory to one in-flight chunk for
    arbitrarily long runs, with ``finalize()`` unavailable.

    ``seed=None`` is resolved to one concrete root seed *here*, before
    the PTS sampler draws anything; the sampler and the chosen executor
    both derive their streams from it and the stream records it as
    ``stream.seed``, so unseeded streamed runs replay exactly like seeded
    ones.

    Example — decoder training that starts before the run finishes::

        stream = run_ptsbe_stream(noisy, sampler, strategy="vectorized")
        for chunk in stream:
            model.partial_fit(chunk.shot_table().bits, ...)
    """
    check_backend("run_ptsbe", backend)
    circuit.freeze()
    # Route "auto" on the circuit; explicit strategies pass through.  The
    # decision trail rides on the stream/result.  The dispatch is refused
    # here, before the sampler draws: none of it reads the sampler's table.
    config = backend.config
    resolved, routing = resolve_strategy(circuit, backend, strategy, config)
    _check_dense_capacity(circuit, backend, resolved, config)
    if strategy != "auto":
        # "auto" routed on these facts.  The measurement checks come first,
        # as in drive(): they refuse a circuit alike on every strategy.
        check_measurements(circuit)
        check_engine_fits(circuit, resolved)
    executor = build_executor(resolved, backend, **(executor_kwargs or {}))
    # Resolve the root seed exactly once: the PTS sampler's stream and
    # every executor trajectory stream derive from the same value, and an
    # unseeded run resolves one entropy seed here instead of drawing two
    # independent ones (the pre-fix reproducibility bug).  The sampler's
    # stream is a counter family of its own: no trajectory draws from it.
    streams = StreamFactory(seed)
    pts_result = sampler.sample(circuit, streams.sampler_rng())
    stream = executor.execute_stream(
        circuit, pts_result.specs, seed=streams.seed, retain=retain
    )
    stream.routing = routing
    return stream
