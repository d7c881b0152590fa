"""Batched tensor-network execution: trajectory-stacked MPS as a strategy.

The sixth execution strategy (``run_ptsbe(strategy="tensornet")``): for
circuits past the dense width cap, trajectory realization runs on a
truncated MPS — but instead of replaying the circuit ``B`` times through
:class:`~repro.backends.mps.MPSBackend`, the circuit is compiled **once**
into a swap-routed, bond-ordered gate schedule and replayed over a
:class:`~repro.backends.mps.BatchedMPSStack` whose site tensors carry a
leading batch axis ``(B, D_l, 2, D_r)``.  Every 1q / adjacent-2q
contraction and every truncated SVD is then a single batched einsum /
GEMM call over the whole dedup chunk; only the noise steps differ per
trajectory, realized by gathering each row's chosen Kraus operator into a
``(B, d, d)`` stack (with a shared fast path when the chunk agrees on a
branch).

Two structural tricks keep the replay lean:

* **Compile-time routing and fusion.**  Non-adjacent 2q gates are
  swap-routed *in the schedule* (the SWAP chains are themselves shared
  batched steps), 3q gates become a contiguous 3-site window split by two
  batched SVDs, and — unless ``Config.fusion == "off"`` — single-qubit
  gates are absorbed into the next step touching their site (pre-
  multiplied into gate matrices and into every Kraus branch of noise
  steps), so the schedule the stack replays is as short as the fusion
  planner's dense plans.
* **The telescoping-weight identity.**  The stack is never renormalized
  mid-run: each Kraus application scales a row's norm by its realized
  branch probability, so the final unnormalized squared norm *is* the
  trajectory weight.  One batched right-environment pass at the end
  yields both the per-row weights and the cached-sampling environments
  (:func:`~repro.backends.mps_sampler.compute_right_environments_batched`),
  after which every ``(row, shot)`` lane of the unit is drawn in one
  prefix-collapsed conditional sweep
  (:func:`~repro.backends.mps_sampler.sample_cached`, the stacked form):
  each trajectory's uniforms from its own Philox stream, one contraction
  per distinct sampled prefix of a row, a tile of lanes at a time.

Faithfulness contract: like the clifford strategy, conformance against
the dense strategies is **distributional** (TVD / chi-square through the
sweep oracle), not bitwise — SVD truncation perturbs amplitudes, and even
at exact bond the per-shot draws consume randomness differently than
dense index sampling.  Seeded replay of *this* strategy is bitwise: shots
derive from the same per-trajectory Philox streams ``(seed,
trajectory_id)`` as every other strategy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import validate_deferred_measurement
from repro.backends.mps import _SWAP, BatchedMPSStack
from repro.backends.mps_sampler import (
    compute_right_environments_batched,
    sample_cached,
)
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, ExecutionError
from repro.execution.batched import BackendSpec, backend_config
from repro.execution.driver import StreamingExecutor, timed
from repro.linalg.kron import permute_operator_qubits

__all__ = ["TensorNetExecutor", "compile_schedule", "GateSchedule"]

#: Rows whose unnormalized squared norm falls to this are numerically dead
#: (same threshold the dense batched backend uses for its stacked rows).
_DEAD_NORM = 1e-300

_I2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class UnitaryStep:
    """A shared unitary applied to ``span`` contiguous sites at ``site``."""

    site: int
    span: int  # 1, 2, or 3
    matrix: np.ndarray


@dataclass(frozen=True)
class NoiseStep:
    """A per-trajectory Kraus choice at ``site`` (``span`` in {1, 2}).

    ``ops[j]`` is branch ``j``'s prepared matrix — wire-permuted to
    ascending site order and with any fused pending 1q gates already
    pre-multiplied (valid because ``|K (U psi)|^2 = |(K U) psi|^2``:
    weights and post-states are unchanged by the composition).
    """

    site: int
    span: int
    site_id: int
    ops: np.ndarray  # (num_branches, d, d)
    dominant: int


Step = Union[UnitaryStep, NoiseStep]


@dataclass(frozen=True)
class GateSchedule:
    """A compiled, swap-routed, fusion-absorbed replay program."""

    num_qubits: int
    steps: Tuple[Step, ...]
    fused: bool

    @property
    def num_noise_sites(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, NoiseStep))


# circuit -> {fused: GateSchedule}; weak-keyed so retired circuits drop out.
_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[bool, GateSchedule]]" = (
    weakref.WeakKeyDictionary()
)


def clear_schedule_cache() -> None:
    """Drop all cached tensornet schedules (tests / config changes)."""
    _SCHEDULE_CACHE.clear()


class _Compiler:
    """One walk over the frozen circuit producing the shared schedule.

    Maintains per-site *pending* 2x2 matrices (the 1q-fusion accumulator):
    a pending is flushed as its own step only when forced — a SWAP chain
    is about to relocate its site, or the walk ends.  Otherwise it rides
    into the next gate/noise step touching its site.
    """

    def __init__(self, num_qubits: int, fused: bool):
        self.num_qubits = num_qubits
        self.fused = fused
        self.steps: List[Step] = []
        self.pending: Dict[int, np.ndarray] = {}

    # -------------------------------------------------------------- #
    # pending management
    # -------------------------------------------------------------- #
    def _take(self, q: int) -> np.ndarray:
        return self.pending.pop(q, _I2)

    def _flush(self, q: int) -> None:
        mat = self.pending.pop(q, None)
        if mat is not None:
            self.steps.append(UnitaryStep(site=q, span=1, matrix=mat))

    def flush_all(self) -> None:
        for q in sorted(self.pending):
            self.steps.append(UnitaryStep(site=q, span=1, matrix=self.pending[q]))
        self.pending.clear()

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #
    def _route_down(self, src: int, dst: int) -> List[int]:
        """Emit SWAPs moving the qubit at ``src`` down to ``dst``.

        Transit sites' pendings are flushed first: a SWAP relocates site
        contents, so a deferred 1q matrix must land before its site moves.
        Returns the swap positions for the mirror-image unroute.
        """
        moved: List[int] = []
        pos = src
        while pos > dst:
            self._flush(pos - 1)
            self.steps.append(UnitaryStep(site=pos - 1, span=2, matrix=_SWAP))
            moved.append(pos - 1)
            pos -= 1
        return moved

    def _unroute(self, moved: List[int]) -> None:
        for pos in reversed(moved):
            self.steps.append(UnitaryStep(site=pos, span=2, matrix=_SWAP))

    # -------------------------------------------------------------- #
    # ops
    # -------------------------------------------------------------- #
    def add_gate(self, op: GateOp) -> None:
        targets = list(op.qubits)
        matrix = np.asarray(op.gate.matrix, dtype=np.complex128)
        k = len(targets)
        if k == 1:
            if self.fused:
                q = targets[0]
                self.pending[q] = matrix @ self.pending.get(q, _I2)
            else:
                self.steps.append(UnitaryStep(site=targets[0], span=1, matrix=matrix))
            return
        if k > 3:
            raise ExecutionError(
                f"strategy 'tensornet' applies up to 3-qubit gates natively; "
                f"got {op.gate.name!r} on {k} qubits (transpile with "
                f"decompose_to_2q first)"
            )
        # Reorder operator wires to ascending physical qubits, then
        # swap-route the upper qubit(s) adjacent to the lowest.
        order = sorted(range(k), key=lambda i: targets[i])
        if order != list(range(k)):
            perm = [0] * k  # input wire i -> its rank in ascending order
            for rank, i in enumerate(order):
                perm[i] = rank
            matrix = permute_operator_qubits(matrix, perm)
        sites = sorted(targets)
        if self.fused:
            pre = self._take(sites[0])
            for q in sites[1:]:
                pre = np.kron(pre, self._take(q))  # replint: disable=XP001 -- compile-time host gate matrices
            matrix = matrix @ pre
        if k == 2:
            qa, qb = sites
            moved = self._route_down(qb, qa + 1)
            self.steps.append(UnitaryStep(site=qa, span=2, matrix=matrix))
            self._unroute(moved)
        else:
            q0, q1, q2 = sites
            moved1 = self._route_down(q1, q0 + 1)
            moved2 = self._route_down(q2, q0 + 2)
            self.steps.append(UnitaryStep(site=q0, span=3, matrix=matrix))
            self._unroute(moved2)
            self._unroute(moved1)

    def add_noise(self, op: NoiseOp) -> None:
        targets = list(op.qubits)
        k = len(targets)
        if k > 2:
            raise ExecutionError(
                f"strategy 'tensornet' supports 1- and 2-qubit noise channels; "
                f"got {op.name!r} on {k} qubits"
            )
        kraus = [np.asarray(m, dtype=np.complex128) for m in op.channel.kraus_ops]
        if k == 2 and targets[1] < targets[0]:
            kraus = [permute_operator_qubits(m, [1, 0]) for m in kraus]
        sites = sorted(targets)
        if self.fused:
            pre = self._take(sites[0])
            for q in sites[1:]:
                pre = np.kron(pre, self._take(q))  # replint: disable=XP001 -- compile-time host gate matrices
            # |K U psi|^2 == |(K U) psi|^2: folding the pending unitary
            # into every branch preserves weights and post-states.
            kraus = [m @ pre for m in kraus]
        ops = np.stack(kraus)  # replint: disable=XP001 -- compile-time host Kraus stack
        dominant = op.channel.dominant_index()
        if k == 1:
            self.steps.append(
                NoiseStep(
                    site=sites[0], span=1, site_id=op.site_id, ops=ops, dominant=dominant
                )
            )
        else:
            qa, qb = sites
            moved = self._route_down(qb, qa + 1)
            self.steps.append(
                NoiseStep(site=qa, span=2, site_id=op.site_id, ops=ops, dominant=dominant)
            )
            self._unroute(moved)


def compile_schedule(circuit: Circuit, config: Optional[Config] = None) -> GateSchedule:
    """Compile (and cache) the shared replay schedule for ``circuit``.

    The schedule is a pure function of the frozen circuit structure and
    the fusion mode — trajectory-dependent data (Kraus *choices*) is left
    symbolic as :class:`NoiseStep` branch stacks, which is what lets every
    trajectory in a batch replay the identical program.
    """
    config = config or DEFAULT_CONFIG
    if not circuit.frozen:
        raise ExecutionError("compile_schedule requires a frozen circuit")
    fused = config.fusion != "off"
    per_circuit = _SCHEDULE_CACHE.setdefault(circuit, {})
    cached = per_circuit.get(fused)
    if cached is not None:
        return cached
    validate_deferred_measurement(circuit)
    comp = _Compiler(circuit.num_qubits, fused)
    for op in circuit.operations:
        if isinstance(op, GateOp):
            comp.add_gate(op)
        elif isinstance(op, NoiseOp):
            comp.add_noise(op)
        elif isinstance(op, MeasureOp):
            continue
        else:
            raise ExecutionError(f"unsupported operation {op!r} for tensornet")
    comp.flush_all()
    schedule = GateSchedule(
        num_qubits=circuit.num_qubits, steps=tuple(comp.steps), fused=fused
    )
    per_circuit[fused] = schedule
    return schedule


def replay_schedule(
    stack: BatchedMPSStack,
    schedule: GateSchedule,
    choices_list: Sequence[Dict[int, int]],
) -> None:
    """Replay the shared schedule over a trajectory stack.

    ``choices_list[m]`` is row ``m``'s Kraus-choice mapping (``site_id ->
    branch``); unlisted sites take the channel's dominant branch, matching
    :meth:`repro.backends.base.PureStateBackend.run_fixed`.
    """
    if len(choices_list) != stack.batch_size:
        raise ExecutionError(
            f"choices_list has {len(choices_list)} rows for a stack of "
            f"batch_size {stack.batch_size}"
        )
    for step in schedule.steps:
        if isinstance(step, UnitaryStep):
            if step.span == 1:
                stack.apply_1q(step.matrix, step.site)
            elif step.span == 2:
                stack.apply_adjacent(step.matrix, step.site)
            else:
                stack.apply_3site(step.matrix, step.site)
            continue
        idx = np.fromiter(
            (c.get(step.site_id, step.dominant) for c in choices_list),
            dtype=np.intp,
            count=len(choices_list),
        )
        if np.all(idx == idx[0]):
            # Whole chunk realizes the same branch: shared-matrix fast path.
            mat = step.ops[idx[0]]
            if step.span == 1:
                stack.apply_1q(mat, step.site)
            else:
                stack.apply_adjacent(mat, step.site)
        else:
            mats = step.ops[idx]  # (B, d, d) gather
            if step.span == 1:
                stack.apply_1q_rows(mats, step.site)
            else:
                stack.apply_adjacent_rows(mats, step.site)


class TensorNetExecutor(StreamingExecutor):
    """Execute trajectory specs on a trajectory-stacked truncated MPS.

    Parameters
    ----------
    backend:
        ``BackendSpec("mps", ...)`` supplies ``max_bond`` / ``cutoff`` /
        ``config`` options; the default dense kinds are tolerated for
        router-dispatch symmetry (their width cap is exactly why this
        strategy exists), in which case the config's MPS knobs
        apply.  A backend *factory* is a request for a specific simulator
        object this strategy replaces, and is rejected.
    sample_kwargs:
        Rejected when non-empty: sampling is always the cached
        right-environment sweep, once per prepared unit over all of its
        trajectories' shots (the naive mode exists only as the benchmark
        baseline).
    max_batch:
        Dedup groups stacked per :class:`BatchedMPSStack` replay.
    max_bond / cutoff:
        Explicit truncation overrides; default resolves through the
        backend spec options, then ``Config.default_bond_dim`` /
        ``Config.svd_cutoff``.
    """

    def __init__(
        self,
        backend: Union[BackendSpec, Callable, None] = None,
        sample_kwargs: Optional[Dict] = None,
        max_batch: int = 64,
        max_bond: Optional[int] = None,
        cutoff: Optional[float] = None,
        config: Optional[Config] = None,
    ):
        if backend is not None and not isinstance(backend, BackendSpec):
            raise ExecutionError(
                "TensorNetExecutor simulates with a trajectory-stacked MPS, "
                "not a backend factory; drop the factory or pick a dense "
                "strategy"
            )
        options: Dict = {}
        if isinstance(backend, BackendSpec):
            if backend.kind not in ("mps", "statevector", "batched_statevector"):
                raise ExecutionError(
                    f"TensorNetExecutor cannot honor backend kind "
                    f"{backend.kind!r}"
                )
            options = dict(backend.options)
        if sample_kwargs:
            raise ExecutionError(
                "TensorNetExecutor always samples via cached right "
                f"environments, got sample_kwargs={dict(sample_kwargs)!r}"
            )
        if max_batch < 1:
            raise ExecutionError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self._config: Config = config or backend_config(backend)
        resolved_bond = max_bond if max_bond is not None else options.get("max_bond")
        resolved_cutoff = cutoff if cutoff is not None else options.get("cutoff")
        self.max_bond = int(
            resolved_bond
            if resolved_bond is not None
            else self._config.default_bond_dim
        )
        self.cutoff = float(
            resolved_cutoff
            if resolved_cutoff is not None
            else self._config.svd_cutoff
        )
        if self.max_bond < 1:
            raise ExecutionError("max_bond must be >= 1")

    def _engine(self, circuit: Circuit) -> "_MPSStackEngine":
        if circuit.num_qubits > self._config.max_tensornet_qubits:
            raise ExecutionError(
                f"circuit width {circuit.num_qubits} exceeds max_tensornet_qubits "
                f"({self._config.max_tensornet_qubits})"
            )
        return _MPSStackEngine(
            circuit, self._config, self.max_batch, self.max_bond, self.cutoff
        )


class _MPSStackEngine:
    """:class:`~repro.execution.driver.Engine` over a trajectory-stacked
    truncated MPS: a unit is one schedule replay, one batched
    right-environment pass and one stacked sampling sweep.

    Unlike the dense stack, a unit's *composition* matters — the batched
    truncated SVD keeps a common rank across its rows — so the shots are a
    function of ``max_rows`` as well as of the seed.
    """

    name = "tensornet"
    max_unit_shots = None

    def __init__(
        self, circuit: Circuit, config: Config, max_rows: int, max_bond: int, cutoff: float
    ):
        self.config: Optional[Config] = config
        self.max_rows = max_rows
        self.num_qubits = circuit.num_qubits
        self.cols = list(circuit.measured_qubits)
        self.stack_options = {"max_bond": max_bond, "cutoff": cutoff, "config": config}
        try:
            self.schedule, self.compile_seconds = timed(
                compile_schedule, circuit.freeze(), config
            )
        except BackendError as exc:
            raise ExecutionError(f"strategy 'tensornet' cannot run: {exc}") from exc
        self.release()

    def prepare(self, choices_list):
        self.release()  # the previous unit's stack goes before this one is built
        stack = BatchedMPSStack(self.num_qubits, len(choices_list), **self.stack_options)
        replay_schedule(stack, self.schedule, choices_list)
        # One batched environment pass = sampling cache AND, via the
        # telescoping-weight identity, per-row weights.
        envs = compute_right_environments_batched(stack.tensors)
        self._prepared = (stack, envs)
        return [w if w > _DEAD_NORM else 0.0 for w in envs[0][:, 0, 0].real.tolist()]

    def sample(self, requests):
        stack, envs = self._prepared
        counts = [count for _, count, _ in requests]
        # One sweep over every (row, shot) lane of the unit.
        bits = sample_cached(stack.tensors, envs, sum(counts), requests)[:, self.cols]
        return [bits[end - count : end] for count, end in zip(counts, accumulate(counts))]

    def release(self) -> None:
        self._prepared = None
