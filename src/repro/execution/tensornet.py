"""Batched tensor-network execution: trajectory-stacked MPS as a strategy.

The sixth execution strategy (``run_ptsbe(strategy="tensornet")``): for
circuits past the dense width cap, trajectory realization runs on a
truncated MPS — but instead of replaying the circuit ``B`` times, the
circuit is compiled **once** into a routed, bond-ordered gate schedule
and replayed over a :class:`~repro.backends.mps.BatchedMPSStack` whose
site tensors carry a leading batch axis ``(rows, D_l, 2, D_r)``
(:class:`~repro.backends.mps.MPSBackend` is the same replay on one
row).  Every 1q / adjacent-2q
contraction and every truncated SVD is then a single batched GEMM /
LAPACK call over the rows that need it; only the noise steps differ per
trajectory, realized by handing the stack the rows that leave a
channel's dominant branch beside the Kraus operators they take.

Three structural tricks keep the replay lean — each pays once for what
trajectories share:

* **Compile-time routing and fusion.**  A multi-qubit operation on
  non-adjacent qubits pulls its upper qubits down the chain with SWAP
  steps *in the schedule* and leaves them there: the compiler tracks the
  qubit -> site permutation instead of undoing it, the schedule records
  where every qubit ends up (``GateSchedule.site_of``), and the engine
  reads measured columns through that map.  3q gates become a contiguous
  3-site window split by two batched SVDs, and single-qubit gates are
  absorbed into the next step touching their qubit (pre-multiplied into
  gate matrices and into every Kraus branch of noise steps), so the
  schedule the stack replays is as short as the fusion planner's dense
  plans.
* **Replay along each trajectory's light cone.**  A PTS trajectory is
  the ideal circuit except at a few noise sites, and a deviation at one
  site reaches another only through the multi-site steps that connect
  them: a Pauli on one Steane block of the paper's MSD circuits never
  reaches the other four.  The stack therefore carries the all-dominant
  *ideal row* as slot 0 of every site and, per site, a tensor only for
  the rows whose own deviations have reached it; :func:`replay_schedule`
  applies a step to the ideal row and to the rows owning a tensor at any
  of its sites — a batch priced by what varies (arXiv:2604.08467) — and a
  step no deviation has reached runs at ``B = 1``.  A row reads slot 0
  wherever it owns nothing, exactly: a bond's basis changes only in a
  step on that bond, and every row owning a tensor at either end takes
  part in it beside the ideal row.
* **The telescoping-weight identity.**  The stack is never renormalized
  mid-run: each Kraus application scales a row's norm by its realized
  branch probability, so the final unnormalized squared norm *is* the
  trajectory weight.  One batched right-environment pass at the end
  yields both the per-row weights and the cached-sampling environments
  (:func:`~repro.backends.mps_sampler.compute_right_environments_batched`),
  after which the unit's shots are drawn in one count-splitting sweep
  (:func:`~repro.backends.mps_sampler.sample_cached`, the stacked form):
  one contraction per distinct sampled prefix of a trajectory, its shot
  count split by binomials from the trajectory's own Philox stream.  The
  chain's product blocks (the runs of sites between bond-1 cuts: the five
  Steane blocks of the MSD preparation) descend side by side, so a
  trajectory draws once per level of a block, and its shots are expanded
  block by block after the last level.

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
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.backends.base import DEAD_NORM, validate_deferred_measurement
from repro.backends.mps import BatchedMPSStack
from repro.backends.mps_sampler import (
    compute_right_environments_batched,
    sample_cached,
)
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.errors import BackendError, ExecutionError
from repro.execution.batched import BackendSpec, check_backend
from repro.execution.driver import StreamingExecutor, timed
from repro.execution.router import check_engine_fits
from repro.linalg.kron import permute_operator_qubits
from repro.prescriptions import Choices, as_prescriptions, site_table

__all__ = ["TensorNetExecutor", "compile_schedule", "GateSchedule"]

_I2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class UnitaryStep:
    """A shared unitary applied to ``span`` contiguous sites at ``site``."""

    site: int
    span: int  # 1, 2, or 3
    matrix: np.ndarray


@dataclass(frozen=True)
class SwapStep:
    """Exchange the contents of sites ``site`` and ``site + 1`` (routing)."""

    site: int


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


Step = Union[UnitaryStep, SwapStep, NoiseStep]


@dataclass(frozen=True)
class GateSchedule:
    """A compiled, routed, fusion-absorbed replay program.

    Sites are chain positions, not qubits: routing moves qubits and never
    moves them back, so ``site_of[q]`` says where qubit ``q`` sits once the
    schedule has run (a permutation of ``range(num_qubits)``).  ``sites``
    is the circuit's :func:`~repro.prescriptions.site_table`, which
    prescriptions are checked against.
    """

    num_qubits: int
    steps: Tuple[Step, ...]
    site_of: Tuple[int, ...]
    sites: np.ndarray  # the circuit's site_table


# circuit -> GateSchedule; weak-keyed so retired circuits drop out.
_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[Circuit, GateSchedule]" = (
    weakref.WeakKeyDictionary()
)


def clear_schedule_cache() -> None:
    """Drop all cached tensornet schedules (tests)."""
    _SCHEDULE_CACHE.clear()


class SiteMap:
    """The qubit <-> site map that routing permutes.

    A multi-qubit operation pulls its upper qubits down next to its lowest
    one and leaves them there.  The schedule compiler and the single-state
    :class:`~repro.backends.mps.MPSBackend` route through this one class,
    so a circuit ends with its qubits on the same sites either way.
    """

    def __init__(self, site_of: Sequence[int]):
        self.site_of = list(site_of)  # qubit -> site
        self.qubit_at = sorted(range(len(self.site_of)), key=self.site_of.__getitem__)

    def route_down(self, qubit: int, dst: int, swap: Callable[..., None]) -> None:
        """Move ``qubit`` down the chain to site ``dst``, calling
        ``swap(site)`` for each exchange of ``site`` and ``site + 1``."""
        pos = self.site_of[qubit]
        while pos > dst:
            pos -= 1
            swap(pos)
            other = self.qubit_at[pos]
            self.qubit_at[pos], self.qubit_at[pos + 1] = qubit, other
            self.site_of[qubit], self.site_of[other] = pos, pos + 1

    def place(
        self, targets: Sequence[int], mats: List[np.ndarray], swap: Callable[..., None]
    ) -> Tuple[int, List[np.ndarray]]:
        """Bring ``targets`` onto contiguous sites, the lowest staying put.

        Returns the lowest of those sites and ``mats`` re-wired to
        ascending site order.
        """
        k = len(targets)
        order = sorted(range(k), key=lambda i: self.site_of[targets[i]])
        if order != list(range(k)):
            perm = [0] * k  # input wire i -> its rank in ascending site order
            for rank, i in enumerate(order):
                perm[i] = rank
            mats = [permute_operator_qubits(m, perm) for m in mats]
        base = self.site_of[targets[order[0]]]
        for offset, i in enumerate(order[1:], start=1):
            self.route_down(targets[i], base + offset, swap)
        return base, mats


class _Compiler(SiteMap):
    """One walk over the frozen circuit producing the shared schedule.

    Routes through :class:`SiteMap`, emitting a :class:`SwapStep` per
    exchange, and keeps per-qubit *pending* 2x2 matrices, the 1q-fusion
    accumulator.  A pending belongs to its qubit, so it rides through
    SWAPs (``SWAP (A x B) = (B x A) SWAP``) and into the next gate/noise
    step touching that qubit; it becomes a step of its own only when the
    walk ends.
    """

    def __init__(self, num_qubits: int):
        super().__init__(range(num_qubits))
        self.steps: List[Step] = []
        self.pending: Dict[int, np.ndarray] = {}

    def flush_all(self) -> None:
        for q in sorted(self.pending, key=self.site_of.__getitem__):
            self.steps.append(
                UnitaryStep(site=self.site_of[q], span=1, matrix=self.pending[q])
            )
        self.pending.clear()

    def _place(
        self, targets: Sequence[int], mats: List[np.ndarray]
    ) -> Tuple[int, List[np.ndarray]]:
        """:meth:`SiteMap.place`, with the targets' pending 1q matrices
        folded in on the right."""
        base, mats = self.place(targets, mats, lambda site: self.steps.append(SwapStep(site)))
        # Routed, the targets sit on base, base + 1, ... in wire order.
        pre = self.pending.pop(self.qubit_at[base], _I2)
        for site in range(base + 1, base + len(targets)):
            pre = np.kron(pre, self.pending.pop(self.qubit_at[site], _I2))
        return base, [m @ pre for m in mats]

    def add_gate(self, op: GateOp) -> None:
        targets = list(op.qubits)
        matrix = np.asarray(op.gate.matrix, dtype=np.complex128)
        k = len(targets)
        if k > 3:
            raise ExecutionError(
                f"strategy 'tensornet' applies up to 3-qubit gates natively; "
                f"got {op.gate.name!r} on {k} qubits (transpile with "
                f"decompose_to_2q first)"
            )
        if k == 1:
            q = targets[0]
            self.pending[q] = matrix @ self.pending.get(q, _I2)
            return
        site, (matrix,) = self._place(targets, [matrix])
        self.steps.append(UnitaryStep(site=site, span=k, matrix=matrix))

    def add_noise(self, op: NoiseOp) -> None:
        targets = list(op.qubits)
        k = len(targets)
        if k > 2:
            raise ExecutionError(
                f"strategy 'tensornet' supports 1- and 2-qubit noise channels; "
                f"got {op.name!r} on {k} qubits"
            )
        # |K U psi|^2 == |(K U) psi|^2: folding the pending unitary into
        # every branch preserves weights and post-states.
        site, kraus = self._place(
            targets, [np.asarray(m, dtype=np.complex128) for m in op.channel.kraus_ops]
        )
        self.steps.append(
            NoiseStep(
                site=site,
                span=k,
                site_id=op.site_id,
                ops=np.stack(kraus),
                dominant=op.channel.dominant_index(),
            )
        )


def compile_schedule(circuit: Circuit) -> GateSchedule:
    """Compile (and cache) the shared replay schedule for ``circuit``.

    The schedule is a pure function of the frozen circuit structure —
    trajectory-dependent data (Kraus *choices*) is left symbolic as
    :class:`NoiseStep` branch stacks, which is what lets every trajectory
    in a batch replay the identical program.
    """
    if not circuit.frozen:
        raise ExecutionError("compile_schedule requires a frozen circuit")
    cached = _SCHEDULE_CACHE.get(circuit)
    if cached is not None:
        return cached
    validate_deferred_measurement(circuit)
    comp = _Compiler(circuit.num_qubits)
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
        num_qubits=circuit.num_qubits,
        steps=tuple(comp.steps),
        site_of=tuple(comp.site_of),
        sites=site_table(circuit),
    )
    _SCHEDULE_CACHE[circuit] = schedule
    return schedule


def replay_schedule(stack: BatchedMPSStack, schedule: GateSchedule, choices_list: Choices) -> None:
    """Replay the shared schedule from ``|0...0>`` into a trajectory stack.

    ``choices_list`` is a prescription table built against the schedule's
    circuit, or row ``m``'s Kraus-choice mapping (``site_id -> branch``)
    for each ``m``, checked against ``schedule.sites`` by
    :func:`~repro.prescriptions.as_prescriptions`.  A site a row does not
    list takes the channel's dominant branch, matching
    :meth:`repro.backends.base.PureStateBackend.run_fixed`.  ``stack``
    supplies the truncation and receives the rows; what it held is dropped.

    Every step is applied once, to the ideal row and to the rows inside
    whose light cone its sites lie: a noise step hands the stack the rows
    that leave its dominant branch (from there on they own their tensors
    at its sites), a multi-site step carries ownership to every site it
    merges, and a row reads the ideal row's tensor wherever it owns none
    (:class:`~repro.backends.mps.BatchedMPSStack` has the induction).  A
    row's ``truncation_error`` is therefore the ideal row's, with the
    row's own discarded weight in place of the ideal's at the steps it
    took part in.  On return ``stack.dense()`` and
    ``stack.truncation_error`` hold the rows in ``choices_list`` order.
    """
    if len(choices_list) != stack.batch_size:
        raise ExecutionError(
            f"choices_list has {len(choices_list)} rows for a stack of "
            f"batch_size {stack.batch_size}"
        )
    table = as_prescriptions(schedule.sites, choices_list)
    # The rows leaving the dominant branch, grouped by site (rows ascending
    # within one): site s's are [cuts[s], cuts[s + 1]).
    order = np.argsort(table.site_ids, kind="stable")
    rows, branches = table.rows()[order], table.branches[order]
    cuts = np.searchsorted(table.site_ids[order], np.arange(len(schedule.sites) + 1))
    stack.reset()
    for step in schedule.steps:
        if isinstance(step, SwapStep):
            stack.swap_adjacent(step.site)
        elif isinstance(step, UnitaryStep):
            stack.apply(step.matrix, step.site)
        else:
            at = slice(cuts[step.site_id], cuts[step.site_id + 1])
            stack.apply(step.ops[step.dominant], step.site, rows[at], step.ops[branches[at]])


def read_stack(
    stack: BatchedMPSStack,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[float]]:
    """The rows' site tensors, their right environments and their weights.

    One batched environment pass is the sampling cache and, by the
    telescoping-weight identity, every row's weight (``0.0`` for a dead
    row).  Nothing is renormalized: these are the tensors a prepared unit
    samples from.
    """
    tensors = stack.dense()
    envs = compute_right_environments_batched(tensors)
    weights = [w if w > DEAD_NORM else 0.0 for w in envs[0][:, 0, 0].real.tolist()]
    return tensors, envs, weights


class TensorNetExecutor(StreamingExecutor):
    """Execute trajectory specs on a trajectory-stacked truncated MPS.

    Parameters
    ----------
    backend:
        ``BackendSpec.mps(...)`` supplies the truncation, its ``max_bond``
        / ``cutoff`` options (left out, :class:`BatchedMPSStack`'s
        defaults: 64 and 1e-12), and the run's ``config``.  The dense
        kinds are tolerated for router-dispatch symmetry (their width cap
        is exactly why this strategy exists) and run at the defaults;
        their ``config`` applies, and a state ``dtype`` other than
        complex128 in it is refused.  Circuits wider than
        :data:`~repro.execution.router.MAX_TENSORNET_QUBITS` are refused.
    max_batch:
        Dedup groups stacked per :class:`BatchedMPSStack` replay.  At
        ``max_batch=1`` this is what ``strategy="serial"`` runs on
        ``BackendSpec.mps``: the same adapter, at one row.
    """

    def __init__(self, backend: BackendSpec = BackendSpec(), max_batch: int = 64):
        self.backend = check_backend(type(self).__name__, backend, dense=())
        if max_batch < 1:
            raise ExecutionError("max_batch must be >= 1")
        self.max_batch = int(max_batch)

    def _engine(self, circuit: Circuit) -> "_MPSStackEngine":
        check_engine_fits(circuit, "tensornet")
        return _MPSStackEngine("tensornet", self.backend, circuit, self.max_batch)


class _MPSStackEngine:
    """:class:`~repro.execution.driver.Engine` over a trajectory-stacked
    truncated MPS: a unit is one schedule replay, one batched
    right-environment pass and one stacked sampling sweep.  It runs
    ``strategy="tensornet"`` and, at ``max_rows=1`` under their own names,
    ``"serial"`` / ``"parallel"`` on ``BackendSpec.mps``.

    Unlike the dense stack, a unit's *composition* matters, so the shots
    are a function of ``max_rows`` as well as of the seed: each batched
    truncated SVD keeps one rank for all the rows taking part in that
    step — the largest any of them needs, the ideal row included — and
    the rows taking part in a step are the unit's rows whose own
    deviations from the ideal circuit have reached one of its sites
    (:func:`replay_schedule`).  A row's tensors therefore depend on its
    own choices and on the light cones and singular spectra of the rows
    stacked with it, not on their order.  Randomness is consumed along
    the chain's product blocks, and routing does not put qubits back, so the
    sampler is asked for the measured qubits' sites
    (``GateSchedule.site_of``) as its columns.

    The truncation is the spec's ``max_bond`` / ``cutoff`` options, handed
    to every :class:`BatchedMPSStack` as they are (the stack defaults and
    checks them).
    """

    max_unit_shots = None
    # Truncation ranks are shared by a unit's rows: in-process, group 0 is
    # not cut off on its own (see drive()).
    coupled_rows = True
    sort_bytes = None  # for the same reason: a sort would move its bits
    # Measured with the look-ahead always on (tensornet_shots_35q, 2-core
    # host): first chunk 0.037 -> 0.050 s (+37 %).
    lookahead_shots = None

    def __init__(self, name: str, backend: BackendSpec, circuit: Circuit, max_rows: int):
        self.name = name
        self.config = backend.config
        self.max_rows = max_rows
        self.num_qubits = circuit.num_qubits
        self.stack_options = {k: v for k, v in backend.options if k != "config"}
        try:
            # A one-row stack refuses bad truncation options before any unit.
            BatchedMPSStack(self.num_qubits, 1, **self.stack_options)
            self.schedule, self.compile_seconds = timed(compile_schedule, circuit.freeze())
        except BackendError as exc:
            raise ExecutionError(f"strategy {name!r} cannot run: {exc}") from exc
        # Routing leaves qubits where it moved them: read each measured
        # qubit's column at the site it ends on.
        self.cols = [self.schedule.site_of[q] for q in circuit.measured_qubits]
        self.release()

    def prepare(self, table, sizes):
        self.release()  # the previous unit's stack goes before this one is built
        stack = BatchedMPSStack(self.num_qubits, len(table), **self.stack_options)
        replay_schedule(stack, self.schedule, table)
        tensors, envs, weights = read_stack(stack)
        self._prepared = (tensors, envs)
        return weights

    def sample(self, requests):
        tensors, envs = self._prepared
        total = sum(count for _, count, _ in requests)
        # One pass over the unit; measured columns come back in qubit order.
        return sample_cached(tensors, envs, total, requests, columns=self.cols)

    def release(self) -> None:
        self._prepared = None
