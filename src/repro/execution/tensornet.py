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

Four structural tricks keep the replay lean — each pays once for what
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
* **Pauli errors in a Clifford light cone are bit flips.**  A
  Pauli-mixture site whose forward light cone meets only Clifford gates
  and Pauli channels before the terminal measurements (decided per site
  at compile time, :class:`FrameSites`, by the frame walk the clifford
  engine compiles with,
  :func:`~repro.backends.pauli_frame.propagate_to_end`) changes its
  trajectory by a Pauli at the end of the circuit: a deviation there
  flips the bits its end pattern anticommutes with and scales the weight
  by ``p_branch / p_dominant``, and is never replayed.  A trajectory with
  nothing else to replay samples the run's ideal row, replayed once,
  alone.  On the paper's MSD preparation every site is such a site (each
  block's magic rotations come before its noise), so a run replays one
  row.
* **The telescoping-weight identity.**  The stack is never renormalized
  mid-run: each Kraus application scales a row's norm by its realized
  branch probability, so the final unnormalized squared norm *is* the
  trajectory weight (times its frame sites' ratios).  One batched
  right-environment pass at the end yields both the per-row weights and
  the cached-sampling environments
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
from repro.backends.pauli_frame import pauli_sites, propagate_to_end
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.errors import BackendError, ExecutionError
from repro.execution.batched import BackendSpec, check_backend
from repro.execution.driver import StreamingExecutor, timed
from repro.execution.router import check_engine_fits
from repro.linalg.kron import permute_operator_qubits
from repro.prescriptions import Choices, Prescriptions, as_prescriptions, site_table

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
class FrameSites:
    """The noise sites whose deviations reach the measurements as bit flips.

    A Pauli-mixture site whose forward light cone meets only Clifford gates
    and Pauli channels (:func:`~repro.backends.pauli_frame.propagate_to_end`)
    changes a trajectory only by a Pauli at the end of the circuit: its
    branch ``b`` is the dominant branch followed by ``P_b P_dominant``,
    which commutes (up to phase) through everything after it and leaves
    every later Kraus norm alone.  So the deviation is two things, exactly:
    the measured bits its end pattern flips, ``branch XOR dominant``, and
    the weight ratio ``p_branch / p_dominant``.
    """

    frame: np.ndarray  # (num_sites,) bool, by site id
    start: np.ndarray  # (num_sites,) intp: a frame site's first branch row
    flips: np.ndarray  # (branch rows, measured) uint8
    ratio: np.ndarray  # (branch rows,) float64

    @classmethod
    def of(cls, circuit: Circuit) -> "FrameSites":
        sites = pauli_sites(circuit, strict=False)
        end, clean = propagate_to_end(circuit, sites)
        counts = np.array([len(site.probs) for site in sites], dtype=np.intp)
        ids = np.array([site.site_id for site in sites], dtype=np.intp)
        frame = np.zeros(len(circuit.noise_sites), dtype=bool)
        start = np.zeros(len(circuit.noise_sites), dtype=np.intp)
        frame[ids], start[ids] = clean, np.cumsum(counts) - counts
        dominant = start[ids] + np.array([site.dominant_index for site in sites], dtype=np.intp)
        end = end[:, list(circuit.measured_qubits)]
        probs = np.concatenate([site.probs for site in sites] or [np.zeros(0)])
        return cls(
            frame=frame,
            start=start,
            flips=end ^ np.repeat(end[dominant], counts, axis=0),
            ratio=probs / np.repeat(probs[dominant], counts),
        )

    def split(self, table: Prescriptions) -> Tuple[Prescriptions, np.ndarray, np.ndarray]:
        """``table`` without its frame-site deviations, and per row the
        bits they flip and the product of their weight ratios."""
        rows, on = table.rows(), self.frame[table.site_ids]
        at = self.start[table.site_ids[on]] + table.branches[on]
        flips = np.zeros((len(table), self.flips.shape[1]), dtype=np.uint8)
        np.bitwise_xor.at(flips, rows[on], self.flips[at])
        ratio = np.ones(len(table))
        np.multiply.at(ratio, rows[on], self.ratio[at])
        offsets = np.searchsorted(rows[~on], np.arange(len(table) + 1))
        rest = Prescriptions(table.sites, offsets, table.site_ids[~on], table.branches[~on])
        return rest, flips, ratio


@dataclass(frozen=True)
class GateSchedule:
    """A compiled, routed, fusion-absorbed replay program.

    Sites are chain positions, not qubits: routing moves qubits and never
    moves them back, so ``site_of[q]`` says where qubit ``q`` sits once the
    schedule has run (a permutation of ``range(num_qubits)``).  ``sites``
    is the circuit's :func:`~repro.prescriptions.site_table`, which
    prescriptions are checked against.  ``frames`` are the noise sites an
    engine may carry as end-of-circuit bit flips instead of replaying;
    :func:`replay_schedule` replays every site it is handed.
    """

    num_qubits: int
    steps: Tuple[Step, ...]
    site_of: Tuple[int, ...]
    sites: np.ndarray  # the circuit's site_table
    frames: FrameSites


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
        frames=FrameSites.of(circuit),
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
    truncated MPS: a unit is at most one schedule replay, one batched
    right-environment pass and one stacked sampling sweep per source.  It
    runs ``strategy="tensornet"`` and, at ``max_rows=1`` under their own
    names, ``"serial"`` / ``"parallel"`` on ``BackendSpec.mps``.

    A deviation at a frame site (``GateSchedule.frames``) is not replayed:
    it flips the request's bits after the draw and scales the row's weight
    by ``p_branch / p_dominant``.  A row left with nothing to replay (a
    *frame-only* row) samples the run's ideal row, replayed once, alone,
    at ``B = 1``, and kept until the run is released; the other rows of a
    unit are replayed together on a stack.

    Unlike the dense stack, a replayed row's *unit-mates* matter, so its
    shots are a function of ``max_rows`` as well as of the seed: each
    batched truncated SVD keeps one rank for all the rows taking part in
    that step — the largest any of them needs, the ideal row included — and
    the rows taking part in a step are the unit's replayed rows whose own
    deviations from the ideal circuit have reached one of its sites
    (:func:`replay_schedule`).  A replayed row's tensors therefore depend on
    its own choices and on the light cones and singular spectra of the rows
    stacked with it, not on their order.  A frame-only row's bits depend on
    nothing but its choices and its stream: they are the same at any
    ``max_rows`` and under halving.  Randomness is consumed along the
    chain's product blocks, and routing does not put qubits back, so the
    sampler is asked for the measured qubits' sites
    (``GateSchedule.site_of``) as its columns.

    The truncation is the spec's ``max_bond`` / ``cutoff`` options, handed
    to every :class:`BatchedMPSStack` as they are (the stack defaults and
    checks them).
    """

    max_unit_shots = None
    # Truncation ranks are shared by a unit's replayed rows: group 0 is not
    # cut off on its own (see drive()).
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

    def share(self, table, peer) -> None:
        """Nothing to plan: the one thing units share, the run's ideal
        row, is replayed when a unit first needs it."""

    def _replay(self, table: Choices) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
        stack = BatchedMPSStack(self.num_qubits, len(table), **self.stack_options)
        replay_schedule(stack, self.schedule, table)
        tensors, envs, weights = read_stack(stack)
        return tensors, envs, np.array(weights)

    def prepare(self, table, sizes):
        self._prepared = None  # the previous unit's stack goes before this one is built
        rest, flips, ratio = self.schedule.frames.split(table)
        replayed = np.diff(rest.offsets) > 0
        sources = [None, None]  # the run's ideal row, this unit's stack
        weights = np.empty(len(table))
        if not replayed.all():
            if self._ideal is None:
                self._ideal = self._replay([{}])
            sources[0] = self._ideal
            weights[~replayed] = self._ideal[2][0]
        if replayed.any():
            sources[1] = self._replay(rest.take(np.flatnonzero(replayed)))
            weights[replayed] = sources[1][2]
        weights *= ratio
        weights[weights <= DEAD_NORM] = 0.0
        # Per row: its source and its row there.
        slot = np.where(replayed, np.cumsum(replayed) - 1, 0)
        self._prepared = (sources, replayed.astype(np.intp), slot, flips)
        return weights.tolist()

    def sample(self, requests):
        sources, source, slot, flips = self._prepared
        rows = np.array([row for row, _, _ in requests], dtype=np.intp)
        counts = np.array([count for _, count, _ in requests], dtype=np.intp)
        starts = np.cumsum(counts) - counts
        # One pass per source; measured columns come back in qubit order.
        passes = []
        for s, prepared in enumerate(sources):
            mine = np.flatnonzero(source[rows] == s)
            if len(mine):
                tensors, envs, _ = prepared
                asked = [(int(slot[rows[i]]), requests[i][1], requests[i][2]) for i in mine]
                total = int(counts[mine].sum())
                passes.append((mine, sample_cached(tensors, envs, total, asked, columns=self.cols)))
        if len(passes) == 1:
            bits = passes[0][1]
        else:  # each request's shots where its turn puts them
            bits = np.empty((int(counts.sum()), len(self.cols)), dtype=np.uint8)
            for mine, drawn in passes:
                local = np.cumsum(counts[mine]) - counts[mine]
                bits[np.repeat(starts[mine] - local, counts[mine]) + np.arange(len(drawn))] = drawn
        for row, start, count in zip(rows.tolist(), starts.tolist(), counts.tolist()):
            if flips[row].any():
                bits[start : start + count] ^= flips[row]
        return bits

    def release(self) -> None:
        self._prepared = None
        self._ideal = None
