"""Trajectory-stacked dense statevector backend: the one dense engine.

This backend holds a ``(B, 2**n)`` *stack* of trajectory states and
applies every circuit moment to all ``B`` trajectories in one fused
operation.  :class:`~repro.backends.statevector.StatevectorBackend` is
its one-row view, so a serial preparation *is* a stacked preparation at
``B = 1`` — one plan walk, one renormalization, one sampler:

* **Shared work** is one fused kernel call: execution walks the circuit's
  compiled :class:`~repro.execution.plan.FusedPlan` — adjacent gates (and
  noise-branch operators) merged into per-window matrices — and each
  coherent window updates every walked trajectory at once through a
  reshape view of the stack
  (:func:`~repro.linalg.apply.apply_compiled_stack`), writing into a
  second buffer of the stack's shape that the walk alternates with.
  The per-operation Python/dispatch overhead and buffer traffic is paid
  once per window instead of once per (operation, trajectory).  The
  *ideal prefix* is shared too: PTS fixes every choice before any state
  exists, so up to its first non-dominant choice
  (:meth:`~repro.execution.plan.FusedPlan.prescribed_steps`) a row is
  the ideal circuit.  The rows are kept in order of first deviation
  behind one slot that carries the ideal state; a step runs on the
  leading block of rows that have deviated by it plus that slot, and a
  row joins by copying the slot's state, weight and alive flag just
  before its own first deviation (rows that never deviate before the
  tail copy it once, at the end).  Every row-facing call maps caller rows
  to slots, so callers see their own order.
* **Divergent Kraus choices** are handled by *grouping*: at each noise
  window the walked rows are partitioned by their variant key — the tuple
  of prescribed Kraus indices at the window's sites (absent sites use the
  channel's dominant operator, exactly like
  :meth:`PureStateBackend.run_fixed`) — and each distinct fused variant is
  applied via the same batched kernel over its row sub-slice.  Since PTS
  trajectories overwhelmingly take the dominant branch, there are
  typically only one or two groups per window, and only the rows that
  name one of the window's sites have their key looked up.
* **Batched renormalization** after each general-Kraus noise window (a
  unitary-mixture window keeps the norm and multiplies its
  state-independent probability into the weights instead) runs
  :func:`~repro.linalg.reductions.row_norms_squared` once over the walked
  block.  The reduction and every kernel are row-independent, and a
  copied prefix is the same arithmetic on the same input, so row ``i`` of
  a ``B``-row stack is bitwise the same trajectory prepared in a one-row
  stack: every dense strategy draws the same shots whatever the batch
  size (``tests/test_vectorized.py``, ``tests/test_fusion.py``).

Rows whose prescribed Kraus branch annihilates the actual state (possible
for general, non-unitary-mixture channels whose nominal probabilities are
only priors) are marked *dead*: their weight drops to zero, the row is
zeroed, and no shots are drawn; the one-row view raises
:class:`~repro.errors.ZeroProbabilityTrajectory` instead.

Sampling stays the cheap polynomial part of the PTSBE story: a
cumulative table per row (``|stack|**2`` normalized and cumsummed along
the state axis in one stack-wide pass), and each request draws its full
shot budget with one inverse-CDF lookup over all its shot uniforms at
once (:func:`repro.linalg.sampling.inverse_cdf_indices`).

The plan's *measurement tail* (:attr:`~repro.execution.plan.FusedPlan.tail`,
its suffix of permutation-and-phase steps) is sampled through, not
simulated: the preparation records each tail step's variant groups and
multiplies in its probabilities, and a draw goes through the recorded
steps, where the phases drop out, one of two ways:

* a request of ``num_shots >= 2**n`` reads its row's *final-order* table:
  the steps applied to the real ``|stack|**2`` as index gathers, which
  cost ``O(2**n)`` per row and step;
* a request of ``num_shots < 2**n`` reads its row's *walked-order* table
  (the prefix state's squares, no gather), and the drawn indices are
  relabelled instead: a step maps ``final[i] = walked[map[i]]``, so a
  walked index ``j`` becomes ``map^-1[j]`` on the step's window bits.  A
  unit's relabelled requests are joined and each step runs once over
  them (:meth:`_relabel`), which costs ``O(shots)`` per step — less than
  the gathers whenever a row draws fewer shots than it has amplitudes.

Both rules draw the same distribution, and every strategy applies the
same rule to a request, so the strategies stay bitwise interchangeable.
An amplitude read (:meth:`statevector`, :meth:`apply_matrix`,
:meth:`norms_squared`, and through them the view's single-state API)
first runs the recorded steps on the amplitudes, so every state read is
the full walk's, bit for bit.

The public entry points :meth:`run_fixed_stack`, :meth:`cumulative_stack`
and :meth:`sample` are thin wrappers over the private helpers
:meth:`_prepare`, :meth:`_cumulative` / :meth:`_draw_tables` and
:meth:`_draw`, which the one-row view calls directly: a view call never
passes through a stacked entry point, so a profile that wraps both
classes by name (``benchmarks/e2e/trace.py``) attributes each call to
one of them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import DEAD_NORM, validate_deferred_measurement
from repro.backends.mps_sampler import check_inside
from repro.linalg.apply import apply_compiled_stack, apply_matrix_stack
from repro.linalg.reductions import row_norms_squared, scale_rows_inverse_sqrt
from repro.linalg.sampling import bits_from_indices, inverse_cdf_indices
from repro.circuits.circuit import Circuit
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, CapacityError, ExecutionError

__all__ = ["BatchedStatevectorBackend"]


def _apply_grouped(
    stack: np.ndarray,
    groups: Dict[Tuple[int, ...], Sequence[int]],
    apply: Callable[[np.ndarray, Tuple[int, ...], Optional[np.ndarray]], np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``apply(rows, key, out)`` on each variant group of ``stack``'s rows.

    One group (unanimous rows) takes the whole stack — dead rows are zero
    and stay zero under any operator.  Otherwise the majority variant runs
    on the whole stack and the (few) deviating rows are overwritten from a
    pre-step snapshot, which avoids gathering and scattering the large
    majority slice.  ``apply`` either works in place or writes to ``out``
    (fresh when ``None``); the result is returned.  The minority variants
    write into whichever of ``stack`` and ``out`` the majority left free.
    """
    if len(groups) <= 1:
        return apply(stack, next(iter(groups)), out) if groups else stack
    majority = max(groups, key=lambda key: len(groups[key]))
    minority_rows = {
        key: np.asarray(rows, dtype=np.intp) for key, rows in groups.items() if key != majority
    }
    snapshots = {key: np.ascontiguousarray(stack[rows]) for key, rows in minority_rows.items()}
    result = apply(stack, majority, out)
    free = out if result is stack else stack
    for key, rows in minority_rows.items():
        scratch = None if free is None else free[: len(rows)]
        result[rows] = apply(snapshots.pop(key), key, scratch)
    return result


def _permute(stack: np.ndarray, support: Tuple[int, ...], index_map: np.ndarray) -> np.ndarray:
    """``out[:, i] = stack[:, map[i]]`` in the window on ascending
    ``support``, as a fresh array: ``np.take`` on the window axis of an
    ``(outer, 2**k, tail)`` view, one slice copy per window index when the
    window has gaps.  At the least-significant end (``tail == 1``) ``np.take``
    copies element by element; a flat GEMM against the map's 0/1 matrix is
    faster there (0.35 against 1.3 ms at 12 qubits x 64 rows) and exact.
    """
    rows, dim = stack.shape
    k = len(support)
    tail = dim >> (support[-1] + 1)
    if support[-1] - support[0] == k - 1:
        if tail == 1:
            ones = np.eye(1 << k, dtype=stack.dtype)[index_map]
            return np.matmul(stack.reshape(-1, 1 << k), ones.T).reshape(rows, dim)
        view = stack.reshape(-1, 1 << k, tail)
        return np.take(view, index_map, axis=1).reshape(rows, dim)
    shape = [rows << support[0]]
    for a, b in zip(support, support[1:]):
        shape += [2, 1 << (b - a - 1)]
    view = stack.reshape(shape + [2, tail])
    out = np.empty_like(view)

    def at(w: int) -> Tuple[object, ...]:
        return (slice(None),) + sum(
            (((w >> (k - 1 - j)) & 1, slice(None)) for j in range(k)), ()
        )

    for i, j in enumerate(index_map):
        out[at(i)] = view[at(int(j))]
    return out.reshape(rows, dim)


class BatchedStatevectorBackend:
    """Dense simulator evolving a ``(batch, 2**n)`` stack of pure states.

    This is *not* a :class:`~repro.backends.base.PureStateBackend`: it
    trades the one-state interface for stack-wide primitives, and
    :class:`~repro.backends.statevector.StatevectorBackend` puts the
    one-state interface back on a one-row stack.  Use it through
    :class:`~repro.execution.vectorized.VectorizedExecutor` (or
    ``run_ptsbe(..., strategy="vectorized")``).

    Parameters
    ----------
    num_qubits:
        Width of every state in the stack.
    batch_size:
        Initial number of stacked trajectories; :meth:`reset` and
        :meth:`run_fixed_stack` may resize the stack.
    config:
        Optional :class:`~repro.config.Config`; the stack must fit the
        dense amplitude budget ``2**max_dense_qubits`` *in total*, i.e.
        ``batch_size * 2**num_qubits`` amplitudes.
    """

    def __init__(
        self,
        num_qubits: int,
        batch_size: int = 1,
        config: Optional[Config] = None,
    ):
        config = config or DEFAULT_CONFIG
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        if num_qubits > config.max_dense_qubits:
            raise CapacityError(
                f"{num_qubits} qubits exceeds the dense cap of {config.max_dense_qubits} "
                f"(a 2**{num_qubits} statevector per stacked trajectory)"
            )
        self.num_qubits = int(num_qubits)
        self._config = config
        self._dim = 2**self.num_qubits
        #: Rows in walk order (see :meth:`_prepare`); ``_row[r]`` is where
        #: caller row ``r`` lives, and every row-facing call maps through it.
        self._stack = np.empty((0, self._dim), dtype=config.dtype)
        self._alive: np.ndarray = np.empty(0, dtype=bool)
        self._row: np.ndarray = np.empty(0, dtype=np.intp)
        #: The second buffer a walk alternates with, alive only during one.
        self._spare: Optional[np.ndarray] = None
        self._probs_cache: Dict[int, np.ndarray] = {}
        #: The draw tables, walked order (``True``) and final order:
        #: ``(caller row -> table row or -1, cumulative table, row norms)``.
        self._tables: Dict[bool, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: The measurement tail of the last preparation, not yet run on the
        #: amplitudes: ``(step, {variant key: caller rows})`` per classical step.
        self._tail: List[Tuple[object, Dict[Tuple[int, ...], List[int]]]] = []
        #: Cumulative wall time spent renormalizing the stack after noise
        #: windows (reduction + scale + bookkeeping) — the benchmark
        #: counter behind the strategy table's renorm column.
        self.renorm_seconds = 0.0
        self.reset(batch_size)

    # ------------------------------------------------------------------ #
    # stack management
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return int(self._stack.shape[0])

    @property
    def max_batch_rows(self) -> int:
        """Largest stack that fits the dense amplitude budget."""
        return max(1, 2 ** max(0, self._config.max_dense_qubits - self.num_qubits))

    @property
    def alive(self) -> np.ndarray:
        """Boolean mask of rows that still hold a valid (non-dead) state."""
        return self._alive[self._row]

    @property
    def config(self) -> Config:
        """The configuration this backend was built with."""
        return self._config

    def reset(self, batch_size: Optional[int] = None) -> None:
        """Reset every row to |0...0>, optionally resizing the stack."""
        b = self.batch_size if batch_size is None else int(batch_size)
        self._allocate(b, np.zeros)
        self._stack[:, 0] = 1.0
        self._row = np.arange(b)

    def _allocate(self, b: int, alloc: Callable = np.empty) -> None:
        """A fresh ``b``-row stack from ``alloc``, every row alive, no tail."""
        if b <= 0:
            raise BackendError(f"batch_size must be positive, got {b}")
        if b > self.max_batch_rows:
            raise CapacityError(
                f"stack of {b} x 2**{self.num_qubits} amplitudes exceeds the dense "
                f"budget of 2**{self._config.max_dense_qubits} (max {self.max_batch_rows} rows)"
            )
        self.release()  # the old stack and its tables go before the new one comes
        try:
            self._stack = alloc((b, self._dim), dtype=self._config.dtype)
        except MemoryError as exc:
            # Within the configured budget but past what the host actually
            # has: surface the same actionable error type as the cap check
            # instead of a raw allocation failure.
            raise CapacityError(
                f"allocating a {b} x 2**{self.num_qubits} dense stack ran out "
                f"of memory; lower the batch size or use strategy "
                f"'tensornet'/'clifford' for wide circuits"
            ) from exc
        self._alive = np.ones(b, dtype=bool)

    def statevector(self, row: int) -> np.ndarray:
        """Row ``row``'s amplitude array (a direct view — do not mutate)."""
        self._materialize()
        return self._stack[self._row[row]]

    def release(self) -> None:
        """Drop the stack and every sampling cache.

        The stack-completion boundary for streaming consumers: when a
        :class:`~repro.execution.streaming.StreamedResult` is abandoned
        mid-run, the executor calls this so the ``(B, 2**n)`` stack and
        the stack-wide cumulative tensor do not outlive the stream.
        Idempotent.  The backend stays usable, but the stack is gone:
        reallocate with an explicit size — ``reset(batch_size)`` or
        :meth:`run_fixed_stack` (an argument-less ``reset()`` has no
        previous size to restore and raises).  The serial engine releases
        its one-row view this way after every unit's draw.
        """
        self._stack = np.empty((0, self._dim), dtype=self._config.dtype)
        self._alive = np.empty(0, dtype=bool)
        self._row = np.empty(0, dtype=np.intp)
        self._spare = None
        self._tail = []
        self._invalidate()

    def _invalidate(self) -> None:
        self._probs_cache.clear()
        self._tables.clear()

    # ------------------------------------------------------------------ #
    # batched state evolution
    # ------------------------------------------------------------------ #
    def apply_matrix(
        self,
        matrix: np.ndarray,
        targets: Sequence[int],
        rows: Optional[Sequence[int]] = None,
    ) -> None:
        """Apply one ``(2**k, 2**k)`` matrix to ``targets`` of many rows.

        ``rows=None`` hits the whole stack with one fused kernel call
        (the shared-gate fast path); an explicit row list transforms only
        that sub-slice (the divergent-Kraus path).  No renormalization.
        """
        targets = list(targets)
        k = len(targets)
        dim_k = 2**k
        matrix = np.asarray(matrix)
        if matrix.shape != (dim_k, dim_k):
            raise BackendError(
                f"matrix shape {matrix.shape} incompatible with targets {targets}"
            )
        if any(t < 0 or t >= self.num_qubits for t in targets):
            raise BackendError(f"targets {targets} out of range")
        if len(set(targets)) != k:
            raise BackendError(f"duplicate targets {targets}")
        self._materialize()

        if rows is not None:
            # Deduplicate so the gather/scatter (and the whole-stack
            # shortcut below) see well-defined fancy-index semantics.
            rows = np.unique(np.asarray(rows, dtype=np.intp))
            if rows.size and (rows[0] < 0 or rows[-1] >= self.batch_size):
                raise BackendError(
                    f"rows {rows.tolist()} out of range for a "
                    f"{self.batch_size}-row stack"
                )
            rows = np.sort(self._row[rows])
            if rows.size == self.batch_size:
                rows = None  # the "sub-slice" is the whole stack
        if rows is None:
            self._stack = apply_matrix_stack(
                self._stack, matrix, targets, self.num_qubits, self._config.dtype
            )
        else:
            if rows.size == 0:
                return
            self._stack[rows] = apply_matrix_stack(
                np.ascontiguousarray(self._stack[rows]),
                matrix,
                targets,
                self.num_qubits,
                self._config.dtype,
            )
        self._invalidate()

    def norms_squared(self) -> np.ndarray:
        """Per-row <psi|psi> of the current stack: one stack-wide
        :func:`~repro.linalg.reductions.row_norms_squared` call."""
        self._materialize()
        return row_norms_squared(self._stack).astype(np.float64, copy=False)[self._row]

    # ------------------------------------------------------------------ #
    # stacked trajectory preparation (the vectorized BE primitive)
    # ------------------------------------------------------------------ #
    def run_fixed_stack(
        self,
        circuit: Circuit,
        choices_list: Sequence[Optional[Dict[int, int]]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Prepare one trajectory state per entry of ``choices_list``.

        Each entry maps ``site_id -> kraus_index`` exactly as in
        :meth:`PureStateBackend.run_fixed`; sites absent from a map use
        the channel's dominant operator.  Returns ``(weights, alive)``:
        the per-row product of actual branch probabilities, and a mask of
        rows whose prescribed branches were all realizable.  Dead rows
        have weight 0 and a zeroed state.

        Execution walks the circuit's compiled
        :class:`~repro.execution.plan.FusedPlan` up to its measurement
        tail, which is recorded for the sampler (see the module notes).  A
        circuit narrower than the register acts on its leading qubits.
        """
        return self._prepare(circuit, choices_list)

    def _prepare(
        self,
        circuit: Circuit,
        choices_list: Sequence[Optional[Dict[int, int]]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Imported lazily: repro.execution imports this module at package
        # init, so a top-level import would be circular.
        from repro.execution.plan import NoiseStep, get_fused_plan

        if not circuit.frozen:
            raise ExecutionError("run_fixed_stack requires a frozen circuit")
        if circuit.num_qubits > self.num_qubits:
            raise BackendError(
                f"circuit has {circuit.num_qubits} qubits, backend has {self.num_qubits}"
            )
        validate_deferred_measurement(circuit)
        if len(choices_list) == 0:
            raise ExecutionError("empty trajectory stack")
        plan = get_fused_plan(circuit, self._config)
        b = len(choices_list)
        first, touched = plan.prescribed_steps(choices_list)
        first = np.asarray(first, dtype=np.intp)
        # Walk order: slot 0 holds the row that deviates last — the ideal
        # circuit until then — and the others follow in order of their
        # first deviation, so the rows a step touches are a leading block.
        order = np.roll(np.argsort(first, kind="stable"), 1)
        joined = (1 + np.searchsorted(first[order[1:]], np.arange(plan.tail), side="right")).tolist()
        self._allocate(b)
        self._row = np.empty(b, dtype=np.intp)
        self._row[order] = np.arange(b)
        slot = self._row.tolist()
        self._stack[0] = 0
        self._stack[0, 0] = 1.0
        self._spare = np.empty_like(self._stack)
        weights = np.ones(b, dtype=np.float64)
        live = 1
        for index in range(plan.tail):
            step = plan.steps[index]
            live = self._join(live, joined[index], weights)
            prescribed = [(slot[row], choices_list[row]) for row in touched[index]]
            groups = self._groups(step, self._alive, live, prescribed)
            self._apply_step(step, groups, live)
            if isinstance(step, NoiseStep):
                self._weigh(step, groups, weights, live)
        self._join(live, b, weights)
        self._spare = None
        weights, alive = weights[self._row], self._alive[self._row]
        for index in range(plan.tail, plan.num_steps):
            # The measurement tail: recorded on caller rows, not run (see
            # _squares).  Its windows are unitary: _weigh touches no state.
            step = plan.steps[index]
            prescribed = [(row, choices_list[row]) for row in touched[index]]
            groups = self._groups(step, alive, b, prescribed)
            self._tail.append((step, groups))
            if isinstance(step, NoiseStep):
                self._weigh(step, groups, weights, b)
            # MeasureOps are deferred; sampling happens afterwards.
        return weights, alive

    def _join(self, live: int, upto: int, weights: np.ndarray) -> int:
        """Slots ``[live, upto)`` take the ideal slot's state, weight and
        alive flag (the prefix they share with it); returns the new block
        end, ``upto >= live``."""
        if upto > live:
            self._stack[live:upto] = self._stack[0]
            weights[live:upto] = weights[0]
            self._alive[live:upto] = self._alive[0]
        return upto

    @staticmethod
    def _groups(
        step, alive: np.ndarray, count: int, prescribed: List[Tuple[int, Dict[int, int]]]
    ) -> Dict[Tuple[int, ...], Sequence[int]]:
        """The alive rows among the first ``count`` grouped by their variant
        key at ``step``: each ``(row, choices)`` in ``prescribed`` (the rows
        naming a site of the step) by its own key, every other row by the
        dominant one."""
        rest = alive[:count].copy()
        groups: Dict[Tuple[int, ...], Sequence[int]] = {}
        for row, choices in prescribed:
            if row < count and alive[row]:
                rest[row] = False
                groups.setdefault(step.key_for(choices), []).append(row)
        others = np.flatnonzero(rest)
        if others.size:
            key = step.key_for(None)
            groups[key] = np.concatenate([others, groups[key]]) if key in groups else others
        return groups

    def _apply_step(self, step, groups: Dict[Tuple[int, ...], Sequence[int]], live: int) -> None:
        """One step of the complex walk on the leading ``live`` slots: each
        group's variant on its rows, from one buffer into the other."""
        block, spare = self._stack[:live], self._spare[:live]
        result = _apply_grouped(
            block,
            groups,
            lambda rows, key, out: apply_compiled_stack(
                rows, step.variant(key), self.num_qubits, out
            ),
            spare,
        )
        if result is spare:
            self._stack, self._spare = self._spare, self._stack

    def _materialize(self) -> None:
        """Run the recorded tail on the amplitudes: the walk it replaces,
        step for step, so every amplitude read is the full walk's state."""
        tail, self._tail = self._tail, []
        if not tail:
            return
        self._tables.pop(True, None)  # its draws would need the tail just run
        self._spare = np.empty_like(self._stack)
        for step, groups in tail:
            slots = {key: self._row[rows] for key, rows in groups.items()}
            self._apply_step(step, slots, self.batch_size)
        self._spare = None

    def _weigh(self, step, groups, weights: np.ndarray, live: int) -> None:
        """Weigh the rows after a noise window: by the window's probability
        (unitary mixture) or by renormalizing the leading ``live`` slots."""
        if step.unitary:
            # Unitary-mixture window: every variant is unitary and its
            # branch probability state-independent — no reduction, no
            # rescale, no row can die here.
            for key, rows in groups.items():
                weights[rows] *= step.probability(key)
            return
        if not groups:
            return  # every row already dead: nothing to scale
        # Batched renormalization: one block-wide, row-independent
        # reduction.  Dead rows (previously dead, or annihilated by this
        # window) get a unit divisor: x / 1.0 is bitwise x, and newly-dead
        # rows are zeroed below anyway.
        t0 = time.perf_counter()
        block = self._stack[:live]
        norms = row_norms_squared(block)
        scale_rows_inverse_sqrt(block, norms, dead_norm=DEAD_NORM)
        for rows in groups.values():
            for row in rows:
                n2 = float(norms[row])
                if n2 <= DEAD_NORM:
                    # This branch annihilates the actual state (nominal
                    # probabilities are only priors for general channels).
                    self._alive[row] = False
                    weights[row] = 0.0
                    self._stack[row].fill(0)
                    continue
                weights[row] *= n2
        self.renorm_seconds += time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    # stacked probabilities and bulk sampling
    # ------------------------------------------------------------------ #
    def probabilities(self, row: int) -> np.ndarray:
        """|amplitude|**2 of one row (cached until the stack mutates)."""
        cached = self._probs_cache.get(row)
        if cached is None:
            check_inside([row], self.batch_size, "row", "stack")
            probs = self._squares([row])[0]
            total = probs.sum()
            if float(total) <= 0:
                raise BackendError(f"stack row {row} has zero norm (dead trajectory)")
            cached = (probs / total).astype(np.float64, copy=False)
            self._probs_cache[row] = cached
        return cached

    def cumulative_stack(
        self, sizes: Optional[Sequence[Sequence[int]]] = None
    ) -> Optional[np.ndarray]:
        """The ``(batch, 2**n)`` cumulative-probability tensor, stack-wide.

        Built in one pass — ``|stack|**2``, per-row normalization,
        ``cumsum`` along the state axis, tail clamped to 1.0 so no shot
        uniform falls off the end of a row (the precondition of
        :func:`~repro.linalg.sampling.inverse_cdf_indices`) — and cached
        until the stack mutates.  Dead (zero-norm) rows come out all-zero
        with only the clamped tail entry at 1.0 — never a valid
        distribution — so sampling guards on the per-row norm and raises
        before such a row could be drawn from.

        With ``sizes`` — per row, the shot counts of the requests
        :meth:`sample` will draw from it — this builds only the tables
        those draws read instead, and returns ``None``: a row's
        *walked-order* table (the measurement tail not applied) for its
        requests under ``2**n`` shots, its final-order one for the rest
        (see the module notes).
        """
        if sizes is None:
            return self._cumulative()
        self._draw_tables(sizes)
        return None

    def _cumulative(self) -> np.ndarray:
        """The final-order table of every row (:meth:`cumulative_stack`)."""
        return self._table(False, slice(None))[1]

    def _draw_tables(self, sizes: Sequence[Sequence[int]]) -> None:
        """Build the tables the draws of ``sizes`` read (:meth:`cumulative_stack`)."""
        for walked in (True, False):
            rows = [
                row
                for row, shots in enumerate(sizes)
                if any(n > 0 and self._walked(n) == walked for n in shots)
            ]
            if rows:
                self._tables[walked] = self._build_table(walked, rows)

    def _walked(self, num_shots: int) -> bool:
        """Whether a request of ``num_shots`` draws from its row's walked-order
        table: fewer shots than ``2**n``, and a tail to relabel them through."""
        return bool(self._tail) and num_shots < self._dim

    def _table(self, walked: bool, rows) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(caller row -> table row or -1, cumulative table, row norms)`` in
        walked or final order, built for every row unless it has ``rows``
        (an index into the caller rows)."""
        entry = self._tables.get(walked)
        if entry is None or (entry[0][rows] < 0).any():
            entry = self._tables[walked] = self._build_table(walked, range(self.batch_size))
        return entry

    def _build_table(
        self, walked: bool, rows: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.asarray(rows, dtype=np.intp)
        probs = self._squares(rows, tail=not walked)
        totals = probs.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, np.asarray(1.0, dtype=totals.dtype))
        # In place on the fresh squares: one (rows, 2**n) table alive, not three.
        np.divide(probs, safe, out=probs)
        cum = probs.astype(np.float64, copy=False)
        np.cumsum(cum, axis=1, out=cum)
        # Clamp the tail so no uniform falls off the end.
        cum[:, -1] = 1.0
        at = np.full(self.batch_size, -1, dtype=np.intp)
        at[rows] = np.arange(len(rows))
        return at, cum, totals.reshape(-1).astype(np.float64, copy=False)

    def _squares(self, rows: Sequence[int], tail: bool = True) -> np.ndarray:
        """``|amplitude|**2`` of caller ``rows`` (ascending), as a fresh array
        the caller owns: in the final index order, or with ``tail=False`` in
        the walked one.

        The recorded tail runs here, on the real squares: each classical
        step is its variants' index maps (their phases drop out of
        ``|.|**2``), grouped as the complex walk groups them.  Without a
        phase the result is bitwise the walked state's squares; with one,
        it differs only where a phase product rounds in the last bit.
        The squares come out in caller order, read row by row out of the
        walk order: no gather of the complex stack.
        """
        rows = np.asarray(rows, dtype=np.intp)
        probs = np.empty((len(rows), self._dim), dtype=self._stack.real.dtype)
        for out, slot in zip(probs, self._row[rows].tolist()):
            np.abs(self._stack[slot], out=out)
        np.square(probs, out=probs)
        if not tail:
            return probs
        at = np.full(self.batch_size, -1, dtype=np.intp)
        at[rows] = np.arange(len(rows))
        for step, groups in self._tail:
            if len(rows) < self.batch_size:
                # The groups' rows as positions in ``rows``, empty groups dropped.
                groups = {key: at[np.asarray(g, dtype=np.intp)] for key, g in groups.items()}
                groups = {key: g[g >= 0] for key, g in groups.items() if g.max() >= 0}
            probs = _apply_grouped(
                probs,
                groups,
                lambda block, key, out: _permute(block, step.support, step.permutation(key)),
            )
        return probs

    def _relabel(self, indices: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Walked-order ``indices`` drawn from caller rows ``owners`` (one
        per index), in final order, in place.

        A tail step maps the squares by ``final[i] = walked[map[i]]``, so a
        walked index ``j`` is final index ``map^-1[j]`` on the step's window
        bits, steps in order.  Per step, one ``(variant keys, 2**k)`` table
        holds each key's bit flips ``spread(w ^ map^-1[w])``; an index reads
        its row's key's entry at its window value ``w`` — one gather over
        the unit's shots, whatever the number of keys.
        """
        n = self.num_qubits
        for step, groups in self._tail:
            if not groups:
                continue
            support = step.support
            k = len(support)
            values = np.arange(1 << k)
            spread = np.zeros(1 << k, dtype=indices.dtype)
            for j, q in enumerate(support):
                spread |= ((values >> (k - 1 - j)) & 1) << (n - 1 - q)
            flips = np.empty((len(groups), 1 << k), dtype=indices.dtype)
            for flip, key in zip(flips, groups):
                inverse = np.empty_like(values)
                inverse[step.permutation(key)] = values
                flip[:] = spread[values ^ inverse]
            if support[-1] - support[0] == k - 1:
                window = (indices >> (n - 1 - support[-1])) & ((1 << k) - 1)
            else:
                window = np.zeros_like(indices)
                for j, q in enumerate(support):
                    window |= ((indices >> (n - 1 - q)) & 1) << (k - 1 - j)
            if len(groups) > 1:
                key_of = np.zeros(self.batch_size, dtype=indices.dtype)
                for g, rows in enumerate(groups.values()):
                    key_of[rows] = g << k
                window += key_of[owners]
            indices ^= flips.reshape(-1).take(window)
        return indices

    def _indices(
        self, row: int, num_shots: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, bool]:
        """``num_shots`` basis indices drawn from caller row ``row``, and
        whether they are in walked order (:meth:`_relabel` finishes them).

        All ``num_shots`` uniforms come from ``rng`` in one draw (the
        ``(seed, trajectory_id)`` determinism contract) and go through one
        inverse-CDF lookup on the row's cumulative table.
        """
        check_inside([row], self.batch_size, "row", "stack")
        if num_shots < 0:
            raise BackendError("num_shots must be >= 0")
        if num_shots == 0:
            return np.empty(0, dtype=np.int64), False
        walked = self._walked(num_shots)
        at, cum, totals = self._table(walked, row)
        if totals[at[row]] <= 0:
            raise BackendError(f"stack row {row} has zero norm (dead trajectory)")
        r = rng.random(num_shots)
        return inverse_cdf_indices(cum[at[row]], r).astype(np.int64, copy=False), walked

    def _draw(
        self, requests: Sequence[Tuple[int, int, np.random.Generator]], qubits=None
    ) -> List[np.ndarray]:
        """Per ``(row, num_shots, rng)`` request, its final-order indices, or
        with ``qubits`` its bits of them.  The walked-order draws are joined,
        relabelled and unpacked together."""
        out, walked = [], []
        for position, (row, num_shots, rng) in enumerate(requests):
            indices, relabel = self._indices(row, num_shots, rng)
            if relabel:
                walked.append(position)
            elif qubits is not None:
                indices = bits_from_indices(indices, qubits, self.num_qubits)
            out.append(indices)
        if walked:
            counts = [len(out[p]) for p in walked]
            owners = np.repeat([requests[p][0] for p in walked], counts)
            joined = self._relabel(np.concatenate([out[p] for p in walked]), owners)
            if qubits is not None:
                joined = bits_from_indices(joined, qubits, self.num_qubits)
            for p, part in zip(walked, np.split(joined, np.cumsum(counts)[:-1])):
                out[p] = part
        return out

    def sample_indices(
        self, row: int, num_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bulk-sample basis-state indices (final order) from one stacked
        trajectory: one draw of ``num_shots`` uniforms from ``rng``, one
        inverse-CDF lookup on the row's table."""
        return self._draw([(row, num_shots, rng)])[0]

    def sample(
        self,
        requests: Sequence[Tuple[int, int, np.random.Generator]],
        qubits: Sequence[int],
    ) -> List[np.ndarray]:
        """One ``(num_shots, len(qubits))`` bits array per ``(row, num_shots,
        rng)`` request, each drawn from its row with its own generator.

        A request under ``2**n`` shots reads its row's walked-order table,
        and every such request's indices go through the measurement tail
        together (one pass per tail step over the joined draws) and are
        unpacked by one :func:`~repro.linalg.sampling.bits_from_indices`.
        """
        return self._draw(requests, qubits)

    def __repr__(self) -> str:
        return (
            f"BatchedStatevectorBackend(qubits={self.num_qubits}, "
            f"batch={self.batch_size}, dtype={self._config.dtype})"
        )
