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
  once per window instead of once per (operation, trajectory).  Shared
  *prefixes* are walked once too: PTS fixes every choice before any state
  exists, so a row's variant at every step is known before the walk, and
  two rows that took the same variants up to a step hold the same state
  there.  The rows are lexsorted by variant sequence over the walked steps
  (:func:`_trie`); a row *joins* at the first step where it differs from
  its sorted predecessor, by copying the state, weight and alive flag of
  the nearest earlier sorted row that joined before it (the two agree on
  every step before the join).  The lex-first row walks from ``|0...0>``
  in slot 0, the others follow in order of join step, so a step runs on
  the leading block of rows that have joined by it, and each walked
  row-step is one node of the rows' trie.  Rows that agree up to the tail
  copy once, at the end; a row whose source died before it joined is dead
  the same way.  Every row-facing call maps caller rows to slots, so
  callers see their own order.
* **Divergent Kraus choices** share the step's one kernel call.  A row's
  variant key at a step — the tuple of prescribed Kraus indices at the
  window's sites (a site the row's table does not list takes the
  channel's dominant operator, exactly like
  :meth:`PureStateBackend.run_fixed`) — is read once per unit into one
  table (:meth:`~repro.execution.plan.FusedPlan.prescribed_steps`): per
  step, the distinct keys, dominant first, and one integer per row
  indexing them.  The walk, the weights, the tail tables and the
  relabelled draws all index that array.  A step whose walked rows all
  take one variant makes the one-variant call; otherwise, when every
  variant compiles to a GEMM tier, one batched kernel call runs each row
  under its own variant (the step's variants plus the row -> variant
  index), bitwise what the one-variant call gives that row.  Only a step
  with a variant on a per-variant tier (diagonal, scalar or slice
  accumulation, which skip different zero entries per variant) applies
  each variant to its rows (:func:`_apply_grouped`, the one place that
  lists a variant's rows).  Dead rows are not filtered out: a dead row is
  zero, stays zero under any variant and keeps weight 0.
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

Sampling stays the cheap polynomial part of the PTSBE story, and works
per unit, not per request: a cumulative table (``|stack|**2`` normalized
and cumsummed along the state axis in one block pass), every request's
uniforms drawn from its own generator into one unit buffer, and one
exact search over the whole buffer
(:func:`repro.linalg.sampling.stacked_inverse_cdf_indices`, each uniform
against its own row).  Rows the trie joins at the tail hold a copy of
their source's walked state, so the walked-order table has one row per
*distinct* walked state, the stack's leading slots: such a row reads its
source's table row.  A request that reads the final-order table (below)
keeps its own lookup (:func:`repro.linalg.sampling.inverse_cdf_indices`,
whose guide table pays at large shot counts); both searches return
``searchsorted``'s indices.

The plan's *measurement tail* (:attr:`~repro.execution.plan.FusedPlan.tail`,
its suffix of permutation-and-phase steps) is sampled through, not
simulated: the preparation records each tail step's row -> variant index
and multiplies in its probabilities, and a draw goes through the recorded
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
from repro.linalg.sampling import (
    bits_from_indices,
    inverse_cdf_indices,
    stacked_inverse_cdf_indices,
)
from repro.circuits.circuit import Circuit
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, CapacityError, ExecutionError
from repro.prescriptions import Choices, as_prescriptions, site_table

__all__ = ["BatchedStatevectorBackend"]

#: A step's distinct variant keys; a row's variant is an index into them.
Keys = List[Tuple[int, ...]]


def _used(keys: Keys, of: np.ndarray) -> Tuple[Keys, np.ndarray]:
    """The keys ``of`` names and its index into them: one key (and ``of``
    untouched) whenever every row takes the same variant."""
    if len(keys) > 1:
        used, of = np.unique(of, return_inverse=True)
        keys = [keys[i] for i in used]
    return keys, of


def _trie(walked: List[np.ndarray], b: int) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """The trie walk of ``b`` rows that take variant ``walked[s][row]`` at
    walked step ``s``: per slot, its caller row; per walked step, how many
    slots have joined by it; per slot, the slot whose state it copies when
    it joins.

    The rows are lexsorted by variant sequence.  A row's join step is the
    first step where it differs from its lexsort predecessor (``len(walked)``
    if none), and its source is the nearest earlier row in lexsort order
    that joined before it: every row in between agrees with the source on
    the steps before that join, so the row does too, and the source's
    state there is the one the row would have walked to.  The lex-first
    row is slot 0, joins at ``-1`` and walks from ``|0...0>``.  Slots go in
    order of join step, so the rows a step runs on are a leading block.
    """
    join = np.full(b, len(walked), dtype=np.intp)
    join[0] = -1
    lex = np.arange(b)
    if walked:
        lex = np.lexsort(walked[::-1])
        sequences = np.stack(walked)[:, lex]
        differ = sequences[:, 1:] != sequences[:, :-1]
        join[1:] = np.where(differ.any(axis=0), differ.argmax(axis=0), len(walked))
    # One stack pass for each row's previous strictly smaller join step.
    source = np.zeros(b, dtype=np.intp)
    joins, below = join.tolist(), [0]
    for row in range(1, b):
        while joins[below[-1]] >= joins[row]:
            below.pop()
        source[row] = below[-1]
        below.append(row)
    by_join = np.argsort(join, kind="stable")
    slot = np.empty(b, dtype=np.intp)
    slot[by_join] = np.arange(b)
    joined = np.searchsorted(join[by_join], np.arange(len(walked)), side="right")
    return lex[by_join], joined.tolist(), slot[source[by_join]]


def _apply_grouped(
    stack: np.ndarray,
    keys: Keys,
    of: np.ndarray,
    apply: Callable[[np.ndarray, Tuple[int, ...], Optional[np.ndarray]], np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``apply(rows, key, out)`` on each variant group of ``stack``'s rows,
    row ``i`` under ``keys[of[i]]``.

    The path for steps whose arithmetic is per variant (a variant on the
    diagonal, scalar or slice-accumulation tier) and for the final-order
    tail tables; a step whose variants all take a GEMM tier runs as one
    per-row call instead (:meth:`BatchedStatevectorBackend._apply_step`).
    One variant takes the whole stack.  Otherwise the majority variant runs
    on the whole stack and the (few) other rows are overwritten from a
    pre-step snapshot, which avoids gathering and scattering the large
    majority slice.  ``apply`` either works in place or writes to ``out``
    (fresh when ``None``); the result is returned.  The minority variants
    write into whichever of ``stack`` and ``out`` the majority left free.
    """
    keys, of = _used(keys, of)
    if len(keys) == 1:
        return apply(stack, keys[0], out)
    majority = int(np.bincount(of).argmax())
    minority_rows = {i: np.flatnonzero(of == i) for i in range(len(keys)) if i != majority}
    snapshots = {i: np.ascontiguousarray(stack[rows]) for i, rows in minority_rows.items()}
    result = apply(stack, keys[majority], out)
    free = out if result is stack else stack
    for i, rows in minority_rows.items():
        scratch = None if free is None else free[: len(rows)]
        result[rows] = apply(snapshots.pop(i), keys[i], scratch)
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
        #: Rows in walk order (see :func:`_trie`); ``_row[r]`` is where
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
        #: Per slot, the slot whose walked state it holds while a tail is
        #: recorded: itself, or the source of a row the trie joined at the
        #: tail.  The walked-order table has one row per such holder.
        self._holder: np.ndarray = np.empty(0, dtype=np.intp)
        #: The relabel's bit flips per ``(tail step, variant key)``.
        self._flips: Dict[Tuple[object, Tuple[int, ...]], np.ndarray] = {}
        #: The measurement tail of the last preparation, not yet run on the
        #: amplitudes: ``(step, keys, of)`` per classical step, ``of`` indexed
        #: by caller row (:meth:`~repro.execution.plan.FusedPlan.prescribed_steps`).
        self._tail: List[Tuple[object, Keys, np.ndarray]] = []
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
        self._holder = np.empty(0, dtype=np.intp)
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
        self, circuit: Circuit, choices_list: Choices
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Prepare one trajectory state per row of ``choices_list``.

        ``choices_list`` is a prescription table built against ``circuit``
        or one ``site_id -> kraus_index`` map per row, as in
        :meth:`PureStateBackend.run_fixed` (checked by
        :func:`~repro.prescriptions.as_prescriptions`); sites a row does
        not list use the channel's dominant operator.  Returns ``(weights,
        alive)``: the per-row product of actual branch probabilities, and a
        mask of rows whose prescribed branches were all realizable.  Dead
        rows have weight 0 and a zeroed state.

        Execution walks the circuit's compiled
        :class:`~repro.execution.plan.FusedPlan` up to its measurement
        tail, which is recorded for the sampler (see the module notes).  A
        circuit narrower than the register acts on its leading qubits.
        """
        return self._prepare(circuit, choices_list)

    def _prepare(self, circuit: Circuit, choices_list: Choices) -> Tuple[np.ndarray, np.ndarray]:
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
        table = as_prescriptions(site_table(circuit), choices_list)
        plan = get_fused_plan(circuit, self._config)
        b = len(table)
        variants = plan.prescribed_steps(table)
        rows, joined, source = _trie([of for _, of in variants[: plan.tail]], b)
        self._allocate(b)
        self._row = np.empty(b, dtype=np.intp)
        self._row[rows] = np.arange(b)
        self._stack[0] = 0
        self._stack[0, 0] = 1.0
        self._spare = np.empty_like(self._stack)
        weights = np.ones(b, dtype=np.float64)
        live = 1
        for step, upto, (keys, of) in zip(plan.steps, joined, variants):
            live = self._join(live, upto, source, weights)
            of = of[rows[:live]]
            self._apply_step(step, keys, of, live)
            if isinstance(step, NoiseStep):
                self._weigh(step, keys, of, weights[:live])
        self._holder = np.arange(b)
        self._holder[live:] = source[live:]
        self._join(live, b, source, weights)
        self._spare = None
        weights, alive = weights[self._row], self._alive[self._row]
        for step, (keys, of) in zip(plan.steps[plan.tail :], variants[plan.tail :]):
            # The measurement tail: recorded on caller rows, not run (see
            # _squares).  Its windows are unitary: _weigh touches no state.
            self._tail.append((step, keys, of))
            if isinstance(step, NoiseStep):
                self._weigh(step, keys, of, weights)
            # MeasureOps are deferred; sampling happens afterwards.
        return weights, alive

    def _join(self, live: int, upto: int, source: np.ndarray, weights: np.ndarray) -> int:
        """Slots ``[live, upto)`` take their source slots' state, weight and
        alive flag (the prefix each shares with its source); returns the new
        block end, ``upto >= live``.  A state is copied row by row: a
        fancy-indexed block copy would allocate a ``(rows, 2**n)`` temporary."""
        sources = source[live:upto]
        for slot, src in enumerate(sources.tolist(), live):
            self._stack[slot] = self._stack[src]
        weights[live:upto] = weights[sources]
        self._alive[live:upto] = self._alive[sources]
        return upto

    def _apply_step(self, step, keys: Keys, of: np.ndarray, live: int) -> None:
        """One step of the complex walk on the leading ``live`` slots, slot
        ``i`` under ``keys[of[i]]``, from one buffer into the other: one
        kernel call, unless some variant's tier is not a GEMM (see
        :func:`_apply_grouped`).  Dead rows are zero and stay zero under
        any variant."""
        block, spare = self._stack[:live], self._spare[:live]
        keys, of = _used(keys, of)
        variants = [step.variant(key) for key in keys]
        if len(variants) == 1:
            result = apply_compiled_stack(block, variants[0], self.num_qubits, spare)
        elif all(op.gemm for op in variants):
            result = apply_compiled_stack(block, variants, self.num_qubits, spare, of)
        else:
            result = _apply_grouped(
                block,
                keys,
                of,
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
        for step, keys, of in tail:
            slots = np.empty_like(of)
            slots[self._row] = of
            self._apply_step(step, keys, slots, self.batch_size)
        self._spare = None

    def _weigh(self, step, keys: Keys, of: np.ndarray, weights: np.ndarray) -> None:
        """Weigh the leading ``len(weights)`` slots after a noise window, slot
        ``i`` under ``keys[of[i]]``: by the window's probability (unitary
        mixture) or by renormalizing them."""
        if step.unitary:
            # Unitary-mixture window: every variant is unitary and its
            # branch probability state-independent — no reduction, no
            # rescale, no row can die here.
            weights *= np.array([step.probability(key) for key in keys])[of]
            return
        # Batched renormalization: one block-wide, row-independent
        # reduction.  Dead rows (previously dead, or annihilated by this
        # window) get a unit divisor: x / 1.0 is bitwise x, and newly-dead
        # rows are zeroed below anyway.
        t0 = time.perf_counter()
        block = self._stack[: len(weights)]
        norms = row_norms_squared(block)
        scale_rows_inverse_sqrt(block, norms, dead_norm=DEAD_NORM)
        norms = norms.astype(np.float64, copy=False)
        weights *= norms
        # A branch that annihilates the actual state (nominal probabilities
        # are only priors for general channels) kills its row.
        dead = norms <= DEAD_NORM
        if dead.any():
            self._alive[: len(weights)] &= ~dead
            weights[dead] = 0.0
            block[dead] = 0
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

    def _walked(self, num_shots):
        """Whether a request of ``num_shots`` (or each of an array of them)
        draws from its row's walked-order table: fewer shots than ``2**n``,
        and a tail to relabel them through."""
        return bool(self._tail) & (num_shots < self._dim)

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
        """The table the draws of caller ``rows`` read.  In walked order its
        rows are the stack's leading slots, up to the last one a row in
        ``rows`` holds its walked state in, squared in one block pass: a
        row the trie joined at the tail reads its source's table row."""
        rows = np.asarray(rows, dtype=np.intp)
        if walked:
            holder = self._holder[self._row]
            count = int(holder[rows].max()) + 1
            probs = np.abs(self._stack[:count])
            np.square(probs, out=probs)
            at = np.where(holder < count, holder, -1)
        else:
            probs = self._squares(rows)
            at = np.full(self.batch_size, -1, dtype=np.intp)
            at[rows] = np.arange(len(rows))
        totals = probs.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, np.asarray(1.0, dtype=totals.dtype))
        # In place on the fresh squares: one (rows, 2**n) table alive, not three.
        np.divide(probs, safe, out=probs)
        cum = probs.astype(np.float64, copy=False)
        np.cumsum(cum, axis=1, out=cum)
        # Clamp the tail so no uniform falls off the end.
        cum[:, -1] = 1.0
        return at, cum, totals.reshape(-1).astype(np.float64, copy=False)

    def _squares(self, rows: Sequence[int], tail: bool = True) -> np.ndarray:
        """``|amplitude|**2`` of caller ``rows`` (ascending), as a fresh array
        the caller owns: in the final index order, or with ``tail=False`` in
        the walked one.

        The recorded tail runs here, on the real squares: each classical
        step is its variants' index maps (their phases drop out of
        ``|.|**2``), each row under its own variant.  Without a
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
        for step, keys, of in self._tail:
            probs = _apply_grouped(
                probs,
                keys,
                of[rows],
                lambda block, key, out: _permute(block, step.support, step.permutation(key)),
            )
        return probs

    def _relabel(self, indices: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Walked-order ``indices`` drawn from caller rows ``owners`` (one
        per index), in final order, in place.

        A tail step maps the squares by ``final[i] = walked[map[i]]``, so a
        walked index ``j`` is final index ``map^-1[j]`` on the step's window
        bits, steps in order.  Per step, one ``(variant keys, 2**k)`` table
        holds each key's bit flips (:meth:`_flip`); an index reads entry
        ``(of[owner] << k) + w`` of it, ``w`` its window value — one gather
        over the unit's shots, whatever the number of keys.
        """
        n = self.num_qubits
        for step, keys, of in self._tail:
            support = step.support
            k = len(support)
            flips = np.concatenate([self._flip(step, key) for key in keys])
            if support[-1] - support[0] == k - 1:
                window = (indices >> (n - 1 - support[-1])) & ((1 << k) - 1)
            else:
                window = np.zeros_like(indices)
                for j, q in enumerate(support):
                    window |= ((indices >> (n - 1 - q)) & 1) << (k - 1 - j)
            if len(keys) > 1:
                window += of[owners] << k
            indices ^= flips.take(window)
        return indices

    def _flip(self, step, key: Tuple[int, ...]) -> np.ndarray:
        """``spread(w ^ map^-1[w])`` per window value ``w`` of ``step``'s
        variant ``key``, ``spread`` placing a window's bits on the register's
        (memoized: a plan's steps outlive every unit)."""
        flip = self._flips.get((step, key))
        if flip is None:
            n, support = self.num_qubits, step.support
            k = len(support)
            values = np.arange(1 << k)
            spread = np.zeros(1 << k, dtype=np.int64)
            for j, q in enumerate(support):
                spread |= ((values >> (k - 1 - j)) & 1) << (n - 1 - q)
            inverse = np.empty_like(values)
            inverse[step.permutation(key)] = values
            flip = self._flips[(step, key)] = spread[values ^ inverse]
        return flip

    def _draw(
        self, requests: Sequence[Tuple[int, int, np.random.Generator]], qubits=None
    ) -> List[np.ndarray]:
        """Per ``(row, num_shots, rng)`` request, its final-order indices, or
        with ``qubits`` its bits of them.

        A request's uniforms come from its own generator in one draw, in
        request order (the ``(seed, trajectory_id)`` determinism contract).
        The walked-order requests write theirs into one unit buffer, which
        one :func:`~repro.linalg.sampling.stacked_inverse_cdf_indices` call
        resolves, one :meth:`_relabel` takes to final order and one unpack
        turns into bits.  Any other request makes one inverse-CDF lookup on
        its row's final-order table.
        """
        rows = np.array([row for row, _, _ in requests], dtype=np.intp)
        sizes = np.array([num_shots for _, num_shots, _ in requests], dtype=np.intp)
        outside = (rows < 0) | (rows >= self.batch_size)
        check_inside(rows[outside].tolist(), self.batch_size, "row", "stack")
        if (sizes < 0).any():
            raise BackendError("num_shots must be >= 0")
        walked = (sizes > 0) & self._walked(sizes)
        tables = {}
        for order, mask in ((True, walked), (False, (sizes > 0) & ~walked)):
            if mask.any():
                at, cum, totals = self._table(order, rows[mask])
                dead = totals[at[rows[mask]]] <= 0
                if dead.any():
                    row = rows[mask][dead.argmax()]
                    raise BackendError(f"stack row {row} has zero norm (dead trajectory)")
                tables[order] = at, cum
        buffer = np.empty(int(sizes[walked].sum()))
        out, spans, start = [], [], 0
        for (row, num_shots, rng), relabel in zip(requests, walked.tolist()):
            if relabel:
                rng.random(out=buffer[start : start + num_shots])
                spans.append((len(out), start, start + num_shots))
                start += num_shots
                out.append(None)
                continue
            indices = np.empty(0, dtype=np.int64)
            if num_shots:
                at, cum = tables[False]
                indices = inverse_cdf_indices(cum[at[row]], rng.random(num_shots))
                indices = indices.astype(np.int64, copy=False)
            if qubits is not None:
                indices = bits_from_indices(indices, qubits, self.num_qubits)
            out.append(indices)
        if spans:
            at, cum = tables[True]
            owners = np.repeat(rows[walked], sizes[walked])
            indices = stacked_inverse_cdf_indices(cum, at.take(owners), buffer)
            indices = self._relabel(indices, owners)
            if qubits is not None:
                indices = bits_from_indices(indices, qubits, self.num_qubits)
            for position, a, b in spans:
                out[position] = indices[a:b]
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
