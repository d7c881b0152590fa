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
  take their source's weight at the end and its state only when an
  amplitude is read (the draws read the source's); a row whose source
  died before it joined is dead the same way.  Every row-facing call
  maps caller rows to slots, so callers see their own order.
* **A serial run shares prefixes across its units** through a
  :class:`Ladder`: the one-row form of the same walk, where a row "joins"
  by restoring a held ideal-prefix state (a *rung*) at or before its
  first deviating step instead of copying a sorted predecessor's row.
  The serial engine chooses at most :data:`MAX_RUNGS` rung steps once
  per run, from the first deviations of the units still to run, and
  hands the ladder to :meth:`_prepare`; a rung at the plan's tail lets a
  row that deviates only in the measurement tail walk nothing.
* **Divergent Kraus choices** share the step's one kernel call.  A row's
  variant key at a step — the tuple of prescribed Kraus indices at the
  window's sites (a site the row's table does not list takes the
  channel's dominant operator, exactly like
  :meth:`PureStateBackend.run_fixed`) — is an index into the step's
  :class:`~repro.execution.plan.VariantTable`, which lasts the run: its
  keys (dominant first), and per key the compiled operator (stacked for
  the per-row GEMM), the branch probability and, on a tail step, the
  index map and relabel flips, each built once per key.  One
  ``(steps, rows)`` index array per unit
  (:meth:`~repro.execution.plan.FusedPlan.prescribed_steps`) is all the
  walk, the weights, the tail tables and the relabelled draws read: each
  is a gather from the tables.  A step whose walked rows all take one
  variant (``of.min() == of.max()``) makes the one-variant call;
  otherwise, when every variant its rows take compiles to a GEMM tier,
  one batched kernel call runs each row under its own variant (the table
  plus the row -> variant index, whose per-row operator array is one
  gather of the table's stacked matrices), bitwise what the one-variant
  call gives that row.  Only a step with a variant on a per-variant tier
  (diagonal, scalar or slice accumulation, which skip different zero
  entries per variant) applies each variant to its rows
  (:func:`_apply_grouped`, the one place that lists a variant's rows).
  Dead rows are not filtered out: a dead row is zero, stays zero under
  any variant and keeps weight 0.
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
``searchsorted``'s indices.  When the tables are built for known request
sizes (:meth:`cumulative_stack` with ``sizes``, which the engines call at
prepare time) the guide table of every final-order row whose largest
request takes the guide path is built with them
(:func:`repro.linalg.sampling.guide_table`), so the draw only reads it:
under the serial look-ahead the helper thread pays for it.

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
  them (:meth:`_relabel`): one gather from the step's table of bit flips
  (one row per variant key, built when the key first appears), which
  costs ``O(shots)`` per step — less than the gathers whenever a row
  draws fewer shots than it has amplitudes.

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

import itertools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import DEAD_NORM, validate_deferred_measurement
from repro.backends.mps_sampler import check_inside
from repro.linalg.apply import apply_compiled_stack, apply_matrix_stack
from repro.linalg.reductions import row_norms_squared, scale_rows_inverse_sqrt
from repro.linalg.sampling import (
    bits_from_indices,
    guide_table,
    inverse_cdf_indices,
    stacked_inverse_cdf_indices,
)
from repro.circuits.circuit import Circuit
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, CapacityError, ExecutionError
from repro.prescriptions import Choices, Prescriptions, as_prescriptions, site_table

__all__ = ["BatchedStatevectorBackend", "Ladder", "MAX_RUNGS"]

#: A draw table: ``(caller row -> table row or -1, cumulative table, row
#: norms, table row -> prebuilt guide table)``.
Tables = Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, np.ndarray]]

#: The most rungs a :class:`Ladder` holds: two states, as many as the
#: one-row walk's own two buffers.
MAX_RUNGS = 2

def _trie(walked: np.ndarray, b: int) -> Tuple[np.ndarray, List[int], np.ndarray]:
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
    if len(walked):
        lex = np.lexsort(walked[::-1])
        sequences = walked[:, lex]
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


def _rungs(reach: Sequence[int], cap: int) -> Tuple[Tuple[int, ...], int]:
    """The rung steps that save the most walked row-steps, at most ``cap``
    of them, and the row-steps they save; ``reach[s]`` counts the rows
    whose ideal prefix reaches walked step ``s`` (``s = 0 .. tail``).

    With rungs ``r_1 < ... < r_k``, a row reaching ``r_i`` but not
    ``r_(i+1)`` restores ``r_i`` and saves ``r_i`` steps, except that the
    first row to reach a rung fills it instead.  In any order of rows that
    costs exactly the deepest rung reached: the first row to reach
    ``r_k`` restores ``r_(k-1)`` if an earlier row filled it, and else
    fills both.  So the saving is ``sum(r_i * (reach[r_i] -
    reach[r_(i+1)])) - r_k``, and a rung fewer than two rows reach saves
    nothing.  Ties go to the fewer, shallower rungs.
    """
    candidates = [s for s in range(1, len(reach)) if reach[s] >= 2]
    best: Tuple[Tuple[int, ...], int] = ((), 0)
    for k in range(1, cap + 1):
        for rungs in itertools.combinations(candidates, k):
            counts = [reach[r] for r in rungs] + [0]
            saved = sum(r * (counts[i] - counts[i + 1]) for i, r in enumerate(rungs))
            if saved - rungs[-1] > best[1]:
                best = rungs, saved - rungs[-1]
    return best


class Ladder:
    """A serial run's checkpoint ladder: ideal-prefix states held across
    its units, so a row walks only from where it leaves the ideal circuit.

    Every row takes each walked step's dominant variant up to its *first
    deviating* walked step, so up to there it holds the ideal prefix's
    state.  A *rung* is that state at one walked step, with its weight and
    alive flag.  A row restores the deepest held rung at or before its
    first deviation and walks on from there: the one-row form of the
    trie walk's join (:meth:`BatchedStatevectorBackend._join`), with a
    held prefix in place of a sorted predecessor's row.  A rung at the
    plan's tail serves the rows that deviate only in the measurement tail,
    which then walk nothing.

    The rung steps are chosen once, from the first deviations of the rows
    still to run (``table``, against ``plan``), to save the most walked
    row-steps with at most :data:`MAX_RUNGS` held states (:func:`_rungs`).
    A rung is filled by the first row whose walk passes it on the ideal
    prefix, and a restored rung is bitwise that walk's state, weight and
    flag: every kernel and reduction is row-independent, so each row comes
    out as its own walk from ``|0...0>``.  Preparations that share a
    ladder must not run concurrently (the serial look-ahead prepares on
    one thread at a time).
    """

    def __init__(self, plan, table: Prescriptions):
        first = np.full(len(table), plan.tail, dtype=np.intp)
        np.minimum.at(first, table.rows(), plan.site_step[table.site_ids])
        reach = np.cumsum(np.bincount(first, minlength=plan.tail + 1)[::-1])[::-1]
        self.steps, saved = _rungs(reach.tolist(), MAX_RUNGS)
        #: The walked row-steps ``table``'s rows take, prepared once each in
        #: any order (each walked row-step is one kernel call).
        self.row_steps = plan.tail * len(table) - saved
        #: ``step -> (state, weight, alive)`` of every filled rung.
        self.held: Dict[int, Tuple[np.ndarray, float, bool]] = {}

    def restore(self, first: int) -> Tuple[int, Optional[Tuple[np.ndarray, float, bool]]]:
        """The deepest held rung at or before walked step ``first``, as
        ``(step, rung)``; ``(0, None)`` when the walk starts at ``|0...0>``."""
        step = max((s for s in self.held if s <= first), default=0)
        return step, self.held.get(step)

    def keep(self, step: int, first: int, state: np.ndarray, weight: float, alive: bool) -> None:
        """Fill the rung at walked ``step`` from a row's walk there, if the
        row is still on the ideal prefix (``step <= first``) and the rung is
        chosen and empty."""
        if step <= first and step in self.steps and step not in self.held:
            self.held[step] = (state.copy(), weight, alive)

    def release(self) -> None:
        """Drop every held state; the rung steps stay chosen."""
        self.held.clear()


def _apply_grouped(
    stack: np.ndarray,
    of: np.ndarray,
    apply: Callable[[np.ndarray, int, Optional[np.ndarray]], np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``apply(rows, variant, out)`` on each variant group of ``stack``'s
    rows, row ``i`` under variant ``of[i]``.

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
    used, of = np.unique(of, return_inverse=True)
    if len(used) == 1:
        return apply(stack, int(used[0]), out)
    majority = int(np.bincount(of).argmax())
    minority_rows = {i: np.flatnonzero(of == i) for i in range(len(used)) if i != majority}
    snapshots = {i: np.ascontiguousarray(stack[rows]) for i, rows in minority_rows.items()}
    result = apply(stack, int(used[majority]), out)
    free = out if result is stack else stack
    for i, rows in minority_rows.items():
        scratch = None if free is None else free[: len(rows)]
        result[rows] = apply(snapshots.pop(i), int(used[i]), scratch)
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
        #: The draw tables, walked order (``True``) and final order, with
        #: the guide tables of the final-order rows whose draws read one.
        self._tables: Dict[bool, Tables] = {}
        #: Per slot, the slot whose walked state it holds: itself, or the
        #: source of a row the trie joined at the tail, whose own state is
        #: copied only when an amplitude is read (:meth:`_materialize`).
        #: The walked-order table has one row per such holder.
        self._holder: np.ndarray = np.empty(0, dtype=np.intp)
        #: The measurement tail of the last preparation, not yet run on the
        #: amplitudes: ``(step, of)`` per classical step, ``of`` indexing the
        #: step's variant table by caller row
        #: (:meth:`~repro.execution.plan.FusedPlan.prescribed_steps`).
        self._tail: List[Tuple[object, np.ndarray]] = []
        #: How far the tail tables' flips, built on the circuit's width,
        #: shift on this register (a narrower circuit acts on its leading
        #: qubits).
        self._shift = 0
        #: Cumulative wall time spent renormalizing the stack after noise
        #: windows (reduction + scale + bookkeeping) — the benchmark
        #: counter behind the strategy table's renorm column.
        self.renorm_seconds = 0.0
        #: Rows of ``|0...0>`` a reset left for the first amplitude read to
        #: allocate (:meth:`_born`): a preparation replaces the stack
        #: before any read, so a backend built to prepare never fills one.
        self._unborn = 0
        self.reset(batch_size)

    # ------------------------------------------------------------------ #
    # stack management
    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return len(self._alive)

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
        """Reset every row to |0...0>, optionally resizing the stack.  The
        amplitudes are allocated by the first read that needs them."""
        b = self.batch_size if batch_size is None else int(batch_size)
        self._allocate(b, None)

    def _allocate(self, b: int, alloc: Optional[Callable] = np.empty) -> None:
        """A fresh ``b``-row stack from ``alloc`` (``None``: ``|0...0>`` rows
        left to :meth:`_born`), every row alive, in caller order, no tail."""
        if b <= 0:
            raise BackendError(f"batch_size must be positive, got {b}")
        if b > self.max_batch_rows:
            raise CapacityError(
                f"stack of {b} x 2**{self.num_qubits} amplitudes exceeds the dense "
                f"budget of 2**{self._config.max_dense_qubits} (max {self.max_batch_rows} rows)"
            )
        self.release()  # the old stack and its tables go before the new one comes
        self._alive = np.ones(b, dtype=bool)
        self._holder = np.arange(b)
        self._row = np.arange(b)
        if alloc is None:
            self._unborn = b
        else:
            self._stack = self._new(b, alloc)

    def _born(self) -> None:
        """Allocate the ``|0...0>`` rows a reset left unborn, if any."""
        if self._unborn:
            self._stack = self._new(self._unborn, np.zeros)
            self._stack[:, 0] = 1.0
            self._unborn = 0

    def _new(self, b: int, alloc: Callable) -> np.ndarray:
        """A ``(b, 2**n)`` array from ``alloc``."""
        try:
            return alloc((b, self._dim), dtype=self._config.dtype)
        except MemoryError as exc:
            # Within the configured budget but past what the host actually
            # has: surface the same actionable error type as the cap check
            # instead of a raw allocation failure.
            raise CapacityError(
                f"allocating a {b} x 2**{self.num_qubits} dense stack ran out "
                f"of memory; lower the batch size or use strategy "
                f"'tensornet'/'clifford' for wide circuits"
            ) from exc

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
        self._unborn = 0
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

    def _prepare(
        self, circuit: Circuit, choices_list: Choices, ladder: Optional[Ladder] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`run_fixed_stack`; a one-row table (the serial view's) may
        restore its walk's start from ``ladder`` and fill its rungs on the
        way (:class:`Ladder`)."""
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
        rows, joined, source = _trie(variants[: plan.tail], b)
        self._allocate(b)
        self._row[rows] = np.arange(b)
        weights = np.ones(b, dtype=np.float64)
        start, first = 0, plan.tail
        if ladder is not None:
            deviating = np.flatnonzero(variants[: plan.tail, 0])
            first = int(deviating[0]) if len(deviating) else plan.tail
            start, rung = ladder.restore(first)
        if start:
            self._stack[0], weights[0], self._alive[0] = rung
        else:
            self._stack[0] = 0
            self._stack[0, 0] = 1.0
        self._spare = np.empty_like(self._stack)
        live = 1
        for index in range(start, plan.tail):
            if ladder is not None:
                ladder.keep(index, first, self._stack[0], weights[0], self._alive[0])
            step, of = plan.steps[index], variants[index]
            live = self._join(live, joined[index], source, weights)
            of = of[rows[:live]]
            self._apply_step(step.table, of, live)
            if isinstance(step, NoiseStep):
                self._weigh(step, of, weights[:live])
        if ladder is not None:
            ladder.keep(plan.tail, first, self._stack[0], weights[0], self._alive[0])
        # Rows the trie joins at the tail take their source's weight and
        # alive flag now, its state only when an amplitude is read
        # (_materialize): until then each reads its holder's.
        self._holder[live:] = sources = source[live:]
        weights[live:] = weights[sources]
        self._alive[live:] = self._alive[sources]
        self._spare = None
        weights, alive = weights[self._row], self._alive[self._row]
        self._shift = self.num_qubits - plan.num_qubits
        for step, of in zip(plan.steps[plan.tail :], variants[plan.tail :]):
            # The measurement tail: recorded on caller rows, not run (see
            # _squares).  Its windows are unitary: _weigh touches no state.
            self._tail.append((step, of))
            if isinstance(step, NoiseStep):
                self._weigh(step, of, weights)
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

    def _apply_step(self, table, of: np.ndarray, live: int) -> None:
        """One step of the complex walk on the leading ``live`` slots, slot
        ``i`` under the step's variant ``of[i]`` (an index into its
        :class:`~repro.execution.plan.VariantTable`), from one buffer into
        the other: one kernel call, unless some variant's tier is not a
        GEMM (see :func:`_apply_grouped`).  Dead rows are zero and stay
        zero under any variant."""
        block, spare = self._stack[:live], self._spare[:live]
        ops = table.operators()
        if of.min() == of.max():
            result = apply_compiled_stack(block, ops[of[0]], self.num_qubits, spare)
        elif table.gemm.take(of).all():
            result = apply_compiled_stack(block, table, self.num_qubits, spare, of)
        else:
            result = _apply_grouped(
                block,
                of,
                lambda rows, i, out: apply_compiled_stack(rows, ops[i], self.num_qubits, out),
                spare,
            )
        if result is spare:
            self._stack, self._spare = self._spare, self._stack

    def _materialize(self) -> None:
        """Give every slot its own amplitudes, then run the recorded tail on
        them: the walk it replaces, step for step, so every amplitude read
        is the full walk's state.  The slots the trie joined at the tail
        are the last ones (slots go in order of join step), so the last
        slot tells whether any still reads its holder's state."""
        self._born()
        held = self._holder
        if len(held) and held[-1] != len(held) - 1:
            for slot in np.flatnonzero(held != np.arange(len(held))).tolist():
                self._stack[slot] = self._stack[held[slot]]
            self._holder = np.arange(len(held))
        tail, self._tail = self._tail, []
        if not tail:
            return
        self._tables.pop(True, None)  # its draws would need the tail just run
        self._spare = np.empty_like(self._stack)
        for step, of in tail:
            slots = np.empty_like(of)
            slots[self._row] = of
            self._apply_step(step.table, slots, self.batch_size)
        self._spare = None

    def _weigh(self, step, of: np.ndarray, weights: np.ndarray) -> None:
        """Weigh the leading ``len(weights)`` slots after a noise window, slot
        ``i`` under the step's variant ``of[i]``: by the window's probability
        (unitary mixture) or by renormalizing them."""
        if step.unitary:
            # Unitary-mixture window: every variant is unitary and its
            # branch probability state-independent — no reduction, no
            # rescale, no row can die here.
            weights *= step.table.probabilities.take(of)
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
        """Build the tables the draws of ``sizes`` read (:meth:`cumulative_stack`),
        with the guide table of every final-order row whose largest request
        takes the guide path (:func:`~repro.linalg.sampling.guide_table`)."""
        for walked in (True, False):
            drawn = {}  # row -> its largest request in this order
            for row, shots in enumerate(sizes):
                taken = [n for n in shots if n > 0 and self._walked(n) == walked]
                if taken:
                    drawn[row] = max(taken)
            if drawn:
                at, cum, totals, guides = self._build_table(walked, list(drawn))
                if not walked:
                    for row, n in drawn.items():
                        guide = guide_table(cum[at[row]], n)
                        if guide is not None:
                            guides[int(at[row])] = guide
                self._tables[walked] = at, cum, totals, guides

    def _walked(self, num_shots):
        """Whether a request of ``num_shots`` (or each of an array of them)
        draws from its row's walked-order table: fewer shots than ``2**n``,
        and a tail to relabel them through."""
        return bool(self._tail) & (num_shots < self._dim)

    def _table(self, walked: bool, rows) -> Tables:
        """The :data:`Tables` in walked or final order, built for every row
        (with no guide) unless it has ``rows`` (an index into the caller
        rows)."""
        entry = self._tables.get(walked)
        if entry is None or (entry[0][rows] < 0).any():
            entry = self._tables[walked] = self._build_table(walked, range(self.batch_size))
        return entry

    def _build_table(self, walked: bool, rows: Sequence[int]) -> Tables:
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
        return at, cum, totals.reshape(-1).astype(np.float64, copy=False), {}

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
        self._born()
        rows = np.asarray(rows, dtype=np.intp)
        probs = np.empty((len(rows), self._dim), dtype=self._stack.real.dtype)
        for out, slot in zip(probs, self._holder[self._row[rows]].tolist()):
            np.abs(self._stack[slot], out=out)
        np.square(probs, out=probs)
        if not tail:
            return probs
        for step, of in self._tail:
            maps, _ = step.table.permutations()
            probs = _apply_grouped(
                probs, of[rows], lambda block, i, out: _permute(block, step.support, maps[i])
            )
        return probs

    def _relabel(self, indices: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Walked-order ``indices`` drawn from caller rows ``owners`` (one
        per index), in final order, in place.

        A tail step maps the squares by ``final[i] = walked[map[i]]``, so a
        walked index ``j`` is final index ``map^-1[j]`` on the step's window
        bits, steps in order.  The step's variant table holds each key's
        bit flips as one ``(keys, 2**k)`` array; an index reads entry
        ``(of[owner] << k) + w`` of it, ``w`` its window value — one gather
        over the unit's shots, whatever the number of keys.
        """
        n = self.num_qubits
        for step, of in self._tail:
            support = step.support
            k = len(support)
            _, flips = step.table.permutations()
            if self._shift:
                flips = flips << self._shift
            if support[-1] - support[0] == k - 1:
                window = (indices >> (n - 1 - support[-1])) & ((1 << k) - 1)
            else:
                window = np.zeros_like(indices)
                for j, q in enumerate(support):
                    window |= ((indices >> (n - 1 - q)) & 1) << (k - 1 - j)
            if of.any():
                window += of[owners] << k
            indices ^= flips.take(window)
        return indices

    def _draw(
        self, requests: Sequence[Tuple[int, int, np.random.Generator]], qubits=None
    ) -> np.ndarray:
        """The ``(row, num_shots, rng)`` requests' final-order indices,
        request after request, or with ``qubits`` their bits.

        A request's uniforms come from its own generator in one draw, in
        request order (the ``(seed, trajectory_id)`` determinism contract).
        The walked-order requests write theirs into one unit buffer, which
        one :func:`~repro.linalg.sampling.stacked_inverse_cdf_indices` call
        resolves and one :meth:`_relabel` takes to final order.  Any other
        request makes one inverse-CDF lookup on its row's final-order
        table.  One unpack turns the unit's indices into bits.
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
                tables[order] = self._table(order, rows[mask])
                at, _, totals, _ = tables[order]
                dead = totals[at[rows[mask]]] <= 0
                if dead.any():
                    row = rows[mask][dead.argmax()]
                    raise BackendError(f"stack row {row} has zero norm (dead trajectory)")
        buffer = np.empty(int(sizes[walked].sum()))
        indices = np.empty(int(sizes.sum()), dtype=np.int64)
        start = end = 0
        for (row, num_shots, rng), relabel in zip(requests, walked.tolist()):
            end += num_shots
            if relabel:
                rng.random(out=buffer[start : start + num_shots])
                start += num_shots
            elif num_shots:
                at, cum, _, guides = tables[False]
                inverse_cdf_indices(
                    cum[at[row]], rng.random(num_shots), guides.get(at[row]),
                    indices[end - num_shots : end],
                )
        if start:
            at, cum, _, _ = tables[True]
            owners = np.repeat(rows[walked], sizes[walked])
            drawn = stacked_inverse_cdf_indices(cum, at.take(owners), buffer)
            relabelled = self._relabel(drawn, owners)
            if start == len(indices):
                indices = relabelled.astype(np.int64, copy=False)
            else:
                indices[np.repeat(walked, sizes)] = relabelled
        if qubits is None:
            return indices
        return bits_from_indices(indices, qubits, self.num_qubits)

    def sample_indices(
        self, row: int, num_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bulk-sample basis-state indices (final order) from one stacked
        trajectory: one draw of ``num_shots`` uniforms from ``rng``, one
        inverse-CDF lookup on the row's table."""
        return self._draw([(row, num_shots, rng)])

    def sample(
        self,
        requests: Sequence[Tuple[int, int, np.random.Generator]],
        qubits: Sequence[int],
    ) -> np.ndarray:
        """One ``(shots, len(qubits))`` bits block: each ``(row, num_shots,
        rng)`` request's shots, drawn from its row with its own generator,
        request after request.

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
