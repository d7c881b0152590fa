"""Trajectory-stacked dense statevector backend: the one dense engine.

This backend holds a ``(B, 2**n)`` *stack* of trajectory states and
applies every circuit moment to all ``B`` trajectories in one fused
operation.  :class:`~repro.backends.statevector.StatevectorBackend` is
its one-row view, so a serial preparation *is* a stacked preparation at
``B = 1`` — one plan walk, one renormalization, one sampler:

* **Shared work** is one fused kernel call: execution walks the circuit's
  compiled :class:`~repro.execution.plan.FusedPlan` — adjacent gates (and
  noise-branch operators) merged into per-window matrices — and each
  coherent window updates every trajectory at once through a reshape
  view of the stack (:func:`~repro.linalg.apply.apply_compiled_stack`).
  The per-operation Python/dispatch overhead and buffer traffic is paid
  once per window instead of once per (operation, trajectory).
* **Divergent Kraus choices** are handled by *grouping*: at each noise
  window the stack rows are partitioned by their variant key — the tuple
  of prescribed Kraus indices at the window's sites (absent sites use the
  channel's dominant operator, exactly like
  :meth:`PureStateBackend.run_fixed`) — and each distinct fused variant is
  applied via the same batched kernel over its row sub-slice.  Since PTS
  trajectories overwhelmingly take the dominant branch, there are
  typically only one or two groups per window.
* **Batched renormalization** after each general-Kraus noise window (a
  unitary-mixture window keeps the norm and multiplies its
  state-independent probability into the weights instead) runs
  :func:`~repro.linalg.reductions.row_norms_squared` once over the whole
  stack.  The reduction and every kernel are row-independent, so row
  ``i`` of a ``B``-row stack is bitwise the same trajectory prepared in a
  one-row stack: every dense strategy draws the same shots whatever the
  batch size (``tests/test_vectorized.py``, ``tests/test_fusion.py``).

Rows whose prescribed Kraus branch annihilates the actual state (possible
for general, non-unitary-mixture channels whose nominal probabilities are
only priors) are marked *dead*: their weight drops to zero, the row is
zeroed, and no shots are drawn; the one-row view raises
:class:`~repro.errors.ZeroProbabilityTrajectory` instead.

Sampling stays the cheap polynomial part of the PTSBE story: one
stack-wide cumulative tensor (``|stack|**2`` normalized and cumsummed
along the state axis in a single pass) serves every row, and each row
draws its full shot budget with one row-wise inverse-CDF lookup over all
shot uniforms at once (:func:`repro.linalg.sampling.inverse_cdf_indices`).

The plan's *measurement tail* (:attr:`~repro.execution.plan.FusedPlan.tail`,
its suffix of permutation-and-phase steps) is sampled through, not
simulated: the preparation records each tail step's variant groups and
multiplies in its probabilities, and the sampler applies the steps to the
real ``|stack|**2`` as index gathers, where the phases drop out.  An
amplitude read (:meth:`statevector`, :meth:`apply_matrix`,
:meth:`norms_squared`, and through them the view's single-state API)
first runs the recorded steps on the amplitudes, so every state read is
the full walk's, bit for bit.

The public entry points :meth:`run_fixed_stack`, :meth:`cumulative_stack`
and :meth:`sample` are thin wrappers over the private helpers
:meth:`_prepare`, :meth:`_cumulative` and :meth:`_sample_indices`, which
the one-row view calls directly: a view call never passes through a
stacked entry point, so a profile that wraps both classes by name
(``benchmarks/e2e/trace.py``) attributes each call to one of them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import validate_deferred_measurement
from repro.backends.mps_sampler import check_inside
from repro.linalg.apply import apply_compiled_stack, apply_matrix_stack
from repro.linalg.reductions import row_norms_squared, scale_rows_inverse_sqrt
from repro.linalg.sampling import bits_from_indices, inverse_cdf_indices
from repro.circuits.circuit import Circuit
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, CapacityError, ExecutionError

__all__ = ["BatchedStatevectorBackend"]

#: Squared-norm threshold below which a trajectory row is considered
#: annihilated (same threshold as PureStateBackend.apply_channel_choice).
_DEAD_NORM = 1e-300


def _apply_grouped(
    stack: np.ndarray,
    groups: Dict[Tuple[int, ...], List[int]],
    apply: Callable[[np.ndarray, Tuple[int, ...]], np.ndarray],
) -> np.ndarray:
    """``apply(rows, key)`` on each variant group of ``stack``'s rows.

    One group (unanimous rows) takes the whole stack — dead rows are zero
    and stay zero under any operator.  Otherwise the majority variant runs
    on the whole stack and the (few) deviating rows are overwritten from a
    pre-step snapshot, which avoids gathering and scattering the large
    majority slice.  ``apply`` may work in place; the result is returned.
    """
    if len(groups) <= 1:
        return apply(stack, next(iter(groups))) if groups else stack
    majority = max(groups, key=lambda key: len(groups[key]))
    minority_rows = {
        key: np.asarray(rows, dtype=np.intp) for key, rows in groups.items() if key != majority
    }
    snapshots = {key: np.ascontiguousarray(stack[rows]) for key, rows in minority_rows.items()}
    stack = apply(stack, majority)
    for key, rows in minority_rows.items():
        stack[rows] = apply(snapshots[key], key)
    return stack


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
        self._stack = np.empty((0, self._dim), dtype=config.dtype)
        self._alive: np.ndarray = np.empty(0, dtype=bool)
        self._probs_cache: Dict[int, np.ndarray] = {}
        self._cum_stack: Optional[np.ndarray] = None  # (B, dim) cumulative tensor
        self._cum_totals: Optional[np.ndarray] = None  # per-row norms
        #: The measurement tail of the last preparation, not yet run on the
        #: amplitudes: ``(step, {variant key: rows})`` per classical step.
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
        return self._alive

    @property
    def config(self) -> Config:
        """The configuration this backend was built with."""
        return self._config

    def reset(self, batch_size: Optional[int] = None) -> None:
        """Reset every row to |0...0>, optionally resizing the stack."""
        b = self.batch_size if batch_size is None else int(batch_size)
        if b <= 0:
            raise BackendError(f"batch_size must be positive, got {b}")
        if b > self.max_batch_rows:
            raise CapacityError(
                f"stack of {b} x 2**{self.num_qubits} amplitudes exceeds the dense "
                f"budget of 2**{self._config.max_dense_qubits} (max {self.max_batch_rows} rows)"
            )
        try:
            self._stack = np.zeros((b, self._dim), dtype=self._config.dtype)
        except MemoryError as exc:
            # Within the configured budget but past what the host actually
            # has: surface the same actionable error type as the cap check
            # instead of a raw allocation failure.
            raise CapacityError(
                f"allocating a {b} x 2**{self.num_qubits} dense stack ran out "
                f"of memory; lower the batch size or use strategy "
                f"'tensornet'/'clifford' for wide circuits"
            ) from exc
        self._stack[:, 0] = 1.0
        self._alive = np.ones(b, dtype=bool)
        self._tail = []
        self._invalidate()

    def statevector(self, row: int) -> np.ndarray:
        """Row ``row``'s amplitude array (a direct view — do not mutate)."""
        self._materialize()
        return self._stack[row]

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
        self._tail = []
        self._invalidate()

    def _invalidate(self) -> None:
        self._probs_cache.clear()
        self._cum_stack = None
        self._cum_totals = None

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
        return row_norms_squared(self._stack).astype(np.float64, copy=False)

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
        self.reset(len(choices_list))
        weights = np.ones(len(choices_list), dtype=np.float64)
        for index, step in enumerate(plan.steps):
            groups = self._groups(step, choices_list)
            if index >= plan.tail:
                # The measurement tail: recorded, not run (see _squares).
                self._tail.append((step, groups))
            else:
                self._apply_step(step, groups)
            if isinstance(step, NoiseStep):
                self._weigh(step, groups, weights)
            # MeasureOps are deferred; sampling happens afterwards.
        return weights, self._alive.copy()

    def _groups(
        self, step, choices_list: Sequence[Optional[Dict[int, int]]]
    ) -> Dict[Tuple[int, ...], List[int]]:
        """The live rows of the stack grouped by their variant key at ``step``."""
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for row, choices in enumerate(choices_list):
            if self._alive[row]:
                groups.setdefault(step.key_for(choices), []).append(row)
        return groups

    def _apply_step(self, step, groups: Dict[Tuple[int, ...], List[int]]) -> None:
        """One step of the complex walk: each group's variant on its rows."""
        self._stack = _apply_grouped(
            self._stack,
            groups,
            lambda block, key: apply_compiled_stack(block, step.variant(key), self.num_qubits),
        )

    def _materialize(self) -> None:
        """Run the recorded tail on the amplitudes: the walk it replaces,
        step for step, so every amplitude read is the full walk's state."""
        tail, self._tail = self._tail, []
        for step, groups in tail:
            self._apply_step(step, groups)

    def _weigh(self, step, groups, weights: np.ndarray) -> None:
        """Weigh the rows after a noise window: by the window's probability
        (unitary mixture) or by renormalizing."""
        if step.unitary:
            # Unitary-mixture window: every variant is unitary and its
            # branch probability state-independent — no reduction, no
            # rescale, no row can die here.
            for key, rows in groups.items():
                weights[rows] *= step.probability(key)
            return
        if not groups:
            return  # every row already dead: nothing to scale
        # Batched renormalization: one stack-wide, row-independent
        # reduction.  Dead rows (previously dead, or annihilated by this
        # window) get a unit divisor: x / 1.0 is bitwise x, and newly-dead
        # rows are zeroed below anyway.
        t0 = time.perf_counter()
        norms = row_norms_squared(self._stack)
        scale_rows_inverse_sqrt(self._stack, norms, dead_norm=_DEAD_NORM)
        for rows in groups.values():
            for row in rows:
                n2 = float(norms[row])
                if n2 <= _DEAD_NORM:
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
            probs = self._squares(row, row + 1)[0]
            total = probs.sum()
            if float(total) <= 0:
                raise BackendError(f"stack row {row} has zero norm (dead trajectory)")
            cached = (probs / total).astype(np.float64, copy=False)
            self._probs_cache[row] = cached
        return cached

    def cumulative_stack(self) -> np.ndarray:
        """The ``(batch, 2**n)`` cumulative-probability tensor, stack-wide.

        Built in one pass — ``|stack|**2``, per-row normalization,
        ``cumsum`` along the state axis, tail clamped to 1.0 so no shot
        uniform falls off the end of a row (the precondition of
        :func:`~repro.linalg.sampling.inverse_cdf_indices`) — and cached
        until the stack mutates.  Dead (zero-norm) rows come out all-zero
        with only the clamped tail entry at 1.0 — never a valid
        distribution — so sampling guards on the per-row norm and raises
        before such a row could be drawn from.
        """
        return self._cumulative()

    def _cumulative(self) -> np.ndarray:
        if self._cum_stack is None:
            probs = self._squares(0, self.batch_size)
            totals = probs.sum(axis=1, keepdims=True)
            self._cum_totals = totals.reshape(-1).astype(np.float64, copy=False)
            safe = np.where(totals > 0, totals, np.asarray(1.0, dtype=totals.dtype))
            # In place on the fresh squares: one (B, 2**n) table alive, not three.
            np.divide(probs, safe, out=probs)
            cum = probs.astype(np.float64, copy=False)
            np.cumsum(cum, axis=1, out=cum)
            # Clamp the tail so no uniform falls off the end.
            cum[:, -1] = 1.0
            self._cum_stack = cum
        return self._cum_stack

    def _squares(self, lo: int, hi: int) -> np.ndarray:
        """``|amplitude|**2`` of rows ``[lo, hi)`` in the final index order,
        as a fresh array the caller owns.

        The recorded tail runs here, on the real squares: each classical
        step is its variants' index maps (their phases drop out of
        ``|.|**2``), grouped as the complex walk groups them.  Without a
        phase the result is bitwise the walked state's squares; with one,
        it differs only where a phase product rounds in the last bit.
        """
        probs = np.abs(self._stack[lo:hi])
        np.square(probs, out=probs)
        for step, groups in self._tail:
            if hi - lo < self.batch_size:
                groups = {
                    key: [row - lo for row in rows if lo <= row < hi]
                    for key, rows in groups.items()
                }
                groups = {key: rows for key, rows in groups.items() if rows}
            probs = _apply_grouped(
                probs,
                groups,
                lambda block, key: _permute(block, step.support, step.permutation(key)),
            )
        return probs

    def sample_indices(
        self, row: int, num_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bulk-sample basis-state indices from one stacked trajectory.

        All ``num_shots`` uniforms come from ``rng`` in one draw (the
        ``(seed, trajectory_id)`` determinism contract) and go through one
        inverse-CDF lookup on the row's cumulative distribution.
        """
        return self._sample_indices(row, num_shots, rng, self.cumulative_stack)

    def _sample_indices(
        self,
        row: int,
        num_shots: int,
        rng: np.random.Generator,
        cumulative: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """:meth:`sample_indices`, reading the table through ``cumulative``
        (:meth:`cumulative_stack` here, :meth:`_cumulative` in the view)."""
        check_inside([row], self.batch_size, "row", "stack")
        if num_shots < 0:
            raise BackendError("num_shots must be >= 0")
        if num_shots == 0:
            return np.empty(0, dtype=np.int64)
        cum = cumulative()
        if self._cum_totals[row] <= 0:
            raise BackendError(f"stack row {row} has zero norm (dead trajectory)")
        r = rng.random(num_shots)
        return inverse_cdf_indices(cum[row], r).astype(np.int64, copy=False)

    def sample(
        self,
        row: int,
        num_shots: int,
        qubits: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``num_shots`` shots of ``qubits`` from stack row ``row``."""
        indices = self.sample_indices(row, num_shots, rng)
        return bits_from_indices(indices, qubits, self.num_qubits)

    def __repr__(self) -> str:
        return (
            f"BatchedStatevectorBackend(qubits={self.num_qubits}, "
            f"batch={self.batch_size}, dtype={self._config.dtype})"
        )
