"""Dense gate-application kernels of the statevector engine.

The hot path of :class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`
(a ``(B, 2**n)`` trajectory stack per call), and so of its one-row view
:class:`~repro.backends.statevector.StatevectorBackend`.  Every kernel is
row-independent, which keeps a trajectory *bitwise identical* at any
batch size — the equivalence contract of the vectorized execution path.

The kernel is split in two phases so the fusion compilation pipeline
(:mod:`repro.execution.plan`) can amortize the per-operator analysis:

* :func:`compile_operator` inspects a ``(2**k, 2**k)`` matrix **once** —
  canonicalizing 2-qubit target order, casting to the state dtype,
  and detecting the fast-path tier — and returns a reusable
  :class:`CompiledOperator`;
* :func:`apply_compiled_stack` applies a compiled operator to a stack with
  zero per-call analysis.

:func:`apply_matrix_stack` (the historical one-shot entry point) is simply
``apply_compiled_stack(stack, compile_operator(...), ...)``.

For operators on up to three qubits (every gate and channel in the
library — including the native ``ccx`` — and every fused window whose
support fits three qubits) the target axes are exposed by pure
``reshape`` views of the C-contiguous stack — qubit ``q`` is axis ``q+1``
of ``(rows, 2, ..., 2)`` under the library's qubit-0-is-MSB convention,
so splitting at the target qubits never copies, for contiguous and
gapped target layouts alike.  Tiers, cheapest first:

* **scalar multiples of identity** (e.g. the dominant branch of any Pauli
  or depolarizing channel) mutate the stack in one in-place pass — or
  none at all for an exact identity;
* **diagonal operators** (T, S, RZ, CZ, ``ccz``-like phases — and any
  fused product of such operators, which stays diagonal) scale each basis
  slice in place;
* **dense operators on ascending contiguous targets, any arity** — the
  ``k`` qubits already form one axis of size ``2**k`` under a pure
  reshape, so one ``matmul`` on the view contracts them with no gather
  (the only allocation is the fresh output): a flat
  ``(R * dim / 2**k, 2**k) @ M^T`` GEMM when the window sits at the
  least-significant end, ``M @ view(R * 2**t1, 2**k, tail)`` otherwise,
  and for a short tail — where that batch degenerates into tiny GEMMs —
  one flat GEMM against ``M (x) I_tail`` while the padded operator stays
  within 32 x 32.  Fully dense fused windows land here (2-qubit
  operators with more than 8 nonzeros, 3-qubit ones with more than 16,
  every contiguous window on four or more qubits);
* **remaining dense operators on up to three qubits** — permutation-like
  ones (X, CX, CCX: at most two nonzeros per matrix row) and gapped
  pairs — run one slice accumulation ``out_i = sum_j m[i, j] * psi_j``
  into a fresh buffer, skipping zero entries, so permutations reduce to
  slice copies.  Slice accumulation streams the stack once per matrix
  entry, which is why denser matrices go to BLAS: gapped dense triples
  run the gather + GEMM + scatter in bounded row blocks — the gather
  staged inside the output rows it will overwrite, the GEMM into one
  reusable block scratch — so the transient never exceeds a sixteenth of
  the stack.

The per-element arithmetic never depends on the number of stacked rows,
which is what makes stacked and row-by-row application bit-for-bit
interchangeable.  Gapped or non-ascending operators on four or more
qubits fall back to the moveaxis + batched-GEMM kernel
(:func:`apply_gemm_stack`), whose transient peaks at ~3x the resident
stack; every other path stays at ~2x (fresh output, plus at most a
sixteenth-stack scratch block).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.kron import kron_all

__all__ = [
    "CompiledOperator",
    "compile_operator",
    "apply_compiled_stack",
    "apply_gemm_stack",
    "apply_matrix_stack",
]

#: Largest operator arity served by the slice tiers (and analysed for the
#: scalar/diagonal tiers); wider operators take the contiguous view matmul
#: or, gapped, the generic moveaxis+GEMM fallback.
MAX_VIEW_QUBITS = 3

#: Slice accumulation streams the stack once per nonzero matrix entry, so
#: it serves operators with at most this many nonzeros *per row* of the
#: matrix — <= 2 full-stack passes of traffic, the permutation-like regime
#: (cx with 4 nonzeros, ccx with 8); denser matrices switch to the
#: BLAS-backed paths, which beat 16 (k=2) or 64 (k=3) strided passes.
_SLICE_MAX_NNZ_PER_ROW = 2

#: A contiguous window whose tail (the qubits below its last target) is
#: short would run one tiny GEMM per ``2**k x tail`` block; while the
#: padded operator ``M (x) I_tail`` stays within this dimension, one flat
#: GEMM against it is faster (k=2 at n=12, 64 rows: 0.8-1.9 ms against
#: 3.3-8.2 ms for tails of 2-8).
_TAIL_GEMM_MAX_DIM = 32


class CompiledOperator:
    """One analyzed ``(2**k, 2**k)`` operator, ready for stacks.

    Attributes
    ----------
    matrix:
        The matrix, cast to the state dtype.  For 2- and 3-qubit
        operators with non-ascending targets the bit order is
        pre-canonicalized so ``targets`` is always ascending on the fast
        paths.
    targets:
        The (canonicalized) target qubits the matrix acts on.
    diag:
        The matrix diagonal when the operator is diagonal (the fast-path
        tier), else ``None``.
    scalar:
        The single scale factor when the operator is a scalar multiple of
        the identity (the cheapest tier), else ``None``.
    nnz:
        Nonzero entry count of the matrix, precomputed so the dense
        tiers can choose between slice accumulation (permutation-like
        operators) and the BLAS paths without re-inspecting the matrix
        per application.
    sparse:
        ``nnz`` is within the slice-accumulation budget
        (:data:`_SLICE_MAX_NNZ_PER_ROW` per matrix row).
    gemm_view:
        The operator takes the contiguous reshape-view ``matmul`` tier:
        dense, ascending contiguous targets, and either wider than
        :data:`MAX_VIEW_QUBITS` or too dense for slice accumulation.
    """

    __slots__ = (
        "matrix",
        "targets",
        "diag",
        "scalar",
        "num_targets",
        "nnz",
        "sparse",
        "gemm_view",
        "_padded",
    )

    def __init__(
        self,
        matrix: np.ndarray,
        targets: Tuple[int, ...],
        diag: Optional[np.ndarray],
        scalar: Optional[complex],
    ):
        self.matrix = matrix
        self.targets = targets
        self.diag = diag
        self.scalar = scalar
        k = self.num_targets = len(targets)
        self.nnz = int(np.count_nonzero(matrix))
        self.sparse = self.nnz <= _SLICE_MAX_NNZ_PER_ROW * 2**k
        contiguous = all(targets[i] + 1 == targets[i + 1] for i in range(k - 1))
        self.gemm_view = (
            diag is None
            and contiguous
            and (k > MAX_VIEW_QUBITS or not self.sparse)
        )
        self._padded: Dict[int, np.ndarray] = {1: matrix}

    def padded(self, tail: int) -> np.ndarray:
        """``matrix (x) I_tail`` for the short-tail GEMM (built once per ``tail``).

        Compiled operators are long-lived plan members, so paying the
        Kronecker product per application would undo the amortization
        compiling exists for.
        """
        padded = self._padded.get(tail)
        if padded is None:
            padded = self._padded[tail] = kron_all(
                [self.matrix, np.eye(tail, dtype=self.matrix.dtype)]
            )
        return padded

    @property
    def tier(self) -> str:
        """Fast-path tier: ``"identity"``/``"scalar"``/``"diagonal"``/``"dense"``."""
        if self.scalar is not None:
            return "identity" if self.scalar == 1 else "scalar"
        return "diagonal" if self.diag is not None else "dense"

    def __repr__(self) -> str:
        return (
            f"CompiledOperator(targets={self.targets}, tier={self.tier!r}, "
            f"dtype={self.matrix.dtype})"
        )


def compile_operator(
    matrix: Any, targets: Sequence[int], dtype: np.dtype
) -> CompiledOperator:
    """Analyze a matrix once: cast, canonicalize targets, detect the tier.

    The tier analysis mirrors what :func:`apply_matrix_stack` has always
    done per call — compiling simply hoists it so plan-driven callers
    (:mod:`repro.execution.plan`) pay it once per distinct operator
    instead of once per application.
    """
    targets = tuple(targets)
    k = len(targets)
    m = np.asarray(matrix).astype(dtype, copy=False)
    if 2 <= k <= MAX_VIEW_QUBITS and any(
        targets[i] > targets[i + 1] for i in range(k - 1)
    ):
        # Targets were given out of ascending order: permute the matrix
        # bit order so the reshape-view kernels always see ascending
        # targets.  New operator bit j takes old bit order[j], applied to
        # row and column axes alike.
        order = tuple(int(i) for i in np.argsort(targets, kind="stable"))
        axes = order + tuple(k + i for i in order)
        m = np.ascontiguousarray(
            m.reshape((2,) * (2 * k)).transpose(axes).reshape(2**k, 2**k)
        )
        targets = tuple(sorted(targets))
    diag: Optional[np.ndarray] = None
    scalar: Optional[complex] = None
    if k <= MAX_VIEW_QUBITS:
        d = np.diagonal(m)
        if np.count_nonzero(m) == np.count_nonzero(d):
            diag = d
            if np.all(d == d[0]):
                scalar = d[0]
    return CompiledOperator(m, targets, diag, scalar)


def _accumulate_slices(
    out_slices: List[np.ndarray], in_slices: List[np.ndarray], matrix: np.ndarray
) -> None:
    """out_i = sum_j matrix[i, j] * in_j with fixed j order, skipping zeros.

    ``out_slices`` must not alias ``in_slices`` (callers pass a fresh
    output buffer); accumulation happens directly in the output to avoid
    an extra full-stack copy per slice.
    """
    for i, dst in enumerate(out_slices):
        started = False
        for j, src in enumerate(in_slices):
            c = matrix[i, j]
            if c == 0:
                continue
            if not started:
                if c == 1:
                    np.copyto(dst, src)
                else:
                    np.multiply(src, c, out=dst)
                started = True
            elif c == 1:
                dst += src
            else:
                dst += src * c
        if not started:
            dst[...] = 0


def _scale_slices_inplace(slices: List[np.ndarray], diag: np.ndarray) -> None:
    """slice_i *= diag[i] in place (identity entries skipped)."""
    for d, s in zip(diag, slices):
        if d != 1:
            s *= d


def apply_compiled_stack(
    stack: np.ndarray,
    op: CompiledOperator,
    num_qubits: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply a :class:`CompiledOperator` to every row of a stack.

    Same contract as :func:`apply_matrix_stack` minus the per-call
    analysis: ``stack`` is a C-contiguous ``(rows, 2**num_qubits)`` array
    owned by the caller; scalar/diagonal operators mutate it in place and
    return it, dense operators write their output to ``out`` — a
    C-contiguous array of ``stack``'s shape and dtype that does not
    overlap it, a fresh one when ``None`` — and return that.  A caller
    that alternates between two buffers allocates nothing per call.  No
    renormalization is performed.
    """
    rows, dim = stack.shape
    k = op.num_targets
    if op.scalar is not None:
        # Scalar multiple of identity: one pass (or none).  Only compiled
        # for k <= 3 operators (wider windows always take a GEMM path).
        if op.scalar != 1:
            stack *= op.scalar
        return stack
    if out is None and op.diag is None:
        out = np.empty_like(stack)  # every tier below but the diagonal one
    if op.gemm_view:
        # Ascending contiguous dense targets of any arity already form one
        # axis of size 2**k under a pure reshape: a matmul on the view, no
        # gather, the only allocation the fresh output (~2x peak).
        dim_k = 1 << k
        tail = dim >> (op.targets[-1] + 1)
        if tail == 1 or dim_k * tail <= _TAIL_GEMM_MAX_DIM:
            # The window reaches (or nearly reaches) the least-significant
            # end: one flat GEMM covers the whole stack
            # (out[r, i] = sum_j U[i, j] v[r, j], U = M (x) I_tail).
            view = stack.reshape(-1, dim_k * tail)
            np.matmul(view, op.padded(tail).T, out=out.reshape(view.shape))
        else:
            view = stack.reshape(-1, dim_k, tail)
            np.matmul(op.matrix, view, out=out.reshape(view.shape))
        return out
    if k == 1:
        t = op.targets[0]
        view = stack.reshape(rows * (1 << t), 2, -1)
        in_slices = [view[:, 0], view[:, 1]]
        if op.diag is not None:
            _scale_slices_inplace(in_slices, op.diag)
            return stack
        dst = out.reshape(view.shape)
        _accumulate_slices([dst[:, 0], dst[:, 1]], in_slices, op.matrix)
        return out
    if k == 2:
        t1, t2 = op.targets  # ascending after compilation
        view = stack.reshape(rows * (1 << t1), 2, 1 << (t2 - t1 - 1), 2, -1)
        in_slices = [view[:, j, :, l] for j in range(2) for l in range(2)]
        if op.diag is not None:
            _scale_slices_inplace(in_slices, op.diag)
            return stack
        dst = out.reshape(view.shape)
        out_slices = [dst[:, j, :, l] for j in range(2) for l in range(2)]
        _accumulate_slices(out_slices, in_slices, op.matrix)
        return out
    if k == 3:
        # The k=3 view tier: fused 3-qubit windows and the native ccx
        # never pay the whole-stack moveaxis+GEMM fallback, so peak
        # memory stays ~2x the resident stack (a fresh output buffer,
        # plus at most a sixteenth-stack scratch block for gapped dense
        # operators) instead of the fallback's ~3x transient.
        t1, t2, t3 = op.targets  # ascending after compilation
        if op.diag is not None or op.sparse:
            # Split the stack at all three target qubits (any gap layout)
            # with one pure reshape; diagonal operators scale in place,
            # permutation-like ones reduce to a few slice copies.
            view = stack.reshape(
                rows * (1 << t1),
                2,
                1 << (t2 - t1 - 1),
                2,
                1 << (t3 - t2 - 1),
                2,
                -1,
            )
            in_slices = [
                view[:, a, :, b, :, c]
                for a in range(2)
                for b in range(2)
                for c in range(2)
            ]
            if op.diag is not None:
                _scale_slices_inplace(in_slices, op.diag)
                return stack
            dst = out.reshape(view.shape)
            out_slices = [
                dst[:, a, :, b, :, c]
                for a in range(2)
                for b in range(2)
                for c in range(2)
            ]
            _accumulate_slices(out_slices, in_slices, op.matrix)
            return out
        # Dense and gapped (contiguous dense triples took the view matmul).
        return _apply_k3_blocked_gemm(stack, op, num_qubits, out)
    return apply_gemm_stack(stack, op, num_qubits, out)


def _apply_k3_blocked_gemm(
    stack: np.ndarray, op: CompiledOperator, num_qubits: int, out: np.ndarray
) -> np.ndarray:
    """Gapped dense 3-qubit operators: gather + GEMM + scatter in blocks.

    Same arithmetic as :func:`apply_gemm_stack` (each row is one
    independent ``(8, 8) @ (8, 2**n / 8)`` product, so per-row results are
    bitwise identical to the whole-stack call — asserted in
    ``tests/test_kernel_tiers.py``), but the transient is bounded: the
    gather for each row block is staged *inside the corresponding rows of
    the preallocated output* (free real estate until the scatter
    overwrites them), and the GEMM result goes to one reusable
    block-sized scratch buffer.  Peak memory is the output (~1x the
    stack) plus a single ``rows // 16`` scratch block — ~2x + 1/16,
    versus the whole-stack fallback's ~3x.
    """
    rows, dim = stack.shape
    targets = [t + 1 for t in op.targets]
    src = stack.reshape((rows,) + (2,) * num_qubits)
    dst = out.reshape((rows,) + (2,) * num_qubits)
    block = max(1, rows // 16)
    scratch = np.empty((block, 8, dim // 8), dtype=stack.dtype)
    for start in range(0, rows, block):
        blk = src[start : start + block]
        b = blk.shape[0]
        psi = np.moveaxis(blk, targets, (1, 2, 3))
        # Gather (the ascontiguousarray of the whole-stack path) lands in
        # the output rows this block will overwrite anyway.
        gathered = out[start : start + b].reshape(psi.shape)
        gathered[...] = psi
        res = np.matmul(op.matrix, gathered.reshape(b, 8, -1), out=scratch[:b])
        dst[start : start + b] = np.moveaxis(res.reshape(psi.shape), (1, 2, 3), targets)
    return out


def apply_gemm_stack(
    stack: np.ndarray,
    op: CompiledOperator,
    num_qubits: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Generic k-qubit fallback: move target axes up front, one batched GEMM.

    The tier behind gapped or non-ascending operators wider than
    :data:`MAX_VIEW_QUBITS`.  Exposed separately so the tier tests can
    pit the reshape-view paths against it directly (the contiguous view
    matmul is the same per-row product without the gather).  Peak memory
    is ~3x the stack (resident stack + contiguous gathered input + GEMM
    output).
    """
    rows, dim = stack.shape
    k = op.num_targets
    psi = stack.reshape((rows,) + (2,) * num_qubits)
    psi = np.moveaxis(psi, [t + 1 for t in op.targets], range(1, k + 1))
    shape_after = psi.shape
    psi = np.ascontiguousarray(psi).reshape(rows, 2**k, -1)
    result = np.matmul(op.matrix, psi).reshape(shape_after)
    result = np.moveaxis(result, range(1, k + 1), [t + 1 for t in op.targets])
    if out is None:
        return np.ascontiguousarray(result).reshape(rows, dim)
    out.reshape(result.shape)[...] = result
    return out


def apply_matrix_stack(
    stack: np.ndarray,
    matrix: Any,
    targets: Sequence[int],
    num_qubits: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Apply a ``(2**k, 2**k)`` matrix to ``targets`` of every stack row.

    One-shot convenience over :func:`compile_operator` +
    :func:`apply_compiled_stack`.  ``stack`` must be a C-contiguous
    ``(rows, 2**num_qubits)`` array and is treated as owned by the
    caller: diagonal operators mutate it in place and return it, dense
    operators return a fresh array.  No renormalization is performed.
    """
    return apply_compiled_stack(
        stack, compile_operator(matrix, targets, dtype), num_qubits
    )
