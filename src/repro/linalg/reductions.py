"""Stack-wide reductions shared by the serial and batched dense backends.

The per-row renormalization sweep after each noise window used to be the
dominant stacked-path cost at large batch sizes: the batched backend
called ``vdot(row, row)`` once per row.  Batching the reduction is only
sound if it cannot diverge from the serial backend's ``norm_squared`` —
the bitwise serial/stacked equivalence contract hangs on the two engines
renormalizing by the *exact same* float.

:func:`row_norms_squared` resolves that by construction instead of by
promise: it is the **single** squared-norm reduction in the library.  The
serial :class:`~repro.backends.statevector.StatevectorBackend` calls it
on its state viewed as a 1-row stack, and the batched
:class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`
calls it once on the whole ``(B, 2**n)`` stack.  The reduction is
row-independent — each output element is a sum over its own row only, in
an order that does not depend on how many rows sit above or below it —
so the B-row result is bit-for-bit the concatenation of B 1-row results.
One call replaces B per-row ``vdot``\\ s.

Note the one-time numerics change this introduced: the shared reduction
sums ``re**2 + im**2`` over the interleaved real view of a row (a
batched GEMV), whereas the historical per-row ``vdot`` accumulated in
complex arithmetic.  The two can differ in the last ulp, so seeded
expectations recorded before the switch (benchmark baselines, golden shot
tables) were regenerated once when it landed.  Cross-strategy bitwise
equivalence is unaffected — every dense strategy moved to the shared
reduction in the same commit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_norms_squared", "scale_rows_inverse_sqrt"]


def row_norms_squared(stack: np.ndarray) -> np.ndarray:
    """Per-row ``<psi|psi>`` of a C-contiguous ``(rows, dim)`` complex stack.

    Returns a real ``(rows,)`` array.  The sum runs over the interleaved
    real view of each row (``re_0**2 + im_0**2 + re_1**2 + ...``) as one
    batched ``(1, 2*dim) @ (2*dim, 1)`` GEMV per row, so no ``(rows, dim)``
    temporary is materialized and each row's dot product is an
    independent batch element whose summation order does not depend on
    the row count — the property that makes a 1-row call on the serial
    backend bitwise identical to the matching row of a whole-stack call
    on the batched backend.  (The gate kernels' ``matmul`` fallback
    already relies on exactly this batch independence for the bitwise
    serial/stacked contract, so the reduction adds no new assumption.)

    ``stack`` must be C-contiguous (both dense backends only ever hold
    contiguous states); non-contiguous input raises rather than silently
    copying, since a copy here would hide a performance bug upstream.
    """
    if stack.ndim != 2:
        raise ValueError(f"expected a (rows, dim) stack, got shape {stack.shape}")
    # Reinterpret each complex row as 2*dim interleaved floats; a pure
    # view, valid only for contiguous rows (hence the flags guard).
    if not stack.flags["C_CONTIGUOUS"]:
        raise ValueError("row_norms_squared requires a C-contiguous stack")
    real_view = stack.view(stack.real.dtype)
    return np.matmul(real_view[:, None, :], real_view[:, :, None])[:, 0, 0]


def scale_rows_inverse_sqrt(
    stack: np.ndarray, norms: np.ndarray, dead_norm: float = 0.0
) -> np.ndarray:
    """In place: ``stack[i] /= sqrt(norms[i])`` (unit divisor for dead rows).

    The renormalization *scale* companion to :func:`row_norms_squared`,
    and shared for the same reason: the divisor arithmetic must be
    identical between the serial backend (a 1-row stack) and the batched
    backend (the whole stack) for the bitwise equivalence contract.  The
    square root is always taken in float64 (norms may arrive as float32
    under complex64 states; the cast up is exact) and the divisor is then
    cast to the stack's real dtype, so the division itself runs at the
    state dtype on both paths — no dependence on scalar-vs-array
    promotion rules.  Rows with ``norms <= dead_norm`` divide by 1.0,
    which is bitwise the identity; callers zero or reject such rows
    themselves.
    """
    norms64 = np.asarray(norms).astype(np.float64, copy=False)
    divisor = np.sqrt(
        np.where(norms64 > dead_norm, norms64, np.asarray(1.0, dtype=np.float64))
    ).astype(stack.real.dtype, copy=False)
    stack /= divisor[:, None]
    return stack
