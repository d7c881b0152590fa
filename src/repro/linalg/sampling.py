"""The shot-sampling kernel of every dense backend.

Once a trajectory's state is prepared, drawing its whole shot budget is
the cheap, polynomial half of batched execution (paper §3: "sampling all
m_alpha desired quantum bitstrings at once").  It is table lookups and a
bit unpack, and this module holds **the** implementation of each — the
way :func:`repro.linalg.reductions.row_norms_squared` is the single norm
reduction.  The serial statevector backend is the stacked one at
``B = 1``, so one caller serves both; the density-matrix backend and the
Pauli-frame branch draw are the others.  Two kernels map shot uniforms to
basis-state indices through cumulative distributions, and both are
*defined* as ``cum.searchsorted(r, side="right")``:

* :func:`inverse_cdf_indices` serves one distribution and one request.
  It gets there with Chen & Asau's cutpoint (guide-table) method
  instead of one binary search per shot when the shot count pays for it,
  so a shot costs ``O(1)`` expected rather than ``O(log dim)``
  mispredicted branches.  The guide table is a function of the
  distribution alone: :func:`guide_table` builds it ahead of the draw
  (the dense backends build it with the cumulative table, when a unit is
  prepared, so the serial look-ahead's helper pays for it), and a draw
  handed none builds its own.
* :func:`stacked_inverse_cdf_indices` serves a whole unit of requests
  at once: each uniform names its row of a ``(rows, 2**n)`` table, and
  one branchless binary search (``n`` levels, each one gather and one
  compare over every uniform) resolves them all, instead of one
  ``searchsorted`` call per request over its own cold row.

:func:`bits_from_indices` turns indices into one-byte-per-bit shot-table
rows with one ``unpackbits`` over the indices' big-endian bytes instead
of a shift-and-mask pass over an ``(m, n)`` ``uint64`` temporary.

All three are exact replacements: no shot bit depends on which path ran.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import BackendError

__all__ = [
    "bits_from_indices",
    "guide_table",
    "inverse_cdf_indices",
    "stacked_inverse_cdf_indices",
]

#: Below this many shots the guide's fixed cost (a dozen NumPy calls,
#: ~20 us) exceeds what it saves, whatever the dimension.
_GUIDE_MIN_SHOTS = 4096
#: A binary search over fewer outcomes than this is at most three levels
#: (a noise site's branch draw); the guide's gathers do not beat it.
_GUIDE_MIN_DIM = 16
#: Linear steps a shot may take from its guide entry before the binary
#: search finishes it.  With two cells per basis state a Porter-Thomas
#: shot needs ~0.25 on average; only a peaked state (thousands of
#: near-zero entries in one cell) leaves lanes for the fallback.
_GUIDE_MAX_STEPS = 4


def _use_guide(num_shots: int, dim: int) -> bool:
    """Whether building the ``2 * dim``-cell guide pays for ``num_shots`` shots.

    A fixed function of ``(m, dim)`` — both paths return identical
    indices, so this only ever moves time, never bits.
    """
    return num_shots >= _GUIDE_MIN_SHOTS and _GUIDE_MIN_DIM <= dim <= 4 * num_shots


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """``guide[k]`` = number of ``cum`` entries ``<= k / cells``.

    ``cells = len(guide)`` is ``2 * dim`` rounded up to a power of two
    (itself, for a state vector), so ``cum * cells`` is exact and
    ``cum[i] <= k / cells`` is ``ceil(cum[i] * cells) <= k``: one
    ``bincount`` of the ceilings, then a running sum.  Entries that
    overshoot 1.0 (a cumulative sum's rounding, before the tail clamp)
    land past the last cell and are counted by none.  ``int32`` while the
    dimension allows, so the table is as large as ``cum`` itself; each
    temporary is dropped before the next is made and the running sum is
    taken in place, which keeps the build's peak at three times ``cum``
    (``bincount`` counts in ``intp``).
    """
    cells = 1 << (2 * cum.shape[0] - 1).bit_length()
    ceilings = cum * cells
    np.ceil(ceilings, out=ceilings)
    np.minimum(ceilings, cells, out=ceilings)
    ceilings = ceilings.astype(np.intp)
    counts = np.bincount(ceilings, minlength=cells + 1)
    del ceilings
    np.cumsum(counts, out=counts)
    dtype = np.int32 if cum.shape[0] <= np.iinfo(np.int32).max else np.int64
    return counts[:cells].astype(dtype)


def guide_table(cum: np.ndarray, num_shots: int) -> Optional[np.ndarray]:
    """The guide table a draw of ``num_shots`` uniforms from ``cum`` reads
    (:func:`inverse_cdf_indices`), or ``None`` where that draw takes the
    binary search instead."""
    return _guide_table(cum) if _use_guide(num_shots, cum.shape[0]) else None


def inverse_cdf_indices(
    cum: np.ndarray,
    r: np.ndarray,
    guide: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``cum.searchsorted(r, side="right")`` for a whole shot budget at once.

    ``cum`` is a cumulative distribution over ``dim`` outcomes whose last
    entry the caller has clamped to 1.0, ``r`` uniforms in ``[0, 1)``;
    entry ``j`` of the result is the first ``i`` with ``cum[i] > r[j]``.

    When the shot count pays for it (:func:`_use_guide`), ``[0, 1)`` is
    bucketed into ``2 * dim`` cells (rounded up to a power of two): the
    prebuilt ``guide`` (:func:`guide_table` of ``cum``) when the caller
    has one, else one built here.  A shot starts at its cell's guide
    entry, takes at most :data:`_GUIDE_MAX_STEPS` vectorised linear steps
    while ``cum[idx] <= r``, and any lane still unresolved (a peaked
    state) is finished by the binary search itself — so the worst case is
    bounded and the indices are ``searchsorted``'s by construction.
    Otherwise ``guide`` is not read.

    The indices are written to ``out`` (a 64-bit integer array of ``r``'s
    shape, e.g. the caller's slice of a unit buffer) when given, else to a
    fresh array; the guide path then works in it, with no index-sized
    temporary besides the guide's ``int32`` lookup.
    """
    if not _use_guide(r.shape[0], cum.shape[0]):
        if out is None:
            return cum.searchsorted(r, side="right")
        out[...] = cum.searchsorted(r, side="right")
        return out
    if guide is None:
        guide = _guide_table(cum)
    idx = np.empty(r.shape, dtype=np.intp) if out is None else out
    # Truncating r * cells in the multiply's own cast is astype(intp)'s cell.
    np.multiply(r, guide.shape[0], out=idx, casting="unsafe")
    idx[...] = guide.take(idx)
    todo = np.flatnonzero(cum.take(idx) <= r)
    for _ in range(_GUIDE_MAX_STEPS):
        if not todo.size:
            break
        idx[todo] += 1
        todo = todo[cum.take(idx.take(todo)) <= r.take(todo)]
    if todo.size:
        idx[todo] = cum.searchsorted(r.take(todo), side="right")
    return idx


def stacked_inverse_cdf_indices(
    cum: np.ndarray, rows: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """``cum[rows[j]].searchsorted(r[j], side="right")`` for every ``j``.

    ``cum`` is a C-contiguous ``(tables, 2**n)`` stack of cumulative
    distributions, each clamped to 1.0 at its last entry, ``rows`` the
    table row of each uniform in ``r`` (all in ``[0, 1)``).

    A branchless binary search over the flattened stack.  Each uniform's
    probe starts mid-row; per level it gathers ``cum`` there, and moves
    up by half the remaining span where that entry is ``<= r``, down where
    it is not.  After ``n`` levels the probe sits on the last entry
    ``<= r`` or the first one past it, and one compare says which.  That
    needs only that ``cum[i] <= r`` be true on a prefix of each row, which
    holds for a running sum of non-negative terms, and still holds where
    the sum overshot 1.0 before the clamp: every ``r < 1``, so neither the
    overshoot nor the clamped 1.0 is ``<= r``.  No probe leaves its row
    (so the gathers need no bounds check), and the clamped last entry is
    never probed.
    """
    dim = cum.shape[1]
    if dim < 2 or dim & (dim - 1):
        raise BackendError(f"a stacked table needs 2**n columns (n >= 1), got {dim}")
    flat = cum.reshape(-1)
    step = dim >> 1
    probe = np.asarray(rows, dtype=np.intp) * dim
    probe += step - 1
    values = np.empty(r.shape, dtype=cum.dtype)
    hit = np.empty(r.shape, dtype=bool)
    move = np.empty_like(probe)
    while True:
        flat.take(probe, out=values, mode="clip")
        np.less_equal(values, r, out=hit)
        step >>= 1
        if not step:
            break
        probe -= step
        np.multiply(hit, 2 * step, out=move)
        probe += move
    probe &= dim - 1  # row * dim + column, column < dim - 1: keep the column
    probe += hit
    return probe


def bits_from_indices(
    indices: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Extract bit columns for ``qubits`` from basis-state indices.

    Qubit 0 is the most significant bit of an index (library convention).
    Returns C-contiguous ``(len(indices), len(qubits))`` uint8.

    Each index is narrowed to the smallest of 1, 2, 4 or 8 big-endian
    bytes that holds ``num_qubits`` bits, and the flat byte buffer is
    unpacked in one pass (the peak is the output plus the narrowed
    indices); the requested columns are a slice of that when ``qubits`` is
    an ascending run (``measure_all``, no copy when the width is a whole
    word) and a gather otherwise.
    """
    qubits = list(qubits)
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise BackendError(
                f"qubit {q} is outside a {num_qubits}-qubit register"
            )
    width = 1 << (((num_qubits + 7) // 8) - 1).bit_length()
    pad = 8 * width - num_qubits
    big_endian = np.asarray(indices).astype(f">u{width}")
    bits = np.unpackbits(big_endian.view(np.uint8)).reshape(-1, 8 * width)
    if qubits and qubits == list(range(qubits[0], qubits[0] + len(qubits))):
        return np.ascontiguousarray(bits[:, pad + qubits[0]: pad + qubits[-1] + 1])
    return bits.take([pad + q for q in qubits], axis=1)
