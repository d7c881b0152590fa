"""The shot-sampling kernel of every dense backend.

Once a trajectory's state is prepared, drawing its whole shot budget is
the cheap, polynomial half of batched execution (paper §3: "sampling all
m_alpha desired quantum bitstrings at once").  It is two table lookups,
and this module holds **the** implementation of each — the way
:func:`repro.linalg.reductions.row_norms_squared` is the single norm
reduction.  The serial statevector backend is the stacked one at
``B = 1``, so one caller serves both; the density-matrix backend and the
Pauli-frame branch draw are the others:

* :func:`inverse_cdf_indices` maps shot uniforms to basis-state indices
  through a cumulative distribution.  Its result is *defined* as
  ``cum.searchsorted(r, side="right")``; it gets there with
  Chen & Asau's cutpoint (guide-table) method instead of one binary
  search per shot, so a shot costs ``O(1)`` expected rather than
  ``O(log dim)`` mispredicted branches.
* :func:`bits_from_indices` turns those indices into one-byte-per-bit
  shot-table rows with one ``unpackbits`` over the indices' big-endian
  bytes instead of a shift-and-mask pass over an ``(m, n)`` ``uint64``
  temporary.

Both are exact replacements: no shot bit depends on which path ran.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BackendError

__all__ = ["bits_from_indices", "inverse_cdf_indices"]

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


def inverse_cdf_indices(cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``cum.searchsorted(r, side="right")`` for a whole shot budget at once.

    ``cum`` is a cumulative distribution over ``dim`` outcomes whose last
    entry the caller has clamped to 1.0, ``r`` uniforms in ``[0, 1)``;
    entry ``j`` of the result is the first ``i`` with ``cum[i] > r[j]``.

    When the shot count pays for it (:func:`_use_guide`), ``[0, 1)`` is
    bucketed into ``2 * dim`` cells (rounded up to a power of two) once
    per call; a shot starts at its cell's guide entry, takes at most
    :data:`_GUIDE_MAX_STEPS` vectorised linear steps while
    ``cum[idx] <= r``, and any lane still unresolved (a peaked state) is
    finished by the binary search itself — so the worst case is bounded
    and the indices are ``searchsorted``'s by construction.
    """
    if not _use_guide(r.shape[0], cum.shape[0]):
        return cum.searchsorted(r, side="right")
    guide = _guide_table(cum)
    idx = guide.take((r * guide.shape[0]).astype(np.intp)).astype(np.intp)
    todo = np.flatnonzero(cum.take(idx) <= r)
    for _ in range(_GUIDE_MAX_STEPS):
        if not todo.size:
            break
        idx[todo] += 1
        todo = todo[cum.take(idx.take(todo)) <= r.take(todo)]
    if todo.size:
        idx[todo] = cum.searchsorted(r.take(todo), side="right")
    return idx


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
