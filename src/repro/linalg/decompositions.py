"""Truncated SVD and Schmidt decomposition used by the MPS backend.

The tensor-network backend's accuracy/cost trade-off is governed entirely by
these routines: every two-qubit gate application splits a merged tensor with
:func:`truncated_svd`, discarding singular values below a cutoff and beyond a
maximum bond dimension, exactly as cuTensorNet's MPS path does.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "TruncationInfo",
    "truncated_svd",
    "truncated_svd_batched",
    "schmidt_decomposition",
]


class TruncationInfo(NamedTuple):
    """Bookkeeping about one SVD truncation.

    Attributes
    ----------
    kept:
        Number of singular values retained.
    discarded_weight:
        Sum of squared discarded singular values divided by the total —
        i.e. the probability weight thrown away by this truncation.
    """

    kept: int
    discarded_weight: float


def truncated_svd(
    matrix: np.ndarray,
    max_rank: Optional[int] = None,
    cutoff: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, TruncationInfo]:
    """SVD with rank and relative-magnitude truncation.

    Parameters
    ----------
    matrix:
        Matrix to factor.
    max_rank:
        Keep at most this many singular values (``None`` = no limit).
    cutoff:
        Drop singular values ``s_i`` with ``s_i < cutoff * s_0``.

    Returns
    -------
    (u, s, vh, info):
        Truncated factors and a :class:`TruncationInfo` record.  At least
        one singular value is always kept.
    """
    u, s, vh = np.linalg.svd(np.asarray(matrix), full_matrices=False)
    total = float(np.sum(s**2))
    rank = len(s)
    if cutoff > 0.0 and rank > 0:
        keep_mask = s >= cutoff * s[0]
        rank = max(1, int(np.count_nonzero(keep_mask)))
    if max_rank is not None:
        rank = max(1, min(rank, int(max_rank)))
    kept_weight = float(np.sum(s[:rank] ** 2))
    discarded = 0.0 if total == 0.0 else max(0.0, 1.0 - kept_weight / total)
    info = TruncationInfo(kept=rank, discarded_weight=discarded)
    return u[:, :rank], s[:rank], vh[:rank, :], info


def truncated_svd_batched(
    mats: np.ndarray,
    max_rank: Optional[int] = None,
    cutoff: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Batched :func:`truncated_svd` over the leading axis.

    All rows are truncated to one *common* kept rank so the batch stays a
    rectangular array: the rank is the maximum of the per-row ranks that
    serial truncation would have chosen (then clamped to ``max_rank``).
    Keeping extra genuine singular values for a row only improves its
    accuracy, so per-row results remain at least as accurate as the serial
    path would have been at the same ``max_rank``/``cutoff``.

    Parameters
    ----------
    mats:
        ``(B, m, n)`` stack of matrices to factor.
    max_rank:
        Keep at most this many singular values per row (``None`` = no limit).
    cutoff:
        Drop singular values ``s_i`` with ``s_i < cutoff * s_0``, judged
        per row against that row's largest singular value.

    Returns
    -------
    (u, s, vh, kept, discarded):
        ``u`` is ``(B, m, kept)``, ``s`` is ``(B, kept)``, ``vh`` is
        ``(B, kept, n)``; ``kept`` is the common retained rank and
        ``discarded`` the ``(B,)`` per-row relative discarded weight
        (same semantics as :class:`TruncationInfo.discarded_weight`).
    """
    mats = np.asarray(mats)
    u, s, vh = np.linalg.svd(mats, full_matrices=False)
    batch, full_rank = s.shape
    rank = full_rank
    if cutoff > 0.0 and full_rank > 0 and batch:
        # Per-row relative cutoff; the batch keeps the widest row's rank.
        # Singular values descend, so each row keeps a prefix and the
        # widest prefix is the number of columns any row keeps.
        keep = s >= cutoff * s[:, :1]
        rank = max(1, int(np.count_nonzero(keep.any(axis=0))))
    if max_rank is not None:
        rank = max(1, min(rank, int(max_rank)))
    if rank == full_rank:
        return u, s, vh, rank, np.zeros(batch)
    squares = s**2
    totals = squares.sum(axis=1)
    kept_weight = squares[:, :rank].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        discarded = np.where(
            totals == 0.0, 0.0, np.maximum(0.0, 1.0 - kept_weight / np.where(totals == 0.0, 1.0, totals))
        )
    return u[:, :, :rank], s[:, :rank], vh[:, :rank, :], rank, discarded


def schmidt_decomposition(
    state: np.ndarray, left_qubits: int, total_qubits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a pure state across a left/right bipartition.

    Returns ``(coeffs, left_vectors, right_vectors)`` with
    ``state = sum_k coeffs[k] * kron(left[:, k], right[:, k])``.
    """
    state = np.asarray(state).reshape(2**left_qubits, 2 ** (total_qubits - left_qubits))
    u, s, vh = np.linalg.svd(state, full_matrices=False)
    return s, u, vh.T  # vh row k is the k-th right vector; return as columns
