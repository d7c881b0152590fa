"""MPS shot sampling: naive per-shot vs. cached, count-split, batched.

This module is the tensor-network half of the paper's contribution in
miniature.  Fig. 5's observation is that "the current sampling algorithm
for tensor networks requires nearly all of the tensor network contraction
process to reoccur for each sample", and that caching partial-contraction
intermediates lets large shot batches be drawn cheaply.  Here:

* :func:`sample_naive` re-computes the right-environment chain for *every
  shot* — the per-shot cost is ``O(n * chi**3)``, dominated by contraction,
  mimicking the unoptimized path;
* :func:`compute_right_environments` + :func:`sample_cached` compute the
  chain **once** and then send shot *counts*, not shots, down the tree of
  sampled prefixes: a site contracts once per distinct prefix and splits
  each prefix's count with one binomial draw, so the sweep costs ``O(n * U
  * chi**2)`` with ``U`` the prefixes alive at a site (two on a GHZ state,
  sixteen per Steane block of the paper's MSD circuits, ``m`` only where
  every shot differs), and the ``m`` shots appear only when the counts are
  expanded, ``O(m)`` per column.  The same sweep takes a whole trajectory
  stack at once, which is how the tensornet engine samples a prepared unit
  (the "non-degenerate batched sampling" of arXiv:2604.08467: a batch is
  priced by its distinct bitstrings).

Both produce identically distributed shots (verified against each other
and against the statevector backend in ``tests/test_mps.py``;
``tests/test_mps_sampler.py`` checks the count splitting against dense
probabilities and against the one-vector-per-shot sweep it replaced, which
it keeps as the distribution reference).

Sampling math: with right environments ``R[k]`` and a conditioned left
vector ``l`` (the contraction of the already-fixed bits), the unnormalized
probability of outcome ``i`` at site ``k`` is ``v_i R[k+1] v_i^dag`` with
``v_i = l @ A[k][:, i, :]``; dividing by the sum over ``i`` gives the exact
conditional distribution regardless of canonical form.  ``c`` i.i.d. shots
that share a prefix split as ``Binomial(c, p_1)`` between its two children,
and a uniformly random ordering of the resulting multiset of bitstrings is
an i.i.d. sample.  Where a bond is 1 the state is a product, so the blocks
on either side are expanded, and ordered, independently.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import BackendError

__all__ = [
    "compute_right_environments",
    "compute_right_environments_batched",
    "sample_cached",
    "sample_naive",
]


def compute_right_environments(tensors: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Right environment chain ``R[k]`` for ``k = 0..n`` (``R[n]`` is 1x1).

    ``R[k] = sum_i A[k][:, i, :] R[k+1] A[k][:, i, :]^dag`` — the identity-
    on-physical-legs transfer contraction from site ``k`` to the right edge.
    """
    n = len(tensors)
    envs: List[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
    envs[n] = np.ones((1, 1), dtype=tensors[-1].dtype if n else np.complex128)
    for k in range(n - 1, -1, -1):
        a = tensors[k]
        # (a i b), (b c) -> (a i c); then against conj (d i c) -> (a d)
        tmp = np.tensordot(a, envs[k + 1], axes=([2], [0]))
        envs[k] = np.tensordot(tmp, a.conj(), axes=([1, 2], [1, 2]))
    return envs


def compute_right_environments_batched(
    tensors: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Batched right environments for a trajectory-stacked MPS.

    ``tensors[k]`` is ``(B, Dl, 2, Dr)``; the returned ``envs[k]`` is
    ``(B, Dl, Dl)`` — one independent environment chain per batch row,
    computed with two batched einsums per site instead of ``B`` separate
    :func:`compute_right_environments` sweeps.

    Because the stack is *not* renormalized during gate replay,
    ``envs[0][:, 0, 0].real`` is each row's unnormalized squared norm —
    exactly the trajectory weight (product of realized Kraus branch
    probabilities, less truncation losses), which the tensornet executor
    reads off for free from this same pass.
    """
    n = len(tensors)
    if n == 0:
        return [np.ones((1, 1, 1), dtype=np.complex128)]
    batch = tensors[-1].shape[0]
    envs: List[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
    envs[n] = np.ones((batch, 1, 1), dtype=tensors[-1].dtype)
    for k in range(n - 1, -1, -1):
        a = tensors[k]
        tmp = np.einsum("maib,mbc->maic", a, envs[k + 1], optimize=True)
        envs[k] = np.einsum("maic,mdic->mad", tmp, a.conj(), optimize=True)
    return envs


#: One sampling request: ``(stack row, shots, that trajectory's generator)``.
Request = Tuple[int, int, np.random.Generator]

#: Most cells of the ``(requests, distinct prefixes)`` grid one pass may
#: come to hold.  A memory decision: the conditioned vectors, counts and
#: parent links of one grid, and the shots of its requests while they are
#: expanded, are all the sampler holds besides the returned bits.  A
#: 64-request unit whose chain is cut every 7 sites is one pass.
_TILE_CELLS = 8192


def sample_cached(
    tensors: Sequence[np.ndarray],
    envs: Sequence[np.ndarray],
    num_shots: int,
    rng: Union[np.random.Generator, Sequence[Request]],
    *,
    columns: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Draw ``num_shots`` shots by splitting shot counts down the prefix tree.

    Two forms, one implementation.  With a generator, ``tensors[k]`` is one
    MPS's ``(Dl, 2, Dr)`` site tensor and ``envs`` its right environments.
    With a sequence of ``(row, shots, generator)`` requests, ``tensors[k]``
    is a trajectory stack's ``(B, Dl, 2, Dr)`` and ``envs[k]`` its ``(B, Dl,
    Dl)`` (:func:`compute_right_environments_batched`); ``num_shots`` is the
    requests' total.

    Returns ``(num_shots, n)`` uint8 bits, column ``k`` = site ``k`` (or
    site ``columns[k]``), request after request.

    Cost: ``O(n * U * chi**2)`` for the contractions, ``U`` the distinct
    prefixes alive at a site summed over the requests, plus ``O(m)`` to
    expand the counts into ``m`` shots.

    Randomness: a request draws only from its own generator — at every site
    one ``binomial(counts, p1)`` over its live classes, and one shuffle of
    its shots wherever the chain is a product (bond 1) and at its end.  The
    shots of a request are therefore i.i.d. in order, and its bits are a
    function of its row's tensors, its shot count and its generator, never
    of what it is sampled beside (see :func:`_tiles` for the one rule that
    cuts a request).

    The stacked form shares this name and keeps the total in ``num_shots``
    because this call is the sampling layer's boundary: what times the
    layer and counts its shots (``benchmarks/e2e/trace.py``) wraps it here.
    """
    if isinstance(rng, np.random.Generator):
        tensors = [a[None] for a in tensors]
        envs = [r[None] for r in envs]
        requests: Sequence[Request] = [(0, num_shots, rng)]
    else:
        requests = rng
        total = sum(count for _, count, _ in requests)
        if total != num_shots:
            raise BackendError(f"requests total {total} shots, not num_shots={num_shots}")
    # Output columns of each site: the block flush writes them in place.
    dest: List[List[int]] = [[] for _ in tensors]
    for column, site in enumerate(range(len(tensors)) if columns is None else columns):
        dest[site].append(column)
    bits = np.empty((num_shots, sum(map(len, dest))), dtype=np.uint8)
    done = 0
    for tile in _tiles(requests, tensors):
        out = _split_counts(tensors, envs, tile, dest)
        bits[done : done + out.shape[1]] = out.T
        done += out.shape[1]
    return bits


def _tiles(
    requests: Sequence[Request], tensors: Sequence[np.ndarray]
) -> Iterator[List[Request]]:
    """Group the requests, in order, into passes of at most ``_TILE_CELLS``.

    Between two product cuts a request can come to hold ``min(shots, 2 **
    sites)`` distinct prefixes, so a pass's grid is bounded by ``requests *
    that bound for its fullest request`` over the chain's longest such run;
    a tile closes before that passes ``_TILE_CELLS``.  A request whose own
    bound is larger is cut into pieces of ``_TILE_CELLS`` shots, sampled one
    after the other from its generator: a rule of that request alone.
    """
    run = longest = 0
    for a in tensors:
        run += 1
        longest = max(longest, run)
        if a.shape[-1] == 1:
            run = 0
    prefixes = 1 << longest
    tile: List[Request] = []
    widest = 0
    for row, count, rng in requests:
        while count > 0:
            take = count if prefixes <= _TILE_CELLS else min(count, _TILE_CELLS)
            width = max(widest, min(take, prefixes))
            if tile and (len(tile) + 1) * width > _TILE_CELLS:
                yield tile
                tile, widest = [], 0
                continue
            tile.append((row, take, rng))
            widest = width
            count -= take
    if tile:
        yield tile


def _split_counts(
    tensors: Sequence[np.ndarray],
    envs: Sequence[np.ndarray],
    tile: Sequence[Request],
    dest: Sequence[Sequence[int]],
) -> np.ndarray:
    """Sample one tile site by site; returns its ``(columns, shots)`` bits.

    A *class* is the shots of one request that have sampled the same prefix
    since the last product cut: one conditioned left vector, contracted
    once, and an integer count.  Classes live on a zero-padded ``(R
    requests, P prefixes)`` grid, so both contractions of a site are one
    batched matmul against the requests' own rows.  Each site splits every
    count with a binomial, and the children that got shots are re-packed,
    ``P`` following the fullest request.  Where the chain is a product, and
    at its end, the classes are repeated by count into shots, shuffled
    request by request, their bits read back along the parent links, and
    the grid is back to one class per request.
    """
    n = len(tensors)
    size = len(tile)
    rows = np.array([row for row, _, _ in tile], dtype=np.intp)
    rngs = [rng for _, _, rng in tile]
    shots = [count for _, count, _ in tile]
    ends = list(accumulate(shots))
    out = np.empty((sum(map(len, dest)), ends[-1]), dtype=np.uint8)
    for k in range(n):
        a = tensors[k][rows]  # (R, Dl, 2, Dr)
        dl, dr = a.shape[1], a.shape[3]
        if dl == 1:
            # Site 0, or a product cut: what was sampled to the left no
            # longer conditions anything (a scalar cancels in p1).
            left = np.ones((size, 1, 1), dtype=np.complex128)
            counts = np.array(shots, dtype=np.int64)[:, None]
            widths = [1] * size
            origins: List[np.ndarray] = []
        width = left.shape[1]
        # v[r, (p, i), :] = left[r, p] @ a[r][:, i, :]
        v = (left @ a.reshape(size, dl, 2 * dr)).reshape(size, 2 * width, dr)
        # p[r, (p, i)] = v R v^dag  (real, >= 0 up to float noise)
        rv = v @ envs[k + 1][rows]
        p = np.einsum("rqc,rqc->rq", rv, v.conj()).real.reshape(-1, 2)
        np.clip(p, 0.0, None, out=p)
        total = p.sum(axis=1)
        # Degenerate classes (numerically dead branches, grid padding) fall
        # back to a fair coin.
        dead = total <= 0
        if np.any(dead):
            p[dead] = 0.5
            total[dead] = 1.0
        p1 = (p[:, 1] / total).reshape(size, width)
        # child[r, p, i]: the shots of class (r, p) that draw bit i here.
        child = np.zeros((size, width, 2), dtype=np.int64)
        for r, rng in enumerate(rngs):
            w = widths[r]
            child[r, :w, 1] = rng.binomial(counts[r, :w], p1[r, :w])
        child[:, :, 0] = counts - child[:, :, 1]
        # Re-pack: a child survives if it got shots, and its new prefix
        # index is its rank among its request's survivors.
        chosen = (child > 0).reshape(size, -1)
        rank = np.cumsum(chosen, axis=1) - 1
        widths = (rank[:, -1] + 1).tolist()
        width = max(widths)
        kept = np.flatnonzero(chosen)
        packed = (rank + np.arange(size)[:, None] * width).ravel()[kept]
        counts = np.zeros(size * width, dtype=np.int64)
        counts[packed] = child.ravel()[kept]
        # Where each new class came from: its parent's cell and its bit.
        origin = np.zeros(size * width, dtype=np.intp)
        origin[packed] = kept
        origins.append(origin)
        if dr == 1 or k + 1 == n:
            # Expand: class index per shot, request after request, each
            # request's shots in an order of its own; then walk the classes
            # back to the cut, one column of bits per site.
            cell = np.arange(size * width)
            labels = np.repeat(cell, counts)
            for rng, count, end in zip(rngs, shots, ends):
                rng.shuffle(labels[end - count : end])
            for site, origin in zip(range(k, -1, -1), reversed(origins)):
                origin = origin[cell]
                cell = origin >> 1
                bit = (origin & 1).astype(np.uint8)
                for column in dest[site]:
                    np.take(bit, labels, out=out[column])
            continue
        counts = counts.reshape(size, width)
        # Renormalize the conditioned vector to keep magnitudes O(1).
        scale = np.sqrt(np.maximum(p.ravel()[kept], 1e-300))
        left = np.zeros((size * width, dr), dtype=np.complex128)
        left[packed] = v.reshape(-1, dr)[kept] / scale[:, None]
        left = left.reshape(size, width, dr)
    return out


def sample_naive(
    tensors: Sequence[np.ndarray],
    num_shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-shot sampling that redoes the contraction chain every shot.

    Deliberately unoptimized (this is the *baseline* of Fig. 5): each shot
    rebuilds the right environments — "nearly all of the tensor network
    contraction process" — before its conditional sweep.
    """
    n = len(tensors)
    bits = np.empty((num_shots, n), dtype=np.uint8)
    for shot in range(num_shots):
        envs = compute_right_environments(tensors)  # the redundant work
        bits[shot] = sample_cached(tensors, envs, 1, rng)[0]
    return bits
