"""MPS shot sampling: cached environments, count-split, batched.

This module is the tensor-network half of the paper's contribution in
miniature.  Fig. 5's observation is that "the current sampling algorithm
for tensor networks requires nearly all of the tensor network contraction
process to reoccur for each sample", and that caching partial-contraction
intermediates lets large shot batches be drawn cheaply.  Here:

* :func:`compute_right_environments_batched` + :func:`sample_cached`
  compute the environment chain **once** per prepared state and then send
  shot *counts*, not shots, down the tree of sampled prefixes: a site
  contracts once per distinct prefix and splits
  each prefix's count with a binomial draw, so the sweep costs ``O(n * U *
  chi**2)`` with ``U`` the prefixes alive at a site (two on a GHZ state,
  sixteen per Steane block of the paper's MSD circuits, ``m`` only where
  every shot differs), and the ``m`` shots appear only when the counts are
  expanded, ``O(m)`` per column.  The same sweep takes a whole trajectory
  stack at once, which is how the tensornet engine samples a prepared unit
  (the "non-degenerate batched sampling" of arXiv:2604.08467: a batch is
  priced by its distinct bitstrings).
* Where a bond is 1 the state is a product, and the chain's *product
  blocks* — the runs of sites between such cuts — condition nothing on
  each other.  Blocks of one bond signature therefore descend **side by
  side**, one lane per request and block: level ``j`` contracts site ``j``
  of every block in the same two batched matmuls, and a request draws one
  binomial per level of a block, not one per site of the chain (seven, not
  thirty-five, on the five Steane blocks of the MSD preparation).  A chain
  with no cut is one block and one lane per request.

``tests/test_mps_sampler.py`` checks the count splitting against dense
probabilities and against the one-vector-per-shot sweep it replaced, which
it keeps as the distribution reference, and the blocks of a chain for
pairwise independence.  :func:`compute_right_environments`, the one-MPS
chain, stays as the reference the batched pass is tested against.

Sampling math: with right environments ``R[k]`` and a conditioned left
vector ``l`` (the contraction of the already-fixed bits), the unnormalized
probability of outcome ``i`` at site ``k`` is ``v_i R[k+1] v_i^dag`` with
``v_i = l @ A[k][:, i, :]``; dividing by the sum over ``i`` gives the exact
conditional distribution regardless of canonical form.  ``c`` i.i.d. shots
that share a prefix split as ``Binomial(c, p_1)`` between its two children,
and a uniformly random ordering of the resulting multiset of bitstrings is
an i.i.d. sample.  Each block is expanded, and ordered, on its own: a
joint sample of independent blocks pairs independently ordered samples.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BackendError

__all__ = [
    "compute_right_environments",
    "compute_right_environments_batched",
    "sample_cached",
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
    computed with two batched matmuls per site instead of ``B`` separate
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
        dl, dr = a.shape[1], a.shape[3]
        # (a i | b) @ (b c) -> (a | i c), then against conj (d | i c)^T
        tmp = (a.reshape(batch, dl * 2, dr) @ envs[k + 1]).reshape(batch, dl, 2 * dr)
        envs[k] = tmp @ a.conj().reshape(batch, dl, 2 * dr).transpose(0, 2, 1)
    return envs


#: One sampling request: ``(stack row, shots, that trajectory's generator)``.
Request = Tuple[int, int, np.random.Generator]

#: One group of product blocks: the blocks' first sites and, level by level,
#: their site tensors ``(B, blocks, Dl, 2, Dr)`` and the environments to the
#: right of them ``(B, blocks, Dr, Dr)``, side by side.
Group = Tuple[List[int], List[Tuple[np.ndarray, np.ndarray]]]

#: Most cells of the ``(requests, lanes, distinct prefixes)`` grid one pass
#: may come to hold.  A memory decision: the conditioned vectors, counts and
#: parent links of one grid, and one block's class label per shot of its
#: requests while they are expanded, are all the sampler holds besides the
#: returned bits.  A request on five Steane blocks side by side is bounded
#: by 5 x 128 cells, so a 64-request unit is six passes of at most 12.
_TILE_CELLS = 8192


def sample_cached(
    tensors: Sequence[np.ndarray],
    envs: Sequence[np.ndarray],
    num_shots: int,
    requests: Sequence[Request],
    *,
    columns: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Draw ``num_shots`` shots by splitting shot counts down the prefix tree.

    ``requests`` are ``(row, shots, generator)`` triples, ``tensors[k]`` is
    a trajectory stack's ``(B, Dl, 2, Dr)`` and ``envs[k]`` its ``(B, Dl,
    Dl)`` (:func:`compute_right_environments_batched`); ``num_shots`` is the
    requests' total.  One MPS is a one-row stack with one request
    (:meth:`repro.backends.mps.MPSBackend.sample`).

    Returns ``(num_shots, n)`` uint8 bits, column ``k`` = site ``k`` (or
    site ``columns[k]``), request after request.  A column outside the
    chain, a row outside the stack or a negative count is a
    :class:`~repro.errors.BackendError`.

    Cost: ``O(L * U * chi**2)`` for the contractions, ``L`` the levels of
    the chain's groups and ``U`` the distinct prefixes alive at a level
    summed over the requests' lanes, plus ``O(m)`` per column to expand the
    counts into ``m`` shots.

    Randomness: a request draws only from its own generator.  Group after
    group of the chain's product blocks (:func:`_groups`), it makes one
    ``binomial(counts, p1)`` call per level over its live classes — lane
    after lane, a lane's classes in prefix order — and then one ``shuffle``
    of its shots per block, block after block.  The shots of a request are
    therefore i.i.d. in order, its blocks are paired independently, and its
    bits are a function of its row's tensors, its shot count and its
    generator, never of what it is sampled beside (see :func:`_tiles` for
    the one rule that cuts a request).

    The total is kept in ``num_shots`` because this call is the sampling
    layer's boundary: what times the layer and counts its shots
    (``benchmarks/e2e/trace.py``) wraps it here.
    """
    total = sum(count for _, count, _ in requests)
    if total != num_shots:
        raise BackendError(f"requests total {total} shots, not num_shots={num_shots}")
    sites = range(len(tensors)) if columns is None else columns
    check_inside(sites, len(tensors), "qubit", "register")
    check_inside((row for row, _, _ in requests), len(envs[-1]), "row", "stack")
    if any(count < 0 for _, count, _ in requests):
        raise BackendError("num_shots must be >= 0")
    # Output columns of each site: a block's expansion writes them in place.
    dest: List[List[int]] = [[] for _ in tensors]
    for column, site in enumerate(sites):
        dest[site].append(column)
    groups: List[Group] = [
        (starts, [_beside(tensors, envs, [s + j for s in starts]) for j in range(length)])
        for starts, length in _groups(tensors)
    ]
    bits = np.empty((num_shots, sum(map(len, dest))), dtype=np.uint8)
    done = 0
    for tile in _tiles(requests, tensors):
        out = _split_counts(groups, tile, dest)
        bits[done : done + out.shape[1]] = out.T
        done += out.shape[1]
    return bits


def check_inside(values: Iterable[int], size: int, item: str, whole: str) -> None:
    for value in values:
        if not 0 <= value < size:
            raise BackendError(f"{item} {value} is outside a {size}-{item} {whole}")


def _groups(tensors: Sequence[np.ndarray]) -> List[Tuple[List[int], int]]:
    """The chain's product blocks as ``(first sites, length)`` groups.

    A block is a maximal run of sites between bond-1 cuts: nothing sampled
    outside it conditions it.  Blocks with the same bond signature (the
    site tensors' shapes along the block) descend together, so they are one
    group; groups come in order of first appearance, a group's blocks in
    chain order.  A chain with no cut is one group of one block.
    """
    groups: Dict[Tuple[Tuple[int, ...], ...], List[int]] = {}
    start = 0
    for k, a in enumerate(tensors):
        if a.shape[-1] == 1:
            signature = tuple(tuple(t.shape[1:]) for t in tensors[start : k + 1])
            groups.setdefault(signature, []).append(start)
            start = k + 1
    return [(starts, len(signature)) for signature, starts in groups.items()]


def _beside(
    tensors: Sequence[np.ndarray], envs: Sequence[np.ndarray], sites: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """One level of a group: the tensors of ``sites`` as ``(B, blocks, Dl, 2,
    Dr)`` and the environments to their right as ``(B, blocks, Dr, Dr)``."""
    if len(sites) == 1:  # views: no second copy of a chain with no cut
        return tensors[sites[0]][:, None], envs[sites[0] + 1][:, None]
    return (
        np.stack([tensors[k] for k in sites], axis=1),
        np.stack([envs[k + 1] for k in sites], axis=1),
    )


def _tiles(
    requests: Sequence[Request], tensors: Sequence[np.ndarray]
) -> Iterator[List[Request]]:
    """Group the requests, in order, into passes of at most ``_TILE_CELLS``.

    A group of ``lanes`` blocks of ``L`` sites gives a request ``lanes``
    lanes of up to ``min(shots, 2 ** L)`` distinct prefixes each, so a
    pass's grid is bounded by ``requests * lanes * that bound for its
    fullest request`` over the chain's groups; a tile closes before that
    passes ``_TILE_CELLS``.  Where a group's own ``lanes * 2 ** L`` is
    larger, a request is cut into pieces of ``_TILE_CELLS // lanes`` shots,
    sampled one after the other from its generator: a rule of that request
    and its chain alone.
    """
    shape = [(len(starts), 1 << length) for starts, length in _groups(tensors)] or [(1, 1)]
    too_wide = [lanes for lanes, prefixes in shape if lanes * prefixes > _TILE_CELLS]
    piece = max(1, _TILE_CELLS // max(too_wide)) if too_wide else None
    tile: List[Request] = []
    widest = 0
    for row, count, rng in requests:
        while count > 0:
            take = count if piece is None else min(count, piece)
            width = max(widest, max(lanes * min(take, prefixes) for lanes, prefixes in shape))
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
    groups: Sequence[Group], tile: Sequence[Request], dest: Sequence[Sequence[int]]
) -> np.ndarray:
    """Sample one tile group by group; returns its ``(columns, shots)`` bits.

    A request has one *lane* per block of the group (request-major, then
    block), and a *class* is the shots of a lane that have sampled the same
    prefix of its block: one conditioned left vector, contracted once, and
    an integer count.  Classes live on a zero-padded ``(lanes, P prefixes)``
    grid, so both contractions of a level — site ``j`` of every block — are
    one batched matmul against the lanes' own tensors.  Each level splits
    every count with a binomial, and the children that got shots are
    re-packed, ``P`` following the fullest lane.  After the last level the
    classes of one block at a time are repeated by count into shots,
    shuffled request by request, and their bits read back along the parent
    links.
    """
    rows = np.array([row for row, _, _ in tile], dtype=np.intp)
    rngs = [rng for _, _, rng in tile]
    shots = [count for _, count, _ in tile]
    ends = list(accumulate(shots))
    out = np.empty((sum(map(len, dest)), ends[-1]), dtype=np.uint8)
    for starts, levels in groups:
        blocks = len(starts)
        size = len(tile) * blocks  # lanes
        # A block starts at bond 1: nothing sampled elsewhere conditions it
        # (a scalar cancels in p1).
        left = np.ones((size, 1, 1), dtype=np.complex128)
        counts = np.repeat(np.array(shots, dtype=np.int64), blocks)[:, None]
        origins: List[np.ndarray] = []
        for a, env in levels:
            dl, dr = a.shape[2], a.shape[4]
            width = left.shape[1]
            # v[l, (p, i), :] = left[l, p] @ a[l][:, i, :]
            v = (left @ a[rows].reshape(size, dl, 2 * dr)).reshape(size, 2 * width, dr)
            # p[l, (p, i)] = v R v^dag  (real, >= 0 up to float noise)
            rv = v @ env[rows].reshape(size, dr, dr)
            p = np.einsum("lqc,lqc->lq", rv, v.conj()).real.reshape(-1, 2)
            np.clip(p, 0.0, None, out=p)
            total = p.sum(axis=1)
            # Degenerate classes (numerically dead branches, grid padding)
            # fall back to a fair coin.
            dead = total <= 0
            if np.any(dead):
                p[dead] = 0.5
                total[dead] = 1.0
            # A request's live classes, lane after lane: padding cells hold
            # no shots and are left out, so what a request draws does not
            # depend on how wide its neighbours made the grid.
            live = np.flatnonzero(counts)
            have = counts.ravel()[live]
            p1 = (p[:, 1] / total)[live]
            stops = np.count_nonzero(counts.reshape(len(tile), -1), axis=1).cumsum().tolist()
            ones = np.empty_like(have)
            for rng, lo, hi in zip(rngs, [0] + stops, stops):
                ones[lo:hi] = rng.binomial(have[lo:hi], p1[lo:hi])
            # child[l, p, i]: the shots of class (l, p) that draw bit i here.
            child = np.zeros((size * width, 2), dtype=np.int64)
            child[live, 0] = have - ones
            child[live, 1] = ones
            # Re-pack: a child survives if it got shots, and its new prefix
            # index is its rank among its lane's survivors.
            chosen = (child > 0).reshape(size, -1)
            rank = np.cumsum(chosen, axis=1) - 1
            width = int(rank[:, -1].max()) + 1
            kept = np.flatnonzero(chosen)
            packed = (rank + np.arange(size)[:, None] * width).ravel()[kept]
            counts = np.zeros(size * width, dtype=np.int64)
            counts[packed] = child.ravel()[kept]
            counts = counts.reshape(size, width)
            # Where each new class came from: its parent's cell and its bit.
            origin = np.zeros(size * width, dtype=np.intp)
            origin[packed] = kept
            origins.append(origin)
            # Renormalize the conditioned vector to keep magnitudes O(1).
            scale = np.sqrt(np.maximum(p.ravel()[kept], 1e-300))
            left = np.zeros((size * width, dr), dtype=np.complex128)
            left[packed] = v.reshape(-1, dr)[kept] / scale[:, None]
            left = left.reshape(size, width, dr)
        # Walk every final class back to its block's first site: one table
        # of bits per level, last level first.
        cell = cells = np.arange(size * width)
        tables: List[np.ndarray] = []
        for origin in reversed(origins):
            origin = origin[cell]
            cell = origin >> 1
            tables.append((origin & 1).astype(np.uint8))
        # Expand block after block: class index per shot, request after
        # request, each request's shots in an order of its own per block.
        cells = cells.reshape(len(tile), blocks, width)
        counts = counts.reshape(cells.shape)
        for block, start in enumerate(starts):
            labels = np.repeat(cells[:, block].ravel(), counts[:, block].ravel())
            for rng, count, end in zip(rngs, shots, ends):
                rng.shuffle(labels[end - count : end])
            for site, table in zip(range(start + len(levels) - 1, start - 1, -1), tables):
                for column in dest[site]:
                    np.take(table, labels, out=out[column])
    return out

