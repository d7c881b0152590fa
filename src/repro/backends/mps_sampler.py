"""MPS shot sampling: naive per-shot vs. cached, prefix-collapsed, batched.

This module is the tensor-network half of the paper's contribution in
miniature.  Fig. 5's observation is that "the current sampling algorithm
for tensor networks requires nearly all of the tensor network contraction
process to reoccur for each sample", and that caching partial-contraction
intermediates lets large shot batches be drawn cheaply.  Here:

* :func:`sample_naive` re-computes the right-environment chain for *every
  shot* — the per-shot cost is ``O(n * chi**3)``, dominated by contraction,
  mimicking the unoptimized path;
* :func:`compute_right_environments` + :func:`sample_cached` compute the
  chain **once** and then draw all ``m`` shots in one conditional sweep
  that contracts once per *distinct sampled prefix*: cost
  ``O(n * (U * chi**2 + m))`` with ``U <= m`` the prefixes alive at a
  site (two on a GHZ state, a handful per Steane block of the paper's
  MSD circuits, ``m`` only where every shot differs).  The same sweep
  takes a whole trajectory stack — every ``(row, shot)`` lane of it at
  once — which is how the tensornet engine samples a prepared unit
  (the "non-degenerate batched sampling" of arXiv:2604.08467).

Both produce identically distributed shots (verified against each other
and against the statevector backend in ``tests/test_mps.py``), and the
sweep reproduces the one-vector-per-shot sweep it replaced bit for bit
(``tests/test_mps_sampler.py`` keeps that one as its oracle).

Sampling math: with right environments ``R[k]`` and a conditioned left
vector ``l`` (the contraction of the already-fixed bits), the unnormalized
probability of outcome ``i`` at site ``k`` is ``v_i R[k+1] v_i^dag`` with
``v_i = l @ A[k][:, i, :]``; dividing by the sum over ``i`` gives the exact
conditional distribution regardless of canonical form.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple, Union

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

#: Most cells of the ``(rows, distinct prefixes)`` grid — hence most lanes —
#: one tile of the sweep may hold.  A memory decision, not a speed one: the
#: uniforms and the conditioned vectors of one tile are all the sampler
#: holds besides the returned bits.
_TILE_LANES = 4096


def sample_cached(
    tensors: Sequence[np.ndarray],
    envs: Sequence[np.ndarray],
    num_shots: int,
    rng: Union[np.random.Generator, Sequence[Request]],
) -> np.ndarray:
    """Draw ``num_shots`` shots with one prefix-collapsed conditional sweep.

    Two forms, one implementation.  With a generator, ``tensors[k]`` is one
    MPS's ``(Dl, 2, Dr)`` site tensor and ``envs`` its right environments.
    With a sequence of ``(row, shots, generator)`` requests, ``tensors[k]``
    is a trajectory stack's ``(B, Dl, 2, Dr)`` and ``envs[k]`` its ``(B, Dl,
    Dl)`` (:func:`compute_right_environments_batched`); ``num_shots`` is the
    requests' total and every request draws from its own generator, so a
    trajectory's bits do not depend on what it is sampled beside.

    Returns ``(num_shots, n)`` uint8 bits, column ``k`` = site ``k``,
    request after request.

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
    bits = np.empty((num_shots, len(tensors)), dtype=np.uint8)
    done = 0
    for tile in _tiles(requests):
        lanes = sum(count for _, count, _ in tile)
        _sweep(tensors, envs, tile, bits[done : done + lanes])
        done += lanes
    return bits


def _tiles(requests: Sequence[Request]) -> Iterator[List[Request]]:
    """Cut the requests' lanes, in order, into tiles.

    A row can come to hold as many distinct prefixes as it has lanes, so a
    tile's grid is bounded by ``rows * lanes of its fullest row``; a tile
    closes before that passes ``_TILE_LANES``.  A request larger than a
    tile continues, and so does its generator's stream, in the next one.
    """
    tile: List[Request] = []
    lanes_of: Dict[int, int] = {}
    fullest = 0
    for row, count, rng in requests:
        while count > 0:
            take = min(count, _TILE_LANES)
            lanes = lanes_of.get(row, 0) + take
            rows = len(lanes_of) + (row not in lanes_of)
            if tile and rows * max(fullest, lanes) > _TILE_LANES:
                yield tile
                tile, lanes_of, fullest = [], {}, 0
                continue
            tile.append((row, take, rng))
            lanes_of[row] = lanes
            fullest = max(fullest, lanes)
            count -= take
    if tile:
        yield tile


def _sweep(
    tensors: Sequence[np.ndarray],
    envs: Sequence[np.ndarray],
    tile: Sequence[Request],
    out: np.ndarray,
) -> None:
    """Sample one tile's lanes site by site into ``out``.

    Lanes of one row that have sampled the same prefix share one *class*:
    one conditioned left vector, contracted once.  Classes live on a
    zero-padded ``(R rows, P prefixes)`` grid, so both contractions of a
    site are one batched matmul against the rows' own tensors; a lane
    carries only its class index.  After each site the children somebody
    chose are re-packed, ``P`` following the fullest row.
    """
    n = len(tensors)
    rows, slot = np.unique([row for row, _, _ in tile], return_inverse=True)
    lane_slot = np.repeat(slot, [count for _, count, _ in tile])
    uniforms = np.empty((len(lane_slot), n))
    done = 0
    for _, count, rng in tile:
        rng.random(out=uniforms[done : done + count])
        done += count
    size = len(rows)
    for k in range(n):
        a = tensors[k][rows]  # (R, Dl, 2, Dr)
        dl, dr = a.shape[1], a.shape[3]
        if dl == 1:
            # Site 0, or a product cut: what was sampled to the left no
            # longer conditions anything (a scalar cancels in p0), so every
            # lane of a row is back in one class.
            left = np.ones((size, 1, 1), dtype=np.complex128)
            cls = lane_slot
        width = left.shape[1]
        # v[r, (p, i), :] = left[r, p] @ a[r][:, i, :]
        v = (left @ a.reshape(size, dl, 2 * dr)).reshape(size, 2 * width, dr)
        # p[r, (p, i)] = v R v^dag  (real, >= 0 up to float noise)
        rv = v @ envs[k + 1][rows]
        p = np.einsum("rqc,rqc->rq", rv, v.conj()).real.reshape(-1, 2)
        np.clip(p, 0.0, None, out=p)
        total = p.sum(axis=1)
        # Degenerate classes (numerically dead branches, grid padding) fall
        # back to uniform.
        dead = total <= 0
        if np.any(dead):
            p[dead] = 0.5
            total[dead] = 1.0
        p0 = p[:, 0] / total
        choice = uniforms[:, k] >= p0[cls]
        out[:, k] = choice
        if k + 1 == n or dr == 1:
            continue
        # Re-pack: child (r, p, i) survives if some lane chose it, and its
        # new prefix index is its rank among its row's survivors.
        child = 2 * cls + choice
        chosen = np.zeros(size * 2 * width, dtype=bool)
        chosen[child] = True
        rank = np.cumsum(chosen.reshape(size, -1), axis=1) - 1
        width = int(rank[:, -1].max()) + 1
        packed = (rank + np.arange(size)[:, None] * width).ravel()
        cls = packed[child]
        kept = np.flatnonzero(chosen)
        # Renormalize the conditioned vector to keep magnitudes O(1).
        scale = np.sqrt(np.maximum(p.ravel()[kept], 1e-300))
        left = np.zeros((size * width, dr), dtype=np.complex128)
        left[packed[kept]] = v.reshape(-1, dr)[kept] / scale[:, None]
        left = left.reshape(size, width, dr)


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
