"""Paper Algorithm 2: the basic probabilistic PTS algorithm.

For each of ``nsamples`` attempts, walk every error candidate of the noisy
circuit, draw ``r ~ U(0,1)``, select the candidate when ``r <= p`` and it
is :func:`~repro.pts.compatibility.compatible` with the selections so far;
keep the resulting Kraus set only if it has not been seen before
(``uniqueKraus``), and assign it a large uniform shot budget ``nshots``
"to maximize data collection, such as would be useful for training ML
models" (paper §3.1).

The attempts are independent until deduplication, so they are drawn a tile
at a time — one ``(attempts, candidates)`` block of uniforms, which
consumes the generator exactly as one draw per attempt would — and Python
visits only the attempts that fired something, in attempt order: the
output (specs, their ids, the rejection counters) is the per-attempt
loop's, which ``tests/test_pts.py`` keeps as the oracle.

Cost is ``O(nsamples * |candidates|)`` — the paper's
"~O(|{K}|^2 (p)^2)" scaling with the expected number of fired sites —
entirely independent of the exponential state dimension, which is the
whole point: stochastic decisions are made *before* any state exists.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SamplingError
from repro.pts.base import (
    ErrorCandidate,
    NoiseSiteView,
    PTSAlgorithm,
    PTSResult,
    TrajectorySpec,
)
from repro.pts.compatibility import compatible

__all__ = ["ProbabilisticPTS"]


class ProbabilisticPTS(PTSAlgorithm):
    """Algorithm 2 with optional candidate filtering.

    Parameters
    ----------
    nsamples:
        Number of sampling attempts (outer loop of Algorithm 2).
    nshots:
        Uniform shot budget assigned to each unique Kraus set.
    include_ideal:
        Also emit the no-error trajectory when the sampler produces it
        (``True``, default, matches Algorithm 2 — an empty KrausSample is
        a perfectly valid unique trajectory).
    candidate_filter:
        Optional predicate restricting which error branches are eligible —
        the "selection criteria [added] to Line 5 of Algorithm 2"
        (see :mod:`repro.pts.filters`).
    """

    name = "probabilistic"

    def __init__(
        self,
        nsamples: int,
        nshots: int,
        include_ideal: bool = True,
        candidate_filter: Optional[Callable[[ErrorCandidate], bool]] = None,
    ):
        if nsamples < 0:
            raise SamplingError("nsamples must be >= 0")
        if nshots <= 0:
            raise SamplingError("nshots must be positive")
        self.nsamples = int(nsamples)
        self.nshots = int(nshots)
        self.include_ideal = include_ideal
        self.candidate_filter = candidate_filter

    #: Bytes of uniforms drawn per tile of attempts (cache-sized: the tile
    #: is written, compared and scanned once each).
    _TILE_BYTES = 1 << 20

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        view = NoiseSiteView(circuit)
        candidates = view.candidates
        if self.candidate_filter is not None:
            candidates = [c for c in candidates if self.candidate_filter(c)]
        probs = np.array([c.probability for c in candidates], dtype=np.float64)
        width = max(1, len(candidates))
        tile = min(max(1, self._TILE_BYTES // (8 * width)), max(1, self.nsamples))
        uniforms = np.empty((tile, len(candidates)), dtype=np.float64)
        fired = np.empty((tile, len(candidates)), dtype=bool)

        specs: List[TrajectorySpec] = []
        # A selection is identified by its candidate indices, ascending.
        seen: Set[Tuple[int, ...]] = set()
        kept = 0  # attempts that reach uniqueKraus: all, or the non-empty ones
        incompatible = 0
        for done in range(0, self.nsamples, tile):
            attempts = min(tile, self.nsamples - done)
            # The Bernoulli pass of Algorithm 2 (lines 5-12) for a tile of
            # attempts: one (attempts, candidates) draw consumes the stream
            # as that many successive per-attempt draws would.
            rng.random(out=uniforms[:attempts])
            np.less_equal(uniforms[:attempts], probs, out=fired[:attempts])
            rows, cols = np.divmod(np.flatnonzero(fired[:attempts]), width)
            counts = np.bincount(rows, minlength=attempts)
            ends = np.cumsum(counts)
            starts, ends, cols = (ends - counts).tolist(), ends.tolist(), cols.tolist()
            # Attempts that fired nothing are all the ideal trajectory, so
            # only the first of a run can be new; the rest are visited in
            # attempt order, which is what numbers the specs.
            visit = counts > 0
            kept += attempts if self.include_ideal else int(visit.sum())
            if self.include_ideal and () not in seen and not visit.all():
                visit[np.argmin(visit)] = True
            for attempt in np.flatnonzero(visit).tolist():
                chosen = cols[starts[attempt] : ends[attempt]]
                if len(chosen) > 1:
                    # Only two or more fired candidates can conflict.
                    selection: List[ErrorCandidate] = []
                    compatible_indices: List[int] = []
                    for index in chosen:
                        if compatible(candidates[index], selection):
                            selection.append(candidates[index])
                            compatible_indices.append(index)
                        else:
                            incompatible += 1
                    chosen = compatible_indices
                key = tuple(chosen)
                if key not in seen:
                    seen.add(key)
                    specs.append(
                        self.make_spec(
                            view, [candidates[i] for i in key], self.nshots, len(specs)
                        )
                    )
        return PTSResult(
            specs=specs,
            algorithm=self.name,
            attempted_samples=self.nsamples,
            duplicates_rejected=kept - len(specs),
            incompatible_rejected=incompatible,
        )
