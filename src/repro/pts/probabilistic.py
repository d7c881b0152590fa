"""Paper Algorithm 2: the basic probabilistic PTS algorithm.

For each of ``nsamples`` attempts, walk every error candidate of the noisy
circuit, draw ``r ~ U(0,1)``, select the candidate when ``r <= p`` and it
is :func:`~repro.pts.compatibility.compatible` with the selections so far;
keep the resulting Kraus set only if it has not been seen before
(``uniqueKraus``), and assign it a large uniform shot budget ``nshots``
"to maximize data collection, such as would be useful for training ML
models" (paper §3.1).

The ``(attempt, candidate)`` cells of that double loop are independent
Bernoulli trials and almost none of them fires, so the sampler draws the
*fired cells* directly (:meth:`ProbabilisticPTS.fired_cells`): it walks the
flattened cell sequence with geometric gaps at ``p_max`` — the distance to
the next success of a Bernoulli(``p_max``) sequence, by inversion of one
uniform — and keeps a landing on a candidate of probability ``p`` with
probability ``p / p_max``, which is exactly one independent Bernoulli(``p``)
per cell.  The rest of Algorithm 2 (:meth:`ProbabilisticPTS.select`) visits
only the attempts that fired something, in attempt order, and is field for
field the per-attempt loop ``tests/test_pts.py`` keeps as its oracle:
ascending candidates, ``compatible``, ``uniqueKraus``, both rejection
counters.

Cost is ``O(nsamples * |candidates| * p_max)`` — the fired sites, the
paper's "~O(|{K}|^2 (p)^2)" — and entirely independent of the exponential
state dimension, which is the whole point: stochastic decisions are made
*before* any state exists.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SamplingError
from repro.pts.base import ErrorCandidate, NoiseSiteView, PTSAlgorithm, PTSResult
from repro.pts.compatibility import compatible

__all__ = ["ProbabilisticPTS"]

#: Most landings one ``rng.random`` call draws, and most attempts the
#: selection pass holds as Python ints at a time.  What a run keeps for its
#: whole length is NumPy over the fired cells, a few 8-byte words each.
_BLOCK = 1 << 16


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

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        view = NoiseSiteView(circuit)
        candidates = view.candidates
        if self.candidate_filter is not None:
            candidates = [c for c in candidates if self.candidate_filter(c)]
        probs = np.array([c.probability for c in candidates], dtype=np.float64)
        return self.select(view, candidates, self.fired_cells(probs, rng))

    def fired_cells(self, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The Bernoulli draws of Algorithm 2 (line 6) for every attempt: the
        ascending flat indices ``attempt * len(probs) + candidate`` of the
        cells that fire, each independently with its entry of ``probs``.

        Consumes two uniforms per landing of the ``p_max`` walk — the gap to
        it and whether it is kept — and none for the cells in between.
        """
        cells = self.nsamples * len(probs)
        if cells == 0:
            return np.empty(0, dtype=np.int64)
        p_max = float(probs.max())
        keep = probs / p_max
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-p_max)  # -inf at p_max == 1: every gap is 1
        fired: List[np.ndarray] = []
        position = -1  # the cell the walk stands on
        while position < cells - 1:
            ahead = (cells - 1 - position) * p_max
            block = min(int(ahead + 4.0 * ahead**0.5) + 16, _BLOCK)  # mean + 4 sigma
            gap_draws, keep_draws = rng.random((2, block))
            # Geometric by inversion, capped so that the running sum is exact.
            gaps = np.minimum(np.log1p(-gap_draws) / log_miss, cells).astype(np.int64) + 1
            landings = position + np.cumsum(gaps)
            position = int(landings[-1])
            landings = landings[: np.searchsorted(landings, cells)]
            fired.append(landings[keep_draws[: len(landings)] < keep[landings % len(probs)]])
        return np.concatenate(fired)

    def select(
        self, view: NoiseSiteView, candidates: Sequence[ErrorCandidate], fired: np.ndarray
    ) -> PTSResult:
        """Algorithm 2 after its draws — ``compatible``, ``uniqueKraus``,
        the shot budget — given ``fired``, the cells :meth:`fired_cells`
        returns for the probabilities of these ``candidates``."""
        rows, cols = np.divmod(fired, max(1, len(candidates)))
        # Cell ranges of the attempts that fired something, in attempt order
        # (which is what numbers the trajectories): attempt k's is edges[k:k + 2].
        edges = np.append(np.flatnonzero(np.diff(rows, prepend=-1)), len(fired))
        firing = len(edges) - 1
        kept = self.nsamples if self.include_ideal else firing
        if self.include_ideal and firing < self.nsamples:
            # Attempts that fired nothing are all the ideal trajectory, so
            # only the first can be new: an empty range where it stands.
            idle = int(np.argmax(np.append(rows[edges[:-1]] != np.arange(firing), True)))
            edges = np.insert(edges, idle, edges[idle])
        selections: List[List[ErrorCandidate]] = []
        # A selection is identified by its candidate indices, ascending.
        seen: Set[Tuple[int, ...]] = set()
        incompatible = 0
        for start in range(0, len(edges) - 1, _BLOCK):  # Python ints a block at a time
            span = edges[start : start + _BLOCK + 1]
            block = cols[span[0] : span[-1]].tolist()
            bounds = (span - span[0]).tolist()
            for lo, hi in zip(bounds, bounds[1:]):
                chosen = block[lo:hi]
                if len(chosen) > 1:
                    # Only two or more fired candidates can conflict.
                    agreed: List[int] = []
                    for index in chosen:
                        if compatible(candidates[index], [candidates[i] for i in agreed]):
                            agreed.append(index)
                    incompatible += len(chosen) - len(agreed)
                    chosen = agreed
                key = tuple(chosen)
                if key not in seen:
                    seen.add(key)
                    selections.append([candidates[i] for i in key])
        return view.result(
            selections,
            self.nshots,
            self.name,
            attempted_samples=self.nsamples,
            duplicates_rejected=kept - len(selections),
            incompatible_rejected=incompatible,
        )
