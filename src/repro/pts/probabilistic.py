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
per cell.  The rest of Algorithm 2 (:meth:`ProbabilisticPTS.select`) is
array passes over the fired cells, over the
:class:`~repro.pts.base.NoiseSiteView`'s candidate columns: ``compatible``
position by position over the attempts that fired more than one cell
(:func:`~repro.pts.compatibility.conflicting` against the cells each kept
before), ``uniqueKraus`` as the first occurrence of each distinct row (one
stable ``lexsort`` per row length), and the table gathered from index
arrays.  It is field for field the per-attempt loop ``tests/test_pts.py``
keeps as its oracle: ascending candidates, ``compatible``,
``uniqueKraus``, both rejection counters, the rows numbered by their first
attempt.

Cost is ``O(nsamples * |candidates| * p_max)`` — the fired sites, the
paper's "~O(|{K}|^2 (p)^2)" — and entirely independent of the exponential
state dimension, which is the whole point: stochastic decisions are made
*before* any state exists.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SamplingError
from repro.prescriptions import gather
from repro.pts.base import ErrorCandidate, NoiseSiteView, PTSAlgorithm, PTSResult, _runs
from repro.pts.compatibility import conflicting

__all__ = ["ProbabilisticPTS"]

#: Most landings one ``rng.random`` call draws.
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
        columns = view.columns(self.candidate_filter)
        return self.select(view, columns, self.fired_cells(view.probability[columns], rng))

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

    def select(self, view: NoiseSiteView, columns: np.ndarray, fired: np.ndarray) -> PTSResult:
        """Algorithm 2 after its draws — ``compatible``, ``uniqueKraus``,
        the shot budget — given ``fired``, the cells :meth:`fired_cells`
        returns for the probabilities of the candidates at ``columns``
        (ascending, as :meth:`NoiseSiteView.columns` returns them)."""
        attempts, cells = np.divmod(fired, max(1, len(columns)))
        cells = columns[cells]  # view columns, ascending within an attempt
        # The first cell of each attempt that fired something, in attempt
        # order (which is what numbers the trajectories).
        first = np.ones(len(cells), dtype=bool)
        first[1:] = attempts[1:] != attempts[:-1]
        starts = np.flatnonzero(first)
        firing = len(starts)
        kept = self.nsamples if self.include_ideal else firing
        # Attempts that fired nothing are all the ideal trajectory, so only
        # the first can be new: it stands before firing attempt `idle`.
        idle = -1
        if self.include_ideal and firing < self.nsamples:
            idle = int(np.argmax(np.append(attempts[starts] != np.arange(firing), True)))
        # Scratch is dropped as the pass goes, so that at its peak it holds
        # a few words per fired cell.
        del attempts
        # compatible: a cell is kept unless it conflicts with a cell its
        # attempt kept before it, so only multi-fire attempts can lose one.
        keep = np.ones(len(cells), dtype=bool)
        counts = np.diff(np.append(starts, len(cells)))
        for j in range(1, int(counts.max(initial=0))):
            at = starts[counts > j]
            clash = np.zeros(len(at), dtype=bool)
            for i in range(j):
                clash |= keep[at + i] & conflicting(view, cells[at + i], cells[at + j])
            keep[at + j] = ~clash
        del counts
        incompatible = len(cells) - int(np.count_nonzero(keep))
        starts = np.cumsum(keep)[starts] - 1  # an attempt's first cell is kept
        cells = cells[keep]
        # Row k (firing attempt k) is cells[offsets[k]:offsets[k + 1]]; row
        # `firing` is the empty (ideal) row.
        offsets = np.append(starts, [len(cells), len(cells)])
        del starts
        # uniqueKraus: equal rows have equal lengths; keep each one's first.
        lengths = np.diff(offsets[:-1])
        unique = [np.empty(0, dtype=np.intp)]
        for length in np.flatnonzero(np.bincount(lengths)).tolist():
            rows = np.flatnonzero(lengths == length)
            order, runs = _runs(cells[offsets[rows] + np.arange(length)[:, None]])
            unique.append(rows[order[runs]])
        rows = np.sort(np.concatenate(unique))
        if idle >= 0:
            rows = np.insert(rows, np.searchsorted(rows, idle), firing)
        offsets, entries = gather(offsets, rows)
        return view.rows(
            offsets,
            cells[entries],
            self.nshots,
            self.name,
            attempted_samples=self.nsamples,
            duplicates_rejected=kept - len(rows),
            incompatible_rejected=incompatible,
        )
