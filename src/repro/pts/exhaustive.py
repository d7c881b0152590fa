"""Analytic enumeration of the most likely error combinations.

Paper §3.1: "the most common errors can be calculated analytically by
considering only error combinations whose joint probability falls above a
given cutoff, a combinatorial problem of generally tractable order when
considering experimentally relevant noise probabilities and sizeable error
cutoffs."

:class:`ExhaustivePTS` performs a depth-first search over per-site branch
choices with branch-and-bound pruning: the search carries the accumulated
probability and prunes as soon as it falls below ``cutoff`` divided by the
best-possible future factor (a precomputed suffix product of per-site
maximum branch probabilities).  :class:`TopKPTS` runs the same search with
an adaptive cutoff maintained by a size-``k`` min-heap.

Unlike the probabilistic sampler, enumeration is *deterministic* and
*complete*: every trajectory above the cutoff is produced exactly once, so
``PTSResult.coverage()`` is a certified lower bound on captured
probability mass.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SamplingError
from repro.pts.base import ErrorCandidate, NoiseSiteView, PTSAlgorithm, PTSResult
from repro.pts.compatibility import compatible

__all__ = ["ExhaustivePTS", "TopKPTS"]


class _SiteTable:
    """Per-site branch options in a DFS-friendly layout."""

    def __init__(self, view: NoiseSiteView, max_errors: Optional[int]):
        self.site_ids: List[int] = sorted(view.dominant_prob.keys())
        by_site: Dict[int, List[ErrorCandidate]] = {sid: [] for sid in self.site_ids}
        for cand in view.candidates:
            by_site[cand.site_id].append(cand)
        self.error_branches = [by_site[sid] for sid in self.site_ids]
        self.dominant = [view.dominant_prob[sid] for sid in self.site_ids]
        self.max_errors = max_errors
        # Suffix product of the best branch probability from site i onward.
        best = [
            max([self.dominant[i]] + [c.probability for c in self.error_branches[i]])
            for i in range(len(self.site_ids))
        ]
        self.suffix_best = [1.0] * (len(best) + 1)
        for i in range(len(best) - 1, -1, -1):
            self.suffix_best[i] = self.suffix_best[i + 1] * best[i]


def _enumerate(table: _SiteTable, cutoff_fn, emit_fn) -> int:
    """Shared DFS engine.  ``cutoff_fn()`` returns the current cutoff;
    ``emit_fn(selection, prob)`` consumes a complete trajectory.  Returns
    the number of nodes visited (for the cost benchmarks)."""
    num_sites = len(table.site_ids)
    visited = 0
    selection: List[ErrorCandidate] = []

    def dfs(site_pos: int, acc: float) -> None:
        nonlocal visited
        visited += 1
        if acc * table.suffix_best[site_pos] < cutoff_fn():
            return
        if site_pos == num_sites:
            emit_fn(list(selection), acc)
            return
        # Dominant ("no error") branch first: largest probability, so the
        # heap in top-k mode fills with good cutoffs early.
        dfs(site_pos + 1, acc * table.dominant[site_pos])
        if table.max_errors is not None and len(selection) >= table.max_errors:
            return
        for cand in table.error_branches[site_pos]:
            if not compatible(cand, selection):
                continue
            selection.append(cand)
            dfs(site_pos + 1, acc * cand.probability)
            selection.pop()

    dfs(0, 1.0)
    return visited


class ExhaustivePTS(PTSAlgorithm):
    """All error combinations with joint probability >= ``cutoff``.

    Parameters
    ----------
    cutoff:
        Minimum joint nominal probability (must be > 0 for tractability).
    nshots:
        Uniform shot budget per trajectory, or ``None`` to apportion
        ``total_shots`` proportionally.
    total_shots:
        Used when ``nshots`` is ``None``.
    max_errors:
        Optional cap on the number of simultaneous error branches.
    """

    name = "exhaustive"

    def __init__(
        self,
        cutoff: float,
        nshots: Optional[int] = 1000,
        total_shots: Optional[int] = None,
        max_errors: Optional[int] = None,
    ):
        if cutoff <= 0.0:
            raise SamplingError("cutoff must be > 0 (the search space is exponential)")
        if nshots is None and total_shots is None:
            raise SamplingError("provide nshots or total_shots")
        if nshots is not None and nshots <= 0:
            raise SamplingError("nshots must be positive")
        if nshots is None and total_shots <= 0:
            raise SamplingError("total_shots must be positive")
        self.cutoff = float(cutoff)
        self.nshots = nshots
        self.total_shots = total_shots
        self.max_errors = max_errors
        self.nodes_visited = 0

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        view = NoiseSiteView(circuit)
        table = _SiteTable(view, self.max_errors)
        found: List[Tuple[List[ErrorCandidate], float]] = []

        self.nodes_visited = _enumerate(
            table,
            cutoff_fn=lambda: self.cutoff,
            emit_fn=lambda sel, p: found.append((sel, p)),
        )
        found.sort(key=lambda item: -item[1])
        if self.nshots is not None:
            shots = np.full(len(found), self.nshots)
        else:
            from repro.pts.proportional import apportion_shots

            shots = apportion_shots(np.array([p for _, p in found]), self.total_shots)
        algorithm = f"{self.name}(cutoff={self.cutoff:g})"
        result = view.result([sel for sel, _ in found], shots, algorithm)
        kept = np.flatnonzero(shots > 0)
        return result.take(kept, shots[kept], algorithm)


class TopKPTS(PTSAlgorithm):
    """The ``k`` most likely error combinations (adaptive-cutoff search)."""

    name = "top_k"

    def __init__(self, k: int, nshots: int = 1000, max_errors: Optional[int] = None):
        if k <= 0:
            raise SamplingError("k must be positive")
        if nshots <= 0:
            raise SamplingError("nshots must be positive")
        self.k = int(k)
        self.nshots = int(nshots)
        self.max_errors = max_errors
        self.nodes_visited = 0

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        view = NoiseSiteView(circuit)
        table = _SiteTable(view, self.max_errors)
        heap: List[Tuple[float, int, List[ErrorCandidate]]] = []
        counter = [0]

        def cutoff() -> float:
            return heap[0][0] if len(heap) >= self.k else 0.0

        def emit(sel: List[ErrorCandidate], p: float) -> None:
            counter[0] += 1
            item = (p, counter[0], sel)
            if len(heap) < self.k:
                heapq.heappush(heap, item)
            elif p > heap[0][0]:
                heapq.heapreplace(heap, item)

        self.nodes_visited = _enumerate(table, cutoff, emit)
        ranked = sorted(heap, key=lambda item: -item[0])
        return view.result([sel for _, _, sel in ranked], self.nshots, f"{self.name}(k={self.k})")
