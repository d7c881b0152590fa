"""Channel-analysis caches (CUDA-Q's unitary-mixture detection, feature #2).

Detecting ``K_i = sqrt(p_i) U_i`` costs a few small matrix products per
channel; done naively it would be repeated at *every noise site of every
trajectory* (paper Algorithm 1 runs the lookup inside the hot loop).  The
:class:`ChannelAnalysisCache` keys on channel object identity, so the
analysis runs once per distinct channel per process — the paper's
"unitary-channel detection for probability caching".

:class:`KernelVariantCache` applies the same memoization discipline to the
fusion compilation pipeline (:mod:`repro.execution.plan`): a fused noise
window has one compiled kernel per realized Kraus-index combination, and
the cache guarantees that the B trajectories of a stack (and every stack
chunk after the first) pay each combination's small-matrix fusion product
exactly once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional

import numpy as np

from repro.channels.kraus import KrausChannel
from repro.channels.unitary_mixture import UnitaryMixture, as_unitary_mixture

__all__ = ["ChannelAnalysisCache", "KernelVariantCache"]


class KernelVariantCache:
    """Memoized keyed storage with hit/miss counters.

    The fusion plan's per-window compiled variants live here (key:
    ``(step_index, kraus_index_tuple)`` → compiled operator), but the
    cache is value-agnostic — same shape as :class:`ChannelAnalysisCache`,
    generalized to caller-chosen keys.
    """

    def __init__(self):
        self._store: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = builder()
            self._store[key] = value
            return value
        self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0


class ChannelAnalysisCache:
    """Memoized unitary-mixture analysis + cumulative probability tables.

    Keyed on the channel *object* (identity hash), which the tables
    therefore keep alive.  Keying on ``id(channel)`` alone did not: a
    general-Kraus analysis is ``None`` and holds no reference to its
    channel, so a collected channel's id could be recycled by a different
    channel and answer with the stale analysis.
    """

    def __init__(self):
        self._mixtures: Dict[KrausChannel, Optional[UnitaryMixture]] = {}
        self._cumprobs: Dict[KrausChannel, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def mixture(self, channel: KrausChannel) -> Optional[UnitaryMixture]:
        """Cached :func:`as_unitary_mixture` result (None if general Kraus)."""
        if channel in self._mixtures:
            self.hits += 1
            return self._mixtures[channel]
        self.misses += 1
        result = as_unitary_mixture(channel)
        self._mixtures[channel] = result
        return result

    def cumulative_probs(self, channel: KrausChannel) -> np.ndarray:
        """Cached cumulative nominal-probability table for branch lookup."""
        table = self._cumprobs.get(channel)
        if table is None:
            table = np.cumsum(np.asarray(channel.nominal_probs, dtype=np.float64))
            table[-1] = 1.0
            self._cumprobs[channel] = table
        return table

    def branch_index(self, channel: KrausChannel, r: float) -> int:
        """Map a uniform draw to a branch index (Algorithm 1's ``index(r, {p_i})``)."""
        return int(np.searchsorted(self.cumulative_probs(channel), r, side="right"))

    def clear(self) -> None:
        self._mixtures.clear()
        self._cumprobs.clear()
        self.hits = 0
        self.misses = 0
