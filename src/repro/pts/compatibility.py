"""Algorithm 2's ``compatible`` and ``uniqueKraus`` functions.

``compatible`` rejects "physically incompatible Kraus error combinations,
such as two operators that would act on the same qubit at the same time"
(paper §3.1): a candidate conflicts with an already-selected one when they
share a noise site (a site fires exactly one Kraus operator per
trajectory) or when they would act on overlapping qubits in the same
moment.

:func:`conflicting` is ``compatible``'s rule over a
:class:`~repro.pts.base.NoiseSiteView`'s candidate columns, pair by pair,
which is how :class:`~repro.pts.probabilistic.ProbabilisticPTS` applies it.

``unique_kraus`` rejects "duplicate KrausSample trajectories": the whole
point of PTS is to *never prepare the same noisy state twice*, so repeated
error combinations are folded into a single spec.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

import numpy as np

from repro.pts.base import ErrorCandidate, NoiseSiteView

__all__ = ["compatible", "conflicting", "unique_kraus", "selection_signature"]


def compatible(candidate: ErrorCandidate, selection: Sequence[ErrorCandidate]) -> bool:
    """True when ``candidate`` can join ``selection``."""
    for chosen in selection:
        if chosen.site_id == candidate.site_id:
            return False
        if chosen.moment == candidate.moment and set(chosen.qubits) & set(candidate.qubits):
            return False
    return True


def conflicting(view: NoiseSiteView, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per ``i``, whether the candidates at columns ``a[i]`` and ``b[i]`` of
    ``view`` cannot be selected together: ``not compatible(b[i], [a[i]])``."""
    qa, qb = view.qubits[a][:, :, None], view.qubits[b][:, None, :]
    shared = ((qa == qb) & (qa >= 0)).any(axis=(1, 2))
    return (view.site[a] == view.site[b]) | ((view.moment[a] == view.moment[b]) & shared)


def selection_signature(selection: Sequence[ErrorCandidate]) -> Tuple[Tuple[int, int], ...]:
    """Canonical hashable identity of an error combination."""
    return tuple(sorted((c.site_id, c.kraus_index) for c in selection))


def unique_kraus(
    selection: Sequence[ErrorCandidate],
    seen: Set[Tuple[Tuple[int, int], ...]],
) -> bool:
    """True (and registers the signature) when ``selection`` is new."""
    sig = selection_signature(selection)
    if sig in seen:
        return False
    seen.add(sig)
    return True
