"""Unitary-mixture channel detection (CUDA-Q pre-existing feature #2).

A channel is a *unitary mixture* when every Kraus operator is a scaled
unitary, ``K_i = sqrt(p_i) U_i``.  For such channels the trajectory-branch
probabilities ``<psi|K_i^dag K_i|psi> = p_i`` are state-independent, so the
simulator can skip the per-step expectation-value computation (paper
Algorithm 1's ``unitaryMixture`` branch) and — crucially for PTS — the
joint probability of an entire pre-sampled trajectory is exactly the
product of per-site ``p_i``.

The analysis is a property of the channel: every reader takes
:attr:`KrausChannel.mixture <repro.channels.kraus.KrausChannel.mixture>`,
which runs :func:`as_unitary_mixture` once per channel object and keeps
the result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.channels.pauli import PauliString, pauli_from_unitary
from repro.errors import ChannelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.channels.kraus import KrausChannel

__all__ = ["UnitaryMixture", "as_unitary_mixture"]


class UnitaryMixture:
    """Decomposition of a channel into ``(p_i, U_i)`` pairs.

    ``paulis`` holds one :class:`~repro.channels.pauli.PauliString` per
    branch (``None`` for a branch unitary that is not a Pauli string), and
    ``cumulative`` the branch CDF over the channel's nominal probabilities
    (last entry pinned to 1), Algorithm 1's ``index(r, {p_i})`` table.
    """

    __slots__ = ("channel", "probs", "unitaries", "paulis", "cumulative")

    def __init__(self, channel: "KrausChannel", probs: Tuple[float, ...], unitaries: Tuple[np.ndarray, ...]):
        self.channel = channel
        self.probs = probs
        self.unitaries = unitaries
        self.paulis: Tuple[Optional[PauliString], ...] = tuple(
            pauli_from_unitary(u, channel.num_qubits) for u in unitaries
        )
        self.cumulative = np.cumsum(np.asarray(channel.nominal_probs, dtype=np.float64))
        self.cumulative[-1] = 1.0

    def __len__(self) -> int:
        return len(self.probs)

    def __repr__(self) -> str:
        return f"UnitaryMixture({self.channel.name!r}, branches={len(self.probs)})"


def _scaled_unitary_factor(kraus: np.ndarray, atol: float) -> Optional[float]:
    """If ``K = sqrt(p) U`` with ``U`` unitary, return ``p``; else None.

    ``K^dag K = p I`` is necessary and sufficient; it is judged relative to
    ``p``, so a rare branch (``p`` far below ``atol``) is still recognized.
    """
    gram = kraus.conj().T @ kraus
    p = float(np.real(gram[0, 0]))
    if p <= 0.0:
        return None
    if np.allclose(gram / p, np.eye(gram.shape[0]), atol=atol):
        return p
    return None


def as_unitary_mixture(channel: "KrausChannel", atol: float = 1e-9) -> Optional[UnitaryMixture]:
    """Detect and decompose a unitary-mixture channel.

    Returns ``None`` when any Kraus operator is not a scaled unitary (e.g.
    amplitude damping).  This mirrors CUDA-Q's automatic channel analysis.
    """
    probs: List[float] = []
    unitaries: List[np.ndarray] = []
    for k in channel.kraus_ops:
        p = _scaled_unitary_factor(k, atol)
        if p is None:
            return None
        probs.append(p)
        unitaries.append(k / np.sqrt(p))
    total = sum(probs)
    if abs(total - 1.0) > 1e-6:
        raise ChannelError(
            f"channel {channel.name!r}: scaled-unitary probabilities sum to {total}, not 1"
        )
    return UnitaryMixture(channel, tuple(probs), tuple(unitaries))
