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
the result.  The analysis is one pass over the stacked Kraus operators:
one batched ``K^dag K``, one scaled-identity test and one batched Pauli
recognition (:func:`~repro.channels.pauli.paulis_from_unitaries`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.channels.pauli import PauliString, paulis_from_unitaries
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

    def __init__(
        self,
        channel: "KrausChannel",
        probs: Tuple[float, ...],
        unitaries: Tuple[np.ndarray, ...],
        paulis: Sequence[Optional[PauliString]],
    ):
        self.channel = channel
        self.probs = probs
        self.unitaries = unitaries
        self.paulis: Tuple[Optional[PauliString], ...] = tuple(paulis)
        self.cumulative = np.cumsum(np.asarray(channel.nominal_probs, dtype=np.float64))
        self.cumulative[-1] = 1.0

    def __len__(self) -> int:
        return len(self.probs)

    def __repr__(self) -> str:
        return f"UnitaryMixture({self.channel.name!r}, branches={len(self.probs)})"


def as_unitary_mixture(channel: "KrausChannel", atol: float = 1e-9) -> Optional[UnitaryMixture]:
    """Detect and decompose a unitary-mixture channel.

    Returns ``None`` when any Kraus operator is not a scaled unitary (e.g.
    amplitude damping).  This mirrors CUDA-Q's automatic channel analysis.

    ``K = sqrt(p) U`` with ``U`` unitary iff ``K^dag K = p I``, so ``p`` is
    the Gram matrix's first diagonal entry.  The identity is judged
    relative to ``p`` — a rare branch (``p`` far below ``atol``) is still
    recognized — with exactly ``np.allclose``'s test, every branch at once.
    """
    kraus = np.stack(channel.kraus_ops)
    gram = np.conj(kraus).transpose(0, 2, 1) @ kraus
    p = gram[:, 0, 0].real.copy()
    positive = p > 0.0
    scaled = gram / np.where(positive, p, 1.0)[:, None, None]
    eye = np.eye(kraus.shape[1])
    # np.allclose(scaled, eye, atol=atol) per branch: |x - y| <= atol +
    # rtol |y| (its other term, x == y, adds nothing while y is finite).
    close = np.abs(scaled - eye) <= atol + 1e-05 * np.abs(eye)
    if not (positive & close.all(axis=(1, 2))).all():
        return None
    probs = tuple(p.tolist())
    total = sum(probs)
    if abs(total - 1.0) > 1e-6:
        raise ChannelError(
            f"channel {channel.name!r}: scaled-unitary probabilities sum to {total}, not 1"
        )
    unitaries = kraus / np.sqrt(p)[:, None, None]
    return UnitaryMixture(
        channel, probs, tuple(unitaries), paulis_from_unitaries(unitaries, channel.num_qubits)
    )
