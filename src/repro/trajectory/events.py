"""Error-provenance records ("error providence" in the paper's wording).

A :class:`KrausEvent` says *which* Kraus operator fired at *which* noise
site, on which qubits, with what nominal probability.  A
:class:`TrajectoryRecord` is the full per-trajectory metadata tag: the
ordered tuple of events plus the joint nominal probability.  These are the
"lightweight metadata tags attached to each trajectory" of the paper's
contribution list — the thing conventional trajectory simulation discards
and PTSBE keeps (e.g. as supervised-learning labels for AI decoders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

__all__ = ["KrausEvent", "TrajectoryRecord", "NoiseSites"]


@dataclass(frozen=True, order=True)
class KrausEvent:
    """One stochastic decision: Kraus operator ``kraus_index`` fired at
    noise site ``site_id``.

    Attributes
    ----------
    site_id:
        The circuit-wide noise-site identifier (program order).
    kraus_index:
        Which operator of the site's channel fired.
    qubits:
        Qubits the channel acts on.
    channel_name:
        Channel identifier, for human-readable labels.
    probability:
        Nominal probability of this branch (exact for unitary mixtures).
    """

    site_id: int
    kraus_index: int
    qubits: Tuple[int, ...] = ()
    channel_name: str = ""
    probability: float = 1.0

    def is_error(self, dominant_index: int = 0) -> bool:
        """True when this branch deviates from the channel's dominant op."""
        return self.kraus_index != dominant_index

    def label(self) -> str:
        """Compact human-readable tag, e.g. ``"site3:k2@(0,1)"``."""
        qubits = ",".join(map(str, self.qubits))
        return f"site{self.site_id}:k{self.kraus_index}@({qubits})"


@dataclass(frozen=True)
class TrajectoryRecord:
    """Full provenance for one trajectory (one prepared noisy state).

    ``choices`` maps every *deviating* noise site to its Kraus index; sites
    not present used their dominant ("no error") operator.  ``events``
    spells the deviations out with channel context.
    """

    trajectory_id: int
    events: Tuple[KrausEvent, ...]
    nominal_probability: float = 1.0

    @property
    def choices(self) -> Dict[int, int]:
        """site_id -> kraus_index map (deviating sites only)."""
        return {e.site_id: e.kraus_index for e in self.events}

    def num_errors(self) -> int:
        return len(self.events)

    def signature(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical hashable identity of the error combination.

        Sorted (site, kraus) pairs — the key used by ``uniqueKraus``-style
        deduplication in PTS algorithms.
        """
        return tuple(sorted((e.site_id, e.kraus_index) for e in self.events))

    def label(self) -> str:
        if not self.events:
            return "ideal"
        return "|".join(e.label() for e in self.events)

    def __repr__(self) -> str:
        return (
            f"TrajectoryRecord(id={self.trajectory_id}, errors={self.num_errors()}, "
            f"p={self.nominal_probability:.3e})"
        )


@dataclass(frozen=True, eq=False)
class NoiseSites:
    """What a record reads of its circuit: per noise site, by id, its
    ``(qubits, channel name, nominal branch probabilities)``.

    A dataset file keeps these beside its trajectory table, so its records
    read back without the circuit.
    """

    facts: Sequence[Tuple[Sequence[int], str, Sequence[float]]]
    _events: Dict[Tuple[int, int], KrausEvent] = field(
        default_factory=dict, init=False, repr=False
    )

    @classmethod
    def of(cls, circuit) -> "NoiseSites":
        """The noise sites of a frozen ``circuit``."""
        ops = circuit.noise_sites
        return cls([(op.qubits, op.channel.name, op.channel.nominal_probs) for op in ops])

    def event(self, site: int, index: int) -> KrausEvent:
        """Branch ``index`` at ``site``, built once and shared by every record."""
        if (site, index) not in self._events:
            qubits, channel, probabilities = self.facts[site]
            event = KrausEvent(site, index, tuple(qubits), channel, float(probabilities[index]))
            self._events[site, index] = event
        return self._events[site, index]
