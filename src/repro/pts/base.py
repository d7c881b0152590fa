"""PTS core abstractions: candidates, trajectory specs, algorithm base.

:class:`NoiseSiteView` flattens a frozen noisy circuit into the
``NoisyCircuit({K}, {p})`` iterable of paper Algorithm 2: one
:class:`ErrorCandidate` per non-dominant Kraus branch per noise site, each
carrying its nominal probability, target qubits, moment index (for the
``compatible`` check) and the name of the gate it decorates (for the
selection-criteria filters).

:class:`TrajectorySpec` is PTS's output unit — "the prescribed sampled set
of Kraus operators {K_a0, ..., K_ai} along with their prescribed number of
shots m_a" (paper Fig. 1) plus the provenance record.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.moments import moment_index_of_ops
from repro.circuits.operations import GateOp, NoiseOp
from repro.errors import SamplingError
from repro.trajectory.events import KrausEvent, TrajectoryRecord

__all__ = [
    "ErrorCandidate",
    "NoiseSiteView",
    "TrajectorySpec",
    "SpecGroup",
    "deduplicate_specs",
    "PTSResult",
    "PTSAlgorithm",
]


@dataclass(frozen=True)
class ErrorCandidate:
    """One selectable error branch: Kraus op ``kraus_index`` at ``site_id``."""

    site_id: int
    kraus_index: int
    probability: float
    qubits: Tuple[int, ...]
    channel_name: str
    moment: int
    gate_context: str  # name of the gate this channel decorates ("" if none)

    @cached_property
    def event(self) -> KrausEvent:
        """This branch's provenance event: built once, shared by every
        spec that selects the candidate."""
        return KrausEvent(
            site_id=self.site_id,
            kraus_index=self.kraus_index,
            qubits=self.qubits,
            channel_name=self.channel_name,
            probability=self.probability,
        )


class NoiseSiteView:
    """Flattened view of a frozen circuit's stochastic structure."""

    def __init__(self, circuit: Circuit):
        if not circuit.frozen:
            raise SamplingError("NoiseSiteView requires a frozen circuit")
        self.circuit = circuit
        moments = moment_index_of_ops(circuit)
        self.sites: List[NoiseOp] = []
        self.candidates: List[ErrorCandidate] = []
        self.dominant_prob: Dict[int, float] = {}
        self.site_moment: Dict[int, int] = {}
        self._log_dominant_total: Optional[float] = None
        last_gate_on_qubit: Dict[int, str] = {}
        for op_index, op in enumerate(circuit):
            if isinstance(op, GateOp):
                for q in op.qubits:
                    last_gate_on_qubit[q] = op.gate.name
                continue
            if not isinstance(op, NoiseOp):
                continue
            self.sites.append(op)
            channel = op.channel
            dom = channel.dominant_index()
            probs = channel.nominal_probs
            self.dominant_prob[op.site_id] = float(probs[dom])
            self.site_moment[op.site_id] = moments[op_index]
            context = last_gate_on_qubit.get(op.qubits[0], "")
            for k, p in enumerate(probs):
                if k == dom or p <= 0.0:
                    continue
                self.candidates.append(
                    ErrorCandidate(
                        site_id=op.site_id,
                        kraus_index=k,
                        probability=float(p),
                        qubits=op.qubits,
                        channel_name=channel.name,
                        moment=moments[op_index],
                        gate_context=context,
                    )
                )

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    # ------------------------------------------------------------------ #
    # joint probabilities
    # ------------------------------------------------------------------ #
    def log_dominant_total(self) -> float:
        """log of the all-dominant ("ideal") trajectory probability (summed
        once: every spec's joint probability starts from it)."""
        if self._log_dominant_total is None:
            total = 0.0
            for p in self.dominant_prob.values():
                if p <= 0.0:
                    total = -math.inf
                    break
                total += math.log(p)
            self._log_dominant_total = total
        return self._log_dominant_total

    def joint_probability(self, selection: Sequence[ErrorCandidate]) -> float:
        """Nominal joint probability of a Kraus-operator selection.

        Selected sites contribute their branch probability; all other sites
        contribute their dominant-branch probability.  Exact for unitary-
        mixture noise (state-independent probabilities, paper §2.2).
        """
        log_p = self.log_dominant_total()
        for cand in selection:
            dom = self.dominant_prob[cand.site_id]
            if dom <= 0.0 or cand.probability <= 0.0:
                return 0.0
            log_p += math.log(cand.probability) - math.log(dom)
        return math.exp(log_p)


@dataclass
class TrajectorySpec:
    """One prescribed trajectory: fixed Kraus choices + shot budget."""

    record: TrajectoryRecord
    num_shots: int

    @property
    def choices(self) -> Dict[int, int]:
        return self.record.choices

    @property
    def probability(self) -> float:
        return self.record.nominal_probability

    def with_shots(self, num_shots: int) -> "TrajectorySpec":
        return TrajectorySpec(record=self.record, num_shots=int(num_shots))

    def dedup_key(self) -> Tuple[Tuple[int, int], ...]:
        """Hashable identity of the *prepared state* this spec prescribes.

        Two specs with equal keys realize the same Kraus choices on the
        same circuit and therefore the same noisy state — the vectorized
        executor prepares such specs once and only merges shot budgets.
        Delegates to :meth:`TrajectoryRecord.signature` (sorted
        ``(site_id, kraus_index)`` pairs).
        """
        return self.record.signature()

    def __repr__(self) -> str:
        return f"TrajectorySpec(errors={self.record.num_errors()}, shots={self.num_shots}, p={self.probability:.3e})"


@dataclass(frozen=True)
class SpecGroup:
    """Specs sharing one prepared state (identical Kraus choices).

    ``indices`` point into the original spec sequence, in first-occurrence
    order; ``total_shots`` is the merged shot budget of the group — one
    state preparation serves all of it.
    """

    key: Tuple[Tuple[int, int], ...]
    indices: Tuple[int, ...]
    total_shots: int


def deduplicate_specs(specs: Sequence[TrajectorySpec]) -> List[SpecGroup]:
    """Group trajectory specs by :meth:`TrajectorySpec.dedup_key`.

    PTS algorithms already reject duplicate error combinations within one
    run (``uniqueKraus``), but specs merged across runs, algorithms, or
    hand-built workloads can repeat.  Groups preserve the first-occurrence
    order of their keys, so batched preparation stays deterministic.
    """
    grouped: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
    for i, spec in enumerate(specs):
        grouped.setdefault(spec.dedup_key(), []).append(i)
    return [
        SpecGroup(
            key=key,
            indices=tuple(indices),
            total_shots=sum(specs[i].num_shots for i in indices),
        )
        for key, indices in grouped.items()
    ]


@dataclass
class PTSResult:
    """Everything a PTS algorithm hands to batched execution."""

    specs: List[TrajectorySpec]
    algorithm: str
    attempted_samples: int = 0
    duplicates_rejected: int = 0
    incompatible_rejected: int = 0

    @property
    def num_trajectories(self) -> int:
        return len(self.specs)

    @property
    def total_shots(self) -> int:
        return sum(s.num_shots for s in self.specs)

    def coverage(self) -> float:
        """Sum of nominal probabilities of the distinct sampled sets.

        The fraction of the full trajectory distribution {p_alpha} (which
        has unit total probability, paper Fig. 2) that the sampled subsets
        account for.
        """
        return float(sum(s.probability for s in self.specs))

    def sorted_by_probability(self) -> List[TrajectorySpec]:
        return sorted(self.specs, key=lambda s: -s.probability)

    def __repr__(self) -> str:
        return (
            f"PTSResult({self.algorithm}, trajectories={self.num_trajectories}, "
            f"shots={self.total_shots}, coverage={self.coverage():.4f})"
        )


class PTSAlgorithm(abc.ABC):
    """Base class: turn a frozen noisy circuit into trajectory specs."""

    name = "pts"

    @abc.abstractmethod
    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        """Run the pre-sampling pass."""

    # Shared helper ----------------------------------------------------- #
    @staticmethod
    def make_spec(
        view: NoiseSiteView,
        selection: Sequence[ErrorCandidate],
        num_shots: int,
        trajectory_id: int,
    ) -> TrajectorySpec:
        record = TrajectoryRecord(
            trajectory_id=trajectory_id,
            events=tuple(c.event for c in selection),
            nominal_probability=view.joint_probability(selection),
        )
        return TrajectorySpec(record=record, num_shots=int(num_shots))
