"""Tailored error injection: Pauli twirling and spatially correlated noise.

The paper's contribution list opens with "tailored error injection for
specific QEC analysis scenarios (e.g., Pauli twirling or spatially
correlated noise)".  Two tools:

* :func:`twirl_circuit` — a circuit transform, not a sampler: it replaces
  every single-qubit noise channel with its Pauli twirl (a Pauli channel
  with matched error rates), the approximate-noise substitution of Isakov
  et al. (arXiv:2111.02396).  Apply it before PTS —
  ``run_ptsbe(twirl_circuit(circuit), sampler)`` — so every trajectory is
  drawn from, and executed on, the twirled circuit.  Twirled channels are
  unitary mixtures, so joint probabilities become exact, and a Clifford
  circuit's twirled noise routes to the Pauli-frame engine.
* :class:`CorrelatedNoisePTS` — injects spatially correlated error
  *bursts*: a burst picks a center qubit and a moment window, then selects
  an error branch at every noise site within ``radius`` qubits (linear
  topology) and ``moment_window`` moments of the center.  This models
  correlated events (cosmic rays, leakage cascades, crosstalk) that
  independent-error sampling essentially never produces — exactly the
  "targeted error analysis" rigid samplers cannot do.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.errors import SamplingError
from repro.pts.base import ErrorCandidate, NoiseSiteView, PTSAlgorithm, PTSResult
from repro.pts.compatibility import compatible, unique_kraus

__all__ = ["CorrelatedNoisePTS", "twirl_circuit"]


def twirl_circuit(circuit: Circuit) -> Circuit:
    """Replace every single-qubit channel with its Pauli twirl."""
    out = Circuit(circuit.num_qubits, name=f"{circuit.name}_twirled")
    for op in circuit:
        if isinstance(op, NoiseOp):
            channel = op.channel
            if channel.num_qubits == 1:
                channel = channel.pauli_twirl()
            out.attach(channel, *op.qubits)
        elif isinstance(op, GateOp):
            out.gate(op.gate, *op.qubits)
        else:
            out.append(MeasureOp(op.qubits, key=op.key))
    return out.freeze()


class CorrelatedNoisePTS(PTSAlgorithm):
    """Spatially correlated burst-error injection.

    Parameters
    ----------
    num_bursts:
        Number of burst trajectories to attempt.
    radius:
        Spatial burst radius in qubit-index distance (linear topology).
    moment_window:
        Temporal burst half-width in moments.
    nshots:
        Shot budget per burst trajectory.
    burst_fire_probability:
        Probability that each in-burst site fires an error branch
        (conditional on the burst); branches are chosen proportionally to
        their nominal probabilities.
    """

    name = "correlated_burst"

    def __init__(
        self,
        num_bursts: int,
        radius: int = 1,
        moment_window: int = 1,
        nshots: int = 1000,
        burst_fire_probability: float = 1.0,
    ):
        if num_bursts < 0:
            raise SamplingError("num_bursts must be >= 0")
        if not (0.0 < burst_fire_probability <= 1.0):
            raise SamplingError("burst_fire_probability must be in (0, 1]")
        self.num_bursts = int(num_bursts)
        self.radius = int(radius)
        self.moment_window = int(moment_window)
        self.nshots = int(nshots)
        self.burst_fire_probability = float(burst_fire_probability)

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        view = NoiseSiteView(circuit)
        if view.num_candidates == 0:
            raise SamplingError("circuit has no error candidates to correlate")
        # Index candidates by site for proportional in-site branch choice.
        by_site: Dict[int, List[ErrorCandidate]] = {}
        for cand in view.candidates:
            by_site.setdefault(cand.site_id, []).append(cand)
        max_moment = max(view.site_moment.values(), default=0)

        selections: List[List[ErrorCandidate]] = []
        seen: Set[Tuple[Tuple[int, int], ...]] = set()
        duplicates = 0
        for _ in range(self.num_bursts):
            center_qubit = int(rng.integers(0, circuit.num_qubits))
            center_moment = int(rng.integers(0, max_moment + 1))
            selection: List[ErrorCandidate] = []
            for sid, cands in by_site.items():
                site_moment = view.site_moment[sid]
                if abs(site_moment - center_moment) > self.moment_window:
                    continue
                qubits = cands[0].qubits
                if min(abs(q - center_qubit) for q in qubits) > self.radius:
                    continue
                if rng.random() > self.burst_fire_probability:
                    continue
                probs = np.array([c.probability for c in cands])
                pick = cands[int(rng.choice(len(cands), p=probs / probs.sum()))]
                if compatible(pick, selection):
                    selection.append(pick)
            if not selection:
                continue
            if unique_kraus(selection, seen):
                selections.append(selection)
            else:
                duplicates += 1
        return view.result(
            selections,
            self.nshots,
            f"{self.name}(r={self.radius},w={self.moment_window})",
            attempted_samples=self.num_bursts,
            duplicates_rejected=duplicates,
        )
