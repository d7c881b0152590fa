"""Pre-Trajectory Sampling (PTS) — the paper's core contribution.

PTS decouples stochastic noise sampling from state evolution: a sampling
algorithm runs over the circuit's *noise-site candidates* (site, Kraus
index, nominal probability) and emits one trajectory table, a
:class:`~repro.pts.base.PTSResult` — per trajectory its fixed Kraus
choices, prescribed shot count, id and nominal probability, with the
provenance records built from it when read — which the batched execution
engine then realizes without redundant state preparation.

Algorithms (paper §3.1):

* :class:`~repro.pts.probabilistic.ProbabilisticPTS` — paper Algorithm 2
  verbatim (independent Bernoulli draws, ``compatible`` and ``uniqueKraus``
  filtering, uniform ``nshots``);
* :class:`~repro.pts.proportional.ProportionalPTS` — shot redistribution
  by relative joint probability ``p'_alpha = p_alpha / sum p`` for
  expectation-value estimation;
* :class:`~repro.pts.bands.ProbabilityBandPTS` — keep only trajectories
  with ``p_alpha`` in ``[p_min, p_max]``;
* :class:`~repro.pts.exhaustive.ExhaustivePTS` / ``TopKPTS`` — analytic
  enumeration of the most likely error combinations above a cutoff
  (branch-and-bound);
* :class:`~repro.pts.tailored.CorrelatedNoisePTS` — spatially
  correlated burst injection;
* :func:`~repro.pts.tailored.twirl_circuit` — Pauli twirling as a circuit
  transform applied before PTS:
  ``run_ptsbe(twirl_circuit(circuit), sampler)``;
* :mod:`repro.pts.filters` — gate-type / location / parity selection
  criteria composable into any sampler (paper: "add selection criteria to
  Line 5 of Algorithm 2").
"""

from repro.pts.base import (
    ErrorCandidate,
    NoiseSiteView,
    PTSAlgorithm,
    PTSResult,
    SpecGroups,
    TrajectorySpec,
    deduplicate_specs,
)
from repro.pts.compatibility import compatible, unique_kraus
from repro.pts.probabilistic import ProbabilisticPTS
from repro.pts.proportional import ProportionalPTS, apportion_shots
from repro.pts.bands import ProbabilityBandPTS
from repro.pts.exhaustive import ExhaustivePTS, TopKPTS
from repro.pts.tailored import CorrelatedNoisePTS, twirl_circuit
from repro.pts.filters import (
    by_channel_name,
    by_gate_context,
    by_max_probability,
    by_min_probability,
    by_qubit_parity,
    by_qubits,
)

__all__ = [
    "ErrorCandidate",
    "NoiseSiteView",
    "PTSAlgorithm",
    "PTSResult",
    "TrajectorySpec",
    "SpecGroups",
    "deduplicate_specs",
    "compatible",
    "unique_kraus",
    "ProbabilisticPTS",
    "ProportionalPTS",
    "apportion_shots",
    "ProbabilityBandPTS",
    "ExhaustivePTS",
    "TopKPTS",
    "CorrelatedNoisePTS",
    "twirl_circuit",
    "by_channel_name",
    "by_gate_context",
    "by_qubits",
    "by_qubit_parity",
    "by_min_probability",
    "by_max_probability",
]
