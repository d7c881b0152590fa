"""Probability-band PTS.

Paper §3.1: "Such variations also support preferred sampling from
probability bands, wherein a Kraus operator set {K_a0 ... K_ai} is only
chosen if p_alpha is in [p_min, p_max]."

Use cases: isolating the rare-error tail (train a decoder on hard cases),
or excluding the overwhelming no-error trajectory to spend all simulation
budget on informative states.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SamplingError
from repro.pts.base import PTSAlgorithm, PTSResult
from repro.pts.probabilistic import ProbabilisticPTS
from repro.pts.proportional import apportion_shots

__all__ = ["ProbabilityBandPTS"]


class ProbabilityBandPTS(PTSAlgorithm):
    """Keep only trajectories whose joint probability lies in a band.

    Parameters
    ----------
    p_min, p_max:
        Inclusive bounds on the joint nominal probability ``p_alpha``.
    base:
        Trajectory-set generator (defaults to Algorithm 2).
    renormalize_shots:
        When set, the base sampler's total shot count is split evenly
        over the surviving trajectories (largest remainder), so the result
        keeps that total; a trajectory left with no shot is dropped.
    """

    name = "probability_band"

    def __init__(
        self,
        p_min: float,
        p_max: float,
        base: Optional[PTSAlgorithm] = None,
        nsamples: int = 1000,
        nshots: int = 1000,
        renormalize_shots: bool = False,
    ):
        if not (0.0 <= p_min <= p_max):
            raise SamplingError(f"invalid probability band [{p_min}, {p_max}]")
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.base = base if base is not None else ProbabilisticPTS(nsamples, nshots)
        self.renormalize_shots = renormalize_shots

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        base = self.base.sample(circuit, rng)
        probs = base.probabilities
        kept = np.flatnonzero((self.p_min <= probs) & (probs <= self.p_max))
        shots = base.shots[kept]
        if self.renormalize_shots and len(kept):
            shots = apportion_shots(np.ones(len(kept)), base.total_shots)
            kept, shots = kept[shots > 0], shots[shots > 0]
        algorithm = f"{self.name}[{self.p_min:g},{self.p_max:g}]({self.base.name})"
        return base.take(kept, shots, algorithm)
