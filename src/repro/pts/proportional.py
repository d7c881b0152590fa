"""Proportional PTS: shot redistribution by joint probability.

Paper §3.1: "if the user desires a more proportionally sampled dataset,
e.g., for expectation value estimation, they can achieve this by using the
error probabilities p for each K to calculate joint probability p_alpha of
each KrausSample and then redistributing or resampling the number of shots
allocated to each Kraus operator set according to the relative populations
p'_alpha = p_alpha / sum_i p_i."

With proportional shots, the *pooled* shot histogram converges to the true
noisy distribution restricted to (and renormalized over) the sampled
trajectory subsets — verified against the density-matrix backend in
``tests/test_integration_convergence.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SamplingError
from repro.pts.base import PTSAlgorithm, PTSResult
from repro.pts.probabilistic import ProbabilisticPTS

__all__ = ["ProportionalPTS", "apportion_shots"]


def apportion_shots(probabilities: np.ndarray, total_shots: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total_shots`` by probability.

    Deterministic, sums exactly to ``total_shots``, never negative.  Zero-
    probability rows receive zero shots.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if np.any(p < 0):
        raise SamplingError("probabilities must be non-negative")
    total = p.sum()
    if total <= 0:
        raise SamplingError("probabilities sum to zero")
    quota = p / total * total_shots
    floors = np.floor(quota).astype(np.int64)
    remainder = int(total_shots - floors.sum())
    if remainder > 0:
        order = np.argsort(-(quota - floors), kind="stable")
        floors[order[:remainder]] += 1
    return floors


class ProportionalPTS(PTSAlgorithm):
    """Wraps a base PTS sampler and redistributes its shot budget.

    Parameters
    ----------
    base:
        Any PTS algorithm producing the trajectory *set* (defaults to
        Algorithm 2 with the given ``nsamples``).
    total_shots:
        Overall shot budget to apportion across trajectories by relative
        joint probability.
    resample:
        ``False`` (default): deterministic largest-remainder
        redistribution; ``True``: multinomial resampling (the paper's
        "redistributing or resampling" alternative).
    """

    name = "proportional"

    def __init__(
        self,
        total_shots: int,
        base: Optional[PTSAlgorithm] = None,
        nsamples: int = 1000,
        resample: bool = False,
    ):
        if total_shots <= 0:
            raise SamplingError("total_shots must be positive")
        self.total_shots = int(total_shots)
        self.base = base if base is not None else ProbabilisticPTS(nsamples, nshots=1)
        self.resample = resample

    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        base = self.base.sample(circuit, rng)
        if not base.num_trajectories:
            raise SamplingError("base sampler produced no trajectories")
        probs = base.probabilities
        if self.resample:
            shots = rng.multinomial(self.total_shots, probs / probs.sum())
        else:
            shots = apportion_shots(probs, self.total_shots)
        kept = np.flatnonzero(shots > 0)
        return base.take(kept, shots[kept], f"{self.name}({self.base.name})")
