"""The trajectory-weighted estimator, ``PTSBEResult.pooled_distribution``.

PTSBE's output is a stratified sample: each distinct trajectory is a
stratum with a realized weight and a user-chosen shot budget.  Weighted
by those weights, the pooled distribution is unbiased whatever the shot
allocation, up to the weight the sampled set leaves out
(``uncovered_mass``); the raw histogram is only right under proportional
allocation.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import exact_distribution
from repro.channels import NoiseModel
from repro.channels.standard import amplitude_damping
from repro.circuits import library
from repro.execution import BackendSpec, run_ptsbe
from repro.pts import ExhaustivePTS, ProbabilisticPTS, ProportionalPTS

KEYS = np.arange(8)
#: Measured bit 0 (the high bit of a key) of three.
BIT0 = (KEYS >> 2) & 1
#: (-1)**parity of bits 0 and 1, and of all three.
PARITY01 = 1 - 2 * (((KEYS >> 2) ^ (KEYS >> 1)) & 1)
PARITY = 1 - 2 * ((KEYS ^ (KEYS >> 1) ^ (KEYS >> 2)) & 1)


def shot_noise(result, sigmas=4.0):
    """``sigmas`` standard errors of a weighted estimate of an observable
    with values in ``[0, 1]``, at most: a stratum's variance is at most
    ``1/4`` over its shots, and the normalized weights' squares sum to at
    most 1."""
    count = result.columns.specs["count"]
    return sigmas / (2.0 * np.sqrt(count[count > 0].min()))


class TestPooledDistribution:
    def test_uniform_shots_are_unbiased_once_weighted(self, noisy_ghz3):
        """Uniform-shot Algorithm 2 is biased raw, exact when weighted."""
        exact = exact_distribution(noisy_ghz3)
        result = run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=3000, nshots=4000), seed=1)
        pooled, uncovered = result.pooled_distribution(), result.uncovered_mass
        assert abs((pooled - exact) @ BIT0) <= shot_noise(result) + uncovered
        # Bit 0 reads 1/2 on every Pauli trajectory of a GHZ state and cannot
        # show the bias; the parity of qubits 0 and 1 is +-1 per trajectory
        # and does.  Weighted, the error is at most the weight the sampled
        # set leaves out times the observable's range (the estimator
        # normalizes by the covered weight); raw, every trajectory counts as
        # much as the ideal one (p ~ 0.81) and the estimate is nowhere near.
        raw = result.shot_table().empirical_distribution()
        assert 0 < uncovered < 0.01
        assert abs((pooled - exact) @ PARITY01) <= 2 * uncovered
        assert abs((raw - exact) @ PARITY01) > 0.5

    def test_parity_with_exhaustive(self, noisy_ghz3):
        exact = exact_distribution(noisy_ghz3)
        result = run_ptsbe(noisy_ghz3, ExhaustivePTS(cutoff=1e-5, nshots=5000), seed=2)
        error = (result.pooled_distribution() - exact) @ PARITY
        assert abs(error) <= 2 * (shot_noise(result) + result.uncovered_mass)

    def test_actual_weights_for_general_channels(self, noisy_ghz3_general):
        exact = exact_distribution(noisy_ghz3_general)
        result = run_ptsbe(
            noisy_ghz3_general, ProbabilisticPTS(nsamples=2000, nshots=3000), seed=4
        )
        error = (result.pooled_distribution() - exact) @ BIT0
        assert abs(error) <= shot_noise(result) + result.uncovered_mass

    def test_weights_by_actual_weight_under_strong_damping(self):
        """Every trajectory above 1e-12 under amplitude damping 0.3: weighted
        by the realized weights the estimate is within shot noise of the
        exact 0.245; weighted by the nominal probabilities (a prior, not the
        realized weight) it sits ~0.10 away."""
        model = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", amplitude_damping(0.3))
            .add_all_qubit_gate_noise("h", amplitude_damping(0.3))
        )
        circuit = model.apply(library.ghz(3, measure=True)).freeze()
        exact = exact_distribution(circuit)
        assert exact @ BIT0 == pytest.approx(0.245)
        result = run_ptsbe(
            circuit, ExhaustivePTS(cutoff=1e-12, nshots=20000), seed=3, strategy="serial"
        )
        assert abs(result.uncovered_mass) < 1e-12
        assert abs((result.pooled_distribution() - exact) @ BIT0) < shot_noise(result)
        specs = result.columns.specs.copy()
        specs["weight"] = result.columns.run.probabilities
        nominal = dataclasses.replace(
            result, columns=dataclasses.replace(result.columns, specs=specs)
        )
        assert abs((nominal.pooled_distribution() - exact) @ BIT0) > 5 * shot_noise(result)

    def test_raw_pool_correct_under_proportional(self, noisy_ghz3):
        exact = exact_distribution(noisy_ghz3)
        result = run_ptsbe(noisy_ghz3, ProportionalPTS(total_shots=40_000, nsamples=2500), seed=5)
        raw = result.shot_table().empirical_distribution()
        std_error = np.sqrt(raw @ BIT0 * (1 - raw @ BIT0) / result.total_shots)
        assert raw @ BIT0 == pytest.approx(exact @ BIT0, abs=4 * std_error + 0.01)
        assert result.pooled_distribution() @ BIT0 == pytest.approx(raw @ BIT0, abs=0.01)

    def test_truncated_norm_is_uncovered(self, noisy_ghz3):
        """On ``tensornet`` a trajectory's weight carries the norm the
        truncated chain kept, so what truncation drops is uncovered too."""
        sampler = ExhaustivePTS(cutoff=1e-5, nshots=100)
        exact = run_ptsbe(noisy_ghz3, sampler, seed=6, strategy="serial")
        chain = run_ptsbe(
            noisy_ghz3, sampler, backend=BackendSpec.mps(max_bond=1), seed=6,
            strategy="tensornet",
        )
        weight = chain.columns.specs["weight"]
        assert chain.uncovered_mass == pytest.approx(1.0 - weight[weight > 0].sum())
        assert chain.uncovered_mass > exact.uncovered_mass + 0.1
