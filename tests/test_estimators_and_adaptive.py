"""Weighted estimators + the adaptive Neyman sampler extension."""

import numpy as np
import pytest

from repro.analysis.estimators import (
    Estimate,
    bit_observable,
    parity_observable,
    pooled_estimate,
    stratified_estimate,
)
from repro.backends.density_matrix import DensityMatrixBackend
from repro.errors import DataError, SamplingError
from repro.execution import run_ptsbe
from repro.pts import ExhaustivePTS, ProbabilisticPTS, ProportionalPTS
from repro.pts.adaptive import AdaptiveNeymanPTS
from repro.rng import make_rng


def _exact_bit_expectation(circuit, column):
    dm = DensityMatrixBackend(circuit.num_qubits).run(circuit)
    marg = dm.marginal_probabilities(list(circuit.measured_qubits))
    k = len(circuit.measured_qubits)
    keys = np.arange(len(marg))
    bit = (keys >> (k - 1 - column)) & 1
    return float((marg * bit).sum())


def _exact_parity(circuit):
    dm = DensityMatrixBackend(circuit.num_qubits).run(circuit)
    marg = dm.marginal_probabilities(list(circuit.measured_qubits))
    k = len(circuit.measured_qubits)
    keys = np.arange(len(marg))
    parity = np.array([bin(int(x)).count("1") % 2 for x in keys])
    return float((marg * (1 - 2 * parity)).sum())


class TestObservables:
    def test_bit_observable(self):
        bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert np.allclose(bit_observable(1)(bits), [1.0, 1.0])
        assert np.allclose(bit_observable(0)(bits), [0.0, 1.0])

    def test_parity_observable(self):
        bits = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
        assert np.allclose(parity_observable()(bits), [1.0, -1.0, 1.0])
        assert np.allclose(parity_observable([1])(bits), [1.0, -1.0, -1.0])


class TestStratifiedEstimate:
    def test_matches_exact_with_uniform_shots(self, noisy_ghz3):
        """Uniform-shot Algorithm 2 is biased raw, exact when stratified."""
        exact = _exact_bit_expectation(noisy_ghz3, 0)
        result = run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=3000, nshots=4000), seed=1)
        strat = stratified_estimate(result, bit_observable(0))
        assert abs(strat.value - exact) < 4 * strat.std_error + 0.01
        # Bit 0 reads 1/2 on every Pauli trajectory of a GHZ state and cannot
        # show the bias; the parity of qubits 0 and 1 is +-1 per trajectory
        # and does.  Stratified, the error is at most the weight the sampled
        # set leaves out times the observable's range (the estimator
        # normalizes by the covered weight); pooled, every trajectory counts
        # as much as the ideal one (p ~ 0.81) and the estimate is nowhere near.
        marg = DensityMatrixBackend(3).run(noisy_ghz3).marginal_probabilities([0, 1, 2])
        exact = float(marg @ np.array([1, 1, -1, -1, -1, -1, 1, 1]))
        strat = stratified_estimate(result, parity_observable([0, 1]))
        pooled = pooled_estimate(result, parity_observable([0, 1]))
        assert abs(strat.value - exact) <= 2 * (1 - strat.total_weight) + 4 * strat.std_error
        assert abs(pooled.value - exact) > 0.5

    def test_parity_estimate_with_exhaustive(self, noisy_ghz3):
        exact = _exact_parity(noisy_ghz3)
        result = run_ptsbe(noisy_ghz3, ExhaustivePTS(cutoff=1e-5, nshots=5000), seed=2)
        est = stratified_estimate(result, parity_observable())
        assert est.value == pytest.approx(exact, abs=4 * est.std_error + 0.01)

    def test_std_error_shrinks_with_shots(self, noisy_ghz3):
        small = run_ptsbe(noisy_ghz3, ExhaustivePTS(cutoff=1e-4, nshots=100), seed=3)
        large = run_ptsbe(noisy_ghz3, ExhaustivePTS(cutoff=1e-4, nshots=10_000), seed=3)
        se_small = stratified_estimate(small, parity_observable()).std_error
        se_large = stratified_estimate(large, parity_observable()).std_error
        assert se_large < se_small / 3

    def test_confidence_interval(self):
        est = Estimate(value=0.5, std_error=0.1, total_weight=1.0, num_strata=2)
        lo, hi = est.confidence_interval()
        assert lo == pytest.approx(0.304) and hi == pytest.approx(0.696)

    def test_actual_weights_for_general_channels(self, noisy_ghz3_general):
        exact = _exact_bit_expectation(noisy_ghz3_general, 0)
        result = run_ptsbe(
            noisy_ghz3_general, ProbabilisticPTS(nsamples=2000, nshots=3000), seed=4
        )
        est = stratified_estimate(result, bit_observable(0), use_actual_weights=True)
        assert est.value == pytest.approx(exact, abs=4 * est.std_error + 0.02)

    def test_pooled_correct_under_proportional(self, noisy_ghz3):
        exact = _exact_bit_expectation(noisy_ghz3, 0)
        result = run_ptsbe(noisy_ghz3, ProportionalPTS(total_shots=40_000, nsamples=2500), seed=5)
        est = pooled_estimate(result, bit_observable(0))
        assert est.value == pytest.approx(exact, abs=4 * est.std_error + 0.01)


class TestAdaptiveNeyman:
    def test_allocates_toward_variance(self, noisy_ghz3):
        """GHZ bit-0 under depolarizing: the ideal trajectory has maximal
        outcome variance (50/50), error trajectories vary; Neyman must give
        positive-variance strata the budget."""
        sampler = AdaptiveNeymanPTS(
            total_shots=20_000,
            observable=bit_observable(0),
            nsamples=1500,
            pilot_shots=64,
            seed=6,
        )
        result = sampler.sample(noisy_ghz3, make_rng(6))
        assert result.total_shots >= 20_000  # min_shots floor may add a few
        by_prob = result.sorted_by_probability()
        # The ideal trajectory (p ~ 0.81, sigma = 0.5) dominates allocation.
        assert by_prob[0].num_shots == max(s.num_shots for s in result.specs)

    def test_deterministic_observable_falls_back_to_proportional(self, noisy_ghz3):
        """An observable that is constant (always 1) has zero variance in
        every stratum; allocation must fall back to weights."""
        sampler = AdaptiveNeymanPTS(
            total_shots=1000,
            observable=lambda bits: np.ones(bits.shape[0]),
            nsamples=500,
            pilot_shots=16,
            seed=7,
        )
        result = sampler.sample(noisy_ghz3, make_rng(7))
        by_prob = result.sorted_by_probability()
        assert by_prob[0].num_shots == max(s.num_shots for s in result.specs)

    def test_estimate_accuracy_end_to_end(self, noisy_ghz3):
        exact = _exact_bit_expectation(noisy_ghz3, 0)
        sampler = AdaptiveNeymanPTS(
            total_shots=30_000, observable=bit_observable(0), nsamples=2000, seed=8
        )
        result_specs = sampler.sample(noisy_ghz3, make_rng(8))
        from repro.execution import BatchedExecutor

        result = BatchedExecutor().execute(noisy_ghz3, result_specs.specs, seed=8)
        est = stratified_estimate(result, bit_observable(0))
        assert est.value == pytest.approx(exact, abs=4 * est.std_error + 0.01)

    def test_parameter_validation(self):
        with pytest.raises(SamplingError):
            AdaptiveNeymanPTS(total_shots=0, observable=bit_observable(0))
        with pytest.raises(SamplingError):
            AdaptiveNeymanPTS(total_shots=10, observable=bit_observable(0), pilot_shots=1)

    def test_pilot_result_exposed(self, noisy_ghz3):
        sampler = AdaptiveNeymanPTS(
            total_shots=100, observable=bit_observable(0), nsamples=300, seed=9
        )
        sampler.sample(noisy_ghz3, make_rng(9))
        assert sampler.pilot_result is not None
        assert sampler.pilot_result.num_trajectories > 0
