"""Weighted stratified estimator and the standard observables."""

import numpy as np
import pytest

from repro.analysis.estimators import (
    Estimate,
    bit_observable,
    parity_observable,
    stratified_estimate,
)
from repro.backends.density_matrix import DensityMatrixBackend
from repro.channels import NoiseModel
from repro.channels.standard import amplitude_damping
from repro.circuits import library
from repro.execution import run_ptsbe
from repro.pts import ExhaustivePTS, ProbabilisticPTS, ProportionalPTS


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
        parity = np.array([1, 1, -1, -1, -1, -1, 1, 1])
        exact = float(marg @ parity)
        strat = stratified_estimate(result, parity_observable([0, 1]))
        pooled = result.pooled_distribution(weighted=False) @ parity
        assert abs(strat.value - exact) <= 2 * (1 - strat.total_weight) + 4 * strat.std_error
        assert abs(pooled - exact) > 0.5

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
        est = stratified_estimate(result, bit_observable(0))
        assert est.value == pytest.approx(exact, abs=4 * est.std_error + 0.02)

    def test_weights_by_actual_weight_under_strong_damping(self):
        """Every trajectory above 1e-12 under amplitude damping 0.3: weighted
        by the nominal probability (a prior, not the realized weight) the
        estimate sits ~85 standard errors from the exact 0.245."""
        model = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", amplitude_damping(0.3))
            .add_all_qubit_gate_noise("h", amplitude_damping(0.3))
        )
        circuit = model.apply(library.ghz(3, measure=True)).freeze()
        exact = _exact_bit_expectation(circuit, 0)
        assert exact == pytest.approx(0.245)
        result = run_ptsbe(
            circuit, ExhaustivePTS(cutoff=1e-12, nshots=20000), seed=3, strategy="serial"
        )
        est = stratified_estimate(result, bit_observable(0))
        assert abs(est.value - exact) < 4 * est.std_error

    def test_pooled_correct_under_proportional(self, noisy_ghz3):
        exact = _exact_bit_expectation(noisy_ghz3, 0)
        result = run_ptsbe(noisy_ghz3, ProportionalPTS(total_shots=40_000, nsamples=2500), seed=5)
        keys = np.arange(8)
        pooled = result.pooled_distribution(weighted=False) @ ((keys >> 2) & 1)
        std_error = np.sqrt(pooled * (1 - pooled) / result.total_shots)
        assert pooled == pytest.approx(exact, abs=4 * std_error + 0.01)
