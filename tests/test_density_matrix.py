"""Exact density-matrix backend: channels, marginals, purity."""

import numpy as np
import pytest

from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import amplitude_damping, depolarizing, phase_damping
from repro.circuits import Circuit
from repro.circuits.gates import CX, H, X
from repro.errors import BackendError, CapacityError


class TestBasics:
    def test_initial_state(self):
        dm = DensityMatrixBackend(2)
        assert dm.density_matrix[0, 0] == pytest.approx(1.0)
        assert dm.purity() == pytest.approx(1.0)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            DensityMatrixBackend(20)
        with pytest.raises(CapacityError, match="density-matrix cap of 12"):
            DensityMatrixBackend(13)

    def test_unitary_evolution_matches_statevector(self, rng):
        circ = Circuit(3).h(0).cx(0, 1).t(2).cz(1, 2)
        dm = DensityMatrixBackend(3)
        sv = StatevectorBackend(3)
        for op in circ.coherent_ops:
            dm.apply_gate(op.gate, op.qubits)
            sv.apply_gate(op.gate, op.qubits)
        expected = np.outer(sv.statevector, sv.statevector.conj())
        assert np.allclose(dm.density_matrix, expected, atol=1e-10)


class TestChannels:
    def test_depolarizing_reduces_purity(self):
        dm = DensityMatrixBackend(1)
        dm.apply_gate(H, [0])
        dm.apply_channel(depolarizing(0.3), [0])
        assert dm.purity() < 1.0

    def test_full_depolarizing_gives_maximally_mixed(self):
        dm = DensityMatrixBackend(1)
        dm.apply_gate(H, [0])
        # p = 3/4 sends any state to I/2.
        dm.apply_channel(depolarizing(0.75), [0])
        assert np.allclose(dm.density_matrix, np.eye(2) / 2, atol=1e-10)

    def test_amplitude_damping_fixed_point(self):
        dm = DensityMatrixBackend(1)
        dm.apply_gate(X, [0])
        for _ in range(60):
            dm.apply_channel(amplitude_damping(0.3), [0])
        # |1> decays to |0>.
        assert dm.density_matrix[0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_phase_damping_kills_coherence_keeps_populations(self):
        dm = DensityMatrixBackend(1)
        dm.apply_gate(H, [0])
        for _ in range(80):
            dm.apply_channel(phase_damping(0.3), [0])
        rho = dm.density_matrix
        assert abs(rho[0, 1]) < 1e-6
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-9)

    def test_channel_matches_kraus_sum_on_target(self):
        dm = DensityMatrixBackend(2)
        dm.apply_gate(H, [0])
        dm.apply_gate(CX, [0, 1])
        rho_before = dm.density_matrix.copy()
        ch = amplitude_damping(0.25)
        dm.apply_channel(ch, [1])
        from repro.linalg import embed_operator

        expected = sum(
            embed_operator(k, [1], 2) @ rho_before @ embed_operator(k, [1], 2).conj().T
            for k in ch.kraus_ops
        )
        assert np.allclose(dm.density_matrix, expected, atol=1e-10)

    def test_trace_preserved_through_noisy_run(self, noisy_ghz3):
        dm = DensityMatrixBackend(3).run(noisy_ghz3)
        assert np.trace(dm.density_matrix).real == pytest.approx(1.0, abs=1e-9)


class TestReadout:
    def test_probabilities_normalized(self, noisy_ghz3):
        probs = DensityMatrixBackend(3).run(noisy_ghz3).probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_ghz_symmetry(self, noisy_ghz3):
        probs = DensityMatrixBackend(3).run(noisy_ghz3).probabilities()
        # Depolarizing noise is symmetric under global bit flip for GHZ.
        assert probs[0b000] == pytest.approx(probs[0b111], abs=1e-9)

    def test_marginal_probabilities_order(self):
        dm = DensityMatrixBackend(2)
        dm.apply_gate(X, [0])
        marg = dm.marginal_probabilities([1, 0])
        # qubit1=0, qubit0=1 -> outcome (0,1) -> index 0b01
        assert marg[0b01] == pytest.approx(1.0)

    def test_marginal_sums_to_one(self, noisy_ghz3):
        dm = DensityMatrixBackend(3).run(noisy_ghz3)
        assert dm.marginal_probabilities([2, 0]).sum() == pytest.approx(1.0)

    def test_sampling_matches_probabilities(self, rng, noisy_ghz3):
        dm = DensityMatrixBackend(3).run(noisy_ghz3)
        bits = dm.sample(40000, [0, 1, 2], rng)
        keys = bits @ np.array([4, 2, 1])
        hist = np.bincount(keys, minlength=8) / 40000
        assert np.abs(hist - dm.probabilities()).max() < 0.02

    def test_fidelity_with_pure(self):
        dm = DensityMatrixBackend(1)
        dm.apply_gate(H, [0])
        plus = np.array([1, 1]) / np.sqrt(2)
        assert dm.fidelity_with_pure(plus) == pytest.approx(1.0)

    def test_expectation(self):
        dm = DensityMatrixBackend(1)
        dm.apply_gate(X, [0])
        z = np.diag([1.0, -1.0])
        assert dm.expectation(z).real == pytest.approx(-1.0)
