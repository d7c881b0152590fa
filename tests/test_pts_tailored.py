"""Tailored PTS: Pauli twirling and correlated bursts; candidate filters."""

import numpy as np
import pytest

from repro.channels import NoiseModel, depolarizing
from repro.channels.standard import amplitude_damping
from repro.circuits import Circuit, library
from repro.errors import SamplingError
from repro.pts import (
    CorrelatedNoisePTS,
    ProbabilisticPTS,
    by_channel_name,
    by_gate_context,
    by_max_probability,
    by_min_probability,
    by_qubit_parity,
    by_qubits,
    twirl_circuit,
)
from repro.pts.base import NoiseSiteView
from repro.rng import make_rng


@pytest.fixture
def amp_damp_circuit():
    ideal = library.ghz(3, measure=True)
    model = NoiseModel().add_all_qubit_gate_noise("cx", amplitude_damping(0.1))
    return model.apply(ideal).freeze()


class TestTwirl:
    def test_twirl_circuit_channels_become_mixtures(self, amp_damp_circuit):
        twirled = twirl_circuit(amp_damp_circuit)
        for site in twirled.noise_sites:
            assert site.channel.mixture is not None

    def test_twirl_preserves_structure(self, amp_damp_circuit):
        twirled = twirl_circuit(amp_damp_circuit)
        assert twirled.num_noise_sites() == amp_damp_circuit.num_noise_sites()
        assert twirled.num_gates() == amp_damp_circuit.num_gates()

    def test_twirl_first_pipeline_routes_to_clifford(self, amp_damp_circuit):
        """Twirling is a circuit transform applied before PTS: the twirled
        GHZ circuit carries only Pauli-mixture noise, so ``auto`` routes it
        to the Pauli-frame engine (amplitude damping itself would not)."""
        from repro.execution import run_ptsbe

        sampler = ProbabilisticPTS(nsamples=150, nshots=200)
        result = run_ptsbe(twirl_circuit(amp_damp_circuit), sampler, seed=3)
        assert result.engine == "clifford"
        assert result.routing.startswith("auto->clifford")
        assert result.total_shots == 200 * result.num_trajectories > 0
        assert run_ptsbe(amp_damp_circuit, sampler, seed=3).engine != "clifford"


class TestCorrelatedBursts:
    def _circuit(self):
        ideal = library.ghz(5, measure=True)
        model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.02))
        return model.apply(ideal).freeze()

    def test_bursts_are_spatially_local(self):
        circ = self._circuit()
        view = NoiseSiteView(circ)
        result = CorrelatedNoisePTS(num_bursts=200, radius=1, moment_window=1).sample(
            circ, make_rng(1)
        )
        assert result.num_trajectories > 0
        for spec in result.specs:
            qubits = sorted({q for e in spec.record.events for q in e.qubits})
            assert max(qubits) - min(qubits) <= 2 * 1 + 1

    def test_bursts_produce_multi_error_trajectories(self):
        circ = self._circuit()
        result = CorrelatedNoisePTS(
            num_bursts=300, radius=2, moment_window=2, burst_fire_probability=1.0
        ).sample(circ, make_rng(2))
        assert any(s.record.num_errors() >= 2 for s in result.specs)

    def test_burst_probability_validated(self):
        with pytest.raises(SamplingError):
            CorrelatedNoisePTS(num_bursts=1, burst_fire_probability=0.0)

    def test_no_candidates_rejected(self):
        circ = Circuit(2).h(0).measure_all().freeze()
        with pytest.raises(SamplingError):
            CorrelatedNoisePTS(num_bursts=5).sample(circ, make_rng(0))

    def test_deduplication(self):
        circ = self._circuit()
        result = CorrelatedNoisePTS(num_bursts=500, radius=1).sample(circ, make_rng(3))
        sigs = [s.record.signature() for s in result.specs]
        assert len(sigs) == len(set(sigs))


class TestFilters:
    def test_gate_context_filter(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        f = by_gate_context("t")
        kept = [c for c in view.candidates if f(c)]
        assert kept and all(c.gate_context == "t" for c in kept)

    def test_channel_name_filter(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        f = by_channel_name("bit_flip")
        kept = [c for c in view.candidates if f(c)]
        assert kept and all(c.channel_name.startswith("bit_flip") for c in kept)

    def test_parity_filter(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        f = by_qubit_parity(0)
        assert all(c.qubits[0] % 2 == 0 for c in view.candidates if f(c))

    def test_probability_filters(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        lo = by_min_probability(0.01)
        hi = by_max_probability(0.005)
        assert all(c.probability >= 0.01 for c in view.candidates if lo(c))
        assert all(c.probability <= 0.005 for c in view.candidates if hi(c))

    def test_composition(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        f = by_gate_context("cx") & by_qubit_parity(1)
        for c in view.candidates:
            if f(c):
                assert c.gate_context == "cx" and c.qubits[0] % 2 == 1

    def test_negation(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        f = ~by_gate_context("cx")
        assert all(c.gate_context != "cx" for c in view.candidates if f(c))

    def test_or_composition(self, mixed_noise_circuit):
        view = NoiseSiteView(mixed_noise_circuit)
        f = by_gate_context("t") | by_gate_context("cx")
        kept = [c for c in view.candidates if f(c)]
        assert all(c.gate_context in ("t", "cx") for c in kept)
