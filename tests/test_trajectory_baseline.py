"""Algorithm-1 baseline: per-shot preparation, both channel branches."""

import numpy as np
import pytest

from repro.analysis.convergence import distribution_error, exact_distribution
from repro.backends.mps import MPSBackend
from repro.backends.statevector import StatevectorBackend
from repro.errors import ExecutionError
from repro.rng import make_rng
from repro.trajectory.baseline import TrajectorySimulator


def _sv_factory():
    return StatevectorBackend(3)


class TestSingleTrajectory:
    def test_prepared_state_is_normalized(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory)
        backend, record = sim.run_single_trajectory(noisy_ghz3, make_rng(0))
        assert backend.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_record_disabled_by_default(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory)
        _, record = sim.run_single_trajectory(noisy_ghz3, make_rng(1))
        assert record.events == ()

    def test_record_events_when_enabled(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory, record_events=True)
        # Scan seeds until a trajectory has at least one error.
        for seed in range(50):
            _, record = sim.run_single_trajectory(noisy_ghz3, make_rng(seed))
            if record.events:
                assert all(e.kraus_index != 0 for e in record.events)
                return
        pytest.fail("no error trajectory in 50 seeds at p=0.05 x 4 sites")

    def test_general_channel_branch(self, noisy_ghz3_general):
        sim = TrajectorySimulator(_sv_factory, record_events=True)
        backend, record = sim.run_single_trajectory(noisy_ghz3_general, make_rng(2))
        assert backend.norm_squared() == pytest.approx(1.0, abs=1e-9)
        assert 0 < record.nominal_probability <= 1.0

    def test_requires_frozen(self):
        from repro.circuits import Circuit

        sim = TrajectorySimulator(_sv_factory)
        with pytest.raises(ExecutionError):
            sim.run_single_trajectory(Circuit(1).h(0), make_rng(0))


class TestConvergence:
    def test_unitary_mixture_converges_to_density_matrix(self, noisy_ghz3):
        exact = exact_distribution(noisy_ghz3)
        sim = TrajectorySimulator(_sv_factory)
        result = sim.sample(noisy_ghz3, 6000, seed=11)
        assert result.state_preparations == 6000  # the paper's complaint
        assert distribution_error(result.bits, exact) < 0.03

    def test_general_channel_converges_to_density_matrix(self, noisy_ghz3_general):
        exact = exact_distribution(noisy_ghz3_general)
        sim = TrajectorySimulator(_sv_factory)
        result = sim.sample(noisy_ghz3_general, 4000, seed=12)
        assert distribution_error(result.bits, exact) < 0.04

    def test_mixed_noise_circuit_converges(self, mixed_noise_circuit):
        exact = exact_distribution(mixed_noise_circuit)
        sim = TrajectorySimulator(lambda: StatevectorBackend(4))
        result = sim.sample(mixed_noise_circuit, 4000, seed=13)
        assert distribution_error(result.bits, exact) < 0.05

    def test_mps_backend_agrees(self, noisy_ghz3):
        exact = exact_distribution(noisy_ghz3)
        sim = TrajectorySimulator(lambda: MPSBackend(3, max_bond=16))
        result = sim.sample(noisy_ghz3, 3000, seed=14)
        assert distribution_error(result.bits, exact) < 0.05


class TestShotAccounting:
    def test_shots_per_trajectory_reduces_preparations(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory)
        result = sim.sample(noisy_ghz3, 1000, seed=15, shots_per_trajectory=100)
        assert result.state_preparations == 10
        assert result.num_shots == 1000

    def test_partial_last_batch(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory)
        result = sim.sample(noisy_ghz3, 150, seed=16, shots_per_trajectory=100)
        assert result.state_preparations == 2
        assert result.num_shots == 150

    def test_reproducible_with_seed(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory)
        a = sim.sample(noisy_ghz3, 200, seed=17)
        b = sim.sample(noisy_ghz3, 200, seed=17)
        assert np.array_equal(a.bits, b.bits)

    def test_no_measurement_rejected(self):
        from repro.circuits import Circuit

        circ = Circuit(1).h(0).freeze()
        with pytest.raises(ExecutionError):
            TrajectorySimulator(lambda: StatevectorBackend(1)).sample(circ, 10)


class TestChannelAnalysis:
    def test_one_analysis_per_channel(self, noisy_ghz3, monkeypatch):
        import repro.channels.unitary_mixture as unitary_mixture_mod

        calls = []
        real = unitary_mixture_mod.as_unitary_mixture
        monkeypatch.setattr(
            unitary_mixture_mod,
            "as_unitary_mixture",
            lambda channel: calls.append(channel) or real(channel),
        )
        sim = TrajectorySimulator(_sv_factory)
        sim.sample(noisy_ghz3, 50, seed=18)
        sim.sample(noisy_ghz3, 50, seed=19)
        # Every site shares one channel object: analysed once.
        (channel,) = {op.channel for op in noisy_ghz3.noise_sites}
        assert calls == [channel]

    def test_branch_index_boundaries(self):
        from repro.channels.standard import depolarizing

        cumulative = depolarizing(0.3).mixture.cumulative

        def branch(r):
            return int(np.searchsorted(cumulative, r, side="right"))

        assert branch(0.0) == 0
        assert branch(0.999999) == 3
        assert branch(0.699) == 0  # below 0.7
        assert branch(0.701) == 1
