"""Algorithm-1 baseline: per-shot preparation, both channel branches."""

import numpy as np
import pytest

from repro.analysis.convergence import distribution_error, exact_distribution
from repro.backends.mps import MPSBackend
from repro.backends.statevector import StatevectorBackend
from repro.errors import ExecutionError
from repro.rng import make_rng
from repro.trajectory.baseline import TrajectorySimulator
from repro.trajectory.unitary_cache import ChannelAnalysisCache


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


class TestChannelCache:
    def test_cache_hits_accumulate(self, noisy_ghz3):
        sim = TrajectorySimulator(_sv_factory)
        sim.sample(noisy_ghz3, 50, seed=18)
        # 4 sites sharing one channel object per rule: 1 distinct channel.
        assert sim.cache.misses <= 2
        assert sim.cache.hits > 50

    def test_branch_index_boundaries(self):
        from repro.channels.standard import depolarizing

        cache = ChannelAnalysisCache()
        ch = depolarizing(0.3)
        assert cache.branch_index(ch, 0.0) == 0
        assert cache.branch_index(ch, 0.999999) == 3
        assert cache.branch_index(ch, 0.699) == 0  # below 0.7
        assert cache.branch_index(ch, 0.701) == 1

    def test_collected_channel_id_is_not_answered_with_a_stale_analysis(self):
        """A general-Kraus analysis is None and used to keep no reference
        to its channel: once collected, a *different* channel allocated at
        the same id was told it is not a unitary mixture (and handed the
        other channel's cumulative table)."""
        from repro.channels.kraus import KrausChannel
        from repro.channels.standard import amplitude_damping, depolarizing

        cache = ChannelAnalysisCache()
        general = amplitude_damping(0.2)
        assert cache.mixture(general) is None
        assert cache.cumulative_probs(general)[0] == pytest.approx(0.9)
        stale_id = id(general)
        # The tables hold the channel, so its id cannot be handed out again...
        assert any(key is general for key in cache._mixtures)
        assert any(key is general for key in cache._cumprobs)
        del general
        # ...which a few thousand same-sized allocations used to manage.
        ops = depolarizing(0.3).kraus_ops
        held = []
        for _ in range(5000):
            fresh = KrausChannel("depolarizing", ops, check=False)
            if id(fresh) == stale_id:
                assert cache.mixture(fresh) is not None
                assert cache.cumulative_probs(fresh)[0] == pytest.approx(0.7)
                break
            held.append(fresh)

    def test_clear(self):
        from repro.channels.standard import depolarizing

        cache = ChannelAnalysisCache()
        cache.mixture(depolarizing(0.1))
        cache.clear()
        assert cache.misses == 0 and not cache._mixtures
