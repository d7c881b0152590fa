"""Batched execution: results containers, the BE engine, the ``parallel`` row."""

import numpy as np
import pytest

from repro.analysis import exact_distribution
from repro.channels import NoiseModel
from repro.channels.standard import amplitude_damping
from repro.circuits import Circuit
from repro.errors import DataError, ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ShotTable,
    run_ptsbe,
)
from repro.execution.batched import DENSE_STRATEGIES, build_executor
from repro.execution.results import pack_bits
from repro.pts import ExhaustivePTS, ProbabilisticPTS, TrajectorySpec
from repro.rng import make_rng
from repro.trajectory.events import TrajectoryRecord


def _spec(tid, shots, p=0.5):
    return TrajectorySpec(
        record=TrajectoryRecord(trajectory_id=tid, events=(), nominal_probability=p),
        num_shots=shots,
    )


class TestShotTable:
    def test_counts(self):
        bits = np.array([[0, 0], [1, 1], [1, 1]], dtype=np.uint8)
        table = ShotTable(bits, np.zeros(3))
        assert table.counts() == {"00": 1, "11": 2}

    def test_pack_bits_msb_first(self):
        assert pack_bits(np.array([[1, 0, 1]])).tolist() == [5]

    def test_pack_bits_width_guard(self):
        with pytest.raises(DataError):
            pack_bits(np.zeros((1, 64), dtype=np.uint8))

    def test_unique_fraction(self):
        bits = np.array([[0, 0], [0, 0], [0, 1]], dtype=np.uint8)
        table = ShotTable(bits, np.zeros(3))
        assert table.unique_fraction() == pytest.approx(2 / 3)

    def test_empirical_distribution(self):
        bits = np.array([[0], [1], [1], [1]], dtype=np.uint8)
        table = ShotTable(bits, np.zeros(4))
        assert np.allclose(table.empirical_distribution(), [0.25, 0.75])

    def test_for_trajectory(self):
        bits = np.array([[0], [1], [0]], dtype=np.uint8)
        table = ShotTable(bits, np.array([0, 1, 0]))
        sub = table.for_trajectory(0)
        assert sub.num_shots == 2

    def test_concatenate(self):
        a = ShotTable(np.zeros((2, 3), dtype=np.uint8), np.zeros(2))
        b = ShotTable(np.ones((3, 3), dtype=np.uint8), np.ones(3))
        cat = ShotTable.concatenate([a, b])
        assert cat.num_shots == 5

    def test_concatenate_width_mismatch(self):
        a = ShotTable(np.zeros((2, 3), dtype=np.uint8), np.zeros(2))
        b = ShotTable(np.zeros((2, 2), dtype=np.uint8), np.zeros(2))
        with pytest.raises(DataError):
            ShotTable.concatenate([a, b])

    def test_misaligned_ids_rejected(self):
        with pytest.raises(DataError):
            ShotTable(np.zeros((3, 1), dtype=np.uint8), np.zeros(2))


class TestBatchedExecutor:
    def test_one_preparation_per_spec(self, noisy_ghz3):
        specs = [_spec(0, 100), _spec(1, 200)]
        result = BatchedExecutor().execute(noisy_ghz3, specs, seed=0)
        assert result.num_trajectories == 2
        assert result.total_shots == 300
        assert result.trajectories[0].num_shots == 100

    def test_shots_carry_trajectory_ids(self, noisy_ghz3):
        specs = [_spec(0, 10), _spec(5, 20)]
        table = BatchedExecutor().execute(noisy_ghz3, specs, seed=0).shot_table()
        assert set(table.trajectory_ids.tolist()) == {0, 5}
        assert (table.trajectory_ids == 5).sum() == 20

    def test_actual_weight_reported(self, noisy_ghz3):
        result = BatchedExecutor().execute(noisy_ghz3, [_spec(0, 1)], seed=0)
        assert result.trajectories[0].actual_weight == pytest.approx((1 - 0.05) ** 4)

    def test_timing_recorded(self, noisy_ghz3):
        result = BatchedExecutor().execute(noisy_ghz3, [_spec(0, 1000)], seed=0)
        assert result.prep_seconds > 0
        assert result.sample_seconds > 0

    def test_empty_specs_rejected(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            BatchedExecutor().execute(noisy_ghz3, [], seed=0)

    def test_no_measurement_rejected(self):
        circ = Circuit(1).h(0).freeze()
        with pytest.raises(ExecutionError):
            BatchedExecutor().execute(circ, [_spec(0, 1)], seed=0)

    def test_mps_backend_spec(self, noisy_ghz3):
        result = BatchedExecutor(BackendSpec.mps(max_bond=8)).execute(
            noisy_ghz3, [_spec(0, 100)], seed=0
        )
        assert result.total_shots == 100

    def test_deterministic_given_seed(self, noisy_ghz3):
        specs = [_spec(0, 50), _spec(1, 50)]
        a = BatchedExecutor().execute(noisy_ghz3, specs, seed=9).shot_table()
        b = BatchedExecutor().execute(noisy_ghz3, specs, seed=9).shot_table()
        assert np.array_equal(a.bits, b.bits)


class TestRunPTSBE:
    def test_end_to_end(self, noisy_ghz3):
        result = run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=100, nshots=500), seed=1)
        assert result.total_shots >= 500
        assert len(result.records) == result.num_trajectories

    def test_pooled_distribution_normalized(self, noisy_ghz3):
        result = run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=100, nshots=500), seed=2)
        pooled = result.pooled_distribution()
        assert pooled.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("strategy", DENSE_STRATEGIES + ("tensornet", "auto"))
    def test_pooled_distribution_weighs_general_kraus_by_actual_weight(self, strategy):
        """Under amplitude damping the nominal probability is only a prior:
        weighted by it, the pooled distribution of every trajectory sits at
        TVD ~0.1 from the exact one; weighted by the realized weight, at the
        shot noise.  Every trajectory is enumerated, so the realized weights
        obey the trace-preservation sum rule to rounding on every engine."""
        circuit = Circuit(4)
        for q in range(4):
            circuit.ry(0.7 + 0.3 * q, q)
        for q in range(3):
            circuit.cx(q, q + 1)
        for q in range(4):
            circuit.ry(0.4 + 0.2 * q, q)
        noisy = (
            NoiseModel()
            .add_all_qubit_gate_noise("ry", amplitude_damping(0.3))
            .apply(circuit.measure_all())
            .freeze()
        )
        result = run_ptsbe(
            noisy, ExhaustivePTS(cutoff=1e-12, nshots=20000), seed=7, strategy=strategy
        )
        assert result.num_trajectories == 256
        assert sum(t.actual_weight for t in result.trajectories) == pytest.approx(1.0, abs=1e-12)
        pooled = result.pooled_distribution(weighted=True)
        assert 0.5 * np.abs(pooled - exact_distribution(noisy)).sum() < 0.015


class TestParallelExecutor:
    def test_matches_serial_shot_for_shot(self, noisy_ghz3):
        """The determinism contract: the alias changes nothing."""
        specs = [_spec(i, 40) for i in range(6)]
        serial = BatchedExecutor().execute(noisy_ghz3, specs, seed=5)
        parallel = build_executor("parallel").execute(noisy_ghz3, specs, seed=5)
        a, b = serial.shot_table(), parallel.shot_table()
        # Sort both by (trajectory, row) since order within is preserved.
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.trajectory_ids, b.trajectory_ids)

    def test_single_chunk_shortcut(self, noisy_ghz3):
        result = build_executor("parallel").execute(noisy_ghz3, [_spec(0, 10)], seed=1)
        assert result.total_shots == 10
