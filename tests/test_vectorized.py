"""Vectorized trajectory-stacked execution: backend, dedup, equivalence."""

import random

import numpy as np
import pytest

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro import NoiseModel
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import amplitude_damping, bit_flip, depolarizing
from repro.circuits import Circuit
from repro.circuits.library import ghz
from repro.config import Config
from repro.errors import BackendError, CapacityError, ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ParallelExecutor,
    ShardedExecutor,
    VectorizedExecutor,
    get_fused_plan,
    run_ptsbe,
)
from repro.pts import ProbabilisticPTS, TrajectorySpec, deduplicate_specs
from repro.rng import StreamFactory, make_rng
from repro.trajectory.events import KrausEvent, TrajectoryRecord


def _spec(tid, shots, events=(), p=0.5):
    return TrajectorySpec(
        record=TrajectoryRecord(trajectory_id=tid, events=tuple(events), nominal_probability=p),
        num_shots=shots,
    )


def _event(site, kraus, qubits=(0,), p=0.05):
    return KrausEvent(
        site_id=site, kraus_index=kraus, qubits=qubits, channel_name="ch", probability=p
    )


def _pts_specs(circuit, pts_seed, nsamples=300, nshots=400):
    """Real trajectory specs (with events/choices) from Algorithm 2."""
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
        circuit, make_rng(pts_seed)
    ).specs


def _amp_damp_circuit():
    """One amplitude-damping site on |0>: Kraus 1 annihilates the state."""
    return Circuit(1).attach(amplitude_damping(0.1), 0).measure_all().freeze()


class TestBatchedStatevectorBackend:
    def test_stack_rows_match_serial_run_fixed(self, noisy_ghz3):
        """Each stacked row is bitwise identical to a serial preparation."""
        choices_list = [{}, {0: 1}, {1: 2}, {0: 1, 2: 3}]
        stacked = BatchedStatevectorBackend(3, batch_size=1)
        weights, alive = stacked.run_fixed_stack(noisy_ghz3, choices_list)
        serial = StatevectorBackend(3)
        for row, choices in enumerate(choices_list):
            w = serial.run_fixed(noisy_ghz3, choices)
            assert alive[row]
            assert weights[row] == pytest.approx(w)
            np.testing.assert_array_equal(stacked.statevector(row), serial.statevector)

    def test_sampling_matches_serial_stream_for_stream(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}])
        serial = StatevectorBackend(3)
        serial.run_fixed(noisy_ghz3, {0: 1})
        a = serial.sample(500, (0, 1, 2), make_rng(77))
        b = stacked.sample(1, 500, (0, 1, 2), make_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_sample_rows_in_bulk(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}, {1: 1}])
        rngs = StreamFactory(1).rngs_for([0, 1, 2])
        tables = [
            stacked.sample(row, shots, (0, 1, 2), rng)
            for row, (shots, rng) in enumerate(zip([10, 20, 30], rngs))
        ]
        assert [t.shape for t in tables] == [(10, 3), (20, 3), (30, 3)]

    def test_dead_row_draws_no_shots(self):
        stacked = BatchedStatevectorBackend(1)
        _, alive = stacked.run_fixed_stack(_amp_damp_circuit(), [{0: 1}, {}])
        assert alive.tolist() == [False, True]
        with pytest.raises(BackendError, match="dead trajectory"):
            stacked.sample(0, 10, (0,), make_rng(0))
        with pytest.raises(BackendError, match="dead trajectory"):
            stacked.probabilities(0)
        assert stacked.sample(0, 0, (0,), make_rng(0)).shape == (0, 1)
        assert stacked.sample(1, 10, (0,), make_rng(0)).shape == (10, 1)
        np.testing.assert_allclose(stacked.probabilities(1).sum(), 1.0)

    def test_probabilities_shape_and_norm_per_row(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}])
        probs = np.array([stacked.probabilities(row) for row in range(2)])
        assert probs.shape == (2, 8)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("row", [-1, 2])
    def test_sample_row_out_of_range_is_a_typed_error(self, noisy_ghz3, row):
        """Row -1 used to sample the last row, row B raised IndexError."""
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}])
        with pytest.raises(BackendError, match=f"row {row} is outside a 2-row stack"):
            stacked.sample(row, 10, (0, 1, 2), make_rng(0))
        with pytest.raises(BackendError, match=f"row {row} is outside a 2-row stack"):
            stacked.sample_indices(row, 10, make_rng(0))

    def test_annihilated_branch_kills_row_only(self):
        circ = _amp_damp_circuit()
        stacked = BatchedStatevectorBackend(1)
        weights, alive = stacked.run_fixed_stack(circ, [{0: 1}, {}])
        assert not alive[0] and weights[0] == 0.0
        assert alive[1] and weights[1] == pytest.approx(1.0)
        np.testing.assert_array_equal(stacked.statevector(0), np.zeros(2))
        with pytest.raises(BackendError):
            stacked.probabilities(0)

    def test_apply_matrix_row_subset(self):
        stacked = BatchedStatevectorBackend(1, batch_size=3)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        stacked.apply_matrix(x, [0], rows=[1])
        assert stacked.statevector(0)[0] == 1.0
        assert stacked.statevector(1)[1] == 1.0
        assert stacked.statevector(2)[0] == 1.0

    def test_duplicate_rows_touch_each_row_once(self):
        stacked = BatchedStatevectorBackend(1, batch_size=2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        stacked.apply_matrix(x, [0], rows=[1, 1])
        assert stacked.statevector(0)[0] == 1.0  # row 0 untouched
        assert stacked.statevector(1)[1] == 1.0

    def test_validations(self):
        stacked = BatchedStatevectorBackend(2, batch_size=2)
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(2), [5])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(2), [0], rows=[-2, 0])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(2), [0], rows=[2])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(4), [0])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(4), [0, 0])
        with pytest.raises(BackendError):
            BatchedStatevectorBackend(0)

    def test_capacity_budget_counts_the_stack(self):
        cfg = Config(max_dense_qubits=4)
        backend = BatchedStatevectorBackend(3, config=cfg)
        assert backend.max_batch_rows == 2
        with pytest.raises(CapacityError):
            backend.reset(3)
        with pytest.raises(CapacityError):
            BatchedStatevectorBackend(5, config=cfg)

    def test_out_of_range_kraus_index(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        with pytest.raises(BackendError):
            stacked.run_fixed_stack(noisy_ghz3, [{0: 99}])


class TestDedup:
    def test_dedup_key_ignores_trajectory_id_and_shots(self):
        a = _spec(0, 100, [_event(0, 1)])
        b = _spec(9, 250, [_event(0, 1)])
        assert a.dedup_key() == b.dedup_key()

    def test_dedup_key_distinguishes_choices(self):
        assert _spec(0, 1, [_event(0, 1)]).dedup_key() != _spec(0, 1, [_event(0, 2)]).dedup_key()

    def test_groups_merge_shot_budgets_in_order(self):
        specs = [
            _spec(0, 100, [_event(0, 1)]),
            _spec(1, 50),
            _spec(2, 40, [_event(0, 1)]),
        ]
        groups = deduplicate_specs(specs)
        assert [(g.indices, g.total_shots) for g in groups] == [
            ((0, 2), 140),
            ((1,), 50),
        ]

    def test_total_shots_per_key_invariant_under_shuffle(self):
        rng = random.Random(99)
        signatures = [(), ((0, 1),), ((0, 2),), ((0, 1), (1, 1)), ((1, 2),)]
        specs = []
        for tid in range(40):
            sig = signatures[rng.randrange(len(signatures))]
            events = [_event(site, kraus) for site, kraus in sig]
            specs.append(_spec(tid, rng.randrange(1, 500), events))
        budgets = {g.key: g.total_shots for g in deduplicate_specs(specs)}
        for _ in range(5):
            shuffled = specs[:]
            rng.shuffle(shuffled)
            reshuffled = {g.key: g.total_shots for g in deduplicate_specs(shuffled)}
            assert reshuffled == budgets

    def test_groups_preserve_first_occurrence_order(self):
        specs = [
            _spec(0, 5, [_event(0, 2)]),
            _spec(1, 5),
            _spec(2, 5, [_event(0, 2)]),
            _spec(3, 5, [_event(1, 1)]),
        ]
        groups = deduplicate_specs(specs)
        assert [g.indices for g in groups] == [(0, 2), (1,), (3,)]
        # Indices within a group ascend (first-occurrence order).
        for g in groups:
            assert list(g.indices) == sorted(g.indices)

    def test_executor_prepares_duplicates_once(self, noisy_ghz3):
        specs = [
            _spec(0, 30, [_event(0, 1, qubits=(0,))]),
            _spec(1, 20, [_event(0, 1, qubits=(0,))]),
            _spec(2, 10),
        ]
        result = VectorizedExecutor().execute(noisy_ghz3, specs, seed=3)
        assert result.unique_preparations == 2
        assert result.num_trajectories == 3
        assert [t.num_shots for t in result.trajectories] == [30, 20, 10]
        # Duplicate members keep their own provenance records and streams.
        assert [t.record.trajectory_id for t in result.trajectories] == [0, 1, 2]
        assert not np.array_equal(result.trajectories[0].bits[:20], result.trajectories[1].bits)

    def test_serial_executor_reports_no_dedup(self, noisy_ghz3):
        result = BatchedExecutor().execute(noisy_ghz3, [_spec(0, 10)], seed=0)
        assert result.unique_preparations == 1


class TestVectorizedEquivalence:
    """The acceptance contract: seed-fixed shot tables + provenance match."""

    def _assert_equivalent(self, circuit, specs, seed):
        serial = BatchedExecutor().execute(circuit, specs, seed=seed)
        vectorized = VectorizedExecutor().execute(circuit, specs, seed=seed)
        a, b = serial.shot_table(), vectorized.shot_table()
        np.testing.assert_array_equal(a.bits, b.bits)
        np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
        assert serial.records == vectorized.records
        np.testing.assert_allclose(
            [t.actual_weight for t in serial.trajectories],
            [t.actual_weight for t in vectorized.trajectories],
        )

    def test_unitary_mixture_channels(self, noisy_ghz3):
        self._assert_equivalent(noisy_ghz3, _pts_specs(noisy_ghz3, 3), seed=11)

    def test_general_channels(self, noisy_ghz3_general):
        self._assert_equivalent(noisy_ghz3_general, _pts_specs(noisy_ghz3_general, 5), seed=2)

    def test_mixed_noise_workload(self, mixed_noise_circuit):
        self._assert_equivalent(mixed_noise_circuit, _pts_specs(mixed_noise_circuit, 8), seed=6)

    def test_chunking_changes_nothing(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 4)
        assert len(specs) > 3
        full = VectorizedExecutor().execute(noisy_ghz3, specs, seed=5)
        chunked = VectorizedExecutor(max_batch=2).execute(noisy_ghz3, specs, seed=5)
        np.testing.assert_array_equal(full.shot_table().bits, chunked.shot_table().bits)

    def test_annihilated_trajectory_matches_serial(self):
        circ = _amp_damp_circuit()
        specs = [
            _spec(0, 100, [_event(0, 1)]),  # K1 on |0> annihilates
            _spec(1, 100),
        ]
        serial = BatchedExecutor().execute(circ, specs, seed=4)
        vectorized = VectorizedExecutor().execute(circ, specs, seed=4)
        for s, v in zip(serial.trajectories, vectorized.trajectories):
            assert s.num_shots == v.num_shots
            assert s.actual_weight == pytest.approx(v.actual_weight)
            np.testing.assert_array_equal(s.bits, v.bits)

    def test_pooled_distribution_matches_exact(self, noisy_ghz3):
        from repro.backends.density_matrix import DensityMatrixBackend
        from repro.data.stats import total_variation_distance

        specs = _pts_specs(noisy_ghz3, 2, nsamples=400, nshots=4000)
        result = VectorizedExecutor().execute(noisy_ghz3, specs, seed=1)
        exact = DensityMatrixBackend(3).run(noisy_ghz3).probabilities()
        assert total_variation_distance(result.pooled_distribution(), exact) < 0.05

    def test_plain_statevector_spec_is_upgraded(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 3)
        a = VectorizedExecutor(BackendSpec.statevector()).execute(noisy_ghz3, specs, seed=7)
        b = VectorizedExecutor(BackendSpec.batched_statevector()).execute(noisy_ghz3, specs, seed=7)
        np.testing.assert_array_equal(a.shot_table().bits, b.shot_table().bits)


class TestStrategyKnob:
    def test_auto_picks_vectorized_for_batched_kind(self, mixed_noise_circuit):
        # A non-Clifford circuit (t gate): the engine router declines
        # frames, so auto must resolve to the pre-router dense dispatch.
        sampler = ProbabilisticPTS(nsamples=100, nshots=200)
        serial = run_ptsbe(mixed_noise_circuit, sampler, seed=9, strategy="serial")
        auto = run_ptsbe(
            mixed_noise_circuit, sampler, BackendSpec.batched_statevector(), seed=9
        )
        explicit = run_ptsbe(mixed_noise_circuit, sampler, seed=9, strategy="vectorized")
        np.testing.assert_array_equal(serial.shot_table().bits, auto.shot_table().bits)
        np.testing.assert_array_equal(serial.shot_table().bits, explicit.shot_table().bits)
        assert auto.engine == "vectorized"
        assert auto.unique_preparations is not None
        assert serial.unique_preparations == auto.unique_preparations

    def test_parallel_strategy(self, noisy_ghz3):
        sampler = ProbabilisticPTS(nsamples=100, nshots=100)
        serial = run_ptsbe(noisy_ghz3, sampler, seed=9, strategy="serial")
        parallel = run_ptsbe(
            noisy_ghz3, sampler, seed=9, strategy="parallel",
            executor_kwargs={"num_workers": 2},
        )
        np.testing.assert_array_equal(serial.shot_table().bits, parallel.shot_table().bits)

    def test_unknown_strategy_rejected(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=10, nshots=10), strategy="gpu")

    def test_executor_kwargs_forwarded(self, noisy_ghz3):
        result = run_ptsbe(
            noisy_ghz3, ProbabilisticPTS(nsamples=100, nshots=100), seed=3,
            strategy="vectorized", executor_kwargs={"max_batch": 1},
        )
        assert result.unique_preparations == result.num_trajectories


class TestGuards:
    def test_batched_executor_rejects_stacked_backend(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            BatchedExecutor(BackendSpec.batched_statevector()).execute(
                noisy_ghz3, [_spec(0, 10)], seed=0
            )

    def test_parallel_executor_rejects_stacked_backend(self):
        with pytest.raises(ExecutionError):
            ParallelExecutor(backend=BackendSpec.batched_statevector())

    def test_vectorized_rejects_mps(self):
        with pytest.raises(ExecutionError):
            VectorizedExecutor(BackendSpec.mps(max_bond=8))

    def test_vectorized_rejects_bad_factory(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            VectorizedExecutor(lambda n: StatevectorBackend(n)).execute(
                noisy_ghz3, [_spec(0, 10)], seed=0
            )

    def test_vectorized_requires_specs_and_measurements(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            VectorizedExecutor().execute(noisy_ghz3, [], seed=0)
        with pytest.raises(ExecutionError):
            VectorizedExecutor().execute(Circuit(1).h(0).freeze(), [_spec(0, 1)], seed=0)
        with pytest.raises(ExecutionError):
            VectorizedExecutor(max_batch=0)

    def test_rngs_for_matches_rng_for(self):
        factory = StreamFactory(42)
        batch = factory.rngs_for([0, 3])
        assert batch[0].random(4).tolist() == factory.rng_for(0).random(4).tolist()
        assert batch[1].random(4).tolist() == factory.rng_for(3).random(4).tolist()


def _tail_engaging(kind):
    """Circuits whose plans end in a measurement tail: brickwork (T + CX +
    depolarizing windows, two singleton T steps), noisy GHZ (a CX ladder),
    and CX fans onto gapped qubits (gapped tail windows)."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    if kind == "ghz":
        return model.apply(ghz(6, measure=True)).freeze()
    circ = Circuit(6)
    if kind == "brickwork":
        for layer in range(4):
            for q in range(6):
                circ.h(q) if layer % 2 == 0 else circ.t(q)
            for q in range(layer % 2, 5, 2):
                circ.cx(q, q + 1)
    else:
        for q in range(3):
            circ.h(q)
        circ.cx(0, 1).cx(1, 2)
        circ.cx(0, 3).cx(2, 5).s(5).cx(1, 4).swap(0, 5).cx(3, 5)
    return model.apply(circ.measure_all()).freeze()


class TestMeasurementTailStrategies:
    """Every strategy samples through the one tail path: serial, vectorized
    and sharded shot tables are bitwise equal on tail-engaging circuits,
    and a pure-permutation tail draws what the full walk draws."""

    @pytest.mark.parametrize("kind", ["brickwork", "ghz", "gapped"])
    def test_serial_vectorized_sharded_bitwise(self, kind):
        circuit = _tail_engaging(kind)
        plan = get_fused_plan(circuit)
        assert plan.tail < plan.num_steps
        tail = [
            site for step in plan.steps[plan.tail :] for site in getattr(step, "site_ids", ())
        ]
        specs = _pts_specs(circuit, 9, nsamples=200, nshots=300)
        # A trajectory whose only error is an X inside the tail.
        specs.append(_spec(len(specs), 500, [_event(tail[0], 1)]))
        runs = [
            BatchedExecutor().execute(circuit, specs, seed=3),
            VectorizedExecutor(max_batch=7).execute(circuit, specs, seed=3),
            ShardedExecutor().execute(circuit, specs, seed=3),
        ]
        first = runs[0].shot_table()
        for run in runs[1:]:
            table = run.shot_table()
            np.testing.assert_array_equal(table.bits, first.bits)
            np.testing.assert_array_equal(table.trajectory_ids, first.trajectory_ids)
            assert [t.actual_weight for t in run.trajectories] == [
                t.actual_weight for t in runs[0].trajectories
            ]

    def test_a_permutation_tail_draws_what_the_full_walk_draws(self, monkeypatch):
        model = NoiseModel().add_all_qubit_gate_noise("cx", bit_flip(0.1))
        circuit = model.apply(ghz(6, measure=True)).freeze()
        specs = _pts_specs(circuit, 4, nsamples=300, nshots=200)
        lazy = VectorizedExecutor().execute(circuit, specs, seed=8).shot_table().bits
        plan = get_fused_plan(circuit)
        assert plan.tail < plan.num_steps
        monkeypatch.setattr(plan, "tail", plan.num_steps)
        walked = VectorizedExecutor().execute(circuit, specs, seed=8).shot_table().bits
        np.testing.assert_array_equal(lazy, walked)
