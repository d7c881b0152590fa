"""The ``sharded`` alias of stacked execution: equivalence, sizing, guards."""

import numpy as np
import pytest

import repro.execution.plan as plan_module
from repro.backends.statevector import StatevectorBackend
from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.config import Config
from repro.errors import ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ShardedExecutor,
    VALID_STRATEGIES,
    VectorizedExecutor,
    run_ptsbe,
)
from repro.execution.batched import STRATEGIES
from repro.execution.plan import get_fused_plan
from repro.pts import ProbabilisticPTS, PTSResult, TrajectorySpec, deduplicate_specs
from repro.rng import make_rng
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
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
        circuit, make_rng(pts_seed)
    ).specs


@pytest.fixture(scope="module")
def brickwork():
    """The acceptance workload shape: layered CX brickwork with noise."""
    circ = Circuit(6)
    for layer in range(3):
        for q in range(6):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        for q in range(layer % 2, 5, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
        .add_all_qubit_gate_noise("h", depolarizing(0.01))
    )
    return model.apply(circ).freeze()


def _budget(num_qubits, rows, **options):
    """A stacked backend whose dense budget holds ``rows`` (a power of two)
    rows of a ``num_qubits`` state; ``rows=None`` keeps the default budget."""
    if rows is not None:
        options["max_dense_qubits"] = num_qubits + rows.bit_length() - 1
    return BackendSpec.batched_statevector(config=Config(**options))


WIDE_GATE_CIRCUITS = ["fused_4q", "native_cccx", "native_ccx", "bell_2q"]
CAPS = [1, 2, 3, 4]
CAP_IDS = [f"cap{cap}" for cap in CAPS]


def _wide_gate_circuit(name):
    """Circuits whose operators reach each application tier: fused 4-qubit
    windows and a native 4-qubit gate (GEMM), a native ccx (the k=3 view
    tier), and a 2-qubit circuit narrower than any fusion cap."""
    from repro.circuits.gates import CCX, controlled

    if name == "fused_4q":
        circ = Circuit(4)
        for q in range(4):
            circ.h(q)
        circ.cx(0, 1).cx(2, 3).cx(1, 2)
    elif name == "native_cccx":
        circ = Circuit(4).h(0).h(1).h(2).gate(controlled(CCX), 0, 1, 2, 3)
    elif name == "native_ccx":
        circ = Circuit(3).h(0).h(1).gate(CCX, 0, 1, 2)
    else:
        circ = Circuit(2).h(0).cx(0, 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
        .add_all_qubit_gate_noise("h", depolarizing(0.05))
    )
    return model.apply(circ).freeze()


class TestShardedEquivalence:
    """Acceptance: bitwise-identical ShotTables for every max_batch and
    every row budget of the backend that runs the stack."""

    @pytest.mark.parametrize("budget_rows", [None, 1, 2, 4])
    @pytest.mark.parametrize("max_batch", [None, 1, 2])
    def test_bitwise_identical_on_brickwork(self, brickwork, max_batch, budget_rows):
        specs = _pts_specs(brickwork, 7)
        serial = BatchedExecutor().execute(brickwork, specs, seed=13)
        vectorized = VectorizedExecutor().execute(brickwork, specs, seed=13)
        sharded = ShardedExecutor(
            _budget(brickwork.num_qubits, budget_rows), max_batch=max_batch
        ).execute(brickwork, specs, seed=13)
        assert sharded.engine == "sharded"
        for reference in (serial, vectorized):
            a, b = reference.shot_table(), sharded.shot_table()
            np.testing.assert_array_equal(a.bits, b.bits)
            np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
        assert sharded.records == serial.records
        np.testing.assert_allclose(
            [t.actual_weight for t in sharded.trajectories],
            [t.actual_weight for t in serial.trajectories],
        )

    def test_process_pool_matches_inline(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 3, nsamples=150, nshots=200)
        inline = ShardedExecutor().execute(noisy_ghz3, specs, seed=5)
        pooled = ShardedExecutor(num_workers=2).execute(
            noisy_ghz3, specs, seed=5
        )
        np.testing.assert_array_equal(
            inline.shot_table().bits, pooled.shot_table().bits
        )
        np.testing.assert_array_equal(
            inline.shot_table().trajectory_ids, pooled.shot_table().trajectory_ids
        )

    @pytest.mark.parametrize("budget_rows", [None, 1])
    @pytest.mark.parametrize("cap", CAPS, ids=CAP_IDS)
    @pytest.mark.parametrize("name", WIDE_GATE_CIRCUITS)
    def test_every_application_tier_matches_serial(self, name, cap, budget_rows, monkeypatch):
        """Each operator tier (GEMM for k>=4, reshape views below) gives the
        serial table from a one-row stack and from a full one, whatever the
        fusion window cap (cap 1 runs every multi-qubit op on its own)."""
        monkeypatch.setattr(plan_module, "fusion_cap", lambda num_qubits: cap)
        circ = _wide_gate_circuit(name)
        specs = _pts_specs(circ, 3, nsamples=120, nshots=150)
        serial = BatchedExecutor().execute(circ, specs, seed=6)
        sharded = ShardedExecutor(_budget(circ.num_qubits, budget_rows)).execute(
            circ, specs, seed=6
        )
        assert get_fused_plan(circ).max_qubits == cap
        a, b = serial.shot_table(), sharded.shot_table()
        np.testing.assert_array_equal(a.bits, b.bits)
        np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
        assert sharded.records == serial.records

    @pytest.mark.parametrize("cap", CAPS, ids=CAP_IDS)
    @pytest.mark.parametrize("name", WIDE_GATE_CIRCUITS)
    def test_every_application_tier_matches_per_op_reference(
        self, name, cap, monkeypatch, assert_matches_per_op
    ):
        """The plan each tier runs prepares the per-op reference's weight
        and state, for the ideal trajectory and every sampled one."""
        monkeypatch.setattr(plan_module, "fusion_cap", lambda num_qubits: cap)
        circ = _wide_gate_circuit(name)
        assert get_fused_plan(circ).max_qubits == cap
        specs = _pts_specs(circ, 3, nsamples=40, nshots=1)
        choices_list = [{}] + [spec.record.choices for spec in specs]
        assert any(choices_list)
        for choices in choices_list:
            assert assert_matches_per_op(
                lambda: StatevectorBackend(circ.num_qubits),
                circ,
                choices,
                lambda backend: backend.statevector,
            )


class TestDedupAcrossShards:
    def test_groups_never_split_and_prepared_once(self, noisy_ghz3):
        specs = [
            _spec(0, 30, [_event(0, 1)]),
            _spec(1, 20, [_event(0, 1)]),
            _spec(2, 10),
            _spec(3, 40, [_event(1, 2, qubits=(0, 1))]),
        ]
        result = ShardedExecutor(max_batch=3).execute(noisy_ghz3, specs, seed=3)
        trajectories = PTSResult.from_specs(noisy_ghz3, specs)
        groups = deduplicate_specs(trajectories.table, trajectories.shots)
        assert result.unique_preparations == len(groups) == 3
        assert [t.record.trajectory_id for t in result.trajectories] == [0, 1, 2, 3]
        assert [t.num_shots for t in result.trajectories] == [30, 20, 10, 40]

    def test_matches_vectorized_dedup_accounting(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 9)
        vec = VectorizedExecutor().execute(noisy_ghz3, specs, seed=1)
        sharded = ShardedExecutor().execute(noisy_ghz3, specs, seed=1)
        assert sharded.unique_preparations == vec.unique_preparations


class TestRowRule:
    @pytest.mark.parametrize("cls", [VectorizedExecutor, ShardedExecutor])
    @pytest.mark.parametrize("max_batch,rows", [(None, 4), (64, 4), (4, 4), (3, 3), (1, 1)])
    def test_rows_are_max_batch_within_the_backend_budget(
        self, noisy_ghz3, cls, max_batch, rows
    ):
        """A unit holds ``min(max_batch, backend.max_batch_rows)`` rows, read
        off the backend that runs the stack: a spec's backend under
        ``max_dense_qubits=5`` holds 2**(5-3) = 4 rows of a 3-qubit state.
        Group 0 is a unit of its own, so that is the second chunk."""
        specs = _pts_specs(noisy_ghz3, 3)
        trajectories = PTSResult.from_specs(noisy_ghz3, specs)
        assert len(deduplicate_specs(trajectories.table, trajectories.shots)) == len(specs) > 4
        spec = BackendSpec.batched_statevector(config=Config(max_dense_qubits=5))
        executor = cls(spec, max_batch=max_batch)
        stream = executor.execute_stream(noisy_ghz3, specs, seed=6)
        assert next(stream).num_trajectories == 1  # one unit per chunk
        assert next(stream).num_trajectories == rows
        stream.close()


class TestStrategyDispatch:
    def test_run_ptsbe_sharded_strategy(self, noisy_ghz3):
        sampler = ProbabilisticPTS(nsamples=120, nshots=150)
        serial = run_ptsbe(noisy_ghz3, sampler, seed=9, strategy="serial")
        sharded = run_ptsbe(
            noisy_ghz3, sampler, seed=9, strategy="sharded",
            executor_kwargs={"max_batch": 3},
        )
        np.testing.assert_array_equal(
            serial.shot_table().bits, sharded.shot_table().bits
        )
        assert sharded.engine == "sharded"
        assert sharded.unique_preparations is not None

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    @pytest.mark.parametrize("stale", [{"devices": 2}, {"bogus": 1}])
    def test_unknown_executor_kwargs_raise_a_typed_error(
        self, noisy_ghz3, strategy, stale
    ):
        accepts = {
            "serial": ["num_workers"],
            "parallel": ["num_workers"],
            "vectorized": ["max_batch", "num_workers"],
            "sharded": ["max_batch", "num_workers"],
            "clifford": [],
            "tensornet": ["max_batch"],
        }[strategy]
        with pytest.raises(ExecutionError) as err:
            run_ptsbe(
                noisy_ghz3, ProbabilisticPTS(nsamples=10, nshots=10), seed=1,
                strategy=strategy, executor_kwargs=stale,
            )
        message = str(err.value)
        assert repr(strategy) in message and repr(next(iter(stale))) in message
        assert message.endswith(", ".join(map(repr, accepts)) or "none")

    def test_unknown_strategy_lists_valid_names(self, noisy_ghz3):
        with pytest.raises(ExecutionError) as err:
            run_ptsbe(
                noisy_ghz3, ProbabilisticPTS(nsamples=10, nshots=10), strategy="gpu"
            )
        message = str(err.value)
        for name in VALID_STRATEGIES:
            assert repr(name) in message
        assert "sharded" in message

    def test_valid_strategies_constant(self):
        assert set(VALID_STRATEGIES) == {
            "auto", "serial", "parallel", "vectorized", "sharded", "clifford",
            "tensornet",
        }


class TestGuards:
    def test_options_are_keyword_only(self):
        # A positional option after the backend (an old device count among
        # them) must not land silently on max_batch.
        with pytest.raises(TypeError):
            ShardedExecutor(BackendSpec.batched_statevector(), 2)

    def test_rejects_mps_backend(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(BackendSpec.mps(max_bond=8))

    def test_rejects_bad_max_batch_and_workers(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(max_batch=0)
        with pytest.raises(ExecutionError):
            ShardedExecutor(num_workers=0)

    def test_requires_specs_and_measurements(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            ShardedExecutor().execute(noisy_ghz3, [], seed=0)
        with pytest.raises(ExecutionError):
            ShardedExecutor().execute(Circuit(1).h(0).freeze(), [_spec(0, 1)], seed=0)
