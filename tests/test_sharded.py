"""Device-sharded stacked execution: equivalence, sizing, misuse guards."""

import numpy as np
import pytest

from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.devices import Device, DeviceMesh
from repro.errors import CapacityError, ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ShardedExecutor,
    VALID_STRATEGIES,
    VectorizedExecutor,
    run_ptsbe,
)
from repro.pts import ProbabilisticPTS, TrajectorySpec, deduplicate_specs
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


class TestShardedEquivalence:
    """Acceptance: bitwise-identical ShotTables for every device/max_batch."""

    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_batch", [None, 1, 2])
    def test_bitwise_identical_on_brickwork(self, brickwork, num_devices, max_batch):
        specs = _pts_specs(brickwork, 7)
        serial = BatchedExecutor().execute(brickwork, specs, seed=13)
        vectorized = VectorizedExecutor().execute(brickwork, specs, seed=13)
        sharded = ShardedExecutor(devices=num_devices, max_batch=max_batch).execute(
            brickwork, specs, seed=13
        )
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
        inline = ShardedExecutor(devices=2).execute(noisy_ghz3, specs, seed=5)
        pooled = ShardedExecutor(devices=2, num_workers=2).execute(
            noisy_ghz3, specs, seed=5
        )
        np.testing.assert_array_equal(
            inline.shot_table().bits, pooled.shot_table().bits
        )
        np.testing.assert_array_equal(
            inline.shot_table().trajectory_ids, pooled.shot_table().trajectory_ids
        )

    def test_device_mesh_pool(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 4)
        serial = BatchedExecutor().execute(noisy_ghz3, specs, seed=2)
        sharded = ShardedExecutor(devices=DeviceMesh(4)).execute(
            noisy_ghz3, specs, seed=2
        )
        np.testing.assert_array_equal(
            serial.shot_table().bits, sharded.shot_table().bits
        )


class TestDedupAcrossShards:
    def test_groups_never_split_and_prepared_once(self, noisy_ghz3):
        specs = [
            _spec(0, 30, [_event(0, 1)]),
            _spec(1, 20, [_event(0, 1)]),
            _spec(2, 10),
            _spec(3, 40, [_event(1, 2, qubits=(0, 1))]),
        ]
        result = ShardedExecutor(devices=3).execute(noisy_ghz3, specs, seed=3)
        assert result.unique_preparations == len(deduplicate_specs(specs))
        assert [t.record.trajectory_id for t in result.trajectories] == [0, 1, 2, 3]
        assert [t.num_shots for t in result.trajectories] == [30, 20, 10, 40]

    def test_matches_vectorized_dedup_accounting(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 9)
        vec = VectorizedExecutor().execute(noisy_ghz3, specs, seed=1)
        sharded = ShardedExecutor(devices=2).execute(noisy_ghz3, specs, seed=1)
        assert sharded.unique_preparations == vec.unique_preparations


class TestPerDeviceSizing:
    def test_memory_limited_device_still_bitwise(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 3)
        serial = BatchedExecutor().execute(noisy_ghz3, specs, seed=6)
        # Room for one complex128 row of a 3-qubit state after the 2x
        # reshape-view workspace headroom (384 // (2 * 128) == 1).
        tiny = [Device(0, memory_bytes=3 * 8 * 16, name="tiny")]
        sharded = ShardedExecutor(devices=tiny).execute(noisy_ghz3, specs, seed=6)
        np.testing.assert_array_equal(
            serial.shot_table().bits, sharded.shot_table().bits
        )

    def test_device_too_small_for_one_row(self, noisy_ghz3):
        starved = [Device(0, memory_bytes=16, name="starved")]
        with pytest.raises(CapacityError, match="starved"):
            ShardedExecutor(devices=starved).execute(
                noisy_ghz3, [_spec(0, 10)], seed=0
            )

    def test_rows_are_sized_from_the_backend_that_runs_the_stack(self, noisy_ghz3):
        """A backend factory is opaque to the recipe: the stack is sized
        from the built backend's own config, so a complex64 factory gets
        twice the rows of a complex128 one on the same device."""
        from repro.backends.batched_statevector import BatchedStatevectorBackend
        from repro.config import Config

        specs = _pts_specs(noisy_ghz3, 3)
        assert len(deduplicate_specs(specs)) == len(specs) > 4
        # Two complex128 rows of a 3-qubit state at the 2x view-tier headroom.
        device = [Device(0, memory_bytes=2 * 2 * 8 * 16, name="small")]
        rows = {}
        for dtype in (np.complex128, np.complex64):
            config = Config(dtype=np.dtype(dtype))
            executor = ShardedExecutor(
                lambda n, config=config: BatchedStatevectorBackend(n, config=config),
                devices=device,
            )
            stream = executor.execute_stream(noisy_ghz3, specs, seed=6)
            rows[dtype] = next(stream).num_trajectories  # one unit per chunk
            stream.close()
        assert rows == {np.complex128: 2, np.complex64: 4}

    def test_workspace_accounts_for_fused_gemm_transient(self):
        """Regression both ways: only k>=4 operators reach the
        moveaxis+GEMM path (~3x transient) now that 3-qubit windows run
        the dedicated k=3 reshape-view tier (~2x, a fresh output buffer).
        """
        from repro.config import Config
        from repro.devices.memory import statevector_bytes

        circ = Circuit(4)
        for q in range(4):
            circ.h(q)
        circ.cx(0, 1).cx(2, 3).cx(1, 2).measure_all()
        circ = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
            .apply(circ)
            .freeze()
        )
        bytes_per_row = statevector_bytes(4, dtype=np.complex128)
        # Holds one row at the reshape-view 2x headroom, not the GEMM 3x.
        borderline = [Device(0, memory_bytes=2 * bytes_per_row, name="borderline")]
        # A window cap of 4 can produce k=4 fused operators: GEMM tier,
        # 3x headroom required -> the 2x device must refuse up front.
        wide = ShardedExecutor(
            BackendSpec.batched_statevector(
                config=Config(fusion="auto", fusion_max_qubits=4)
            ),
            devices=borderline,
        )
        with pytest.raises(CapacityError, match="borderline"):
            wide.execute(circ, [_spec(0, 10)], seed=0)
        # Capped at 3 (or unfused, or capped at 2) every operator fits the
        # reshape-view tiers: the 2x budget suffices and the run succeeds.
        for config in (
            Config(fusion="auto", fusion_max_qubits=3),
            Config(fusion="auto", fusion_max_qubits=2),
            Config(fusion="off"),
        ):
            narrow = ShardedExecutor(
                BackendSpec.batched_statevector(config=config),
                devices=borderline,
            )
            result = narrow.execute(circ, _pts_specs(circ, 3), seed=6)
            assert result.total_shots > 0

    def test_workspace_factor_clamped_to_circuit_width(self):
        """A 2-qubit circuit can never produce a 3-qubit fused window, so
        the default fused config must not charge it the GEMM headroom."""
        from repro.config import Config
        from repro.devices.memory import statevector_bytes

        circ = Circuit(2).h(0).cx(0, 1).measure_all()
        circ = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
            .apply(circ)
            .freeze()
        )
        # Exactly one row at the 2x reshape-view headroom; the unclamped
        # factor (3x under the default fusion_max_qubits=3) would raise.
        snug = [
            Device(
                0,
                memory_bytes=2 * statevector_bytes(2, dtype=np.complex128),
                name="snug",
            )
        ]
        executor = ShardedExecutor(
            BackendSpec.batched_statevector(config=Config(fusion="auto")),
            devices=snug,
        )
        result = executor.execute(circ, [_spec(0, 25)], seed=1)
        assert result.total_shots == 25

    def test_workspace_accounts_for_native_wide_gates(self):
        """A native >=4-qubit gate hits the GEMM path even with fusion off,
        so the 3x headroom must apply regardless of the fusion config."""
        from repro.circuits.gates import CCX, controlled
        from repro.config import Config
        from repro.devices.memory import statevector_bytes

        cccx = controlled(CCX)  # 4-qubit gate: only the GEMM tier serves it
        circ = Circuit(4).h(0).gate(cccx, 0, 1, 2, 3).measure_all()
        circ = (
            NoiseModel()
            .add_all_qubit_gate_noise("h", depolarizing(0.01))
            .apply(circ)
            .freeze()
        )
        # Fits one row at the 2x headroom, not at the 3x GEMM transient.
        borderline = [
            Device(
                0,
                memory_bytes=2 * statevector_bytes(4, dtype=np.complex128),
                name="borderline",
            )
        ]
        executor = ShardedExecutor(
            BackendSpec.batched_statevector(config=Config(fusion="off")),
            devices=borderline,
        )
        with pytest.raises(CapacityError, match="borderline"):
            executor.execute(circ, [_spec(0, 10)], seed=0)

    def test_native_ccx_runs_in_view_tier_workspace(self):
        """Regression the other way: the native ccx used to be charged the
        3x GEMM headroom; the k=3 view tier runs it in 2x, so a device
        sized for exactly 2x one row must now succeed."""
        from repro.circuits.gates import CCX
        from repro.config import Config
        from repro.devices.memory import statevector_bytes

        circ = Circuit(3).h(0).gate(CCX, 0, 1, 2).measure_all()
        circ = (
            NoiseModel()
            .add_all_qubit_gate_noise("h", depolarizing(0.01))
            .apply(circ)
            .freeze()
        )
        snug = [
            Device(
                0,
                memory_bytes=2 * statevector_bytes(3, dtype=np.complex128),
                name="snug",
            )
        ]
        for config in (Config(fusion="off"), Config(fusion="auto")):
            executor = ShardedExecutor(
                BackendSpec.batched_statevector(config=config),
                devices=snug,
            )
            result = executor.execute(circ, [_spec(0, 25)], seed=1)
            assert result.total_shots == 25

    def test_heterogeneous_pool(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 5)
        serial = BatchedExecutor().execute(noisy_ghz3, specs, seed=4)
        pool = [
            Device(0, memory_bytes=3 * 8 * 16, name="small"),
            Device(1, memory_bytes=80 * 10**9, name="big"),
        ]
        sharded = ShardedExecutor(devices=pool).execute(noisy_ghz3, specs, seed=4)
        np.testing.assert_array_equal(
            serial.shot_table().bits, sharded.shot_table().bits
        )


class TestStrategyDispatch:
    def test_run_ptsbe_sharded_strategy(self, noisy_ghz3):
        sampler = ProbabilisticPTS(nsamples=120, nshots=150)
        serial = run_ptsbe(noisy_ghz3, sampler, seed=9, strategy="serial")
        sharded = run_ptsbe(
            noisy_ghz3, sampler, seed=9, strategy="sharded",
            executor_kwargs={"devices": 3},
        )
        np.testing.assert_array_equal(
            serial.shot_table().bits, sharded.shot_table().bits
        )
        assert sharded.unique_preparations is not None

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
    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(devices=0)
        with pytest.raises(ExecutionError):
            ShardedExecutor(devices=[])

    def test_rejects_mps_backend(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(BackendSpec.mps(max_bond=8))

    def test_rejects_bad_max_batch_and_workers(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(max_batch=0)
        with pytest.raises(ExecutionError):
            ShardedExecutor(num_workers=0)

    def test_workers_require_picklable_backend(self):
        from repro.backends.batched_statevector import BatchedStatevectorBackend

        with pytest.raises(ExecutionError):
            ShardedExecutor(
                lambda n: BatchedStatevectorBackend(n), num_workers=2
            )

    def test_rejects_sample_kwargs(self):
        with pytest.raises(ExecutionError):
            ShardedExecutor(sample_kwargs={"cache": True})

    def test_requires_specs_and_measurements(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            ShardedExecutor().execute(noisy_ghz3, [], seed=0)
        with pytest.raises(ExecutionError):
            ShardedExecutor().execute(Circuit(1).h(0).freeze(), [_spec(0, 1)], seed=0)
