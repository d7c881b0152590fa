"""Fusion pipeline: window scheduling, tier preservation, plan equivalence."""

import numpy as np
import pytest

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import amplitude_damping
from repro.circuits import Circuit
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.config import Config
from repro.errors import BackendError, ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ShardedExecutor,
    VectorizedExecutor,
)
from repro.execution.plan import (
    GateStep,
    NoiseStep,
    build_fused_plan,
    clear_plan_cache,
    get_fused_plan,
)
from repro.linalg.apply import compile_operator
from repro.linalg.fusion import expand_to_support, fuse_window_matrix, window_support
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng

AUTO = Config(fusion="auto")
OFF = Config(fusion="off")


def _pts_specs(circuit, pts_seed, nsamples=300, nshots=400):
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
        circuit, make_rng(pts_seed)
    ).specs


def _non_measure_ops(circuit):
    return [op for op in circuit if not isinstance(op, MeasureOp)]


class TestWindowScheduling:
    def test_single_qubit_run_merges(self):
        circ = Circuit(1).h(0).t(0).s(0).freeze()
        windows = schedule_fusion_windows(circ, max_qubits=1)
        assert len(windows) == 1
        assert [op.gate.name for op in windows[0]] == ["h", "t", "s"]

    def test_overlapping_windows_merge_under_cap(self):
        circ = Circuit(2).h(0).h(1).cx(0, 1).freeze()
        windows = schedule_fusion_windows(circ, max_qubits=2)
        assert len(windows) == 1
        assert len(windows[0]) == 3

    def test_window_cap_respected(self):
        circ = Circuit(4)
        for q in range(4):
            circ.h(q)
        circ.cx(0, 1).cx(2, 3).cx(1, 2).freeze()
        for cap in (1, 2, 3):
            for window in schedule_fusion_windows(circ, max_qubits=cap):
                support = window_support([op.qubits for op in window])
                # A single op wider than the cap is allowed (runs unfused).
                if len(window) > 1:
                    assert len(support) <= cap

    def test_wide_op_becomes_own_window(self):
        from repro.circuits.gates import CCX

        circ = Circuit(3).h(0).gate(CCX, 0, 1, 2).freeze()
        windows = schedule_fusion_windows(circ, max_qubits=2)
        wide = [w for w in windows if len(w[0].qubits) == 3]
        assert len(wide) == 1 and len(wide[0]) == 1

    def test_measurements_omitted_and_ops_covered(self, noisy_ghz3):
        windows = schedule_fusion_windows(noisy_ghz3, max_qubits=2)
        scheduled = [op for w in windows for op in w]
        assert all(not isinstance(op, MeasureOp) for op in scheduled)
        expected = _non_measure_ops(noisy_ghz3)
        assert len(scheduled) == len(expected)
        assert {id(op) for op in scheduled} == {id(op) for op in expected}

    def test_per_qubit_program_order_preserved(self, mixed_noise_circuit):
        windows = schedule_fusion_windows(mixed_noise_circuit, max_qubits=3)
        emission = [op for w in windows for op in w]
        program = _non_measure_ops(mixed_noise_circuit)
        for q in range(mixed_noise_circuit.num_qubits):
            emitted_q = [id(op) for op in emission if q in op.qubits]
            program_q = [id(op) for op in program if q in op.qubits]
            assert emitted_q == program_q

    def test_invalid_cap_rejected(self):
        circ = Circuit(1).h(0).freeze()
        with pytest.raises(ValueError):
            schedule_fusion_windows(circ, max_qubits=0)


class TestFusionMatrices:
    def test_expand_to_support_identity_padding(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        expanded = expand_to_support(x, (2,), (0, 2))
        expected = np.kron(np.eye(2), x)
        np.testing.assert_allclose(expanded, expected)

    def test_expand_rejects_foreign_qubits(self):
        from repro.errors import GateError

        with pytest.raises(GateError):
            expand_to_support(np.eye(2), (3,), (0, 1))

    def test_fuse_window_matrix_application_order(self):
        # HX applied as X first then H: matrix must be H @ X.
        from repro.circuits.gates import H, X

        fused = fuse_window_matrix(
            [(X.matrix, (0,)), (H.matrix, (0,))], (0,)
        )
        np.testing.assert_allclose(fused, H.matrix @ X.matrix)

    def test_fused_diagonal_tier_preserved(self):
        # T then S are both diagonal; the fused operator must stay on the
        # diagonal fast path of the gate kernel.
        from repro.circuits.gates import S, T

        fused = fuse_window_matrix([(T.matrix, (0,)), (S.matrix, (0,))], (0,))
        op = compile_operator(fused, (0,), np.dtype(np.complex128))
        assert op.tier == "diagonal"

    def test_fused_identity_tier_detected(self):
        # Z then Z cancels exactly (entries are +-1): the compiled fused
        # operator is an exact identity, which the kernel skips entirely.
        from repro.circuits.gates import Z

        fused = fuse_window_matrix([(Z.matrix, (0,)), (Z.matrix, (0,))], (0,))
        op = compile_operator(fused, (0,), np.dtype(np.complex128))
        assert op.tier == "identity"

    def test_two_qubit_target_order_canonicalized(self):
        from repro.circuits.gates import CX

        a = compile_operator(CX.matrix, (1, 0), np.dtype(np.complex128))
        assert a.targets == (0, 1)
        # Descending targets mean control=1, target=0: |01> -> |11>.
        sv = StatevectorBackend(2)
        sv.apply_matrix(np.array([[0, 1], [1, 0]]), [1])  # |01>
        from repro.linalg.apply import apply_compiled_stack

        out = apply_compiled_stack(sv.statevector.reshape(1, -1), a, 2).reshape(-1)
        assert abs(out[0b11]) == pytest.approx(1.0)


class TestFusedPlanStructure:
    def test_off_is_one_step_per_op(self, noisy_ghz3):
        plan = build_fused_plan(noisy_ghz3, OFF)
        assert plan.num_steps == len(_non_measure_ops(noisy_ghz3))
        assert plan.num_noise_steps == noisy_ghz3.num_noise_sites()
        assert all(s.num_ops == 1 for s in plan.steps)

    def test_auto_compresses_steps(self, noisy_ghz3):
        fused = build_fused_plan(noisy_ghz3, AUTO)
        unfused = build_fused_plan(noisy_ghz3, OFF)
        assert fused.num_steps < unfused.num_steps
        assert fused.num_source_ops == unfused.num_source_ops

    def test_noise_sites_all_represented(self, mixed_noise_circuit):
        plan = build_fused_plan(mixed_noise_circuit, AUTO)
        sites = [s for step in plan.steps if isinstance(step, NoiseStep) for s in step.site_ids]
        assert sorted(sites) == [op.site_id for op in mixed_noise_circuit.noise_sites]

    def test_invalid_fusion_mode_rejected(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            build_fused_plan(noisy_ghz3, Config(fusion="aggressive"))
        with pytest.raises(ExecutionError):
            build_fused_plan(noisy_ghz3, Config(fusion_max_qubits=0))

    def test_requires_frozen_circuit(self):
        with pytest.raises(ExecutionError):
            build_fused_plan(Circuit(1).h(0), AUTO)

    def test_plan_cache_memoizes_per_config(self, noisy_ghz3):
        clear_plan_cache()
        a = get_fused_plan(noisy_ghz3, AUTO)
        b = get_fused_plan(noisy_ghz3, AUTO)
        assert a is b
        c = get_fused_plan(noisy_ghz3, Config(fusion="auto", fusion_max_qubits=2))
        assert c is not a
        d = get_fused_plan(noisy_ghz3, OFF)
        assert d is not a

    def test_variant_cache_amortizes_across_stacks(self, noisy_ghz3):
        clear_plan_cache()
        backend = BatchedStatevectorBackend(3)
        choices_list = [{}, {0: 1}, {}, {0: 1}]
        backend.run_fixed_stack(noisy_ghz3, choices_list)
        plan = get_fused_plan(noisy_ghz3, backend.config)
        misses_after_first = plan.variant_cache.misses
        assert misses_after_first > 0
        backend.run_fixed_stack(noisy_ghz3, choices_list)
        # Second stack hits only: every variant was compiled already.
        assert plan.variant_cache.misses == misses_after_first
        assert plan.variant_cache.hits > 0

    def test_out_of_range_kraus_index_rejected(self, noisy_ghz3):
        plan = get_fused_plan(noisy_ghz3, AUTO)
        step = next(s for s in plan.steps if isinstance(s, NoiseStep))
        with pytest.raises(BackendError):
            step.key_for({step.site_ids[0]: 99})


class TestWidthAwareAutoCap:
    """Config.fusion_max_qubits=None resolves the window cap per width."""

    def test_default_is_auto_resolved(self):
        assert Config().fusion_max_qubits is None

    def test_narrow_circuits_resolve_to_three(self):
        cfg = Config()
        for width in (1, 2, 5, 11):
            assert cfg.resolved_fusion_max_qubits(width) == 3

    def test_wide_circuits_resolve_to_four(self):
        cfg = Config()
        for width in (12, 18, 26):
            assert cfg.resolved_fusion_max_qubits(width) == 4

    def test_explicit_knob_always_overrides(self):
        cfg = Config(fusion_max_qubits=2)
        assert cfg.resolved_fusion_max_qubits(4) == 2
        assert cfg.resolved_fusion_max_qubits(20) == 2

    def test_plan_records_resolved_cap(self):
        from repro.channels import NoiseModel, depolarizing

        def noisy_line(width):
            circ = Circuit(width)
            for q in range(width):
                circ.h(q)
            circ.measure_all()
            model = NoiseModel().add_all_qubit_gate_noise("h", depolarizing(0.01))
            return model.apply(circ).freeze()

        narrow = build_fused_plan(noisy_line(4), Config(fusion="auto"))
        assert narrow.fusion_max_qubits == 3
        wide = build_fused_plan(noisy_line(12), Config(fusion="auto"))
        assert wide.fusion_max_qubits == 4
        pinned = build_fused_plan(
            noisy_line(12), Config(fusion="auto", fusion_max_qubits=3)
        )
        assert pinned.fusion_max_qubits == 3

    def test_wide_cap_actually_produces_wider_windows(self):
        """On a 12-qubit brickwork layer the auto cap of 4 must compress
        the plan further than an explicit cap of 3."""
        from repro.channels import NoiseModel, two_qubit_depolarizing

        circ = Circuit(12)
        for q in range(12):
            circ.h(q)
        for q in range(0, 11, 2):
            circ.cx(q, q + 1)
        for q in range(1, 10, 2):
            circ.cx(q, q + 1)
        circ.measure_all()
        model = NoiseModel().add_all_qubit_gate_noise(
            "cx", two_qubit_depolarizing(0.01)
        )
        frozen = model.apply(circ).freeze()
        auto = build_fused_plan(frozen, Config(fusion="auto"))
        capped3 = build_fused_plan(frozen, Config(fusion="auto", fusion_max_qubits=3))
        assert auto.fusion_max_qubits == 4
        assert auto.num_steps < capped3.num_steps

    def test_plan_cache_keys_on_resolved_cap(self, noisy_ghz3):
        clear_plan_cache()
        default = get_fused_plan(noisy_ghz3, Config(fusion="auto"))
        explicit3 = get_fused_plan(
            noisy_ghz3, Config(fusion="auto", fusion_max_qubits=3)
        )
        # Same resolved cap on a narrow circuit -> the very same plan.
        assert default is explicit3
        explicit2 = get_fused_plan(
            noisy_ghz3, Config(fusion="auto", fusion_max_qubits=2)
        )
        assert explicit2 is not default

    def test_auto_cap_keeps_strategies_bitwise(self):
        """Across the 12-qubit threshold (cap 4, GEMM-tier fused windows)
        serial and vectorized must stay bitwise identical."""
        from repro.channels import NoiseModel, two_qubit_depolarizing

        circ = Circuit(12)
        for q in range(12):
            circ.h(q)
        for q in range(0, 11, 2):
            circ.cx(q, q + 1)
        circ.measure_all()
        model = NoiseModel().add_all_qubit_gate_noise(
            "cx", two_qubit_depolarizing(0.02)
        )
        frozen = model.apply(circ).freeze()
        specs = _pts_specs(frozen, 1, nsamples=60, nshots=80)
        cfg = Config(fusion="auto")
        serial = BatchedExecutor(BackendSpec.statevector(config=cfg)).execute(
            frozen, specs, seed=3
        )
        vec = VectorizedExecutor(
            BackendSpec.batched_statevector(config=cfg)
        ).execute(frozen, specs, seed=3)
        np.testing.assert_array_equal(
            serial.shot_table().bits, vec.shot_table().bits
        )


@pytest.fixture(params=["noisy_ghz3", "noisy_ghz3_general", "mixed_noise_circuit"])
def workload(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["auto", "off"], ids=["fusion-auto", "fusion-off"])
def fusion_config(request):
    return Config(fusion=request.param)


class TestFusionEquivalence:
    """The acceptance matrix: fusion on/off x serial/vectorized/sharded."""

    def test_strategies_bitwise_identical(self, workload, fusion_config):
        specs = _pts_specs(workload, 3)
        serial = BatchedExecutor(
            BackendSpec.statevector(config=fusion_config)
        ).execute(workload, specs, seed=11)
        vectorized = VectorizedExecutor(
            BackendSpec.batched_statevector(config=fusion_config)
        ).execute(workload, specs, seed=11)
        sharded = ShardedExecutor(
            BackendSpec.batched_statevector(config=fusion_config), devices=3
        ).execute(workload, specs, seed=11)
        a = serial.shot_table()
        for other in (vectorized, sharded):
            b = other.shot_table()
            np.testing.assert_array_equal(a.bits, b.bits)
            np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
            assert serial.records == other.records
            np.testing.assert_array_equal(
                [t.actual_weight for t in serial.trajectories],
                [t.actual_weight for t in other.trajectories],
            )

    def test_four_strategies_bitwise_identical(self, fusion_config, noisy_ghz3):
        """The full 4-strategy matrix (parallel included) on one workload:
        every engine must emit the same bits under the new kernels."""
        from repro.execution import ParallelExecutor

        specs = _pts_specs(noisy_ghz3, 6, nsamples=150, nshots=200)
        reference = BatchedExecutor(
            BackendSpec.statevector(config=fusion_config)
        ).execute(noisy_ghz3, specs, seed=17)
        others = [
            ParallelExecutor(
                BackendSpec.statevector(config=fusion_config), num_workers=2
            ),
            VectorizedExecutor(
                BackendSpec.batched_statevector(config=fusion_config)
            ),
            ShardedExecutor(
                BackendSpec.batched_statevector(config=fusion_config), devices=2
            ),
        ]
        a = reference.shot_table()
        for executor in others:
            b = executor.execute(noisy_ghz3, specs, seed=17).shot_table()
            np.testing.assert_array_equal(a.bits, b.bits)
            np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)

    def test_fused_matches_unfused_to_float_accuracy(self, workload):
        specs = _pts_specs(workload, 5)
        fused = VectorizedExecutor(
            BackendSpec.batched_statevector(config=AUTO)
        ).execute(workload, specs, seed=2)
        unfused = VectorizedExecutor(
            BackendSpec.batched_statevector(config=OFF)
        ).execute(workload, specs, seed=2)
        np.testing.assert_allclose(
            [t.actual_weight for t in fused.trajectories],
            [t.actual_weight for t in unfused.trajectories],
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            fused.pooled_distribution(), unfused.pooled_distribution(), atol=1e-2
        )

    def test_fused_state_matches_unfused_state(self, workload, fusion_config):
        choices = {0: 1}
        sv = StatevectorBackend(workload.num_qubits, config=fusion_config)
        w = sv.run_fixed(workload, choices)
        ref = StatevectorBackend(workload.num_qubits, config=OFF)
        w_ref = ref.run_fixed(workload, choices)
        assert w == pytest.approx(w_ref, rel=1e-10)
        np.testing.assert_allclose(sv.statevector, ref.statevector, atol=1e-12)

    def test_shot_tables_exact_across_window_caps(self, workload):
        """Same plan => exact shots; the cap changes the plan, so only the
        strategies sharing a cap must match bitwise."""
        specs = _pts_specs(workload, 7)
        for cap in (1, 2, 4):
            cfg = Config(fusion="auto", fusion_max_qubits=cap)
            serial = BatchedExecutor(BackendSpec.statevector(config=cfg)).execute(
                workload, specs, seed=5
            )
            vec = VectorizedExecutor(
                BackendSpec.batched_statevector(config=cfg)
            ).execute(workload, specs, seed=5)
            np.testing.assert_array_equal(
                serial.shot_table().bits, vec.shot_table().bits
            )

    def test_annihilated_trajectory_with_fusion(self, fusion_config):
        """A Kraus window that annihilates the state: zero weight, no shots,
        identical handling in serial and stacked execution."""
        from repro.pts.base import TrajectorySpec
        from repro.trajectory.events import KrausEvent, TrajectoryRecord

        circ = Circuit(1).attach(amplitude_damping(0.1), 0).measure_all().freeze()
        specs = [
            TrajectorySpec(
                record=TrajectoryRecord(
                    trajectory_id=0,
                    events=(
                        KrausEvent(
                            site_id=0, kraus_index=1, qubits=(0,),
                            channel_name="ad", probability=0.05,
                        ),
                    ),
                    nominal_probability=0.05,
                ),
                num_shots=50,
            ),
            TrajectorySpec(
                record=TrajectoryRecord(
                    trajectory_id=1, events=(), nominal_probability=0.95
                ),
                num_shots=50,
            ),
        ]
        serial = BatchedExecutor(
            BackendSpec.statevector(config=fusion_config)
        ).execute(circ, specs, seed=4)
        vec = VectorizedExecutor(
            BackendSpec.batched_statevector(config=fusion_config)
        ).execute(circ, specs, seed=4)
        assert serial.trajectories[0].actual_weight == 0.0
        assert serial.trajectories[0].bits.shape == (0, 1)
        for s, v in zip(serial.trajectories, vec.trajectories):
            assert s.actual_weight == pytest.approx(v.actual_weight)
            np.testing.assert_array_equal(s.bits, v.bits)


class TestStackWideSampling:
    def test_cumulative_stack_matches_serial_rows(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}, {1: 2}])
        cum = stacked.cumulative_stack()
        assert cum.shape == (3, 8)
        for row, choices in enumerate([{}, {0: 1}, {1: 2}]):
            serial = StatevectorBackend(3)
            serial.run_fixed(noisy_ghz3, choices)
            expected = np.cumsum(serial.probabilities())
            expected[-1] = 1.0
            np.testing.assert_array_equal(cum[row], expected)

    def test_dead_row_sampling_raises(self):
        circ = Circuit(1).attach(amplitude_damping(0.1), 0).measure_all().freeze()
        stacked = BatchedStatevectorBackend(1)
        stacked.run_fixed_stack(circ, [{0: 1}, {}])
        with pytest.raises(BackendError):
            stacked.sample_indices(0, 10, make_rng(0))
        assert stacked.sample_indices(0, 0, make_rng(0)).shape == (0,)
        assert stacked.sample_indices(1, 10, make_rng(0)).shape == (10,)
