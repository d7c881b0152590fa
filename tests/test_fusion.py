"""Fusion pipeline: window scheduling, tier preservation, plan equivalence.

The unfused reference is :meth:`PureStateBackend.run_fixed`, the per-op
loop both concrete backends override: called on a backend as
``PureStateBackend.run_fixed(backend, circuit, choices)`` it applies every
gate and Kraus operator on its own and renormalizes after every site.
"""

import numpy as np
import pytest

import repro.execution.plan as plan_module
from repro.backends.base import PureStateBackend
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import amplitude_damping, device_profile
from repro.circuits import Circuit
from repro.circuits.library import build_workload, noisy
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.config import Config
from repro.errors import BackendError, ExecutionError, ZeroProbabilityTrajectory
from repro.execution import BatchedExecutor, VectorizedExecutor
from repro.execution.batched import build_executor
from repro.execution.plan import (
    GateStep,
    NoiseStep,
    build_fused_plan,
    clear_plan_cache,
    fusion_cap,
    get_fused_plan,
)
from repro.linalg.apply import compile_operator
from repro.linalg.fusion import expand_to_support, fuse_window_matrix, window_support
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng

#: Two unitary-mixture profiles and the general-Kraus one.
PROFILES = ["uniform_depolarizing", "superconducting_median", "relaxation_dominated"]


def _pts_specs(circuit, pts_seed, nsamples=300, nshots=400):
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
        circuit, make_rng(pts_seed)
    ).specs


def _statevector(backend):
    return backend.statevector


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
    def test_fusion_compresses_steps(self, noisy_ghz3):
        plan = build_fused_plan(noisy_ghz3)
        ops = _non_measure_ops(noisy_ghz3)
        assert plan.num_steps < len(ops)
        assert plan.num_source_ops == len(ops)

    def test_noise_sites_all_represented(self, mixed_noise_circuit):
        plan = build_fused_plan(mixed_noise_circuit)
        sites = [s for step in plan.steps if isinstance(step, NoiseStep) for s in step.site_ids]
        assert sorted(sites) == [op.site_id for op in mixed_noise_circuit.noise_sites]

    def test_requires_frozen_circuit(self):
        with pytest.raises(ExecutionError):
            build_fused_plan(Circuit(1).h(0))

    def test_plan_cache_memoizes_per_dtype(self, noisy_ghz3):
        clear_plan_cache()
        a = get_fused_plan(noisy_ghz3)
        assert get_fused_plan(noisy_ghz3, Config()) is a
        single = get_fused_plan(noisy_ghz3, Config(dtype=np.dtype(np.complex64)))
        assert single is not a
        step = single.steps[0]
        assert step.variant(step.dominant_key).matrix.dtype == np.complex64

    def test_variant_cache_amortizes_across_stacks(self, noisy_ghz3, monkeypatch):
        clear_plan_cache()
        backend = BatchedStatevectorBackend(3)
        choices_list = [{}, {0: 1}, {}, {0: 1}]
        backend.run_fixed_stack(noisy_ghz3, choices_list)
        plan = get_fused_plan(noisy_ghz3, backend.config)
        noise = [step for step in plan.steps if isinstance(step, NoiseStep)]
        compiled = [dict(zip(step.table.keys, step.table.ops)) for step in noise]
        assert any(len(ops) > 1 for ops in compiled)
        compiles = []
        real = NoiseStep.compile_variants
        monkeypatch.setattr(
            NoiseStep,
            "compile_variants",
            lambda step, keys: compiles.extend(keys) or real(step, keys),
        )
        backend.run_fixed_stack(noisy_ghz3, choices_list)
        # The second stack compiles nothing and reuses the same variant objects.
        assert compiles == []
        for step, before in zip(noise, compiled):
            assert step.table.keys == list(before)
            assert all(step.variant(key) is op for key, op in before.items())

    def test_out_of_range_kraus_index_rejected(self, noisy_ghz3):
        plan = get_fused_plan(noisy_ghz3)
        step = next(s for s in plan.steps if isinstance(s, NoiseStep))
        with pytest.raises(ExecutionError, match="prescribes Kraus index 99 at noise site"):
            BatchedStatevectorBackend(3).run_fixed_stack(noisy_ghz3, [{step.site_ids[0]: 99}])


class TestWidthAwareAutoCap:
    """``fusion_cap`` resolves the window cap per circuit width."""

    def test_narrow_circuits_resolve_to_three(self):
        for width in (1, 2, 5, 11):
            assert fusion_cap(width) == 3

    def test_wide_circuits_resolve_to_four(self):
        for width in (12, 18, 26):
            assert fusion_cap(width) == 4

    def test_plan_records_resolved_cap(self):
        from repro.channels import NoiseModel, depolarizing

        def noisy_line(width):
            circ = Circuit(width)
            for q in range(width):
                circ.h(q)
            circ.measure_all()
            model = NoiseModel().add_all_qubit_gate_noise("h", depolarizing(0.01))
            return model.apply(circ).freeze()

        assert build_fused_plan(noisy_line(4)).max_qubits == 3
        assert build_fused_plan(noisy_line(12)).max_qubits == 4

    def test_wide_cap_actually_produces_wider_windows(self, monkeypatch):
        """On a 12-qubit brickwork layer the cap of 4 must compress the
        plan further than a cap of 3."""
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
        wide = build_fused_plan(frozen)
        monkeypatch.setattr(plan_module, "fusion_cap", lambda num_qubits: 3)
        capped3 = build_fused_plan(frozen)
        assert (wide.max_qubits, capped3.max_qubits) == (4, 3)
        assert wide.num_steps < capped3.num_steps

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
        serial = BatchedExecutor().execute(frozen, specs, seed=3)
        vec = VectorizedExecutor().execute(frozen, specs, seed=3)
        np.testing.assert_array_equal(
            serial.shot_table().bits, vec.shot_table().bits
        )


@pytest.fixture(params=["noisy_ghz3", "noisy_ghz3_general", "mixed_noise_circuit"])
def workload(request):
    return request.getfixturevalue(request.param)


class TestFusionEquivalence:
    """The acceptance matrix: serial/vectorized/sharded on one plan, and
    the plan against the per-op reference."""

    def test_strategies_bitwise_identical(self, workload):
        specs = _pts_specs(workload, 3)
        serial = BatchedExecutor().execute(workload, specs, seed=11)
        vectorized = VectorizedExecutor().execute(workload, specs, seed=11)
        sharded = build_executor("sharded", max_batch=3).execute(workload, specs, seed=11)
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

    def test_four_strategies_bitwise_identical(self, noisy_ghz3):
        """The full 4-strategy matrix (parallel included) on one workload:
        every engine must emit the same bits under the new kernels."""
        specs = _pts_specs(noisy_ghz3, 6, nsamples=150, nshots=200)
        reference = BatchedExecutor().execute(noisy_ghz3, specs, seed=17)
        others = [build_executor("parallel"), VectorizedExecutor(), build_executor("sharded")]
        a = reference.shot_table()
        for executor in others:
            b = executor.execute(noisy_ghz3, specs, seed=17).shot_table()
            np.testing.assert_array_equal(a.bits, b.bits)
            np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)

    def test_fused_weights_match_per_op_reference(self, workload):
        specs = _pts_specs(workload, 5)
        fused = VectorizedExecutor().execute(workload, specs, seed=2)
        for trajectory in fused.trajectories:
            reference = StatevectorBackend(workload.num_qubits)
            try:
                weight = PureStateBackend.run_fixed(
                    reference, workload, trajectory.record.choices
                )
            except ZeroProbabilityTrajectory:
                weight = 0.0
            assert trajectory.actual_weight == pytest.approx(weight, rel=1e-10)

    @pytest.mark.parametrize("choices", [{}, {0: 1}, {1: 1}, {0: 1, 2: 1}])
    def test_fused_state_matches_per_op_reference(
        self, workload, choices, assert_matches_per_op
    ):
        def make():
            return StatevectorBackend(workload.num_qubits)

        assert_matches_per_op(make, workload, choices, _statevector)

    def test_shot_tables_exact_across_window_caps(self, workload, monkeypatch):
        """Same plan => exact shots; the cap changes the plan, so only the
        strategies sharing a cap must match bitwise."""
        specs = _pts_specs(workload, 7)
        for cap in (1, 2, 4):
            clear_plan_cache()
            monkeypatch.setattr(plan_module, "fusion_cap", lambda num_qubits: cap)
            serial = BatchedExecutor().execute(workload, specs, seed=5)
            vec = VectorizedExecutor().execute(workload, specs, seed=5)
            np.testing.assert_array_equal(
                serial.shot_table().bits, vec.shot_table().bits
            )

    def test_annihilated_trajectory_with_fusion(self):
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
        serial = BatchedExecutor().execute(circ, specs, seed=4)
        vec = VectorizedExecutor().execute(circ, specs, seed=4)
        assert serial.trajectories[0].actual_weight == 0.0
        assert serial.trajectories[0].bits.shape == (0, 1)
        for s, v in zip(serial.trajectories, vec.trajectories):
            assert s.actual_weight == pytest.approx(v.actual_weight)
            np.testing.assert_array_equal(s.bits, v.bits)


class TestPerOpReference:
    """The fused dense plan against the per-op loop on the benchmark's
    brickwork family, under unitary-mixture and general-Kraus noise."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_fused_plan_matches_per_op_loop_on_brickwork_8q(
        self, profile, assert_matches_per_op
    ):
        circuit = noisy(
            build_workload("brickwork", 8, seed=1), device_profile(profile).noise_model()
        )
        assert build_fused_plan(circuit).num_steps < len(_non_measure_ops(circuit))
        specs = _pts_specs(circuit, 2, nsamples=40, nshots=1)
        choices_list = [{}] + [spec.record.choices for spec in specs]
        assert any(choices_list)
        live = [
            assert_matches_per_op(lambda: StatevectorBackend(8), circuit, choices, _statevector)
            for choices in choices_list
        ]
        assert sum(live) > 1

    def test_gate_windows_match_per_op_loop_on_ideal_brickwork_8q(self, assert_matches_per_op):
        circuit = build_workload("brickwork", 8, seed=1).freeze()
        steps = build_fused_plan(circuit).steps
        assert all(isinstance(step, GateStep) for step in steps)
        assert max(step.num_ops for step in steps) > 2
        assert assert_matches_per_op(lambda: StatevectorBackend(8), circuit, {}, _statevector)


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


def _variant_keys(step, rng, samples=40):
    """The dominant key, every single-site deviation (so every item
    position a variant can start from), the first and last sites deviating
    together, and ``samples`` random keys — in a shuffled order, so
    deviating keys also build the dominant prefix from cold."""
    dominant = step.dominant_key
    keys = {dominant}
    for site, channel in enumerate(step.channels):
        for index in range(len(channel)):
            keys.add(dominant[:site] + (index,) + dominant[site + 1:])
    last = len(step.channels) - 1
    keys.add(
        tuple(
            (dominant[s] + 1) % len(step.channels[s]) if s in (0, last) else dominant[s]
            for s in range(len(dominant))
        )
    )
    for _ in range(samples):
        keys.add(tuple(int(rng.integers(len(channel))) for channel in step.channels))
    keys = sorted(keys)
    rng.shuffle(keys)
    return keys


def _fused_reference(step, key, dtype):
    """The variant built the pre-memo way: ``fuse_window_matrix`` of the
    window's items under ``key``, compiled on the step's targets."""
    if len(step._items) == 1:
        _, site, qubits = step._items[0]
        return compile_operator(step._operators[site][key[site]], qubits, dtype).matrix
    operators = [
        (payload if kind == "gate" else step._operators[payload][key[payload]], qubits)
        for kind, payload, qubits in step._items
    ]
    return compile_operator(fuse_window_matrix(operators, step.targets), step.targets, dtype).matrix


class TestVariantsFromTheDominantPrefix:
    """A variant continues the dominant variant's partial product from its
    first deviating item: the same matmuls in the same order as fusing the
    whole window, so every variant is bitwise the fused window."""

    def _circuits(self, layered_brickwork):
        relaxation = noisy(
            build_workload("brickwork", 8, seed=1),
            device_profile("relaxation_dominated").noise_model(),
        ).freeze()
        return [layered_brickwork(8), layered_brickwork(12), relaxation]

    def test_every_variant_equals_the_fused_window(self, layered_brickwork):
        rng = np.random.default_rng(5)
        general = 0
        for circuit in self._circuits(layered_brickwork):
            config = Config()
            plan = build_fused_plan(circuit, config)
            steps = [step for step in plan.steps if isinstance(step, NoiseStep)]
            assert steps and max(len(step._items) for step in steps) > 4
            general += sum(not step.unitary for step in steps)
            for step in steps:
                for key in _variant_keys(step, rng):
                    want = _fused_reference(step, key, config.dtype)
                    assert np.array_equal(step.variant(key).matrix, want), (step, key)
        assert general > 0  # the relaxation profile's windows are general-Kraus

    def test_a_last_site_deviation_multiplies_only_from_that_site(self, monkeypatch):
        circuit = Circuit(2).h(0).cx(0, 1).t(1).h(1)
        circuit.attach(amplitude_damping(0.2), 0)
        circuit = noisy(circuit.measure_all(), device_profile("uniform_depolarizing")
                        .noise_model()).freeze()
        plan = build_fused_plan(circuit)
        step = max((s for s in plan.steps if isinstance(s, NoiseStep)),
                   key=lambda s: len(s._items))
        last = step._site_items[-1]
        assert len(step.site_ids) >= 2 and last > 0
        step.variant(step.dominant_key)
        factors = []
        original = NoiseStep._factor

        def counting(self, pos, key):
            factors.append(pos)
            return original(self, pos, key)

        monkeypatch.setattr(NoiseStep, "_factor", counting)
        key = step.dominant_key[:-1] + ((step.dominant_key[-1] + 1) % len(step.channels[-1]),)
        operator = step.variant(key)
        assert factors == list(range(last, len(step._items)))
        assert np.array_equal(operator.matrix, _fused_reference(step, key, np.complex128))


class TestIdentityFreeVariants:
    """Variants skip the factors that are exactly the identity (every Pauli
    channel's dominant branch, an ``i`` gate): each is still bitwise the
    product ``fuse_window_matrix`` forms over every factor."""

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("num_qubits, nsamples", [(6, 200), (12, 12_000), (16, 60)])
    def test_every_sampled_key_of_the_benchmark_brickwork(
        self, layered_brickwork, num_qubits, nsamples, seed
    ):
        """The keys the benchmark's PTS draws (its sampler stream, its sizes),
        read off the steps' variant tables: every variant, byte for byte."""
        from repro.rng import StreamFactory

        circuit = layered_brickwork(num_qubits)
        result = ProbabilisticPTS(nsamples=nsamples, nshots=1).sample(
            circuit, StreamFactory(seed).sampler_rng()
        )
        config = Config()
        plan = build_fused_plan(circuit, config)
        of = plan.prescribed_steps(result.table)
        checked = skipped = 0
        for step, step_of in zip(plan.steps, of):
            if not isinstance(step, NoiseStep):
                continue
            keys = step.table.keys
            assert keys[0] == step.dominant_key and 0 < len(keys) == step_of.max() + 1
            for key, got in zip(keys, step.table.operators()):
                got = got.matrix
                want = _fused_reference(step, key, config.dtype)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (step, key)
                checked += 1
            skipped += sum(factor is None for factor in step._embedded.values())
        assert checked > plan.num_noise_steps and skipped > 0

    def test_a_general_kraus_window_and_an_identity_window(self):
        """Amplitude damping (whose dominant operator is no identity, so it
        multiplies) beside depolarizing and a skipped ``i`` gate, and a
        window of noise sites alone, whose dominant variant is all
        identities."""
        from repro.channels.standard import depolarizing, two_qubit_depolarizing
        from repro.circuits.gates import I

        circuit = Circuit(3).h(0).cx(0, 1).gate(I, 2).cx(1, 2).t(2)
        circuit.attach(amplitude_damping(0.2), 1)
        circuit.attach(depolarizing(0.1), 2)
        circuit.attach(depolarizing(0.1), 0)
        circuit = circuit.measure_all().freeze()
        lone = Circuit(2)
        lone.attach(two_qubit_depolarizing(0.1), 0, 1)
        lone.attach(depolarizing(0.2), 1)
        lone = lone.measure_all().freeze()
        rng = np.random.default_rng(3)
        windows = 0
        for c in (circuit, lone):
            for step in build_fused_plan(c).steps:
                if not isinstance(step, NoiseStep) or len(step._items) < 2:
                    continue
                windows += 1
                for key in _variant_keys(step, rng, samples=8):
                    want = _fused_reference(step, key, np.complex128)
                    assert np.array_equal(step.variant(key).matrix, want), (step, key)
        assert windows >= 2
        (step,) = [s for s in build_fused_plan(lone).steps if isinstance(s, NoiseStep)]
        assert all(factor is None for factor in (step._factor(p, step.dominant_key)
                                                 for p in range(len(step._items))))
        assert np.array_equal(step.variant(step.dominant_key).matrix, np.eye(4))


def _embed_by_tensordot(matrix, targets, num_qubits):
    """The tensordot-against-the-identity embedding ``embed_operator`` used
    to be, kept as its oracle."""
    k = len(targets)
    op = np.asarray(matrix).reshape((2,) * (2 * k))
    full = np.eye(2**num_qubits, dtype=np.result_type(np.asarray(matrix).dtype, np.complex128))
    full = full.reshape((2,) * (2 * num_qubits))
    res = np.tensordot(op, full, axes=(list(range(k, 2 * k)), list(targets)))
    rest = [q for q in range(num_qubits) if q not in targets]
    position = {t: j for j, t in enumerate(targets)}
    position.update((q, k + r) for r, q in enumerate(rest))
    order = [position[q] for q in range(num_qubits)] + list(range(num_qubits, 2 * num_qubits))
    return res.transpose(order).reshape(2**num_qubits, 2**num_qubits)


class TestEmbedOperator:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_equals_the_tensordot_embedding_at_every_target_order(self, num_qubits):
        import itertools

        from repro.linalg.kron import embed_operator

        rng = np.random.default_rng(num_qubits)
        for k in range(1, min(4, num_qubits) + 1):
            for targets in itertools.permutations(range(num_qubits), k):
                shape = (2**k, 2**k)
                for matrix in (
                    rng.normal(size=shape) + 1j * rng.normal(size=shape),
                    rng.normal(size=shape),  # real gates embed as complex too
                ):
                    got = embed_operator(matrix, targets, num_qubits)
                    want = _embed_by_tensordot(matrix, targets, num_qubits)
                    assert got.dtype == want.dtype == np.complex128
                    assert np.array_equal(got, want), (targets, num_qubits)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_equals_kron_and_permute(self, num_qubits):
        """``matrix (x) I`` on the wires ``targets + rest``, its basis
        indices then moved to circuit order: every target tuple of 1-3
        qubits."""
        import itertools

        from repro.linalg.kron import embed_operator

        rng = np.random.default_rng(10 + num_qubits)
        dim = 2**num_qubits
        index = np.arange(dim)
        for k in range(1, min(3, num_qubits) + 1):
            for targets in itertools.permutations(range(num_qubits), k):
                matrix = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
                wires = list(targets) + [q for q in range(num_qubits) if q not in targets]
                circuit_index = np.zeros(dim, dtype=np.intp)
                for wire, qubit in enumerate(wires):
                    circuit_index |= ((index >> (num_qubits - 1 - wire)) & 1) << (
                        num_qubits - 1 - qubit
                    )
                want = np.zeros((dim, dim), dtype=np.complex128)
                want[np.ix_(circuit_index, circuit_index)] = np.kron(
                    matrix, np.eye(2 ** (num_qubits - k))
                )
                got = embed_operator(matrix, targets, num_qubits)
                assert got.dtype == np.complex128 and got.flags.c_contiguous
                assert np.array_equal(got, want), (targets, num_qubits)

    def test_circuit_unitary_at_full_width(self):
        from repro.linalg.kron import embed_operator

        circuit = build_workload("brickwork", 8, seed=3)
        want = np.eye(2**8, dtype=np.complex128)
        for op in circuit.coherent_ops:
            embedded = embed_operator(op.gate.matrix, op.qubits, 8)
            assert np.array_equal(embedded, _embed_by_tensordot(op.gate.matrix, op.qubits, 8))
            want = _embed_by_tensordot(op.gate.matrix, op.qubits, 8) @ want
        assert np.array_equal(circuit.unitary(), want)
