"""Fused-plan noise windows: unitary-mixture classification, exact
branch probabilities, pre-embedded variant products."""

import itertools

import numpy as np
import pytest

import repro.trajectory.unitary_cache as unitary_cache_mod
from repro import Circuit, NoiseModel, depolarizing
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import (
    amplitude_damping,
    two_qubit_depolarizing,
)
from repro.channels.unitary_mixture import as_unitary_mixture
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import NoiseOp
from repro.config import Config
from repro.execution.plan import NoiseStep, build_fused_plan
from repro.linalg.fusion import fuse_window_matrix, window_support
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng

#: Structural tests pin fusion on: the suite also runs under REPRO_FUSION=off.
AUTO = Config(fusion="auto")


def _brickwork(num_qubits, layers=4):
    """The benchmark's H/T/CX brickwork, depolarizing noise on every gate."""
    circ = Circuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("h", depolarizing(0.002))
        .add_all_qubit_gate_noise("t", depolarizing(0.002))
    )
    return model.apply(circ).freeze()


def _mixed_window_circuit():
    """One fused window holding a depolarizing and an amplitude-damping site."""
    circ = Circuit(2).h(0)
    circ.attach(depolarizing(0.1), 0)
    circ.cx(0, 1)
    circ.attach(amplitude_damping(0.2), 1)
    return circ.measure_all().freeze()


class TestClassification:
    def test_depolarizing_windows_are_unitary(self):
        plan = build_fused_plan(_brickwork(12), AUTO)
        assert plan.num_noise_steps == plan.num_steps == 14
        assert all(step.unitary for step in plan.steps)

    def test_general_site_makes_the_window_general(self, noisy_ghz3_general):
        plan = build_fused_plan(noisy_ghz3_general)
        noise = [s for s in plan.steps if isinstance(s, NoiseStep)]
        assert noise and not any(step.unitary for step in noise)
        (step,) = build_fused_plan(_mixed_window_circuit(), AUTO).steps
        assert len(step.site_ids) == 2 and not step.unitary

    def test_one_analysis_per_distinct_channel_per_build(self, monkeypatch):
        analysed = []
        monkeypatch.setattr(
            unitary_cache_mod,
            "as_unitary_mixture",
            lambda channel: analysed.append(channel) or as_unitary_mixture(channel),
        )
        circuit = _brickwork(12)
        build_fused_plan(circuit)
        distinct = {id(op.channel) for op in circuit if isinstance(op, NoiseOp)}
        assert len(distinct) == 3  # one object per noise-model rule
        assert len(analysed) == len(distinct)
        assert {id(ch) for ch in analysed} == distinct

    @pytest.mark.parametrize("fusion", ["auto", "off"])
    def test_unitary_variants_are_unitary(self, fusion):
        plan = build_fused_plan(_brickwork(6), Config(fusion=fusion))
        rng = np.random.default_rng(4)
        for step in plan.steps:
            if not isinstance(step, NoiseStep):
                continue
            key = tuple(int(rng.integers(len(ch))) for ch in step.channels)
            m = step.variant(key).matrix
            np.testing.assert_allclose(
                m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12
            )

    def test_unfused_dominant_depolarizing_branch_is_the_identity_tier(self):
        plan = build_fused_plan(_brickwork(6), Config(fusion="off"))
        noise = [s for s in plan.steps if isinstance(s, NoiseStep)]
        assert noise
        for step in noise:
            assert step.variant(step.dominant_key).tier == "identity"


class TestPreEmbeddedProduct:
    def test_bitwise_equal_to_fuse_window_matrix_on_brickwork_12q(self):
        """Every step of the benchmark circuit, dominant and random keys:
        the product over once-embedded factors is the very matrix
        fuse_window_matrix builds from scratch."""
        circuit = _brickwork(12)
        plan = build_fused_plan(circuit, AUTO)
        windows = schedule_fusion_windows(circuit, plan.fusion_max_qubits)
        assert len(windows) == plan.num_steps
        rng = np.random.default_rng(19)
        for step, window in zip(plan.steps, windows):
            support = window_support([op.qubits for op in window])
            assert step.targets == support
            keys = [step.dominant_key] + [
                tuple(int(rng.integers(len(ch))) for ch in step.channels)
                for _ in range(4)
            ]
            for key in keys:
                chosen = iter(key)
                factors = [
                    (
                        as_unitary_mixture(op.channel).unitaries[next(chosen)]
                        if isinstance(op, NoiseOp)
                        else op.gate.matrix,
                        op.qubits,
                    )
                    for op in window
                ]
                np.testing.assert_array_equal(
                    step.variant(key).matrix, fuse_window_matrix(factors, support)
                )

    def test_general_window_multiplies_the_kraus_operators(self):
        circuit = _mixed_window_circuit()
        (step,) = build_fused_plan(circuit, AUTO).steps
        ops = [op for op in circuit][:4]
        for key in itertools.product(range(4), range(2)):
            chosen = iter(key)
            factors = [
                (
                    op.channel.kraus_ops[next(chosen)]
                    if isinstance(op, NoiseOp)
                    else op.gate.matrix,
                    op.qubits,
                )
                for op in ops
            ]
            np.testing.assert_array_equal(
                step.variant(key).matrix, fuse_window_matrix(factors, (0, 1))
            )


class TestUnitaryWindowWeights:
    @pytest.mark.parametrize("fusion", ["auto", "off"])
    def test_weight_is_the_in_order_product_of_nominal_probs(self, fusion):
        """No reduction enters the weight of a unitary-mixture trajectory:
        it is exactly the plan-order product of nominal probabilities, on
        both backends, and the PTS record's probability to rounding."""
        config = Config(fusion=fusion)
        circuit = _brickwork(6)
        plan = build_fused_plan(circuit, config)
        specs = ProbabilisticPTS(nsamples=300, nshots=10).sample(
            circuit, make_rng(5)
        ).specs
        assert any(spec.record.events for spec in specs)
        choices_list = [spec.record.choices for spec in specs]
        expected = []
        for choices in choices_list:
            weight = 1.0
            for step in plan.steps:
                if not isinstance(step, NoiseStep):
                    continue
                window = 1.0
                for channel, idx in zip(step.channels, step.key_for(choices)):
                    window *= channel.nominal_probs[idx]
                weight *= window
            expected.append(weight)
        stacked = BatchedStatevectorBackend(6, config=config)
        weights, alive = stacked.run_fixed_stack(circuit, choices_list)
        assert alive.all()
        for spec, choices, want, got in zip(specs, choices_list, expected, weights):
            serial = StatevectorBackend(6, config=config)
            assert serial.run_fixed(circuit, choices) == want
            assert got == want
            assert want == pytest.approx(spec.record.nominal_probability, rel=1e-12)

    def test_no_reduction_on_a_depolarizing_only_circuit(
        self, noisy_ghz3, monkeypatch
    ):
        import repro.backends.batched_statevector as stacked_mod

        def boom(*args, **kwargs):
            raise AssertionError("unitary-mixture window ran a norm reduction")

        # The serial backend prepares through the same stacked module.
        monkeypatch.setattr(stacked_mod, "row_norms_squared", boom)
        serial = StatevectorBackend(3)
        serial.run_fixed(noisy_ghz3, {0: 1})
        assert serial.renorm_seconds == 0.0
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}, {1: 2}])
        assert stacked.renorm_seconds == 0.0

    def test_complex64_brickwork_16q_keeps_its_norm(self):
        """19 windows and not one renormalization: single precision must
        still end on a unit state and the complex128 distribution."""
        circuit = _brickwork(16)
        assert build_fused_plan(circuit, AUTO).num_noise_steps == 19
        choices = {site.site_id: 1 for site in circuit.noise_sites[::17]}
        single = StatevectorBackend(
            16, config=Config(fusion="auto", dtype=np.dtype(np.complex64))
        )
        double = StatevectorBackend(16, config=AUTO)
        assert single.run_fixed(circuit, choices) == double.run_fixed(circuit, choices)
        assert single.renorm_seconds == 0.0
        assert abs(single.norm_squared() - 1.0) < 1e-5
        tvd = 0.5 * np.abs(single.probabilities() - double.probabilities()).sum()
        assert tvd < 1e-6


class TestMixedWindow:
    """Depolarizing and amplitude damping fused into one window: the
    general path, checked against the exact density matrix."""

    def test_takes_the_general_path_and_matches_the_density_matrix(self):
        circuit = _mixed_window_circuit()
        keys = [
            {0: a, 1: b} for a, b in itertools.product(range(4), range(2))
        ]
        exact = DensityMatrixBackend(2).run(circuit).probabilities()

        stacked = BatchedStatevectorBackend(2, config=AUTO)
        weights, alive = stacked.run_fixed_stack(circuit, keys)
        assert stacked.renorm_seconds > 0.0 and alive.all()
        pooled = np.zeros(4)
        for row, choices in enumerate(keys):
            serial = StatevectorBackend(2, config=AUTO)
            weight = serial.run_fixed(circuit, choices)
            assert serial.renorm_seconds > 0.0
            assert weights[row] == weight
            np.testing.assert_array_equal(
                stacked.statevector(row), serial.statevector
            )
            pooled += weight * serial.probabilities()
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pooled, exact, atol=1e-12)

    def test_general_window_weight_is_the_measured_norm_not_the_prior(self):
        gamma = 0.3
        circ = Circuit(1).x(0)
        circ.attach(amplitude_damping(gamma), 0)
        circ = circ.measure_all().freeze()
        (step,) = build_fused_plan(circ, AUTO).steps
        assert not step.unitary
        (site,) = step.site_ids
        priors = step.channels[0].nominal_probs
        for idx, exact in enumerate((1.0 - gamma, gamma)):
            sv = StatevectorBackend(1, config=AUTO)
            weight = sv.run_fixed(circ, {site: idx})
            assert sv.renorm_seconds > 0.0
            assert weight == pytest.approx(exact, abs=1e-12)
            assert abs(weight - priors[idx]) > 0.1
