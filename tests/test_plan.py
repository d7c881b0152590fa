"""Fused-plan noise windows: unitary-mixture classification, exact
branch probabilities, pre-embedded variant products, and the measurement
tail (classical steps and their index maps)."""

import itertools

import numpy as np
import pytest

import repro.channels.unitary_mixture as unitary_mixture_mod
from repro import Circuit, NoiseModel, depolarizing
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import (
    amplitude_damping,
    bit_flip,
    pauli_channel,
    two_qubit_depolarizing,
)
from repro.channels.unitary_mixture import as_unitary_mixture
from repro.circuits.gates import CCX
from repro.circuits.library import ghz, surface_syndrome
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import NoiseOp
from repro.config import Config
from repro.execution.plan import NoiseStep, build_fused_plan
from repro.linalg.fusion import expand_to_support, fuse_window_matrix, window_support
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng


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
        plan = build_fused_plan(_brickwork(12))
        assert plan.num_noise_steps == plan.num_steps == 14
        assert all(step.unitary for step in plan.steps)

    def test_general_site_makes_the_window_general(self, noisy_ghz3_general):
        plan = build_fused_plan(noisy_ghz3_general)
        noise = [s for s in plan.steps if isinstance(s, NoiseStep)]
        assert noise and not any(step.unitary for step in noise)
        (step,) = build_fused_plan(_mixed_window_circuit()).steps
        assert len(step.site_ids) == 2 and not step.unitary

    def test_one_analysis_per_distinct_channel_per_build(self, monkeypatch):
        analysed = []
        monkeypatch.setattr(
            unitary_mixture_mod,
            "as_unitary_mixture",
            lambda channel: analysed.append(channel) or as_unitary_mixture(channel),
        )
        circuit = _brickwork(12)
        build_fused_plan(circuit)
        distinct = {id(op.channel) for op in circuit if isinstance(op, NoiseOp)}
        assert len(distinct) == 3  # one object per noise-model rule
        assert len(analysed) == len(distinct)
        assert {id(ch) for ch in analysed} == distinct
        build_fused_plan(circuit)  # the analysis stays with the channels
        assert len(analysed) == len(distinct)

    def test_unitary_variants_are_unitary(self):
        plan = build_fused_plan(_brickwork(6))
        rng = np.random.default_rng(4)
        for step in plan.steps:
            if not isinstance(step, NoiseStep):
                continue
            key = tuple(int(rng.integers(len(ch))) for ch in step.channels)
            m = step.variant(key).matrix
            np.testing.assert_allclose(
                m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12
            )

    def test_lone_dominant_depolarizing_site_is_the_identity_tier(self):
        circ = Circuit(2).attach(depolarizing(0.1), 0)
        circ.attach(two_qubit_depolarizing(0.1), 0, 1)
        (step,) = build_fused_plan(circ.measure_all().freeze()).steps
        assert step.unitary and len(step.site_ids) == 2
        assert step.variant(step.dominant_key).tier == "identity"


class TestPreEmbeddedProduct:
    def test_bitwise_equal_to_fuse_window_matrix_on_brickwork_12q(self):
        """Every step of the benchmark circuit, dominant and random keys:
        the product over once-embedded factors is the very matrix
        fuse_window_matrix builds from scratch."""
        circuit = _brickwork(12)
        plan = build_fused_plan(circuit)
        windows = schedule_fusion_windows(circuit, plan.max_qubits)
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
        (step,) = build_fused_plan(circuit).steps
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
    def test_weight_is_the_in_order_product_of_nominal_probs(self):
        """No reduction enters the weight of a unitary-mixture trajectory:
        it is exactly the plan-order product of nominal probabilities, on
        both backends, and the PTS record's probability to rounding."""
        circuit = _brickwork(6)
        plan = build_fused_plan(circuit)
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
                key = [choices.get(site, d) for site, d in zip(step.site_ids, step.dominant_key)]
                for channel, idx in zip(step.channels, key):
                    window *= channel.nominal_probs[idx]
                weight *= window
            expected.append(weight)
        stacked = BatchedStatevectorBackend(6)
        weights, alive = stacked.run_fixed_stack(circuit, choices_list)
        assert alive.all()
        for spec, choices, want, got in zip(specs, choices_list, expected, weights):
            serial = StatevectorBackend(6)
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
        assert build_fused_plan(circuit).num_noise_steps == 19
        choices = {site.site_id: 1 for site in circuit.noise_sites[::17]}
        single = StatevectorBackend(16, config=Config(dtype=np.dtype(np.complex64)))
        double = StatevectorBackend(16)
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

        stacked = BatchedStatevectorBackend(2)
        weights, alive = stacked.run_fixed_stack(circuit, keys)
        assert stacked.renorm_seconds > 0.0 and alive.all()
        pooled = np.zeros(4)
        for row, choices in enumerate(keys):
            serial = StatevectorBackend(2)
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
        (step,) = build_fused_plan(circ).steps
        assert not step.unitary
        (site,) = step.site_ids
        priors = step.channels[0].nominal_probs
        for idx, exact in enumerate((1.0 - gamma, gamma)):
            sv = StatevectorBackend(1)
            weight = sv.run_fixed(circ, {site: idx})
            assert sv.renorm_seconds > 0.0
            assert weight == pytest.approx(exact, abs=1e-12)
            assert abs(weight - priors[idx]) > 0.1


def _one_step(build):
    """The single fused step of a 3-qubit circuit built by ``build``."""
    circ = Circuit(3)
    build(circ)
    (step,) = build_fused_plan(circ.measure_all().freeze()).steps
    return step


def _h_or_identity():
    """A unitary mixture with an H branch: scaled unitaries, not monomial."""
    from repro.channels.kraus import KrausChannel
    from repro.circuits.gates import H

    return KrausChannel("h_mix", [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * H.matrix])


def _noisy(circuit):
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    return model.apply(circuit).freeze()


def _noisy3(build):
    """A 3-qubit circuit built by ``build``, depolarizing after every CX."""
    circ = Circuit(3)
    build(circ)
    return _noisy(circ.measure_all())


class TestMeasurementTail:
    """Which steps are classical, where the tail starts, and each classical
    variant's index map against the compiled complex operator."""

    CLASSICAL = {
        "x": lambda c: c.x(0),
        "cx": lambda c: c.cx(0, 1),
        "cx reversed": lambda c: c.cx(2, 0),
        "ccx": lambda c: c.gate(CCX, 0, 1, 2),
        "swap": lambda c: c.swap(0, 2),
        "z": lambda c: c.z(1),
        "s": lambda c: c.s(1),
        "t": lambda c: c.t(1),
        "rz": lambda c: c.rz(0.3, 1),
        "cz": lambda c: c.cz(0, 1),
        "bit flip": lambda c: c.attach(bit_flip(0.1), 0),
        "pauli": lambda c: c.attach(pauli_channel(0.1, 0.05, 0.02), 1),
        "depolarizing": lambda c: c.attach(depolarizing(0.1), 2),
        "two-qubit depolarizing": lambda c: c.attach(two_qubit_depolarizing(0.1), 2, 0),
        "t + cx + depolarizing": lambda c: c.t(0).cx(0, 1).attach(
            two_qubit_depolarizing(0.1), 0, 1
        ),
    }
    NOT_CLASSICAL = {
        "h": lambda c: c.h(0),
        "ry": lambda c: c.ry(0.3, 0),
        "sx": lambda c: c.sx(0),
        "amplitude damping": lambda c: c.attach(amplitude_damping(0.1), 0),
        "unitary mixture with an H branch": lambda c: c.attach(_h_or_identity(), 0),
        "cx + h in one window": lambda c: c.cx(0, 1).h(1),
        "depolarizing + amplitude damping": lambda c: c.attach(depolarizing(0.1), 0).attach(
            amplitude_damping(0.1), 0
        ),
    }

    @pytest.mark.parametrize("name", sorted(CLASSICAL))
    def test_monomial_windows_are_classical(self, name):
        assert _one_step(self.CLASSICAL[name]).classical

    @pytest.mark.parametrize("name", sorted(NOT_CLASSICAL))
    def test_other_windows_are_not(self, name):
        assert not _one_step(self.NOT_CLASSICAL[name]).classical

    def test_h_mixture_is_a_unitary_mixture_all_the_same(self):
        step = _one_step(self.NOT_CLASSICAL["unitary mixture with an H branch"])
        assert step.unitary and not step.classical

    @pytest.mark.parametrize(
        "circuit, tail, steps",
        [
            (lambda: _brickwork(12), 6, 14),
            (lambda: _brickwork(16), 8, 19),
            (lambda: _noisy(ghz(10, measure=True)), 4, 5),
            (lambda: _noisy(surface_syndrome(17, measure=True)), 4, 10),
        ],
        ids=["brickwork12", "brickwork16", "ghz10", "surface_syndrome17"],
    )
    def test_tail_counts(self, circuit, tail, steps):
        plan = build_fused_plan(circuit())
        assert (plan.num_steps - plan.tail, plan.num_steps) == (tail, steps)
        assert all(step.classical for step in plan.steps[plan.tail :])
        assert not plan.steps[plan.tail - 1].classical

    def test_no_classical_suffix_is_an_empty_tail(self):
        plan = build_fused_plan(Circuit(2).cx(0, 1).h(1).measure_all().freeze())
        assert plan.tail == plan.num_steps

    @pytest.mark.parametrize(
        "circuit",
        [
            lambda: _brickwork(12),
            lambda: _noisy(surface_syndrome(17, measure=True)),
            lambda: _noisy3(lambda c: c.attach(two_qubit_depolarizing(0.1), 2, 0)),
            lambda: _noisy3(lambda c: c.gate(CCX, 2, 0, 1)),
        ],
        ids=["brickwork12", "surface_syndrome17", "site-on-2-0", "ccx-on-2-0-1"],
    )
    def test_index_map_is_the_variant_pattern(self, circuit):
        """For dominant and random keys, every tail step's map is the
        nonzero column of each row of the compiled variant, once that
        variant is read on the ascending support."""
        plan = build_fused_plan(circuit())
        assert plan.tail < plan.num_steps
        rng = np.random.default_rng(3)
        for step in plan.steps[plan.tail :]:
            channels = getattr(step, "channels", ())
            keys = [step.dominant_key] + [
                tuple(int(rng.integers(len(ch))) for ch in channels) for _ in range(4)
            ]
            for key in keys:
                op = step.variant(key)
                matrix = expand_to_support(op.matrix, op.targets, step.support)
                assert (np.count_nonzero(matrix, axis=1) == 1).all()
                np.testing.assert_array_equal(
                    step.permutation(key), np.argmax(matrix != 0, axis=1)
                )
                np.testing.assert_allclose(np.abs(matrix[matrix != 0]), 1.0, atol=1e-15)
