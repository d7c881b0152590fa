"""Dense statevector backend: gate application, sampling, collapse, and
the measurement tail the dense walk samples through."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NoiseModel
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend, bits_from_indices
from repro.channels.pauli import PauliString
from repro.channels.standard import amplitude_damping, bit_flip, depolarizing
from repro.circuits import Circuit
from repro.circuits.operations import NoiseOp
from repro.circuits.gates import CX, H, T, X
from repro.config import Config
from repro.errors import BackendError, CapacityError, ZeroProbabilityTrajectory
from repro.execution.plan import get_fused_plan
from repro.prescriptions import as_prescriptions, site_table
from repro.rng import make_rng

from haar import random_unitary


class TestBasics:
    def test_initial_state(self):
        sv = StatevectorBackend(3)
        assert sv.statevector[0] == 1.0
        assert sv.norm_squared() == pytest.approx(1.0)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            StatevectorBackend(40)

    def test_reset(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        sv.reset()
        assert abs(sv.statevector[0] - 1.0) < 1e-12

    def test_set_statevector_validates_dim(self):
        sv = StatevectorBackend(2)
        with pytest.raises(BackendError):
            sv.set_statevector(np.ones(3))

    def test_set_statevector_normalize(self):
        sv = StatevectorBackend(1)
        sv.set_statevector(np.array([3.0, 4.0]), normalize=True)
        assert sv.norm_squared() == pytest.approx(1.0)


class TestGateApplication:
    def test_x_flips(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(X, [1])
        assert abs(sv.statevector[0b01]) == pytest.approx(1.0)

    def test_cx_ordering(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(X, [0])
        sv.apply_gate(CX, [0, 1])
        assert abs(sv.statevector[0b11]) == pytest.approx(1.0)

    def test_cx_reversed_targets(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(X, [1])
        sv.apply_gate(CX, [1, 0])  # control qubit 1
        assert abs(sv.statevector[0b11]) == pytest.approx(1.0)

    def test_matches_dense_unitary(self, rng):
        circ = Circuit(3).h(0).cx(0, 1).t(1).cz(1, 2).sx(2)
        sv = StatevectorBackend(3)
        for op in circ.coherent_ops:
            sv.apply_gate(op.gate, op.qubits)
        expected = circ.unitary() @ np.eye(8)[:, 0]
        assert np.allclose(sv.statevector, expected)

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_random_two_qubit_gate_preserves_norm(self, a, b):
        if a == b:
            return
        sv = StatevectorBackend(4)
        sv.apply_gate(H, [0])
        sv.apply_gate(CX, [0, 2])
        u = random_unitary(4, np.random.default_rng(0))
        sv.apply_matrix(u, [a, b])
        assert sv.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BackendError):
            StatevectorBackend(2).apply_matrix(np.eye(2), [0, 1])

    def test_duplicate_targets_rejected(self):
        with pytest.raises(BackendError):
            StatevectorBackend(2).apply_matrix(np.eye(4), [0, 0])


class TestKrausApplication:
    def test_apply_channel_choice_returns_probability(self):
        sv = StatevectorBackend(1)
        sv.apply_gate(H, [0])
        ch = amplitude_damping(0.4)
        # branch 1 = decay: <psi|K1^dag K1|psi> = 0.4 * |<1|psi>|^2 = 0.2
        prob = sv.apply_channel_choice(ch, [0], 1)
        assert prob == pytest.approx(0.2)
        assert sv.norm_squared() == pytest.approx(1.0)
        # post-decay state is |0>
        assert abs(sv.statevector[0]) == pytest.approx(1.0)

    def test_zero_probability_branch_raises(self):
        sv = StatevectorBackend(1)  # |0>: decay branch impossible
        with pytest.raises(BackendError):
            sv.apply_channel_choice(amplitude_damping(0.4), [0], 1)

    def test_branch_probabilities_sum_to_one(self, rng):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        sv.apply_gate(CX, [0, 1])
        probs = sv.branch_probabilities(amplitude_damping(0.3), [1])
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_branch_probabilities_match_nominal_for_mixture(self):
        sv = StatevectorBackend(1)
        sv.apply_gate(H, [0])
        probs = sv.branch_probabilities(depolarizing(0.3), [0])
        assert np.allclose(probs, depolarizing(0.3).nominal_probs, atol=1e-10)


class TestSampling:
    def test_deterministic_state_samples_constant(self, rng):
        sv = StatevectorBackend(3)
        sv.apply_gate(X, [1])
        bits = sv.sample(100, [0, 1, 2], rng)
        assert np.all(bits == [0, 1, 0])

    def test_uniform_superposition_statistics(self, rng):
        sv = StatevectorBackend(1)
        sv.apply_gate(H, [0])
        bits = sv.sample(20000, [0], rng)
        assert abs(bits.mean() - 0.5) < 0.02

    def test_marginal_sampling_of_subset(self, rng):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        sv.apply_gate(CX, [0, 1])  # Bell state
        bits = sv.sample(5000, [1], rng)
        assert abs(bits.mean() - 0.5) < 0.05

    def test_bell_correlations(self, rng):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        sv.apply_gate(CX, [0, 1])
        bits = sv.sample(2000, [0, 1], rng)
        assert np.all(bits[:, 0] == bits[:, 1])

    def test_column_order_follows_request(self, rng):
        sv = StatevectorBackend(2)
        sv.apply_gate(X, [0])
        bits = sv.sample(10, [1, 0], rng)
        assert np.all(bits[:, 0] == 0) and np.all(bits[:, 1] == 1)

    def test_zero_shots(self, rng):
        sv = StatevectorBackend(2)
        assert sv.sample(0, [0], rng).shape == (0, 1)

    def test_negative_shots_rejected(self, rng):
        with pytest.raises(BackendError):
            StatevectorBackend(1).sample(-1, [0], rng)

    def test_sampling_reproducible_per_seed(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        a = sv.sample(50, [0, 1], make_rng(3))
        b = sv.sample(50, [0, 1], make_rng(3))
        assert np.array_equal(a, b)

    def test_probability_cache_invalidation(self, rng):
        sv = StatevectorBackend(1)
        sv.probabilities()
        sv.apply_gate(X, [0])
        assert sv.probabilities()[1] == pytest.approx(1.0)

    def test_probabilities_are_host_numpy(self, noisy_ghz3):
        backend = StatevectorBackend(3)
        backend.run_fixed(noisy_ghz3, {})
        probs = backend.probabilities()
        assert isinstance(probs, np.ndarray)
        assert probs.dtype == np.float64


class TestMeasurementPrimitives:
    def test_measure_probability_one(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [1])
        assert sv.measure_probability_one(1) == pytest.approx(0.5)
        assert sv.measure_probability_one(0) == pytest.approx(0.0)

    def test_collapse(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        sv.apply_gate(CX, [0, 1])
        p = sv.collapse(0, 1)
        assert p == pytest.approx(0.5)
        assert abs(sv.statevector[0b11]) == pytest.approx(1.0)

    def test_collapse_impossible_outcome(self):
        sv = StatevectorBackend(1)
        with pytest.raises(BackendError):
            sv.collapse(0, 1)

    def test_expectation_pauli(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        assert sv.expectation_pauli(PauliString.from_label("XI")) == pytest.approx(1.0)
        assert sv.expectation_pauli(PauliString.from_label("ZI")) == pytest.approx(0.0)
        assert sv.expectation_pauli(PauliString.from_label("IZ")) == pytest.approx(1.0)

    def test_expectation_pauli_y(self):
        sv = StatevectorBackend(1)
        sv.apply_gate(H, [0])
        sv.apply_matrix(np.array([[1, 0], [0, 1j]]), [0])  # S|+> = |+i>
        assert sv.expectation_pauli(PauliString.from_label("Y")) == pytest.approx(1.0)


def _plus3():
    """|+++>: every outcome of every qubit has probability 1/2."""
    sv = StatevectorBackend(3)
    for q in range(3):
        sv.apply_gate(H, [q])
    return sv


class TestQubitArgumentChecks:
    """A qubit outside the register is a BackendError, never a wrap to
    qubit n-1 (a negative index) nor a raw NumPy IndexError / AxisError."""

    @pytest.mark.parametrize("qubits", [[-1], [3], [0, -1]])
    def test_expectation_local(self, qubits):
        matrix = np.diag([1.0, -1.0] * 2 ** (len(qubits) - 1))
        with pytest.raises(BackendError, match=f"qubit {qubits[-1]} is outside a 3-qubit register"):
            _plus3().expectation_local(matrix, qubits)

    @pytest.mark.parametrize("qubit", [-1, 3])
    def test_measure_probability_one(self, qubit):
        with pytest.raises(BackendError, match=f"qubit {qubit} is outside a 3-qubit register"):
            _plus3().measure_probability_one(qubit)

    @pytest.mark.parametrize("qubit", [-1, 3])
    def test_collapse(self, qubit):
        sv = _plus3()
        before = sv.statevector.copy()
        with pytest.raises(BackendError, match=f"qubit {qubit} is outside a 3-qubit register"):
            sv.collapse(qubit, 1)
        np.testing.assert_array_equal(sv.statevector, before)


class TestOneRowView:
    """StatevectorBackend is row 0 of a one-row BatchedStatevectorBackend."""

    def test_serial_never_enters_a_stacked_entry_point(
        self, noisy_ghz3_general, monkeypatch
    ):
        """The view reaches the stack through its private helpers only, so
        a profile of the stack's public methods never nests inside it."""
        from repro.backends.batched_statevector import BatchedStatevectorBackend
        from repro.execution import run_ptsbe
        from repro.pts import ProbabilisticPTS

        def run():
            result = run_ptsbe(
                noisy_ghz3_general, ProbabilisticPTS(nsamples=60, nshots=300),
                seed=5, strategy="serial",
            )
            assert result.engine == "serial"
            return result.shot_table().bits

        want = run()

        def boom(*args, **kwargs):
            raise AssertionError("the one-row view called a stacked entry point")

        for name in ("run_fixed_stack", "sample", "cumulative_stack"):
            monkeypatch.setattr(BatchedStatevectorBackend, name, boom)
        np.testing.assert_array_equal(run(), want)

    def test_circuit_narrower_than_the_register(self):
        """A 2-qubit circuit on 3 qubits acts on the leading two; the third
        stays |0>, the least significant bit of every index."""
        circ = Circuit(2).h(0).cx(0, 1)
        circ.attach(amplitude_damping(0.3), 1)
        circ = circ.measure_all().freeze()
        narrow, wide = StatevectorBackend(2), StatevectorBackend(3)
        for choices in ({}, {0: 1}):
            weight = wide.run_fixed(circ, choices)
            assert weight == pytest.approx(narrow.run_fixed(circ, choices), rel=1e-14)
            np.testing.assert_allclose(
                wide.probabilities(), np.kron(narrow.probabilities(), [1.0, 0.0]), atol=1e-15
            )
        # The decay branch on the Bell pair leaves |10>, i.e. |100>.
        assert weight == pytest.approx(0.15)
        assert wide.probabilities()[0b100] == pytest.approx(1.0)
        assert np.all(wide.sample(20, [0, 1, 2], make_rng(0)) == [1, 0, 0])

    def test_run_fixed_refuses_a_table_of_other_than_one_row(self):
        circ = Circuit(2).h(0).cx(0, 1)
        circ.attach(amplitude_damping(0.3), 1)
        circ = circ.measure_all().freeze()
        sv = StatevectorBackend(2)
        for rows in ([{}, {0: 1}, {}], []):
            table = as_prescriptions(site_table(circ), rows)
            with pytest.raises(BackendError, match=f"got a {len(rows)}-row table"):
                sv.run_fixed(circ, table)
        assert sv.run_fixed(circ, as_prescriptions(site_table(circ), [{0: 1}])) == pytest.approx(0.15)
        assert sv.stack.batch_size == 1

    def test_copy_is_independent(self):
        sv = StatevectorBackend(2)
        sv.apply_gate(H, [0])
        twin = sv.copy()
        assert twin.stack is not sv.stack
        np.testing.assert_array_equal(twin.statevector, sv.statevector)
        twin.apply_gate(X, [1])
        assert abs(sv.statevector[0b01]) == 0.0
        assert abs(twin.statevector[0b01]) == pytest.approx(2**-0.5)
        sv.collapse(0, 1)
        assert abs(twin.statevector[0b01]) == pytest.approx(2**-0.5)

    def test_state_writes_go_through_to_row_zero(self):
        sv = StatevectorBackend(2)
        sv.set_statevector(np.array([0.0, 3.0, 0.0, 4.0]), normalize=True)
        np.testing.assert_allclose(sv.stack.statevector(0), [0.0, 0.6, 0.0, 0.8])
        assert sv.stack.batch_size == 1
        assert sv.collapse(0, 1) == pytest.approx(0.64)
        np.testing.assert_allclose(sv.stack.statevector(0), [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(sv.stack.probabilities(0), [0.0, 0.0, 0.0, 1.0])
        sv.apply_gate(X, [1])
        np.testing.assert_allclose(sv.stack.statevector(0), [0.0, 0.0, 1.0, 0.0])

    def test_renorm_seconds_reads_the_stack(self, noisy_ghz3_general):
        sv = StatevectorBackend(3)
        sv.run_fixed(noisy_ghz3_general, {})
        assert sv.renorm_seconds == sv.stack.renorm_seconds > 0.0
        with pytest.raises(AttributeError):
            sv.renorm_seconds = 0.0

    def test_dead_row_raises_zero_probability(self):
        circ = Circuit(1).attach(amplitude_damping(0.1), 0).measure_all().freeze()
        sv = StatevectorBackend(1)
        with pytest.raises(ZeroProbabilityTrajectory):
            sv.run_fixed(circ, {0: 1})
        assert not sv.stack.alive[0]
        assert sv.run_fixed(circ, {}) == pytest.approx(1.0)


class TestBitsFromIndices:
    def test_msb_convention(self):
        bits = bits_from_indices(np.array([0b101]), [0, 1, 2], 3)
        assert bits.tolist() == [[1, 0, 1]]

    def test_subset_and_order(self):
        bits = bits_from_indices(np.array([0b110]), [2, 0], 3)
        assert bits.tolist() == [[0, 1]]


class TestRunFixed:
    def test_ideal_run(self, noisy_ghz3):
        sv = StatevectorBackend(3)
        weight = sv.run_fixed(noisy_ghz3, {})
        # All dominant branches: weight = prod (1 - p) over 4 sites.
        assert weight == pytest.approx((1 - 0.05) ** 4)
        probs = sv.probabilities()
        assert probs[0b000] == pytest.approx(0.5, abs=1e-9)
        assert probs[0b111] == pytest.approx(0.5, abs=1e-9)

    def test_error_injection_changes_distribution(self, noisy_ghz3):
        sv = StatevectorBackend(3)
        site = noisy_ghz3.noise_sites[0]
        # Kraus index 1 = X error on that qubit.
        sv.run_fixed(noisy_ghz3, {site.site_id: 1})
        probs = sv.probabilities()
        assert probs[0b000] < 0.1  # GHZ symmetry broken

    def test_unfrozen_circuit_rejected(self):
        circ = Circuit(1).h(0)
        with pytest.raises(Exception):
            StatevectorBackend(1).run_fixed(circ, {})

    def test_measured_qubit_reuse_rejected(self):
        circ = Circuit(2).h(0)
        circ.measure(0)
        circ.x(0)
        circ.freeze()
        with pytest.raises(BackendError):
            StatevectorBackend(2).run_fixed(circ, {})

    def test_complex64_mode(self):
        config = Config(dtype=np.dtype(np.complex64))
        sv = StatevectorBackend(2, config=config)
        sv.apply_gate(H, [0])
        assert sv.statevector.dtype == np.complex64
        assert sv.norm_squared() == pytest.approx(1.0, abs=1e-6)


def _tail_circuit(num_qubits=5, phases=True, noise=None):
    """Four H/T/CX brickwork layers (no T when not ``phases``) with ``noise``
    on both qubits of every CX of the first and the last layer: the last
    layer's T and CX windows are the plan's measurement tail."""
    noise = noise or depolarizing(0.1)
    circ = Circuit(num_qubits)
    for layer in range(4):
        for q in range(num_qubits):
            if layer % 2 == 0:
                circ.h(q)
            elif phases:
                circ.t(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            circ.cx(q, q + 1)
            if layer in (0, 3):
                circ.attach(noise, q).attach(noise, q + 1)
    return circ.measure_all().freeze()


def _tail_sites(circuit):
    """The noise sites of the plan's measurement tail."""
    plan = get_fused_plan(circuit)
    assert plan.tail < plan.num_steps
    return [site for step in plan.steps[plan.tail :] for site in getattr(step, "site_ids", ())]


@pytest.fixture
def tail_off(monkeypatch):
    """``tail_off(circuit)``: the circuit's plan walks every step on the
    amplitudes (the walk before the measurement tail), for this test."""

    def force(circuit):
        plan = get_fused_plan(circuit)
        monkeypatch.setattr(plan, "tail", plan.num_steps)

    return force


class TestMeasurementTail:
    """The lazy tail: every amplitude read is the full walk's state, bit
    for bit, and sampling sees the same distribution."""

    def _choices(self, circuit):
        tail = _tail_sites(circuit)
        # An X error inside the tail, a Y and a Z, and a dominant row.
        return [{}, {tail[0]: 1}, {tail[-1]: 2, 0: 1}, {tail[1]: 3}, {}]

    def _walked(self, circuit, choices_list, tail_off):
        reference = BatchedStatevectorBackend(circuit.num_qubits)
        tail_off(circuit)
        weights, _ = reference.run_fixed_stack(circuit, choices_list)
        assert reference._tail == []
        return reference, weights

    def test_statevector_after_a_lazy_stack_is_the_full_walk(self, tail_off):
        circuit = _tail_circuit()
        choices_list = self._choices(circuit)
        lazy = BatchedStatevectorBackend(5)
        weights, _ = lazy.run_fixed_stack(circuit, choices_list)
        assert len(lazy._tail) == get_fused_plan(circuit).num_steps - get_fused_plan(circuit).tail
        reference, want = self._walked(circuit, choices_list, tail_off)
        np.testing.assert_array_equal(weights, want)
        for row in range(len(choices_list)):
            np.testing.assert_array_equal(lazy.statevector(row), reference.statevector(row))
        np.testing.assert_array_equal(lazy.norms_squared(), reference.norms_squared())

    def test_lazy_probabilities_match_the_materialized_ones(self):
        circuit = _tail_circuit()
        choices_list = self._choices(circuit)
        lazy = BatchedStatevectorBackend(5)
        lazy.run_fixed_stack(circuit, choices_list)
        walked = BatchedStatevectorBackend(5)
        walked.run_fixed_stack(circuit, choices_list)
        walked.statevector(0)  # materializes the tail before any table
        for row in range(len(choices_list)):
            np.testing.assert_allclose(
                lazy.probabilities(row), walked.probabilities(row), rtol=0, atol=1e-15
            )
        np.testing.assert_allclose(
            lazy.cumulative_stack(), walked.cumulative_stack(), rtol=0, atol=1e-15
        )

    def test_gapped_tail_windows(self, tail_off):
        """CX fans onto non-adjacent qubits: tail windows with gaps."""
        circ = Circuit(6)
        for q in range(3):
            circ.h(q)
        circ.cx(0, 1).cx(1, 2).cx(0, 3).cx(2, 5).s(5).cx(1, 4).swap(0, 5).cx(3, 5)
        model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
        circuit = model.apply(circ.measure_all()).freeze()
        plan = get_fused_plan(circuit)
        supports = [step.support for step in plan.steps[plan.tail :]]
        assert supports == [(0, 3), (2, 5), (1, 4), (0, 3, 5)]
        tail = _tail_sites(circuit)
        choices_list = [{}, {tail[0]: 1}, {tail[2]: 2, tail[-1]: 1}, {tail[-2]: 3}]
        lazy = BatchedStatevectorBackend(6)
        lazy.run_fixed_stack(circuit, choices_list)
        cum = lazy.cumulative_stack()
        tail_off(circuit)
        walked = BatchedStatevectorBackend(6)
        walked.run_fixed_stack(circuit, choices_list)
        np.testing.assert_allclose(cum, walked.cumulative_stack(), rtol=0, atol=1e-15)
        for row in range(len(choices_list)):
            np.testing.assert_array_equal(lazy.statevector(row), walked.statevector(row))

    def test_lazy_probabilities_are_exact_without_a_phase(self):
        """A pure CX + bit-flip tail permutes the squares, bit for bit."""
        circuit = _tail_circuit(phases=False, noise=bit_flip(0.1))
        tail = _tail_sites(circuit)
        choices_list = [{}, {tail[0]: 1}, {tail[-1]: 1}]
        lazy = BatchedStatevectorBackend(5)
        lazy.run_fixed_stack(circuit, choices_list)
        walked = BatchedStatevectorBackend(5)
        walked.run_fixed_stack(circuit, choices_list)
        walked.statevector(0)
        np.testing.assert_array_equal(lazy.cumulative_stack(), walked.cumulative_stack())
        for row in range(len(choices_list)):
            np.testing.assert_array_equal(lazy.probabilities(row), walked.probabilities(row))

    def test_single_state_reads_after_a_lazy_run_fixed(self, tail_off):
        circuit = _tail_circuit()
        choices = {_tail_sites(circuit)[0]: 1}
        lazy = StatevectorBackend(5)
        weight = lazy.run_fixed(circuit, choices)
        probs = lazy.probabilities()  # lazy: read before any amplitude
        marginal = lazy.measure_probability_one(4)
        tail_off(circuit)
        walked = StatevectorBackend(5)
        assert walked.run_fixed(circuit, choices) == weight
        np.testing.assert_allclose(probs, walked.probabilities(), rtol=0, atol=1e-15)
        assert marginal == pytest.approx(walked.measure_probability_one(4), abs=1e-15)
        pauli = PauliString.from_label("XZIYZ")
        assert lazy.expectation_pauli(pauli) == walked.expectation_pauli(pauli)
        np.testing.assert_array_equal(lazy.copy().statevector, walked.statevector)
        assert lazy.collapse(2, 1) == walked.collapse(2, 1)
        np.testing.assert_array_equal(lazy.statevector, walked.statevector)

    def test_collapse_after_a_lazy_run_fixed_is_the_projection(self):
        circuit = _tail_circuit()
        lazy = StatevectorBackend(5)
        lazy.run_fixed(circuit, {_tail_sites(circuit)[1]: 1})
        before = np.array(lazy.statevector)
        prob = lazy.collapse(3, 0)
        psi = before.reshape((2,) * 5).copy()
        psi[:, :, :, 1] = 0
        assert prob == pytest.approx(np.sum(np.abs(psi) ** 2), abs=1e-14)
        np.testing.assert_allclose(
            lazy.statevector, psi.reshape(-1) / np.sqrt(prob), rtol=0, atol=1e-14
        )

    def test_every_trajectory_pooled_is_the_density_matrix(self):
        """Every Kraus combination of a 4-qubit circuit with noise in and
        before its tail, weighed and pooled from the lazy tables: the exact
        channel output (a permutation that skipped some rows would not)."""
        circuit = _tail_circuit(4)
        plan = get_fused_plan(circuit)
        sites = [op.site_id for op in circuit if isinstance(op, NoiseOp)]
        assert 0 < len(_tail_sites(circuit)) < len(sites) == 6
        choices_list = [
            dict(zip(sites, combo)) for combo in itertools.product(range(4), repeat=len(sites))
        ]
        stack = BatchedStatevectorBackend(4)
        weights, alive = stack.run_fixed_stack(circuit, choices_list)
        assert alive.all() and len(stack._tail) == plan.num_steps - plan.tail
        cum = stack.cumulative_stack()
        from_tables = weights @ np.diff(cum, axis=1, prepend=0.0)
        from_rows = sum(w * stack.probabilities(row) for row, w in enumerate(weights))
        exact = DensityMatrixBackend(4).run(circuit).probabilities()
        for pooled in (from_tables, from_rows):
            assert 0.5 * np.abs(pooled - exact).sum() < 1e-12


class TestTailMemory:
    def test_a_16_qubit_unit_peaks_no_higher_with_the_tail(self, tail_off):
        """One serial unit, prepared (with its draw table) and drawn: the
        tail never allocates more than the walk it replaces, and the plan
        holds no 2**n-sized array for any tail variant."""
        circuit = _tail_circuit(16)
        sites = _tail_sites(circuit)
        choices = {sites[0]: 1, sites[5]: 2, sites[-1]: 3}
        sv = StatevectorBackend(16)
        sv.run_fixed(circuit, choices)  # compiles the plan
        sv.release()

        def unit_peak():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sv.run_fixed(circuit, choices)
                sv.cumulative([1000])  # what the serial engine's prepare builds
                sv.sample(1000, list(range(16)), make_rng(1))
                sv.release()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        with_tail = unit_peak()
        plan = get_fused_plan(circuit)
        maps = [
            (step, part)
            for step in plan.steps[plan.tail :]
            for part in getattr(step, "_maps", {}).values()
        ]
        assert maps and all(part.size == 2 ** len(step.support) for step, part in maps)
        held = [part for _, part in maps] + [
            array
            for step in plan.steps
            for array in list(getattr(step, "_embedded", {}).values())
            + [getattr(step, "_map", None)]
            if array is not None
        ]
        held += [
            op.matrix for step in plan.steps for op in getattr(step, "_variants", {}).values()
        ]
        assert max(array.size for array in held) <= 2 ** (2 * plan.max_qubits) < 2**16
        tail_off(circuit)
        assert with_tail <= unit_peak()
