"""Dense statevector backend: gate application, sampling, collapse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.statevector import StatevectorBackend, bits_from_indices
from repro.channels.pauli import PauliString
from repro.channels.standard import amplitude_damping, depolarizing
from repro.circuits import Circuit
from repro.circuits.gates import CX, H, T, X
from repro.config import Config
from repro.errors import BackendError, CapacityError, ZeroProbabilityTrajectory
from repro.linalg import random_unitary
from repro.rng import make_rng


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
