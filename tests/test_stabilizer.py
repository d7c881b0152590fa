"""CHP tableau backend: gate semantics, measurement, noise, vs statevector."""

import numpy as np
import pytest

from repro.backends.stabilizer import StabilizerBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.pauli import PauliString, pauli_from_unitary
from repro.channels.standard import amplitude_damping, depolarizing
from repro.circuits import Circuit, library
from repro.data.stats import empirical_distribution, total_variation_distance
from repro.errors import BackendError
from repro.rng import make_rng


class TestGateSemantics:
    @pytest.mark.parametrize("gate_name", ["h", "s", "sdg", "sx", "sxdg", "sy", "sydg"])
    def test_single_qubit_cliffords_match_statevector(self, gate_name):
        """Tableau conjugation must match dense simulation on all of a
        tomographically complete set of states."""
        from repro.circuits.gates import gate_by_name

        for prep in ([], ["h"], ["h", "s"]):
            circ = Circuit(1)
            for p in prep:
                getattr(circ, p)(0)
            getattr(circ, gate_name)(0)
            circ.measure_all()
            circ.freeze()
            sv = StatevectorBackend(1)
            sv.run_fixed(circ)
            st = StabilizerBackend(1)
            st.run(circ)
            sv_bits = sv.sample(4000, [0], make_rng(1))
            st_bits = st.sample(4000, [0], make_rng(2))
            assert abs(sv_bits.mean() - st_bits.mean()) < 0.05

    def test_clifford_circuit_distribution_matches_statevector(self):
        circ = (
            Circuit(4).h(0).cx(0, 1).s(1).cz(1, 2).sx(2).cx(2, 3).sy(3).swap(0, 3)
        )
        circ.measure_all().freeze()
        sv = StatevectorBackend(4)
        sv.run_fixed(circ)
        st = StabilizerBackend(4)
        st.run(circ)
        sv_dist = empirical_distribution(sv.sample(20000, range(4), make_rng(3)))
        st_dist = empirical_distribution(st.sample(20000, range(4), make_rng(4)))
        assert total_variation_distance(sv_dist, st_dist) < 0.03

    def test_non_clifford_rejected(self):
        st = StabilizerBackend(1)
        with pytest.raises(BackendError):
            st.apply_gate_by_name("t", [0])


class TestMeasurement:
    def test_deterministic_measurement(self):
        st = StabilizerBackend(2)
        st.xgate(1)
        out, was_random = st.measure(1)
        assert out == 1 and not was_random
        out, was_random = st.measure(0)
        assert out == 0 and not was_random

    def test_random_measurement_collapses(self):
        st = StabilizerBackend(1)
        st.h(0)
        out, was_random = st.measure(0, rng=make_rng(0))
        assert was_random
        again, was_random2 = st.measure(0, rng=make_rng(1))
        assert not was_random2 and again == out

    def test_forced_outcome(self):
        st = StabilizerBackend(1)
        st.h(0)
        out, _ = st.measure(0, force=1)
        assert out == 1

    def test_ghz_correlations(self):
        for seed in range(5):
            st = StabilizerBackend(3)
            st.h(0)
            st.cx(0, 1)
            st.cx(1, 2)
            outs, flags = st.measure_many([0, 1, 2], rng=make_rng(seed))
            assert flags == [True, False, False]
            assert outs[0] == outs[1] == outs[2]

    def test_measure_statistics(self):
        ones = 0
        st0 = StabilizerBackend(1)
        st0.h(0)
        rng = make_rng(5)
        for _ in range(400):
            work = st0.copy()
            out, _ = work.measure(0, rng=rng)
            ones += out
        assert abs(ones / 400 - 0.5) < 0.1


class TestStabilizerQueries:
    def test_expectation_pauli_on_bell(self):
        st = StabilizerBackend(2)
        st.h(0)
        st.cx(0, 1)
        assert st.expectation_pauli(PauliString.from_label("XX")) == 1
        assert st.expectation_pauli(PauliString.from_label("ZZ")) == 1
        assert st.expectation_pauli(PauliString.from_label("YY")) == -1
        assert st.expectation_pauli(PauliString.from_label("ZI")) == 0

    def test_expectation_after_x(self):
        st = StabilizerBackend(1)
        st.xgate(0)
        assert st.expectation_pauli(PauliString.from_label("Z")) == -1

    def test_generators_stabilize_statevector(self):
        """Cross-check: tableau generators have +1 expectation on the dense
        state produced by the same circuit."""
        circ = Circuit(3).h(0).cx(0, 1).s(1).cx(1, 2).sx(2)
        st = StabilizerBackend(3)
        sv = StatevectorBackend(3)
        for op in circ.coherent_ops:
            st.apply_gate_by_name(op.gate.name, op.qubits)
            sv.apply_gate(op.gate, op.qubits)
        for gen in st.stabilizer_generators():
            assert sv.expectation_pauli(gen) == pytest.approx(1.0, abs=1e-9)


class TestNoise:
    def test_pauli_mixture_sampling(self, rng):
        st = StabilizerBackend(1)
        idx = st.apply_pauli_mixture(depolarizing(0.5), [0], rng=rng)
        assert idx in (0, 1, 2, 3)

    def test_fixed_index(self):
        st = StabilizerBackend(1)
        st.apply_pauli_mixture(depolarizing(0.5), [0], index=1)  # X
        assert st.expectation_pauli(PauliString.from_label("Z")) == -1

    def test_non_pauli_channel_rejected(self, rng):
        st = StabilizerBackend(1)
        with pytest.raises(BackendError):
            st.apply_pauli_mixture(amplitude_damping(0.1), [0], rng=rng)

    def test_noisy_circuit_run_with_choices(self, noisy_ghz3):
        st = StabilizerBackend(3)
        st.run(noisy_ghz3, kraus_choices={0: 1})
        # X on qubit 0 after first CX: still a stabilizer state.
        outs, _ = st.measure_many([0, 1, 2], rng=make_rng(0))
        assert len(outs) == 3


class TestPauliRecognition:
    def test_recognizes_paulis(self):
        assert pauli_from_unitary(np.array([[0, 1], [1, 0]]), 1).label() == "X"
        y = np.array([[0, -1j], [1j, 0]])
        assert pauli_from_unitary(y, 1).label() == "Y"

    def test_recognizes_phased_pauli(self):
        z = 1j * np.diag([1, -1]).astype(complex)
        assert pauli_from_unitary(z, 1).label() == "Z"

    def test_rejects_non_pauli(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert pauli_from_unitary(h, 1) is None
