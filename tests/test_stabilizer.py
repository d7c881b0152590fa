"""CHP tableau backend: gate semantics, measurement, noise, vs statevector."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def rowsum_into(tab, hx, hz, hr, i):
    """Multiply row (hx, hz, hr) by tableau row i: the per-row rowsum the
    prefix-XOR sign replaced, kept as its oracle."""
    g = int(StabilizerBackend._g_vector(tab.x[i], tab.z[i], hx, hz).sum())
    phase = (2 * int(hr) + 2 * int(tab.r[i]) + g) % 4
    return hx ^ tab.x[i], hz ^ tab.z[i], 1 if phase == 2 else 0


def rowsum_product(tab, rows):
    hx = np.zeros(tab.num_qubits, dtype=np.uint8)
    hz = np.zeros(tab.num_qubits, dtype=np.uint8)
    hr = 0
    for i in rows:
        hx, hz, hr = rowsum_into(tab, hx, hz, hr, i)
    return hx, hz, hr


def reference_measure(tab, qubit, force):
    """``measure`` as it was with the per-row loop (forced random outcomes)."""
    n = tab.num_qubits
    stab_rows = np.nonzero(tab.x[n:, qubit])[0]
    if stab_rows.size > 0:
        p = int(stab_rows[0]) + n
        for i in range(2 * n):
            if i != p and tab.x[i, qubit]:
                tab.x[i], tab.z[i], tab.r[i] = rowsum_into(tab, tab.x[i], tab.z[i], tab.r[i], p)
        tab.x[p - n], tab.z[p - n], tab.r[p - n] = tab.x[p], tab.z[p], tab.r[p]
        tab.x[p] = 0
        tab.z[p] = 0
        tab.z[p, qubit] = 1
        tab.r[p] = force
        return force, True
    rows = [i + n for i in range(n) if tab.x[i, qubit]]
    return rowsum_product(tab, rows)[2], False


def reference_expectation(tab, pauli):
    """``expectation_pauli`` as it was with the per-row loop."""
    n = tab.num_qubits
    tx, tz = pauli.x.astype(np.uint8), pauli.z.astype(np.uint8)
    rows = [
        i + n for i in range(n)
        if (int(np.count_nonzero(tab.x[i] & tz)) + int(np.count_nonzero(tab.z[i] & tx))) % 2
    ]
    hx, hz, hr = rowsum_product(tab, rows)
    if not (np.array_equal(hx, tx) and np.array_equal(hz, tz)):
        return 0
    return int(round((-1.0 if hr else 1.0) * np.real(pauli.phase_factor())))


_GATES = {name: 2 if name in ("cx", "cz", "swap") else 1 for name in StabilizerBackend._GATE_DISPATCH}


@st.composite
def tableaux(draw, max_qubits=6):
    """A tableau after drawn gates and drawn forced measurements, so its
    signs and rows are far from the initial ones."""
    n = draw(st.integers(1, max_qubits))
    tab = StabilizerBackend(n)
    for _ in range(draw(st.integers(0, 5 * n))):
        name = draw(st.sampled_from(sorted(_GATES)))
        if _GATES[name] > n:
            continue
        if draw(st.integers(0, 5)) == 0:
            tab.measure(draw(st.integers(0, n - 1)), force=draw(st.integers(0, 1)))
        qubits = draw(st.permutations(range(n)))[: _GATES[name]]
        tab.apply_gate_by_name(name, qubits)
    return tab


class TestSignHelper:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tableaux(), st.data())
    def test_prefix_xor_sign_equals_the_per_row_loop(self, tab, data):
        n = tab.num_qubits
        rows = data.draw(st.lists(st.integers(n, 2 * n - 1), unique=True))
        hx, hz, hr = tab._product_sign(np.array(rows, dtype=np.intp))
        ox, oz, orr = rowsum_product(tab, rows)
        np.testing.assert_array_equal(hx, ox)
        np.testing.assert_array_equal(hz, oz)
        assert hr == orr

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tableaux(), st.data())
    def test_measure_many_equals_the_per_row_loop(self, tab, data):
        n = tab.num_qubits
        qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        forces = {i: data.draw(st.integers(0, 1)) for i in range(len(qubits))}
        oracle = tab.copy()
        expected = [reference_measure(oracle, q, forces[i]) for i, q in enumerate(qubits)]
        outcomes, flags = tab.measure_many(qubits, forces=forces)
        assert list(zip(outcomes, flags)) == expected
        for array in ("x", "z", "r"):
            np.testing.assert_array_equal(getattr(tab, array), getattr(oracle, array))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tableaux(), st.data())
    def test_expectation_pauli_equals_the_per_row_loop(self, tab, data):
        n = tab.num_qubits
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        if data.draw(st.booleans()):
            # A member of the stabilizer group, up to sign: the +/-1 cases.
            rows = data.draw(st.lists(st.integers(n, 2 * n - 1), unique=True))
            x, z, _ = rowsum_product(tab, rows)
        else:
            x, z = np.array(data.draw(bits)), np.array(data.draw(bits))
        phase = int(np.count_nonzero(x & z)) + 2 * data.draw(st.integers(0, 1))
        pauli = PauliString(np.asarray(x, dtype=np.uint8), np.asarray(z, dtype=np.uint8), phase % 4)
        assert tab.expectation_pauli(pauli) == reference_expectation(tab, pauli)


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
