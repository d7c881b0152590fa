"""Kraus channels: CPTP verification, unitary-mixture detection, twirling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.kraus import KrausChannel
from repro.channels.standard import (
    amplitude_damping,
    bit_flip,
    depolarizing,
    generalized_amplitude_damping,
    pauli_channel,
    phase_damping,
    phase_flip,
    reset_channel,
    two_qubit_depolarizing,
)
import repro.channels.unitary_mixture as unitary_mixture_mod
from repro.channels.unitary_mixture import as_unitary_mixture
from repro.errors import ChannelError

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
small_probs = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)

ALL_CHANNELS = [
    depolarizing(0.1),
    two_qubit_depolarizing(0.05),
    bit_flip(0.2),
    phase_flip(0.15),
    pauli_channel(0.05, 0.02, 0.08),
    amplitude_damping(0.3),
    generalized_amplitude_damping(0.25, 0.1),
    phase_damping(0.2),
    reset_channel(0.1),
]


class TestCPTP:
    @pytest.mark.parametrize("channel", ALL_CHANNELS, ids=lambda c: c.name)
    def test_standard_channels_are_cptp(self, channel):
        dim = channel.dim
        total = sum(k.conj().T @ k for k in channel.kraus_ops)
        assert np.allclose(total, np.eye(dim), atol=1e-10)

    def test_cptp_violation_rejected(self):
        with pytest.raises(ChannelError):
            KrausChannel("bad", [np.eye(2) * 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ChannelError):
            KrausChannel("empty", [])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ChannelError):
            KrausChannel("bad", [np.eye(2), np.eye(4)])

    @pytest.mark.parametrize("channel", ALL_CHANNELS, ids=lambda c: c.name)
    def test_nominal_probs_sum_to_one(self, channel):
        assert abs(sum(channel.nominal_probs) - 1.0) < 1e-10

    @pytest.mark.parametrize("channel", ALL_CHANNELS, ids=lambda c: c.name)
    def test_choi_matrix_is_psd_with_trace_dim(self, channel):
        choi = channel.choi_matrix()
        eigs = np.linalg.eigvalsh(choi)
        assert eigs.min() > -1e-10
        assert abs(np.trace(choi).real - channel.dim) < 1e-9

    @given(small_probs)
    @settings(max_examples=25, deadline=None)
    def test_depolarizing_cptp_for_any_p(self, p):
        ch = depolarizing(p)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.allclose(total, np.eye(2), atol=1e-10)

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ChannelError):
            depolarizing(1.5)
        with pytest.raises(ChannelError):
            bit_flip(-0.1)
        with pytest.raises(ChannelError):
            pauli_channel(0.6, 0.5, 0.3)


class TestUnitaryMixture:
    @pytest.mark.parametrize(
        "channel",
        [depolarizing(0.1), bit_flip(0.2), phase_flip(0.1), pauli_channel(0.1, 0.05, 0.02),
         two_qubit_depolarizing(0.07)],
        ids=lambda c: c.name,
    )
    def test_pauli_channels_detected(self, channel):
        mixture = as_unitary_mixture(channel)
        assert mixture is not None
        assert abs(sum(mixture.probs) - 1.0) < 1e-9
        for u in mixture.unitaries:
            assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-9)

    @pytest.mark.parametrize(
        "channel",
        [amplitude_damping(0.3), phase_damping(0.2), reset_channel(0.2),
         generalized_amplitude_damping(0.2, 0.3)],
        ids=lambda c: c.name,
    )
    def test_general_channels_rejected(self, channel):
        assert as_unitary_mixture(channel) is None
        assert channel.mixture is None

    def test_mixture_reconstructs_kraus(self):
        ch = depolarizing(0.25)
        mixture = as_unitary_mixture(ch)
        for p, u, k in zip(mixture.probs, mixture.unitaries, ch.kraus_ops):
            assert np.allclose(np.sqrt(p) * u, k)

    @pytest.mark.parametrize(
        "channel",
        [depolarizing(1e-9), depolarizing(1e-12), pauli_channel(1e-10, 0, 0),
         two_qubit_depolarizing(1e-12)],
        ids=lambda c: c.name,
    )
    def test_rare_branches_are_recognized(self, channel):
        """K^dag K = p I is judged relative to p: a branch far below the
        absolute tolerance is still a scaled unitary."""
        mixture = as_unitary_mixture(channel)
        assert mixture is not None
        assert mixture.probs == pytest.approx(channel.nominal_probs, rel=1e-9)
        assert None not in mixture.paulis

    @pytest.mark.parametrize(
        "channel", [amplitude_damping(1e-12), phase_damping(1e-12)], ids=lambda c: c.name
    )
    def test_rare_general_branches_stay_general(self, channel):
        assert as_unitary_mixture(channel) is None

    def test_mixture_is_analysed_once_per_channel(self, monkeypatch):
        calls = []
        real = unitary_mixture_mod._scaled_unitary_factor
        monkeypatch.setattr(
            unitary_mixture_mod,
            "_scaled_unitary_factor",
            lambda k, atol: calls.append(k) or real(k, atol),
        )
        ch = depolarizing(0.1)
        first = ch.mixture
        assert ch.mixture is first and ch.mixture is first
        assert len(calls) == len(ch)
        general = amplitude_damping(0.1)
        assert general.mixture is None and general.mixture is None
        assert len(calls) == len(ch) + 1  # rejected at its first operator, once

    def test_mixture_carries_paulis_and_cumulative_table(self):
        mixture = pauli_channel(0.1, 0.2, 0.0).mixture
        assert [p.label() for p in mixture.paulis] == ["I", "X", "Y"]
        assert mixture.cumulative[-1] == 1.0
        assert np.allclose(mixture.cumulative, [0.7, 0.8, 1.0])
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        hadamard_mix = KrausChannel("hmix", [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * h])
        assert hadamard_mix.mixture.paulis[1] is None

    def test_analysed_channel_pickles_with_its_analysis(self, monkeypatch):
        """Pool workers receive analysed channels: the analysis travels."""
        import pickle

        ch = depolarizing(0.2)
        mixture = ch.mixture
        clone = pickle.loads(pickle.dumps(ch))
        monkeypatch.setattr(
            unitary_mixture_mod,
            "_scaled_unitary_factor",
            lambda k, atol: pytest.fail("an unpickled channel was analysed again"),
        )
        assert clone.mixture is not None and clone.mixture.channel is clone
        assert clone.mixture.probs == mixture.probs
        assert [p.label() for p in clone.mixture.paulis] == ["I", "X", "Y", "Z"]
        assert np.array_equal(clone.mixture.cumulative, mixture.cumulative)
        assert pickle.loads(pickle.dumps(amplitude_damping(0.1))).dominant_index() == 0

    def test_probabilities_state_independent_claim(self, rng):
        """For unitary mixtures the nominal probs equal state probs."""
        from repro.linalg import random_statevector

        ch = depolarizing(0.3)
        psi = random_statevector(1, rng)
        for k, p_nominal in zip(ch.kraus_ops, ch.nominal_probs):
            phi = k @ psi
            assert abs(np.vdot(phi, phi).real - p_nominal) < 1e-10


class TestChannelMethods:
    def test_dominant_index_is_identityish(self):
        assert depolarizing(0.1).dominant_index() == 0
        assert amplitude_damping(0.2).dominant_index() == 0

    def test_is_trivial(self):
        ident = KrausChannel("id", [np.eye(2)])
        assert ident.is_trivial()
        assert not depolarizing(0.1).is_trivial()

    def test_apply_to_density_matrix_preserves_trace(self):
        rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
        for ch in ALL_CHANNELS:
            if ch.num_qubits != 1:
                continue
            out = ch.apply_to_density_matrix(rho)
            assert abs(np.trace(out) - 1.0) < 1e-10

    def test_depolarizing_contracts_bloch(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])  # |0><0|, bloch z=+1
        out = depolarizing(0.3).apply_to_density_matrix(rho)
        z = np.real(out[0, 0] - out[1, 1])
        assert abs(z - (1 - 0.4)) < 1e-10  # 1 - 4p/3 with p=0.3

    def test_compose_unitary(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        ch = bit_flip(0.1).compose_unitary(h, before=True)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.allclose(total, np.eye(2), atol=1e-10)


class TestPauliTwirl:
    def test_twirled_is_pauli_mixture(self):
        twirled = amplitude_damping(0.3).pauli_twirl()
        assert twirled.mixture is not None

    def test_twirl_preserves_pauli_channels(self):
        ch = depolarizing(0.2)
        twirled = ch.pauli_twirl()
        assert np.allclose(sorted(twirled.nominal_probs), sorted(ch.nominal_probs), atol=1e-9)

    def test_twirl_matches_exact_average(self):
        """Twirled channel = average over Pauli conjugations of the original."""
        from repro.channels.pauli import pauli_string_matrix

        ch = amplitude_damping(0.4)
        rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        twirled_out = ch.pauli_twirl().apply_to_density_matrix(rho)
        avg = np.zeros((2, 2), dtype=complex)
        for lab in "IXYZ":
            p = pauli_string_matrix(lab)
            avg += p @ ch.apply_to_density_matrix(p @ rho @ p) @ p / 4.0
        assert np.allclose(twirled_out, avg, atol=1e-9)

    def test_twirl_rejects_multiqubit(self):
        with pytest.raises(ChannelError):
            two_qubit_depolarizing(0.1).pauli_twirl()


class TestOneAnalysisPerChannel:
    """The unitary-mixture analysis is a property of the channel: every
    reader takes ``channel.mixture``, and only ``repro/channels/`` runs
    the analysis itself."""

    def test_routing_compile_and_tableau_run_analyse_each_channel_once(self, monkeypatch):
        from repro.backends.pauli_frame import FrameSampler
        from repro.backends.stabilizer import StabilizerBackend
        from repro.channels.noise_model import NoiseModel
        from repro.circuits.library import ghz
        from repro.execution import BackendSpec, resolve_strategy
        from repro.execution.plan import build_fused_plan
        from repro.rng import make_rng

        calls = []
        real = unitary_mixture_mod._scaled_unitary_factor
        monkeypatch.setattr(
            unitary_mixture_mod,
            "_scaled_unitary_factor",
            lambda k, atol: calls.append(k) or real(k, atol),
        )
        circuit = (
            NoiseModel()
            .add_all_qubit_gate_noise("h", depolarizing(0.01))
            .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
            .add_all_qubit_gate_noise("x", pauli_channel(0.01, 0.0, 0.03))
            .apply(ghz(4).x(3).measure_all())
            .freeze()
        )
        channels = {op.channel for op in circuit.noise_sites}
        assert len(channels) == 3 and len(circuit.noise_sites) == 5
        engine, _ = resolve_strategy(circuit, BackendSpec(), "auto")
        assert engine == "clifford"
        build_fused_plan(circuit)
        FrameSampler(circuit)
        StabilizerBackend(circuit.num_qubits).run(circuit, rng=make_rng(3))
        assert len(calls) == sum(len(channel) for channel in channels)

    def test_only_the_channels_package_analyses_a_channel(self):
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        analysers = {"as_unitary_mixture", "pauli_from_unitary"}
        modules = [path for path in sorted(src.rglob("*.py")) if path.parent.name != "channels"]
        assert len(modules) > 50
        found = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in analysers:
                        found.append(f"{path.relative_to(src)}:{node.lineno}")
        assert found == []
