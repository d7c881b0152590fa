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
        real = unitary_mixture_mod.as_unitary_mixture
        monkeypatch.setattr(
            unitary_mixture_mod,
            "as_unitary_mixture",
            lambda channel: calls.append(channel) or real(channel),
        )
        ch = depolarizing(0.1)
        first = ch.mixture
        assert ch.mixture is first and ch.mixture is first
        assert calls == [ch]
        general = amplitude_damping(0.1)
        assert general.mixture is None and general.mixture is None
        assert calls == [ch, general]  # a rejection is kept too

    def test_mixture_carries_paulis_and_cumulative_table(self):
        mixture = pauli_channel(0.1, 0.2, 0.0).mixture
        assert [p.label() for p in mixture.paulis] == ["I", "X", "Y"]
        assert mixture.cumulative[-1] == 1.0
        assert np.allclose(mixture.cumulative, [0.7, 0.8, 1.0])
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        hadamard_mix = KrausChannel("hmix", [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * h])
        assert hadamard_mix.mixture.paulis[1] is None

    def test_analysed_channel_pickles_with_its_analysis(self, monkeypatch):
        """A pickled channel keeps its analysis: the analysis travels."""
        import pickle

        ch = depolarizing(0.2)
        mixture = ch.mixture
        clone = pickle.loads(pickle.dumps(ch))
        monkeypatch.setattr(
            unitary_mixture_mod,
            "as_unitary_mixture",
            lambda channel: pytest.fail("an unpickled channel was analysed again"),
        )
        assert clone.mixture is not None and clone.mixture.channel is clone
        assert clone.mixture.probs == mixture.probs
        assert [p.label() for p in clone.mixture.paulis] == ["I", "X", "Y", "Z"]
        assert np.array_equal(clone.mixture.cumulative, mixture.cumulative)
        assert pickle.loads(pickle.dumps(amplitude_damping(0.1))).dominant_index() == 0

    def test_probabilities_state_independent_claim(self, rng):
        """For unitary mixtures the nominal probs equal state probs."""
        from haar import random_statevector

        ch = depolarizing(0.3)
        psi = random_statevector(1, rng)
        for k, p_nominal in zip(ch.kraus_ops, ch.nominal_probs):
            phi = k @ psi
            assert abs(np.vdot(phi, phi).real - p_nominal) < 1e-10


def _scaled_unitary_factor_reference(kraus, atol):
    """The per-branch scaled-unitary test the one-pass analysis replaced,
    kept as its oracle: ``p`` if ``K^dag K = p I`` (relative to ``p``)."""
    gram = kraus.conj().T @ kraus
    p = float(np.real(gram[0, 0]))
    if p <= 0.0:
        return None
    if np.allclose(gram / p, np.eye(gram.shape[0]), atol=atol):
        return p
    return None


def _pauli_from_unitary_reference(matrix, num_qubits):
    """The per-matrix Pauli recognition the batched one replaced, kept as
    its oracle."""
    from repro.channels.pauli import PauliString

    atol = 1e-8
    matrix = np.asarray(matrix, dtype=np.complex128)
    dim = 2**num_qubits
    col0 = matrix[:, 0]
    nonzero = np.nonzero(np.abs(col0) > atol)[0]
    if nonzero.size != 1:
        return None
    a = int(nonzero[0])
    v0 = complex(col0[a])
    if abs(abs(v0) - 1.0) > atol:
        return None
    zmask = 0
    for bit in range(num_qubits):
        j = 1 << bit
        ratio = complex(matrix[j ^ a, j]) / v0
        if abs(ratio - 1.0) <= atol:
            continue
        if abs(ratio + 1.0) <= atol:
            zmask |= j
        else:
            return None
    cols = np.arange(dim)
    parity = np.bitwise_and(cols, zmask)
    for shift in (32, 16, 8, 4, 2, 1):
        parity ^= parity >> shift
    signs = 1.0 - 2.0 * (parity & 1).astype(np.float64)
    residual = matrix.copy()
    residual[cols ^ a, cols] -= v0 * signs
    if not np.allclose(residual, 0.0, atol=atol):
        return None
    x = [(a >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
    z = [(zmask >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
    label = "".join("Y" if xi and zi else "X" if xi else "Z" if zi else "I" for xi, zi in zip(x, z))
    return PauliString.from_label(label)


def _analysis_reference(channel, atol=1e-9):
    """``as_unitary_mixture`` as a loop over branches: ``None``, or
    ``(probs, unitaries, paulis)``; raises ``ChannelError`` alike."""
    probs, unitaries = [], []
    for k in channel.kraus_ops:
        p = _scaled_unitary_factor_reference(k, atol)
        if p is None:
            return None
        probs.append(p)
        unitaries.append(k / np.sqrt(p))
    total = sum(probs)
    if abs(total - 1.0) > 1e-6:
        raise ChannelError(
            f"channel {channel.name!r}: scaled-unitary probabilities sum to {total}, not 1"
        )
    paulis = [_pauli_from_unitary_reference(u, channel.num_qubits) for u in unitaries]
    return tuple(probs), unitaries, paulis


def _assert_same_analysis(channel):
    try:
        with np.errstate(invalid="ignore"):  # a NaN operator, as np.allclose has it
            want = _analysis_reference(channel)
    except ChannelError as exc:
        with pytest.raises(ChannelError) as raised:
            as_unitary_mixture(channel)
        assert str(raised.value) == str(exc)
        return
    got = as_unitary_mixture(channel)
    if want is None:
        assert got is None
        return
    probs, unitaries, paulis = want
    assert got.probs == probs
    assert len(got.unitaries) == len(unitaries)
    for mine, theirs in zip(got.unitaries, unitaries):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    assert len(got.paulis) == len(paulis)
    for mine, theirs in zip(got.paulis, paulis):
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert mine == theirs and mine.x.dtype == theirs.x.dtype


_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_S = np.diag([1, 1j])


@st.composite
def unitary_mixtures(draw):
    """A ``KrausChannel`` of scaled unitaries on 1-2 qubits: Paulis (some
    with a global phase), Clifford and Haar-random branches, and weights
    that may not sum to 1 (``check=False``), so the error path is drawn."""
    from haar import random_unitary
    from repro.channels.pauli import pauli_string_matrix

    num_qubits = draw(st.integers(1, 2))
    dim = 2**num_qubits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 5))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["pauli", "phased", "clifford", "haar", "near"]))
        label = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=num_qubits,
                                      max_size=num_qubits)))
        pauli = pauli_string_matrix(label)
        if kind == "pauli":
            unitary = pauli
        elif kind == "phased":
            unitary = np.exp(1j * draw(st.floats(-np.pi, np.pi))) * pauli
        elif kind == "clifford":
            gate = _H if draw(st.booleans()) else _S
            unitary = np.kron(gate, np.eye(dim // 2)) @ pauli
        elif kind == "haar":
            unitary = random_unitary(dim, rng)
        else:  # a Pauli off by a little: near each tolerance
            unitary = pauli + draw(st.sampled_from([1e-12, 1e-9, 1e-7, 3e-6, 1e-4])) * random_unitary(dim, rng)
        ops.append(unitary)
    weights = np.array([draw(st.floats(1e-12, 1.0)) for _ in ops])
    if draw(st.booleans()):
        weights /= weights.sum()
    return KrausChannel("drawn", [np.sqrt(w) * u for w, u in zip(weights, ops)], check=False)


class TestOnePassAnalysis:
    """``as_unitary_mixture`` analyses every branch in one pass; the
    per-branch loop it replaced (kept above) is its bitwise oracle."""

    @pytest.mark.parametrize(
        "channel",
        ALL_CHANNELS
        + [
            depolarizing(1e-10),
            depolarizing(0.0),
            depolarizing(0.75),
            two_qubit_depolarizing(1e-10),
            amplitude_damping(1e-12),
            amplitude_damping(0.0),
            amplitude_damping(1.0),
            generalized_amplitude_damping(0.0, 0.5),
            phase_damping(1.0),
            reset_channel(1.0),
            pauli_channel(0.0, 0.0, 0.0),
            pauli_channel(0.5, 0.0, 0.5),
        ],
        ids=lambda c: c.name,
    )
    def test_standard_channels(self, channel):
        _assert_same_analysis(channel)

    def test_device_profiles(self):
        from repro.channels.standard import device_profile, profile_names

        for name in profile_names():
            profile = device_profile(name)
            for channel in (
                depolarizing(profile.p1),
                two_qubit_depolarizing(profile.p2),
                amplitude_damping(profile.gamma1),
                bit_flip(profile.p_prep),
                bit_flip(profile.p_meas),
            ):
                _assert_same_analysis(channel)

    def test_refusals_and_errors(self):
        h = KrausChannel("hmix", [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * _H])
        assert h.mixture is not None and h.mixture.paulis[1] is None
        _assert_same_analysis(h)
        over = KrausChannel("over", [np.sqrt(0.5) * np.eye(2), np.sqrt(0.6) * _H], check=False)
        with pytest.raises(ChannelError, match="sum to"):
            as_unitary_mixture(over)
        _assert_same_analysis(over)
        zero = KrausChannel("zero", [np.eye(2), np.zeros((2, 2))], check=False)
        assert as_unitary_mixture(zero) is None
        _assert_same_analysis(zero)
        nan = KrausChannel("nan", [np.full((2, 2), np.nan)], check=False)
        assert as_unitary_mixture(nan) is None
        _assert_same_analysis(nan)

    @pytest.mark.parametrize("stretch, recognized", [(2.5e-6, True), (1e-5, False)])
    def test_the_relative_tolerance_on_the_diagonal(self, stretch, recognized):
        """A diagonal of ``K^dag K / p`` off 1 by 5e-6 is inside
        ``np.allclose``'s ``rtol`` (1e-5), one off by 2e-5 is not."""
        scaled = np.diag([1.0, 1.0 + stretch])
        channel = KrausChannel(
            "stretched", [np.sqrt(0.9) * scaled, np.sqrt(0.1) * _H], check=False
        )
        assert (as_unitary_mixture(channel) is not None) == recognized
        _assert_same_analysis(channel)

    @given(unitary_mixtures())
    @settings(max_examples=200, deadline=None)
    def test_drawn_unitary_mixtures(self, channel):
        _assert_same_analysis(channel)

    def test_paulis_from_unitaries_matches_the_per_matrix_oracle(self):
        from repro.channels.pauli import pauli_from_unitary, paulis_from_unitaries
        from repro.channels.pauli import all_pauli_labels, pauli_string_matrix

        for n in (1, 2, 3):
            labels = all_pauli_labels(n)
            phases = np.exp(0.25j * np.pi * np.arange(len(labels)))
            matrices = np.stack([ph * pauli_string_matrix(label) for ph, label in zip(phases, labels)])
            matrices[::5] *= 1.5  # not unit modulus
            matrices[1::7, 0, 0] += 0.3  # a second nonzero in column 0 or a broken sign
            got = paulis_from_unitaries(matrices, n)
            want = [_pauli_from_unitary_reference(m, n) for m in matrices]
            assert got == want
            assert [pauli_from_unitary(m, n) for m in matrices] == want
        assert pauli_from_unitary(np.eye(2), 2) is None  # shape mismatch


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
        real = unitary_mixture_mod.as_unitary_mixture
        monkeypatch.setattr(
            unitary_mixture_mod,
            "as_unitary_mixture",
            lambda channel: calls.append(channel) or real(channel),
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
        assert sorted(map(id, calls)) == sorted(map(id, channels))

    def test_only_the_channels_package_analyses_a_channel(self):
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        analysers = {"as_unitary_mixture", "pauli_from_unitary", "paulis_from_unitaries"}
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
