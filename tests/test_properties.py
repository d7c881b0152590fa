"""Cross-cutting hypothesis property tests on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.mps import MPSBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import (
    amplitude_damping,
    depolarizing,
    pauli_channel,
    phase_damping,
)
from repro.circuits import Circuit, library
from repro.pts.base import NoiseSiteView
from repro.rng import make_rng

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=-6.3, max_value=6.3, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestStatevectorInvariants:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_random_circuit_preserves_norm(self, seed, depth):
        circ = library.random_brickwork(5, depth, rng=make_rng(seed)).freeze()
        sv = StatevectorBackend(5)
        sv.run_fixed(circ)
        assert sv.norm_squared() == pytest.approx(1.0, abs=1e-9)

    @given(angles, angles)
    @settings(max_examples=20, deadline=None)
    def test_rotation_composition(self, a, b):
        sv1 = StatevectorBackend(1)
        sv1.run_fixed(Circuit(1).rz(a, 0).rz(b, 0).freeze())
        sv2 = StatevectorBackend(1)
        sv2.run_fixed(Circuit(1).rz(a + b, 0).freeze())
        assert abs(np.vdot(sv1.statevector, sv2.statevector)) == pytest.approx(1.0, abs=1e-9)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_sampling_marginals_match_probabilities(self, seed):
        circ = library.random_brickwork(4, 2, rng=make_rng(seed)).freeze()
        sv = StatevectorBackend(4)
        sv.run_fixed(circ)
        bits = sv.sample(30_000, range(4), make_rng(seed + 1))
        probs4 = sv.probabilities().reshape((2,) * 4)
        for q in range(4):
            exact_p1 = probs4.sum(axis=tuple(a for a in range(4) if a != q))[1]
            assert abs(bits[:, q].mean() - exact_p1) < 0.02


class TestChannelInvariants:
    @given(probs, probs)
    @settings(max_examples=25, deadline=None)
    def test_channel_composition_preserves_trace(self, p1, p2):
        assume(p1 <= 1.0 and p2 <= 1.0)
        dm = DensityMatrixBackend(1)
        from repro.circuits.gates import H

        dm.apply_gate(H, [0])
        dm.apply_channel(depolarizing(p1), [0])
        dm.apply_channel(amplitude_damping(p2), [0])
        assert np.trace(dm.density_matrix).real == pytest.approx(1.0, abs=1e-9)

    @given(probs, probs)
    @settings(max_examples=25, deadline=None)
    def test_density_matrix_stays_psd(self, p1, p2):
        dm = DensityMatrixBackend(1)
        from repro.circuits.gates import H

        dm.apply_gate(H, [0])
        dm.apply_channel(phase_damping(min(p1, 1.0)), [0])
        dm.apply_channel(depolarizing(min(p2, 1.0)), [0])
        eigs = np.linalg.eigvalsh(dm.density_matrix)
        assert eigs.min() > -1e-10

    @given(
        st.floats(min_value=0, max_value=0.33),
        st.floats(min_value=0, max_value=0.33),
        st.floats(min_value=0, max_value=0.33),
    )
    @settings(max_examples=25, deadline=None)
    def test_pauli_channel_nominal_probs(self, px, py, pz):
        ch = pauli_channel(px, py, pz)
        assert sum(ch.nominal_probs) == pytest.approx(1.0, abs=1e-9)


class TestMPSInvariants:
    @given(seeds, st.integers(min_value=2, max_value=16))
    @settings(max_examples=10, deadline=None)
    def test_fidelity_monotone_in_bond(self, seed, chi):
        circ = library.random_brickwork(6, 4, rng=make_rng(seed)).freeze()
        sv = StatevectorBackend(6)
        sv.run_fixed(circ)

        def fidelity(bond):
            mps = MPSBackend(6, max_bond=bond)
            mps.run_fixed(circ)
            psi = mps.to_statevector()
            psi = psi / np.linalg.norm(psi)
            return abs(np.vdot(sv.statevector, psi)) ** 2

        assert fidelity(2 * chi) >= fidelity(chi) - 0.02

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_cached_sampler_distribution_valid(self, seed):
        circ = library.random_brickwork(5, 3, rng=make_rng(seed)).freeze()
        mps = MPSBackend(5, max_bond=64)
        mps.run_fixed(circ)
        bits = mps.sample(2000, range(5), make_rng(seed + 1))
        assert bits.shape == (2000, 5)
        assert set(np.unique(bits)) <= {0, 1}


class TestKrausCPTPClosure:
    """CPTP closure under every channel transformation PTS relies on.

    The transformations construct with ``check=False`` (they are closed by
    algebra, so the constructor check would be wasted work) — these
    properties are what licenses that skip.
    """

    @staticmethod
    def _assert_cptp(channel):
        total = sum(k.conj().T @ k for k in channel.kraus_ops)
        np.testing.assert_allclose(total, np.eye(channel.dim), atol=1e-9)
        assert sum(channel.nominal_probs) == pytest.approx(1.0, abs=1e-9)

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_random_unitary_mixture_is_cptp(self, seed, nops):
        from repro.channels.kraus import KrausChannel
        from haar import random_unitary

        rng = make_rng(seed)
        weights = rng.random(nops) + 1e-3
        weights = weights / weights.sum()
        ops = [np.sqrt(w) * random_unitary(2, rng) for w in weights]
        ch = KrausChannel("mix", ops, check=True)  # must not raise
        self._assert_cptp(ch)
        np.testing.assert_allclose(ch.nominal_probs, weights, atol=1e-9)

    @given(seeds, probs, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_compose_unitary_preserves_cptp(self, seed, p, before):
        from haar import random_unitary

        ch = amplitude_damping(min(p, 1.0))
        u = random_unitary(2, make_rng(seed))
        self._assert_cptp(ch.compose_unitary(u, before=before))

    @given(probs)
    @settings(max_examples=20, deadline=None)
    def test_pauli_twirl_preserves_cptp(self, p):
        twirled = amplitude_damping(min(p, 1.0)).pauli_twirl()
        self._assert_cptp(twirled)

    @given(seeds, probs, probs)
    @settings(max_examples=15, deadline=None)
    def test_twirl_then_compose_preserves_cptp(self, seed, p1, p2):
        from haar import random_unitary

        ch = phase_damping(min(p1, 1.0)).pauli_twirl()
        u = random_unitary(2, make_rng(seed))
        self._assert_cptp(ch.compose_unitary(u).compose_unitary(u, before=False))


class TestFusionWindowAlgebra:
    """Fused window matrix = ordered product of embedded members."""

    @given(
        seeds,
        st.integers(min_value=1, max_value=3),  # window width (kernel tiers)
        st.integers(min_value=1, max_value=5),  # operators in the window
    )
    @settings(max_examples=25, deadline=None)
    def test_fused_matrix_equals_ordered_product(self, seed, width, nops):
        from repro.linalg.fusion import (
            expand_to_support,
            fuse_window_matrix,
            window_support,
        )
        from haar import random_unitary

        rng = make_rng(seed)
        # Non-contiguous circuit qubit labels: the algebra must not assume
        # support == range(width).
        support = tuple(sorted(int(q) for q in rng.choice(6, size=width, replace=False)))
        ops = []
        for _ in range(nops):
            k = int(rng.integers(1, width + 1))
            # Arbitrary (possibly descending) qubit order within an operator.
            qubits = tuple(int(q) for q in rng.choice(support, size=k, replace=False))
            ops.append((random_unitary(2**k, rng), qubits))
        fused = fuse_window_matrix(ops, support)
        expected = np.eye(2**width, dtype=np.complex128)
        for matrix, qubits in ops:  # application order: index 0 acts first
            expected = expand_to_support(matrix, qubits, support) @ expected
        np.testing.assert_allclose(fused, expected, atol=1e-10)
        # A window of unitaries fuses to a unitary.
        np.testing.assert_allclose(
            fused @ fused.conj().T, np.eye(2**width), atol=1e-9
        )
        assert set(window_support([q for _, q in ops])) <= set(support)

    @given(seeds, st.integers(min_value=2, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_disjoint_support_embeddings_commute(self, seed, width):
        """Operators on disjoint qubits embed to commuting window matrices,
        so their fusion order inside a window cannot change the product."""
        from repro.linalg.fusion import expand_to_support, fuse_window_matrix
        from haar import random_unitary

        rng = make_rng(seed)
        support = tuple(range(width))
        t1, t2 = (int(q) for q in rng.choice(width, size=2, replace=False))
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        a = expand_to_support(u, (t1,), support)
        b = expand_to_support(v, (t2,), support)
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-10)
        np.testing.assert_allclose(
            fuse_window_matrix([(u, (t1,)), (v, (t2,))], support),
            fuse_window_matrix([(v, (t2,)), (u, (t1,))], support),
            atol=1e-10,
        )


class TestPTSInvariants:
    @given(st.floats(min_value=0.001, max_value=0.3))
    @settings(max_examples=15, deadline=None)
    def test_joint_probabilities_sum_to_one_over_full_enumeration(self, p):
        """The full distribution of Kraus subsets has unit probability
        (paper Fig. 2 caption) — check by exhaustive enumeration."""
        from repro import NoiseModel
        from repro.pts import ExhaustivePTS

        circ = Circuit(2).h(0).cx(0, 1).measure_all()
        noisy = (
            NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(p)).apply(circ).freeze()
        )
        result = ExhaustivePTS(cutoff=1e-12, nshots=1).sample(noisy, make_rng(0))
        assert result.coverage() == pytest.approx(1.0, abs=1e-9)

    @given(seeds, st.integers(min_value=10, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_probabilistic_pts_deterministic_per_seed(self, seed, nsamples):
        from repro import NoiseModel
        from repro.pts import ProbabilisticPTS

        circ = Circuit(2).cx(0, 1).measure_all()
        noisy = (
            NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.1)).apply(circ).freeze()
        )
        a = ProbabilisticPTS(nsamples, 1).sample(noisy, make_rng(seed))
        b = ProbabilisticPTS(nsamples, 1).sample(noisy, make_rng(seed))
        assert [s.record.signature() for s in a.specs] == [
            s.record.signature() for s in b.specs
        ]
