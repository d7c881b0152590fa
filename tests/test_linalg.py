"""Tests for :mod:`repro.linalg` (kron embedding, unitarity, SVD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GateError
from repro.linalg import (
    embed_operator,
    is_unitary,
    kron_all,
    permute_operator_qubits,
    schmidt_decomposition,
    truncated_svd,
)

from haar import random_statevector, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class TestKron:
    def test_kron_all_ordering(self):
        # Leftmost factor acts on qubit 0 (most significant bit).
        full = kron_all([X, np.eye(2)])
        state = np.zeros(4)
        state[0] = 1.0  # |00>
        out = full @ state
        assert np.argmax(np.abs(out)) == 0b10  # |10>

    def test_kron_all_empty(self):
        assert np.array_equal(kron_all([]), np.eye(1))

    def test_embed_single_qubit(self):
        full = embed_operator(X, [1], 3)
        state = np.zeros(8)
        state[0] = 1.0
        assert np.argmax(np.abs(full @ state)) == 0b010

    def test_embed_matches_kron(self):
        rng = np.random.default_rng(0)
        u = random_unitary(2, rng)
        assert np.allclose(embed_operator(u, [0], 2), np.kron(u, np.eye(2)))
        assert np.allclose(embed_operator(u, [1], 2), np.kron(np.eye(2), u))

    def test_embed_two_qubit_nonascending(self):
        # CX with control 2, target 0 in a 3-qubit register.
        full = embed_operator(CX, [2, 0], 3)
        state = np.zeros(8)
        state[0b001] = 1.0  # qubit2 = 1 -> should flip qubit 0
        out = full @ state
        assert np.argmax(np.abs(out)) == 0b101

    def test_embed_rejects_duplicates(self):
        with pytest.raises(GateError):
            embed_operator(CX, [1, 1], 3)

    def test_embed_rejects_out_of_range(self):
        with pytest.raises(GateError):
            embed_operator(X, [3], 3)

    def test_permute_swap_on_cx_gives_xc(self):
        swapped = permute_operator_qubits(CX, [1, 0])
        # Control on qubit 1, target on qubit 0: |01> -> |11>
        state = np.zeros(4)
        state[0b01] = 1.0
        assert np.argmax(np.abs(swapped @ state)) == 0b11

    def test_permute_identity(self):
        assert np.allclose(permute_operator_qubits(CX, [0, 1]), CX)

    def test_permute_rejects_bad_perm(self):
        with pytest.raises(GateError):
            permute_operator_qubits(CX, [0, 0])

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_embed_preserves_unitarity(self, t0, t1):
        if t0 == t1:
            return
        u = random_unitary(4, np.random.default_rng(1))
        full = embed_operator(u, [t0, t1], 3)
        assert is_unitary(full)


class TestUnitary:
    def test_is_unitary_accepts(self):
        assert is_unitary(random_unitary(8, np.random.default_rng(2)))

    def test_is_unitary_rejects_nonsquare(self):
        assert not is_unitary(np.ones((2, 3)))

    def test_is_unitary_rejects_scaled(self):
        assert not is_unitary(2.0 * np.eye(4))

    def test_random_statevector_normalized(self):
        psi = random_statevector(4, np.random.default_rng(4))
        assert psi.shape == (16,)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_haar_mean_is_zero(self):
        rng = np.random.default_rng(5)
        mean = np.mean([random_unitary(2, rng)[0, 0] for _ in range(500)])
        assert abs(mean) < 0.1


class TestTruncatedSVD:
    def test_exact_reconstruction_without_truncation(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(8, 5))
        u, s, vh, info = truncated_svd(m)
        assert np.allclose(u * s @ vh, m)
        assert info.discarded_weight == 0.0

    def test_rank_cap(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8))
        u, s, vh, info = truncated_svd(m, max_rank=3)
        assert info.kept == 3
        assert u.shape == (8, 3) and vh.shape == (3, 8)

    def test_discarded_weight_matches_frobenius(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 6))
        u, s, vh, info = truncated_svd(m, max_rank=2)
        approx = u * s @ vh
        frob_err = np.linalg.norm(m - approx) ** 2 / np.linalg.norm(m) ** 2
        assert abs(info.discarded_weight - frob_err) < 1e-10

    def test_cutoff_drops_small_values(self):
        m = np.diag([1.0, 0.5, 1e-8])
        _, s, _, info = truncated_svd(m, cutoff=1e-6)
        assert info.kept == 2

    def test_always_keeps_one(self):
        m = np.diag([1.0, 1e-20])
        _, s, _, info = truncated_svd(m, max_rank=0)
        assert info.kept == 1

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_truncation_error_monotone_in_rank(self, rank):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(8, 8))
        _, _, _, lo = truncated_svd(m, max_rank=rank)
        _, _, _, hi = truncated_svd(m, max_rank=rank + 1)
        assert hi.discarded_weight <= lo.discarded_weight + 1e-12


class TestSchmidt:
    def test_product_state_has_rank_one(self):
        psi = np.kron([1, 0], [0.6, 0.8])
        coeffs, _, _ = schmidt_decomposition(psi, 1, 2)
        assert abs(coeffs[0] - 1.0) < 1e-12
        assert abs(coeffs[1]) < 1e-12

    def test_bell_state_is_maximally_entangled(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        coeffs, _, _ = schmidt_decomposition(bell, 1, 2)
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2)

    def test_reconstruction(self):
        psi = random_statevector(4, np.random.default_rng(10))
        coeffs, left, right = schmidt_decomposition(psi, 2, 4)
        rebuilt = sum(
            coeffs[k] * np.kron(left[:, k], right[:, k]) for k in range(len(coeffs))
        )
        assert np.allclose(rebuilt, psi)
