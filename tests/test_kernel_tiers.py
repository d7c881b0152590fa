"""Dense kernel tiers: the k=3 reshape-view path, the short-tail padded GEMM,
per-row operators on the GEMM tiers, and the shared norm reduction with its
divisor."""

import numpy as np
import pytest

import repro.linalg.apply as apply_mod
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.statevector import StatevectorBackend
from repro.linalg import (
    apply_compiled_stack,
    apply_gemm_stack,
    apply_matrix_stack,
    compile_operator,
    embed_operator,
    row_norms_squared,
)
from repro.linalg.apply import OperatorStack
from repro.linalg.kron import kron_all
from repro.linalg.reductions import scale_rows_inverse_sqrt

from haar import random_unitary

DTYPE = np.dtype(np.complex128)

#: Every 3-qubit layout class on a 6-qubit register: contiguous at both
#: edges, single gap, double gap, full spread — plus non-ascending orders
#: that must canonicalize.
K3_LAYOUTS = [
    (0, 1, 2),
    (3, 4, 5),
    (1, 2, 3),
    (0, 2, 4),
    (0, 3, 5),
    (1, 3, 5),
    (0, 1, 5),
    (2, 0, 5),
    (5, 3, 1),
    (4, 0, 2),
]


def _random_stack(rows, num_qubits, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(rows, 2**num_qubits)) + 1j * rng.normal(
        size=(rows, 2**num_qubits)
    )
    return np.ascontiguousarray(stack.astype(DTYPE))


class TestK3ViewTier:
    """The dedicated 3-qubit reshape-view path vs. the GEMM fallback."""

    @pytest.mark.parametrize("targets", K3_LAYOUTS)
    def test_matches_dense_reference_and_gemm(self, targets):
        rng = np.random.default_rng(hash(targets) % 2**32)
        u = random_unitary(8, rng)
        stack = _random_stack(3, 6, 11)
        op = compile_operator(u, targets, DTYPE)
        assert op.targets == tuple(sorted(targets))
        out_view = apply_compiled_stack(stack.copy(), op, 6)
        out_gemm = apply_gemm_stack(stack.copy(), op, 6)
        reference = (embed_operator(u, list(targets), 6) @ stack.T).T
        np.testing.assert_allclose(out_view, reference, atol=1e-12)
        np.testing.assert_allclose(out_gemm, reference, atol=1e-12)

    @pytest.mark.parametrize("targets", [(0, 1, 2), (1, 3, 5), (4, 2, 0)])
    def test_adjoint_roundtrip(self, targets):
        rng = np.random.default_rng(3)
        u = random_unitary(8, rng)
        stack = _random_stack(2, 6, 5)
        forward = compile_operator(u, targets, DTYPE)
        backward = compile_operator(u.conj().T, targets, DTYPE)
        roundtrip = apply_compiled_stack(
            apply_compiled_stack(stack.copy(), forward, 6), backward, 6
        )
        np.testing.assert_allclose(roundtrip, stack, atol=1e-12)

    def test_k3_never_reaches_gemm(self, monkeypatch):
        """Structural guarantee: 3-qubit operators stay on the view tier."""

        def boom(*args, **kwargs):
            raise AssertionError("k=3 operator fell through to the GEMM path")

        monkeypatch.setattr(apply_mod, "apply_gemm_stack", boom)
        u = random_unitary(8, np.random.default_rng(7))
        apply_matrix_stack(_random_stack(2, 5, 1), u, (0, 2, 4), 5, DTYPE)
        from repro.circuits.gates import CCX

        apply_matrix_stack(_random_stack(2, 4, 2), CCX.matrix, (1, 2, 3), 4, DTYPE)

    def test_k4_still_takes_gemm(self, monkeypatch):
        calls = []
        original = apply_mod.apply_gemm_stack
        monkeypatch.setattr(
            apply_mod,
            "apply_gemm_stack",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        u = random_unitary(16, np.random.default_rng(9))
        apply_matrix_stack(_random_stack(2, 5, 3), u, (0, 1, 3, 4), 5, DTYPE)
        assert calls, "4-qubit operator should use the GEMM fallback"

    def test_contiguous_k4_never_reaches_gemm(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("contiguous 4-qubit operator took the gather path")

        monkeypatch.setattr(apply_mod, "apply_gemm_stack", boom)
        u = random_unitary(16, np.random.default_rng(9))
        for targets in [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]:
            apply_matrix_stack(_random_stack(2, 6, 3), u, targets, 6, DTYPE)

    def test_ccx_is_dense_slice_copy_tier(self):
        from repro.circuits.gates import CCX

        op = compile_operator(CCX.matrix, (0, 1, 2), DTYPE)
        assert op.tier == "dense"
        stack = _random_stack(2, 3, 4)
        out = apply_compiled_stack(stack.copy(), op, 3)
        reference = (CCX.matrix @ stack.T).T
        np.testing.assert_allclose(out, reference, atol=1e-14)

    def test_k3_diagonal_applies_in_place(self):
        """A 3-qubit diagonal (ccz-like phase) must hit the in-place tier."""
        diag = np.diag(np.exp(1j * np.linspace(0.1, 0.9, 8)))
        op = compile_operator(diag, (1, 3, 5), DTYPE)
        assert op.tier == "diagonal"
        stack = _random_stack(2, 6, 6)
        expected = (embed_operator(diag, [1, 3, 5], 6) @ stack.T).T
        out = apply_compiled_stack(stack, op, 6)
        assert out is stack  # mutated in place, no fresh buffer
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_k3_scalar_identity_tier(self):
        op = compile_operator(0.5 * np.eye(8), (0, 1, 2), DTYPE)
        assert op.tier == "scalar"
        ident = compile_operator(np.eye(8), (2, 3, 4), DTYPE)
        assert ident.tier == "identity"

    @pytest.mark.parametrize("targets", [(0, 2, 4), (1, 3, 5), (0, 2, 5)])
    def test_gapped_dense_blocked_gemm_bitwise_matches_gemm(self, targets):
        """The blocked gapped-dense path must stay *bitwise* (not just
        allclose) interchangeable with apply_gemm_stack — the maintenance
        invariant behind its 'same arithmetic' claim."""
        u = random_unitary(8, np.random.default_rng(31))
        op = compile_operator(u, targets, DTYPE)
        assert op.diag is None and op.nnz > 16  # must exercise the blocked path
        for rows in (1, 5, 33):
            stack = _random_stack(rows, 6, rows)
            np.testing.assert_array_equal(
                apply_compiled_stack(stack.copy(), op, 6),
                apply_gemm_stack(stack.copy(), op, 6),
            )

    def test_noncontiguous_layout_row_by_row_matches_stacked(self):
        """Stacked and row-by-row application stay bitwise interchangeable
        on the new tier (the property the batched backend relies on)."""
        u = random_unitary(8, np.random.default_rng(12))
        stack = _random_stack(5, 6, 13)
        op = compile_operator(u, (0, 2, 5), DTYPE)
        stacked = apply_compiled_stack(stack.copy(), op, 6)
        for row in range(5):
            single = apply_compiled_stack(
                np.ascontiguousarray(stack[row : row + 1]), op, 6
            )
            np.testing.assert_array_equal(stacked[row], single[0])


def _typed_stack(rows, num_qubits, seed, dtype):
    return np.ascontiguousarray(_random_stack(rows, num_qubits, seed).astype(dtype))


class TestContiguousGemmTier:
    """Dense operators on ascending contiguous targets: one matmul on a
    reshape view, at any arity."""

    def test_tier_selection(self):
        rng = np.random.default_rng(1)
        dense = random_unitary(4, rng)
        from repro.circuits.gates import CX

        assert compile_operator(dense, (2, 3), DTYPE).gemm_view
        assert compile_operator(dense, (3, 2), DTYPE).gemm_view  # canonicalized
        assert not compile_operator(dense, (1, 3), DTYPE).gemm_view  # gapped
        assert not compile_operator(CX.matrix, (0, 1), DTYPE).gemm_view  # nnz 4
        assert not compile_operator(np.diag([1, 1j, -1, 1]), (0, 1), DTYPE).gemm_view
        assert not compile_operator(random_unitary(2, rng), (0,), DTYPE).gemm_view
        assert compile_operator(random_unitary(8, rng), (1, 2, 3), DTYPE).gemm_view
        assert not compile_operator(random_unitary(8, rng), (0, 2, 3), DTYPE).gemm_view
        assert compile_operator(random_unitary(16, rng), (0, 1, 2, 3), DTYPE).gemm_view
        assert not compile_operator(random_unitary(16, rng), (3, 2, 1, 0), DTYPE).gemm_view

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("num_qubits,rows", [
        (6, 1), (6, 3), (6, 64), (12, 1), (12, 3), (12, 64), (16, 1), (16, 3), (16, 64),
    ])
    def test_k2_row_independent_and_matches_slices(self, num_qubits, rows, dtype):
        """The property the batched backend relies on, at every adjacent
        pair (flat GEMM at the tail, batched GEMM above it): applying to
        rows [r:r+1] is bitwise row r of the whole-stack call."""
        dtype = np.dtype(dtype)
        u = random_unitary(4, np.random.default_rng(num_qubits + rows))
        stack = _typed_stack(rows, num_qubits, 17, dtype)
        # Every row at small widths; first/middle/last at 16 qubits.
        probe = range(rows) if num_qubits < 16 else sorted({0, rows // 2, rows - 1})
        tol = 1e-14 if dtype == np.complex128 else 1e-5
        for t1 in range(num_qubits - 1):
            op = compile_operator(u, (t1, t1 + 1), dtype)
            assert op.gemm_view
            full = apply_compiled_stack(stack, op, num_qubits)  # dense: fresh output
            assert full is not stack and full.dtype == dtype
            for row in probe:
                single = apply_compiled_stack(stack[row : row + 1].copy(), op, num_qubits)
                np.testing.assert_array_equal(single[0], full[row])
            slices = compile_operator(u, (t1, t1 + 1), dtype)
            slices.gemm_view = False  # the slice-accumulation kernel
            sample = slice(0, min(rows, 2))
            np.testing.assert_allclose(
                full[sample],
                apply_compiled_stack(stack[sample].copy(), slices, num_qubits),
                atol=tol * np.abs(full[sample]).max(),
                rtol=0,
            )

    @pytest.mark.parametrize("k", [3, 4])
    def test_wide_windows_row_independent_and_match_gather(self, k):
        u = random_unitary(2**k, np.random.default_rng(k))
        stack = _random_stack(5, 8, 23)
        for t1 in range(8 - k + 1):
            op = compile_operator(u, tuple(range(t1, t1 + k)), DTYPE)
            assert op.gemm_view
            full = apply_compiled_stack(stack.copy(), op, 8)
            np.testing.assert_allclose(
                full, apply_gemm_stack(stack.copy(), op, 8), atol=1e-13
            )
            for row in range(5):
                single = apply_compiled_stack(stack[row : row + 1].copy(), op, 8)
                np.testing.assert_array_equal(single[0], full[row])


class TestPaddedOperator:
    """``CompiledOperator.padded``: ``M (x) I_tail`` for the short-tail GEMM."""

    def test_tail_one_is_the_matrix_itself(self):
        op = compile_operator(random_unitary(4, np.random.default_rng(3)), (4, 5), DTYPE)
        assert op.padded(1) is op.matrix

    @pytest.mark.parametrize("tail", [2, 4, 8])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_is_the_matrix_kron_identity(self, tail, dtype):
        dtype = np.dtype(dtype)
        op = compile_operator(random_unitary(4, np.random.default_rng(tail)), (1, 2), dtype)
        padded = op.padded(tail)
        assert padded.dtype == dtype
        np.testing.assert_array_equal(padded, kron_all([op.matrix, np.eye(tail)]))

    def test_built_once_per_tail(self):
        op = compile_operator(random_unitary(4, np.random.default_rng(5)), (1, 2), DTYPE)
        first = op.padded(4)
        assert op.padded(4) is first
        assert op.padded(2) is not first
        assert op.padded(2).shape == (8, 8) and first.shape == (16, 16)

    def test_short_tail_window_takes_the_padded_gemm(self):
        # Targets (1, 2) of 5 qubits leave a tail of 4: 4 * 4 <= 32, so the
        # whole stack is one flat GEMM against the memoised M (x) I_4.
        u = random_unitary(4, np.random.default_rng(9))
        op = compile_operator(u, (1, 2), DTYPE)
        assert op.gemm_view
        stack = _random_stack(3, 5, 2)
        out = apply_compiled_stack(stack.copy(), op, 5)
        assert sorted(op._padded) == [1, 4]
        reference = (embed_operator(u, [1, 2], 5) @ stack.T).T
        np.testing.assert_allclose(out, reference, atol=1e-13)
        np.testing.assert_array_equal(apply_compiled_stack(stack.copy(), op, 5), out)


def _tier_cases():
    rng = np.random.default_rng(31)
    from repro.circuits.gates import CX, H

    return [
        pytest.param(np.eye(2), (3,), "identity", id="identity"),
        pytest.param(1j * np.eye(4), (1, 4), "scalar", id="scalar"),
        pytest.param(np.diag([1, 1j, -1, 1]), (5, 0), "diagonal", id="diagonal"),
        pytest.param(H.matrix, (2,), "dense", id="slice-1q"),
        pytest.param(CX.matrix, (4, 1), "dense", id="slice-cx-reversed"),
        pytest.param(random_unitary(4, rng), (4, 5), "dense", id="gemm-view"),
        pytest.param(random_unitary(4, rng), (0, 1), "dense", id="gemm-view-batched"),
        pytest.param(random_unitary(8, rng), (0, 2, 5), "dense", id="k3-blocked"),
        pytest.param(random_unitary(16, rng), (5, 0, 2, 3), "dense", id="k4-gemm"),
    ]


class TestApplyMatrixStack:
    """The one-shot entry point is compile + apply, bitwise, on every tier."""

    @pytest.mark.parametrize("matrix,targets,tier", _tier_cases())
    def test_is_compile_then_apply(self, matrix, targets, tier):
        stack = _random_stack(3, 6, 13)
        op = compile_operator(matrix, targets, DTYPE)
        assert op.tier == tier
        one_shot = apply_matrix_stack(stack.copy(), matrix, targets, 6, DTYPE)
        compiled = apply_compiled_stack(stack.copy(), op, 6)
        np.testing.assert_array_equal(one_shot, compiled)
        reference = (embed_operator(matrix, list(targets), 6) @ stack.T).T
        np.testing.assert_allclose(one_shot, reference, atol=1e-12)

    @pytest.mark.parametrize("matrix,targets,tier", _tier_cases())
    def test_an_out_buffer_takes_the_same_bits(self, matrix, targets, tier):
        """Given ``out``, a tier that does not work in place writes into it
        and returns it; an in-place tier returns the stack, ``out`` untouched."""
        stack = _random_stack(3, 6, 13)
        op = compile_operator(matrix, targets, DTYPE)
        fresh = apply_compiled_stack(stack.copy(), op, 6)
        source, out = stack.copy(), np.full_like(stack, np.nan)
        result = apply_compiled_stack(source, op, 6, out)
        in_place = tier in ("identity", "scalar", "diagonal")
        assert result is (source if in_place else out)
        assert np.isnan(out).all() == in_place
        np.testing.assert_array_equal(result, fresh)


class TestScaleRowsInverseSqrt:
    """The renormalization divisor shared by the serial and stacked backends."""

    def test_divides_in_place_and_returns_the_stack(self):
        stack = _random_stack(4, 3, 7)
        expected = stack / np.sqrt(row_norms_squared(stack))[:, None]
        out = scale_rows_inverse_sqrt(stack, row_norms_squared(stack))
        assert out is stack
        np.testing.assert_array_equal(stack, expected)

    def test_rows_come_out_unit_norm(self):
        stack = _random_stack(6, 5, 8)
        scale_rows_inverse_sqrt(stack, row_norms_squared(stack))
        np.testing.assert_allclose(row_norms_squared(stack), 1.0, rtol=1e-14)

    def test_dead_rows_divide_by_one(self):
        stack = _random_stack(3, 3, 9)
        stack[1] = 0.0
        stack[2] *= 1e-4
        before = stack.copy()
        norms = row_norms_squared(stack)
        scale_rows_inverse_sqrt(stack, norms, dead_norm=1e-6)
        np.testing.assert_array_equal(stack[1:], before[1:])
        np.testing.assert_allclose(row_norms_squared(stack[:1]), 1.0, rtol=1e-14)

    def test_complex64_divides_at_the_state_dtype(self):
        stack = _typed_stack(3, 4, 10, np.complex64)
        norms = row_norms_squared(stack)
        assert norms.dtype == np.float32
        divisor = np.sqrt(norms.astype(np.float64)).astype(np.float32)
        expected = stack / divisor[:, None]
        scale_rows_inverse_sqrt(stack, norms)
        assert stack.dtype == np.complex64
        np.testing.assert_array_equal(stack, expected)

    def test_rowwise_bitwise_identical_to_single_row(self):
        stack = _random_stack(5, 6, 12)
        norms = row_norms_squared(stack)
        singles = [
            scale_rows_inverse_sqrt(stack[i : i + 1].copy(), norms[i : i + 1])
            for i in range(5)
        ]
        scale_rows_inverse_sqrt(stack, norms)
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(single[0], stack[i])


class TestRowNormsSquared:
    """The shared serial/stacked renormalization reduction."""

    def test_rowwise_bitwise_identical_to_single_row(self):
        stack = _random_stack(9, 7, 21)
        full = row_norms_squared(stack)
        for i in range(9):
            single = row_norms_squared(np.ascontiguousarray(stack[i : i + 1]))
            assert full[i] == single[0]  # bitwise, not approx

    def test_serial_backend_norm_is_the_shared_reduction(self):
        sv = StatevectorBackend(4)
        rng = np.random.default_rng(2)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        sv.set_statevector(state, normalize=True)
        expected = float(
            row_norms_squared(
                np.ascontiguousarray(sv.statevector).reshape(1, -1)
            )[0]
        )
        assert sv.norm_squared() == expected

    def test_stacked_norms_match_serial_bitwise(self, noisy_ghz3):
        choices_list = [{}, {0: 1}, {1: 2}]
        stacked = BatchedStatevectorBackend(3)
        weights, alive = stacked.run_fixed_stack(noisy_ghz3, choices_list)
        assert alive.all()
        for row, choices in enumerate(choices_list):
            serial = StatevectorBackend(3)
            w = serial.run_fixed(noisy_ghz3, choices)
            assert weights[row] == w  # bitwise weight identity
            np.testing.assert_array_equal(
                stacked.statevector(row), serial.statevector
            )
        norms = stacked.norms_squared()
        assert norms.shape == (3,)
        for row in range(3):
            assert norms[row] == float(
                row_norms_squared(
                    np.ascontiguousarray(stacked.statevector(row)).reshape(1, -1)
                )[0]
            )

    def test_requires_2d_contiguous(self):
        stack = _random_stack(4, 3, 1)
        with pytest.raises(ValueError):
            row_norms_squared(stack[:, ::2])
        with pytest.raises(ValueError):
            row_norms_squared(stack.reshape(-1))

    def test_renorm_seconds_counters_accumulate(self, noisy_ghz3_general):
        """Only general-Kraus windows renormalize (amplitude damping here);
        tests/test_plan.py asserts the counter stays 0.0 on a
        unitary-mixture circuit."""
        serial = StatevectorBackend(3)
        assert serial.renorm_seconds == 0.0
        serial.run_fixed(noisy_ghz3_general, {})
        assert serial.renorm_seconds > 0.0
        stacked = BatchedStatevectorBackend(3)
        assert stacked.renorm_seconds == 0.0
        stacked.run_fixed_stack(noisy_ghz3_general, [{}, {0: 1}])
        assert stacked.renorm_seconds > 0.0

    def test_complex64_serial_stacked_bitwise(self, noisy_ghz3, noisy_ghz3_general):
        """The divisor arithmetic is shared at any state dtype: under the
        paper's complex64 the serial scalar path and the stacked array
        path must still produce bitwise-identical states (regression —
        a float64-scalar vs float32-array divisor once diverged here; the
        amplitude-damping circuit is the one that still divides)."""
        from repro.config import Config

        cfg = Config(dtype=np.dtype(np.complex64))
        choices_list = [{}, {0: 1}]
        for circuit in (noisy_ghz3, noisy_ghz3_general):
            stacked = BatchedStatevectorBackend(3, config=cfg)
            weights, alive = stacked.run_fixed_stack(circuit, choices_list)
            assert alive.all()
            assert (stacked.renorm_seconds > 0.0) == (circuit is noisy_ghz3_general)
            for row, choices in enumerate(choices_list):
                serial = StatevectorBackend(3, config=cfg)
                w = serial.run_fixed(circuit, choices)
                assert weights[row] == w
                np.testing.assert_array_equal(
                    stacked.statevector(row), serial.statevector
                )

    def test_dead_rows_still_detected_with_batched_renorm(self):
        from repro.channels.standard import amplitude_damping
        from repro.circuits import Circuit

        circ = Circuit(1).attach(amplitude_damping(0.1), 0).measure_all().freeze()
        stacked = BatchedStatevectorBackend(1)
        weights, alive = stacked.run_fixed_stack(circ, [{0: 1}, {}])
        assert not alive[0] and alive[1]
        assert weights[0] == 0.0 and weights[1] > 0.0
        np.testing.assert_array_equal(stacked.statevector(0), [0.0, 0.0])


#: One layout per GEMM tier on a 10-qubit register: the contiguous view at
#: a mid-register window, the padded short tail, the flat GEMM at the
#: least-significant end, gapped k = 3 (blocked) and gapped k = 4 (moved
#: axes).
PER_ROW_LAYOUTS = [
    pytest.param((3, 4), id="view-mid"),
    pytest.param((6, 7), id="padded-tail-4"),
    pytest.param((7, 8, 9), id="flat-tail-1"),
    pytest.param((1, 4, 6), id="k3-blocked"),
    pytest.param((0, 2, 3, 7), id="k4-moved-axes"),
]


def _per_row_by_masks(ops, variant, tail):
    """The per-row operator array filled one variant at a time (a boolean
    mask per operator), as the per-row call built it before it gathered
    from an :class:`OperatorStack`; kept as the gather's oracle."""
    first = ops[0].padded(tail)
    matrices = np.empty((len(variant),) + first.shape, dtype=first.dtype)
    for position, op in enumerate(ops):
        matrices[variant == position] = op.padded(tail)
    return matrices


class TestPerRowOperators:
    """``apply_compiled_stack(stack, OperatorStack(variants), n, out,
    variant)``: one call in which every row takes its own operator, bitwise
    the one-operator call on that row alone."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    @pytest.mark.parametrize("targets", PER_ROW_LAYOUTS)
    def test_each_row_is_its_one_operator_call(self, targets, rows, dtype):
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(rows + len(targets))
        variants = [
            compile_operator(random_unitary(2 ** len(targets), rng), targets, dtype)
            for _ in range(3)
        ]
        assert all(op.gemm for op in variants)
        index = rng.integers(0, len(variants), rows)
        index[: min(rows, 3)] = np.arange(min(rows, 3))  # row 0 differs from rows 1 and 2
        stack = _typed_stack(rows, 10, rows, dtype)
        out = np.full_like(stack, np.nan)
        result = apply_compiled_stack(stack.copy(), OperatorStack(variants), 10, out, index)
        assert result is out and result.dtype == dtype
        for row, v in enumerate(index):
            single = apply_compiled_stack(stack[row : row + 1].copy(), variants[v], 10)
            assert np.array_equal(result[row], single[0]), (row, v)

    def test_fresh_output_without_out(self):
        rng = np.random.default_rng(4)
        variants = [compile_operator(random_unitary(4, rng), (3, 4), DTYPE) for _ in range(2)]
        stack = _random_stack(3, 8, 5)
        index = np.array([1, 0, 1])
        result = apply_compiled_stack(stack, OperatorStack(variants), 8, variant=index)
        assert result is not stack
        single = apply_compiled_stack(stack[1:2].copy(), variants[0], 8)
        np.testing.assert_array_equal(result[1], single[0])

    def test_gemm_marks_the_tiers_per_row_calls_accept(self):
        from repro.circuits.gates import CX

        rng = np.random.default_rng(6)
        assert compile_operator(random_unitary(4, rng), (2, 3), DTYPE).gemm  # view
        assert compile_operator(random_unitary(8, rng), (0, 2, 5), DTYPE).gemm  # k3 blocked
        assert compile_operator(random_unitary(16, rng), (0, 2, 3, 7), DTYPE).gemm  # moved axes
        assert not compile_operator(random_unitary(4, rng), (1, 3), DTYPE).gemm  # k2 slices
        assert not compile_operator(CX.matrix, (0, 1), DTYPE).gemm  # sparse
        assert not compile_operator(np.diag([1, 1j, -1, 1]), (0, 1), DTYPE).gemm
        assert not compile_operator(1j * np.eye(2), (0,), DTYPE).gemm

    def test_rejects_mixed_targets_or_a_non_gemm_variant(self):
        from repro.circuits.gates import CX

        rng = np.random.default_rng(8)
        dense = compile_operator(random_unitary(4, rng), (2, 3), DTYPE)
        stack = _random_stack(2, 6, 1)
        index = np.array([0, 1])
        with pytest.raises(ValueError, match="GEMM tier"):
            OperatorStack([dense, compile_operator(random_unitary(4, rng), (3, 4), DTYPE)])
        sparse = OperatorStack([dense, compile_operator(CX.matrix, (2, 3), DTYPE)])
        with pytest.raises(ValueError, match="GEMM tier"):
            apply_compiled_stack(stack.copy(), sparse, 6, variant=index)
        # A non-GEMM operator no row takes is no obstacle.
        result = apply_compiled_stack(stack.copy(), sparse, 6, variant=np.array([0, 0]))
        np.testing.assert_array_equal(result, apply_compiled_stack(stack.copy(), dense, 6))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "targets",
        [
            pytest.param((3, 4), id="view-mid"),
            pytest.param((6, 7), id="padded-tail-4"),
            pytest.param((1, 4, 6), id="k3-blocked"),
            pytest.param((0, 2, 3, 7), id="k4-moved-axes"),
        ],
    )
    def test_the_gather_is_the_list_form_byte_for_byte(self, targets, dtype):
        """The per-row array is one gather of the stack's persistent
        matrices (padded on a short tail), byte-equal to filling it one
        variant at a time, also after the stack grows past its first
        capacity while rows are in use."""
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(len(targets))
        ops = [
            compile_operator(random_unitary(2 ** len(targets), rng), targets, dtype)
            for _ in range(7)
        ]
        tail = 2**10 >> (targets[-1] + 1)
        uses = tail if ops[0].gemm_view and (2 ** len(targets)) * tail <= 32 else 1
        assert (uses > 1) == (targets == (6, 7))
        table = OperatorStack(ops[:2])
        for count in (2, 3, 7):
            table.extend(ops[len(table.ops) : count])
            variant = rng.integers(0, count, 64)
            got = apply_mod._per_row(table, variant, uses)
            want = _per_row_by_masks(ops[:count], variant, uses)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), count
        stack = _typed_stack(64, 10, 3, dtype)
        result = apply_compiled_stack(stack.copy(), table, 10, variant=variant)
        for row in (0, 31, 63):
            single = apply_compiled_stack(stack[row : row + 1].copy(), ops[variant[row]], 10)
            assert result[row].tobytes() == single[0].tobytes()
