"""Kronecker-product utilities and operator embedding.

These helpers construct full ``2**n x 2**n`` matrices from small gate
matrices.  They are used by the density-matrix reference backend and by
tests; the statevector backend never materializes full operators (it applies
gates in-place on the state tensor, per the HPC guidance of avoiding
needless big allocations).

Qubit-ordering convention (library-wide): qubit 0 is the *most significant*
bit of a computational-basis index, i.e. basis state ``|q0 q1 ... q(n-1)>``
has integer index ``q0*2**(n-1) + ... + q(n-1)``.  Equivalently, reshaping a
statevector to shape ``(2,)*n`` puts qubit ``i`` on tensor axis ``i``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GateError

__all__ = ["kron_all", "embed_operator", "permute_operator_qubits"]


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right.

    ``kron_all([A, B, C]) == A (x) B (x) C`` — with our convention the
    leftmost factor acts on qubit 0.
    """
    if len(matrices) == 0:
        return np.eye(1)
    out = np.asarray(matrices[0])
    for mat in matrices[1:]:
        out = np.kron(out, np.asarray(mat))
    return out


def _validate_gate_matrix(matrix: np.ndarray, num_targets: int) -> np.ndarray:
    matrix = np.asarray(matrix)
    dim = 2**num_targets
    if matrix.shape != (dim, dim):
        raise GateError(
            f"matrix shape {matrix.shape} incompatible with {num_targets} target qubit(s); expected {(dim, dim)}"
        )
    return matrix


def permute_operator_qubits(matrix: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder the qubits an operator acts on.

    ``perm[i] = j`` means qubit ``i`` of the *input* operator becomes qubit
    ``j`` of the output operator.  Used to canonicalize multi-qubit gates
    whose target list is not ascending.
    """
    perm = list(perm)
    k = len(perm)
    matrix = _validate_gate_matrix(matrix, k)
    if sorted(perm) != list(range(k)):
        raise GateError(f"perm {perm} is not a permutation of 0..{k-1}")
    tensor = matrix.reshape((2,) * (2 * k))
    # Row axes 0..k-1, column axes k..2k-1; move input axis i to position perm[i].
    inv = [0] * k
    for i, j in enumerate(perm):
        inv[j] = i
    axes = [inv[a] for a in range(k)] + [k + inv[a] for a in range(k)]
    return tensor.transpose(axes).reshape(2**k, 2**k)


def embed_operator(
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Embed a ``k``-qubit operator acting on ``targets`` into ``n`` qubits.

    Returns the dense ``2**n x 2**n`` matrix ``I (x) ... matrix ... (x) I``
    with the operator's qubit *i* wired to circuit qubit ``targets[i]``.
    Only intended for small ``n`` (reference computations / tests).
    """
    targets = list(targets)
    k = len(targets)
    matrix = _validate_gate_matrix(matrix, k)
    if len(set(targets)) != k:
        raise GateError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= num_qubits for t in targets):
        raise GateError(f"targets {targets} out of range for {num_qubits} qubits")

    # Tensor with row/column axes per qubit, contract the gate in.
    op = matrix.reshape((2,) * (2 * k))
    full = np.eye(2**num_qubits, dtype=np.result_type(matrix.dtype, np.complex128))
    full = full.reshape((2,) * (2 * num_qubits))
    # Row axes of the full operator are 0..n-1.  Contract gate input axes
    # (k..2k-1 of `op`) against the target row axes of the identity.
    res = np.tensordot(op, full, axes=(list(range(k, 2 * k)), targets))
    # tensordot layout: gate output axes first (one per target, in target
    # order), then the surviving identity axes (non-target rows ascending,
    # then all column axes).  Build the permutation back to row-major
    # (rows 0..n-1, columns n..2n-1).
    non_targets = [q for q in range(num_qubits) if q not in targets]
    current_pos = {t: j for j, t in enumerate(targets)}
    for r, q in enumerate(non_targets):
        current_pos[q] = k + r
    order = [current_pos[q] for q in range(num_qubits)]
    order += list(range(num_qubits, 2 * num_qubits))
    return res.transpose(order).reshape(2**num_qubits, 2**num_qubits)
