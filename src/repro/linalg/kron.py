"""Kronecker-product utilities and operator embedding.

These helpers construct full ``2**n x 2**n`` matrices from small gate
matrices.  :func:`embed_operator` is on the hot path of plan compilation:
it embeds every factor of every fused window variant onto the window's
support (:func:`repro.linalg.fusion.expand_to_support`, a few qubits
wide), and it also builds :meth:`Circuit.unitary` at the full register
width.  The statevector backends never materialize a full-register
operator (they apply windows in place on the state tensor).

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
    Memory is two ``2**n x 2**n`` arrays (the block layout and its
    transpose), so at the full register width it is for small ``n``
    (:meth:`Circuit.unitary`); on a fusion window's support it costs a
    few microseconds per factor.
    """
    targets = list(targets)
    k = len(targets)
    matrix = _validate_gate_matrix(matrix, k)
    if len(set(targets)) != k:
        raise GateError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= num_qubits for t in targets):
        raise GateError(f"targets {targets} out of range for {num_qubits} qubits")

    # ``matrix`` on the leading k wires and the identity on the other
    # n - k: in a (2**k, rest, 2**k, rest) layout, block (a, b) is
    # ``matrix[a, b]`` times the identity of the rest, so only the diagonal
    # of the rest axes is filled -- the entries a tensordot against the
    # identity produces, without the products.
    rest = 2 ** (num_qubits - k)
    dtype = np.result_type(matrix.dtype, np.complex128)
    full = np.zeros((2**k, rest, 2**k, rest), dtype=dtype)
    diagonal = np.arange(rest)
    full[:, diagonal, :, diagonal] = matrix
    # Wire i is circuit qubit targets[i] for i < k, then the non-targets in
    # ascending order; one axis transpose puts every qubit at its axis.
    wires = targets + [q for q in range(num_qubits) if q not in targets]
    order = [wires.index(q) for q in range(num_qubits)]
    order += [num_qubits + axis for axis in order]
    full = full.reshape((2,) * (2 * num_qubits)).transpose(order)
    return full.reshape(2**num_qubits, 2**num_qubits)
