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

from functools import lru_cache
from typing import Sequence, Tuple

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


@lru_cache(maxsize=256)
def _embed_pattern(targets: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Flat positions, in a ``2**n x 2**n`` matrix, of the entries an
    operator on ``targets`` fills: row ``a * 2**k + b`` lists where entry
    ``(a, b)`` goes, once per basis state of the other ``n - k`` qubits.

    Depends only on the integers it is keyed by, so it is built once per
    ``(targets, n)`` for every operator embedded there."""
    def place(count: int, wires: Sequence[int]) -> np.ndarray:
        # The index whose wire bits (wire 0 most significant) spell each of
        # ``count`` values, every other bit 0.
        values = np.arange(count)
        index = np.zeros(count, dtype=np.intp)
        for bit, wire in enumerate(reversed(wires)):
            index |= ((values >> bit) & 1) << (num_qubits - 1 - wire)
        return index

    k = len(targets)
    dim = 2**num_qubits
    own = place(2**k, targets)
    rest = place(2 ** (num_qubits - k), [q for q in range(num_qubits) if q not in targets])
    rows = (own[:, None] + rest) * dim
    cols = own[:, None] + rest
    pattern = (rows[:, None, :] + cols[None, :, :]).reshape(4**k, -1)
    pattern.flags.writeable = False  # every caller shares it
    return pattern


def embed_operator(
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Embed a ``k``-qubit operator acting on ``targets`` into ``n`` qubits.

    Returns the dense ``2**n x 2**n`` matrix ``I (x) ... matrix ... (x) I``
    with the operator's qubit *i* wired to circuit qubit ``targets[i]``:
    entry ``(a, b)`` of ``matrix`` lands wherever the target bits of row
    and column spell ``a`` and ``b`` and the other bits agree, placed in
    one assignment through a cached index pattern (:func:`_embed_pattern`).
    At the full register width it is for small ``n``
    (:meth:`Circuit.unitary`); on a fusion window's support it costs a
    few microseconds per factor.
    """
    targets = tuple(targets)
    k = len(targets)
    matrix = _validate_gate_matrix(matrix, k)
    if len(set(targets)) != k:
        raise GateError(f"duplicate target qubits: {list(targets)}")
    if any(t < 0 or t >= num_qubits for t in targets):
        raise GateError(f"targets {list(targets)} out of range for {num_qubits} qubits")
    dim = 2**num_qubits
    full = np.zeros(dim * dim, dtype=np.result_type(matrix.dtype, np.complex128))
    full[_embed_pattern(targets, num_qubits)] = matrix.reshape(-1, 1)
    return full.reshape(dim, dim)
