"""Window algebra for gate/noise kernel fusion (qsim-style gate fusion).

Dense simulators spend their time streaming the state through many small
kernels; fusing adjacent operators whose qubit supports overlap into one
larger matrix trades tiny passes for fewer, denser ones — the dominant
dense-simulator optimization of Isakov et al. ("Simulations of Quantum
Circuits with Approximate Noise using qsim and Cirq").  This module is the
*matrix* half of that story: given a window — a list of operators in
application order plus the window's combined qubit support — build the
single ``(2**w, 2**w)`` matrix equal to applying them in sequence.

The *scheduling* half (which circuit operations form a window) lives in
:func:`repro.circuits.moments.schedule_fusion_windows`, and the compiled
execution plan that ties both to the backends lives in
:mod:`repro.execution.plan`.  Everything here is host-side NumPy on small
matrices — fusion products never touch the ``(B, 2**n)`` stack.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import GateError
from repro.linalg.kron import embed_operator

__all__ = [
    "expand_to_support",
    "fuse_window_matrix",
    "multiply_window",
    "window_support",
]


def window_support(qubit_groups: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Sorted union of the qubit tuples of a window's operators.

    Sorted is load-bearing: fused window matrices are always built on
    ascending support, so compiled window operators land on the
    reshape-view kernel tiers of :mod:`repro.linalg.apply` (which serve
    ascending targets up to 3 qubits) without a canonicalization step.
    """
    support = set()
    for qubits in qubit_groups:
        support.update(qubits)
    return tuple(sorted(support))


def expand_to_support(
    matrix: np.ndarray, qubits: Sequence[int], support: Sequence[int]
) -> np.ndarray:
    """Embed an operator on ``qubits`` into a window's ``support``.

    ``qubits`` are circuit qubit indices in the operator's own axis order
    (so non-ascending 2-qubit targets keep their meaning); ``support`` is
    the window's qubit tuple.  Returns the dense
    ``(2**len(support), 2**len(support))`` host matrix acting as the
    operator on its qubits and as identity on the rest of the window.
    """
    support = tuple(support)
    try:
        local = [support.index(q) for q in qubits]
    except ValueError:
        raise GateError(
            f"operator qubits {tuple(qubits)} not contained in window support {support}"
        )
    return embed_operator(np.asarray(matrix), local, len(support))


def multiply_window(expanded: Iterable[np.ndarray]) -> np.ndarray:
    """``M_last @ ... @ M_0`` of factors already expanded onto one support.

    The factors come in *application order* (the first acts first).  The
    product is accumulated in complex128 on host; callers cast to the
    state dtype when compiling the fused operator
    (:func:`repro.linalg.apply.compile_operator`), exactly as they would
    for an unfused gate matrix.
    """
    acc = None
    for factor in expanded:
        acc = factor if acc is None else factor @ acc
    if acc is None:
        raise GateError("cannot fuse an empty operator window")
    return np.ascontiguousarray(acc.astype(np.complex128, copy=False))


def fuse_window_matrix(
    operators: Sequence[Tuple[np.ndarray, Sequence[int]]],
    support: Sequence[int],
) -> np.ndarray:
    """Product matrix of a window: apply ``operators`` left-to-right.

    ``operators`` is a sequence of ``(matrix, qubits)`` pairs in
    *application order* (index 0 acts first); the result is
    :func:`multiply_window` of every factor expanded onto ``support``.
    """
    support = tuple(support)
    return multiply_window(
        expand_to_support(matrix, qubits, support) for matrix, qubits in operators
    )
