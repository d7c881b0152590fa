"""Pauli-string algebra.

:class:`PauliString` is a phase-tracked n-qubit Pauli operator in the
symplectic (x-bits, z-bits) representation.  It backs three subsystems:

* the stabilizer tableau backend (:mod:`repro.backends.stabilizer`);
* Pauli twirling (:meth:`~repro.channels.kraus.KrausChannel.pauli_twirl`,
  applied to a whole circuit by :func:`repro.pts.tailored.twirl_circuit`);
* the QEC code machinery (:mod:`repro.qec`).

Representation: ``P = i**phase * prod_q X_q**x[q] * Z_q**z[q]`` with
``phase`` in {0,1,2,3}.  Note the fixed X-then-Z factor order per qubit;
``Y = i * X Z`` so the label "Y" corresponds to ``x=1, z=1, phase += 1``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChannelError

__all__ = [
    "PauliString",
    "pauli_from_unitary",
    "paulis_from_unitaries",
    "pauli_string_matrix",
    "all_pauli_labels",
    "weight_bounded_paulis",
]

_SINGLE = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class PauliString:
    """Phase-tracked Pauli string on ``n`` qubits."""

    __slots__ = ("x", "z", "phase")

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: int = 0):
        self.x = np.asarray(x, dtype=np.uint8) % 2
        self.z = np.asarray(z, dtype=np.uint8) % 2
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ChannelError("x and z bit vectors must be equal-length 1-D arrays")
        self.phase = int(phase) % 4

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(np.zeros(num_qubits, dtype=np.uint8), np.zeros(num_qubits, dtype=np.uint8))

    @classmethod
    def from_label(cls, label: str, phase: int = 0) -> "PauliString":
        """Build from a label like ``"XIZY"`` (qubit 0 is the left char)."""
        n = len(label)
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        ph = phase
        for i, ch in enumerate(label.upper()):
            if ch == "I":
                continue
            if ch == "X":
                x[i] = 1
            elif ch == "Z":
                z[i] = 1
            elif ch == "Y":
                x[i] = 1
                z[i] = 1
                ph += 1  # Y = i * X Z
            else:
                raise ChannelError(f"invalid Pauli character {ch!r} in {label!r}")
        return cls(x, z, ph)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, kind: str) -> "PauliString":
        """Single-qubit Pauli ``kind`` on ``qubit``, identity elsewhere."""
        label = ["I"] * num_qubits
        label[qubit] = kind.upper()
        return cls.from_label("".join(label))

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return len(self.x)

    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return int(np.count_nonzero(self.x | self.z))

    def support(self) -> Tuple[int, ...]:
        """Qubits on which the string acts nontrivially."""
        return tuple(int(q) for q in np.nonzero(self.x | self.z)[0])

    def label(self) -> str:
        """Phase-free label (``"XIZY"`` style)."""
        out = []
        for xi, zi in zip(self.x, self.z):
            if xi and zi:
                out.append("Y")
            elif xi:
                out.append("X")
            elif zi:
                out.append("Z")
            else:
                out.append("I")
        return "".join(out)

    def phase_factor(self) -> complex:
        """The overall scalar ``i**phase`` adjusted so labels are Hermitian.

        ``PauliString.from_label`` stores Y as ``i * XZ``; this returns the
        net scalar multiplying the Hermitian Pauli-matrix product of
        :meth:`label`.
        """
        # Each Y in the label contributes a stored +1 phase that the
        # Hermitian Y matrix already includes, so subtract them.
        ys = int(np.count_nonzero(self.x & self.z))
        return 1j ** ((self.phase - ys) % 4)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "PauliString") -> "PauliString":
        """Group multiplication with phase tracking: self * other."""
        if self.num_qubits != other.num_qubits:
            raise ChannelError("Pauli strings act on different qubit counts")
        # (X^a Z^b)(X^c Z^d) = (-1)^(b.c) X^(a+c) Z^(b+d) per qubit.
        anti = int(np.count_nonzero(self.z & other.x))
        phase = (self.phase + other.phase + 2 * anti) % 4
        return PauliString(self.x ^ other.x, self.z ^ other.z, phase)

    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic commutation test (phases are irrelevant)."""
        if self.num_qubits != other.num_qubits:
            raise ChannelError("Pauli strings act on different qubit counts")
        sym = int(np.count_nonzero(self.x & other.z)) + int(np.count_nonzero(self.z & other.x))
        return sym % 2 == 0

    def adjoint(self) -> "PauliString":
        """Hermitian adjoint (inverts the phase)."""
        # (i^p X^a Z^b)^dag = (-i)^p Z^b X^a = (-i)^p (-1)^(a.b) X^a Z^b
        anti = int(np.count_nonzero(self.x & self.z))
        return PauliString(self.x.copy(), self.z.copy(), (-self.phase + 2 * anti) % 4)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and self.phase == other.phase
        )

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes(), self.phase))

    def equal_up_to_phase(self, other: "PauliString") -> bool:
        return np.array_equal(self.x, other.x) and np.array_equal(self.z, other.z)

    # ------------------------------------------------------------------ #
    # dense
    # ------------------------------------------------------------------ #
    def to_matrix(self) -> np.ndarray:
        """Dense matrix, including the tracked phase (small n only)."""
        n = self.num_qubits
        if n > 12:
            raise ChannelError("to_matrix() limited to <= 12 qubits")
        mat = np.ones((1, 1), dtype=np.complex128)
        for xi, zi in zip(self.x, self.z):
            factor = _SINGLE["I"]
            if xi and zi:
                factor = _SINGLE["X"] @ _SINGLE["Z"]  # = -i Y
            elif xi:
                factor = _SINGLE["X"]
            elif zi:
                factor = _SINGLE["Z"]
            mat = np.kron(mat, factor)
        return (1j**self.phase) * mat

    def __repr__(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        return f"{prefix}{self.label()}"


def pauli_string_matrix(label: str) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli label (``Y`` is the usual Y)."""
    mat = np.ones((1, 1), dtype=np.complex128)
    for ch in label.upper():
        if ch not in _SINGLE:
            raise ChannelError(f"invalid Pauli character {ch!r}")
        mat = np.kron(mat, _SINGLE[ch])
    return mat


def pauli_from_unitary(matrix: np.ndarray, num_qubits: int) -> Optional[PauliString]:
    """Recognize a matrix as (phase times) a Pauli string, else ``None``:
    :func:`paulis_from_unitaries` on one matrix."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2**num_qubits,) * 2:
        return None
    return paulis_from_unitaries(matrix[None], num_qubits)[0]


def paulis_from_unitaries(
    matrices: np.ndarray, num_qubits: int
) -> List[Optional[PauliString]]:
    """Recognize each of a ``(m, 2**n, 2**n)`` stack of matrices as (phase
    times) a Pauli string, else ``None``, in one pass over the stack.

    Algebraic recognition from the sparsity pattern instead of a trace
    test against all ``4**n`` Pauli matrices: a Pauli-string matrix has
    exactly one nonzero per column, ``M[j ^ a, j] = v0 * (-1)^popcount(
    zmask & j)`` with ``a`` the X mask and ``zmask`` the Z mask over
    basis-index bits (qubit 0 = most significant, the kron order of
    :func:`pauli_string_matrix`).  The X mask is
    read off column 0's nonzero row, the Z mask off the sign ratios at
    the power-of-two columns, then each whole matrix is verified against
    the implied pattern — O(4**n) work per matrix that is already O(4**n)
    large, versus O(16**n) for the scan.  The overall scalar ``v0`` must
    have unit modulus; the result carries the phase of its label alone.
    """
    atol = 1e-8
    matrices = np.asarray(matrices, dtype=np.complex128)
    count, dim = len(matrices), 2**num_qubits
    branch = np.arange(count)
    # X mask from column 0: the single nonzero sits at row a = xmask.
    col0 = matrices[:, :, 0]
    nonzero = np.abs(col0) > atol
    a = nonzero.argmax(axis=1)
    v0 = col0[branch, a]
    ok = (nonzero.sum(axis=1) == 1) & (np.abs(np.abs(v0) - 1.0) <= atol)
    v0 = np.where(ok, v0, 1.0)  # a refused matrix divides by 1, not by 0
    # Z mask from the sign ratio at each power-of-two column.
    zmask = np.zeros(count, dtype=np.intp)
    for bit in range(num_qubits):
        j = 1 << bit
        ratio = matrices[branch, j ^ a, j] / v0
        plus = np.abs(ratio - 1.0) <= atol
        ok &= plus | (np.abs(ratio + 1.0) <= atol)
        zmask[~plus] |= j
    # Verify every matrix against its implied single-nonzero pattern.
    cols = np.arange(dim)
    parity = zmask[:, None] & cols
    for shift in (32, 16, 8, 4, 2, 1):  # XOR-fold popcount parity
        parity ^= parity >> shift
    signs = 1.0 - 2.0 * (parity & 1).astype(np.float64)
    residual = matrices.copy()
    residual[branch[:, None], cols ^ a[:, None], cols] -= v0[:, None] * signs
    # np.allclose(residual, 0, atol=atol), per matrix.
    ok &= (np.abs(residual) <= atol).all(axis=(1, 2))
    # Bit order: qubit 0 is the most significant basis-index bit; each Y
    # is i * X Z, so the phase counts the Ys (as from_label does).
    shifts = np.arange(num_qubits - 1, -1, -1)
    xs = (a[:, None] >> shifts) & 1
    zs = (zmask[:, None] >> shifts) & 1
    return [
        PauliString(x, z, int(np.count_nonzero(x & z))) if good else None
        for good, x, z in zip(ok.tolist(), xs, zs)
    ]


@lru_cache(maxsize=8)
def all_pauli_labels(num_qubits: int) -> Tuple[str, ...]:
    """All ``4**n`` Pauli labels on ``n`` qubits (lexicographic IXYZ order)."""
    if num_qubits > 8:
        raise ChannelError("all_pauli_labels limited to <= 8 qubits")
    return tuple("".join(p) for p in product("IXYZ", repeat=num_qubits))


def weight_bounded_paulis(num_qubits: int, max_weight: int) -> Iterable[PauliString]:
    """Yield every Pauli string of weight 1..max_weight (no identity).

    Used by the brute-force code-distance verifier; the count is
    ``sum_w C(n, w) 3**w`` so keep ``max_weight`` small.
    """
    from itertools import combinations

    for w in range(1, max_weight + 1):
        for support in combinations(range(num_qubits), w):
            for kinds in product("XYZ", repeat=w):
                label = ["I"] * num_qubits
                for q, k in zip(support, kinds):
                    label[q] = k
                yield PauliString.from_label("".join(label))
