"""Exact density-matrix backend (the 4**n reference).

This is the ground truth every approximation is validated against: the
conventional trajectory baseline, PTSBE's proportionally-resampled output
distribution, and the MPS backend all must converge to the distribution this
backend computes exactly.  It is deliberately simple and capped at few
qubits (paper §1: direct density-matrix simulation is "intractable beyond
~20 qubits"; for tests we stay well below).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.channels.kraus import KrausChannel
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, CapacityError
from repro.linalg.sampling import bits_from_indices, inverse_cdf_indices

__all__ = ["DensityMatrixBackend"]


class DensityMatrixBackend:
    """Exact open-system simulator: ``rho -> U rho U^dag`` / ``sum K rho K^dag``."""

    def __init__(self, num_qubits: int, config: Optional[Config] = None):
        config = config or DEFAULT_CONFIG
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        if num_qubits > config.max_density_qubits:
            raise CapacityError(
                f"{num_qubits} qubits exceeds the density-matrix cap of "
                f"{config.max_density_qubits} (4**n scaling)"
            )
        self.num_qubits = int(num_qubits)
        self._config = config
        self._dim = 2**num_qubits
        self._rho = np.zeros((self._dim, self._dim), dtype=np.complex128)
        self._rho[0, 0] = 1.0

    # ------------------------------------------------------------------ #
    @property
    def density_matrix(self) -> np.ndarray:
        return self._rho

    def reset(self) -> None:
        self._rho.fill(0)
        self._rho[0, 0] = 1.0

    def _apply_one_sided(self, matrix: np.ndarray, targets: Sequence[int], side: str) -> None:
        """Apply ``matrix`` to the row (ket) or column (bra) indices."""
        n = self.num_qubits
        k = len(targets)
        tensor = self._rho.reshape((2,) * (2 * n))
        axes = list(targets) if side == "ket" else [n + t for t in targets]
        tensor = np.moveaxis(tensor, axes, range(k))
        shape = tensor.shape
        flat = np.ascontiguousarray(tensor).reshape(2**k, -1)
        mat = matrix if side == "ket" else matrix.conj()
        flat = np.asarray(mat) @ flat
        tensor = np.moveaxis(flat.reshape(shape), range(k), axes)
        self._rho = np.ascontiguousarray(tensor).reshape(self._dim, self._dim)

    def apply_unitary(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """rho -> U rho U^dag on the target qubits."""
        self._apply_one_sided(matrix, targets, "ket")
        self._apply_one_sided(matrix, targets, "bra")

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> None:
        self.apply_unitary(gate.matrix, qubits)

    def apply_channel(self, channel: KrausChannel, qubits: Sequence[int]) -> None:
        """Exact channel action: rho -> sum_i K_i rho K_i^dag."""
        out = np.zeros_like(self._rho)
        saved = self._rho
        for k in channel.kraus_ops:
            self._rho = saved.copy()
            self._apply_one_sided(k, qubits, "ket")
            self._apply_one_sided(k, qubits, "bra")
            out += self._rho
        self._rho = out

    def run(self, circuit: Circuit) -> "DensityMatrixBackend":
        """Execute a (frozen or not) noisy circuit exactly."""
        self.reset()
        for op in circuit:
            if isinstance(op, GateOp):
                self.apply_gate(op.gate, op.qubits)
            elif isinstance(op, NoiseOp):
                self.apply_channel(op.channel, op.qubits)
            # MeasureOps deferred: probabilities read off the final rho.
        return self

    # ------------------------------------------------------------------ #
    # read-out
    # ------------------------------------------------------------------ #
    def probabilities(self) -> np.ndarray:
        """Diagonal of rho — the exact shot distribution."""
        probs = np.real(np.diagonal(self._rho)).copy()
        probs[probs < 0] = 0.0
        total = probs.sum()
        if total <= 0:
            raise BackendError("density matrix has zero trace")
        return probs / total

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Exact marginal distribution over the listed qubits (in order)."""
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        keep = list(qubits)
        drop = tuple(a for a in range(self.num_qubits) if a not in keep)
        marg = probs.sum(axis=drop) if drop else probs
        # Axes of marg are the kept qubits in ascending order; reorder to
        # the requested order.
        ascending = sorted(keep)
        perm = [ascending.index(q) for q in keep]
        return np.transpose(marg, perm).reshape(-1)

    def sample(
        self, num_shots: int, qubits: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Bulk shot sampling from the exact distribution."""
        full = self.probabilities()
        cum = np.cumsum(full)
        cum[-1] = 1.0
        idx = inverse_cdf_indices(cum, rng.random(num_shots))
        return bits_from_indices(idx, qubits, self.num_qubits)

    def expectation(self, operator: np.ndarray) -> complex:
        """tr(rho O) for a full-dimension operator."""
        return complex(np.trace(self._rho @ np.asarray(operator)))

    def purity(self) -> float:
        """tr(rho**2); 1 for pure states."""
        return float(np.real(np.trace(self._rho @ self._rho)))

    def fidelity_with_pure(self, state: np.ndarray) -> float:
        """<psi| rho |psi> against a pure reference state."""
        state = np.asarray(state).reshape(-1)
        return float(np.real(np.vdot(state, self._rho @ state)))

    def __repr__(self) -> str:
        return f"DensityMatrixBackend(qubits={self.num_qubits})"
