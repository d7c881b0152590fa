"""Honestly distributed statevector across emulated devices.

The state is sliced by its leading ``g = log2(D)`` qubits: device ``d``
owns the contiguous amplitude block whose top index bits equal ``d`` —
the standard multi-GPU statevector layout (paper §2.2: "operating on
slices of the state vectors and consolidating the results").

Gates on *local* qubits run independently per slice with zero
communication.  Gates touching *global* (slice-index) qubits gather the
2**k_g participating slices of each device group, apply the kernel, and
scatter back — every byte that crosses a device boundary is counted in
:attr:`bytes_communicated`, so tests can assert both bit-exactness against
the single-device backend *and* the expected communication volume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends.statevector import StatevectorBackend, bits_from_indices
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, NoiseOp
from repro.config import Config, DEFAULT_CONFIG
from repro.devices.device import DeviceMesh
from repro.errors import DeviceError
from repro.linalg.sampling import inverse_cdf_indices

__all__ = ["DistributedStatevector"]


class DistributedStatevector:
    """A 2**n statevector split over a power-of-two device mesh."""

    def __init__(self, num_qubits: int, mesh: DeviceMesh, config: Optional[Config] = None):
        config = config or DEFAULT_CONFIG
        self.num_qubits = int(num_qubits)
        self.mesh = mesh
        self.global_qubits = mesh.global_qubits
        if self.global_qubits >= num_qubits:
            raise DeviceError(
                f"{mesh.num_devices} devices need at least {self.global_qubits + 1} qubits"
            )
        self.local_qubits = num_qubits - self.global_qubits
        self._config = config
        self.local_dim = 2**self.local_qubits
        self.slices: List[np.ndarray] = [
            np.zeros(self.local_dim, dtype=config.dtype) for _ in mesh
        ]
        self.slices[0][0] = 1.0
        self.bytes_communicated = 0
        self.exchange_count = 0

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        for s in self.slices:
            s.fill(0)
        self.slices[0][0] = 1.0
        self.bytes_communicated = 0
        self.exchange_count = 0

    def gather(self) -> np.ndarray:
        """Reassemble the full state (devices own contiguous blocks)."""
        return np.concatenate(self.slices)

    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        targets = list(targets)
        k = len(targets)
        matrix = np.asarray(matrix, dtype=self._config.dtype)
        if matrix.shape != (2**k, 2**k):
            raise DeviceError(f"matrix shape {matrix.shape} incompatible with {targets}")
        global_targets = [t for t in targets if t < self.global_qubits]
        if not global_targets:
            self._apply_local(matrix, targets)
        else:
            self._apply_with_exchange(matrix, targets, global_targets)

    def _apply_local(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """All targets in the local part: independent per-device kernels."""
        local = [t - self.global_qubits for t in targets]
        k = len(local)
        for d in range(self.mesh.num_devices):
            psi = self.slices[d].reshape((2,) * self.local_qubits)
            psi = np.moveaxis(psi, local, range(k))
            shape = psi.shape
            flat = np.ascontiguousarray(psi).reshape(2**k, -1)
            flat = matrix @ flat
            psi = np.moveaxis(flat.reshape(shape), range(k), local)
            self.slices[d] = np.ascontiguousarray(psi).reshape(-1)

    def _apply_with_exchange(
        self, matrix: np.ndarray, targets: Sequence[int], global_targets: Sequence[int]
    ) -> None:
        """Targets include slice-index bits: gather groups, apply, scatter.

        Devices whose indices differ only in the global-target bits form a
        group; their slices are stacked into extra leading axes so the
        standard kernel applies, then scattered back.  All participating
        slices count as communicated (they must cross device boundaries to
        meet, as an all-to-all among the group).
        """
        g = self.global_qubits
        kg = len(global_targets)
        # Bit positions of the global targets inside the device index
        # (device index bit for qubit q is at position g-1-q from the LSB).
        gbits = [g - 1 - t for t in global_targets]
        group_size = 2**kg
        free_bits = [b for b in range(g) if b not in gbits]

        local_targets = [t - g for t in targets if t >= g]
        k = len(targets)

        for free_assign in range(2 ** len(free_bits)):
            base = 0
            for i, b in enumerate(free_bits):
                if (free_assign >> i) & 1:
                    base |= 1 << b
            members = []
            for combo in range(group_size):
                idx = base
                for i, b in enumerate(gbits):
                    if (combo >> (kg - 1 - i)) & 1:
                        idx |= 1 << b
                members.append(idx)
            # Gather: stack member slices along new leading axes.
            stacked = np.stack([self.slices[d] for d in members], axis=0)
            stacked = stacked.reshape((2,) * kg + (2,) * self.local_qubits)
            self.bytes_communicated += sum(self.slices[d].nbytes for d in members)
            self.exchange_count += 1
            # Axis map: global target j -> axis j; local qubit l -> kg + l.
            axes = []
            for t in targets:
                if t < g:
                    axes.append(global_targets.index(t))
                else:
                    axes.append(kg + (t - g))
            psi = np.moveaxis(stacked, axes, range(k))
            shape = psi.shape
            flat = np.ascontiguousarray(psi).reshape(2**k, -1)
            flat = matrix @ flat
            psi = np.moveaxis(flat.reshape(shape), range(k), axes)
            psi = np.ascontiguousarray(psi).reshape(group_size, self.local_dim)
            for pos, d in enumerate(members):
                self.slices[d] = psi[pos].copy()

    # ------------------------------------------------------------------ #
    def norm_squared(self) -> float:
        """Local partial norms + an (emulated) all-reduce."""
        partials = [float(np.real(np.vdot(s, s))) for s in self.slices]
        self.bytes_communicated += 8 * len(partials)  # the all-reduce scalars
        return float(sum(partials))

    def renormalize(self) -> float:
        n2 = self.norm_squared()
        if n2 <= 0:
            raise DeviceError("cannot renormalize a zero state")
        scale = 1.0 / np.sqrt(n2)
        for s in self.slices:
            s *= scale
        return n2

    def run_fixed(self, circuit: Circuit, kraus_choices: Optional[Dict[int, int]] = None) -> None:
        """Distributed version of the BE preparation primitive."""
        kraus_choices = kraus_choices or {}
        self.reset()
        for op in circuit:
            if isinstance(op, GateOp):
                self.apply_matrix(op.gate.matrix, op.qubits)
            elif isinstance(op, NoiseOp):
                idx = kraus_choices.get(op.site_id, op.channel.dominant_index())
                self.apply_matrix(op.channel.kraus_ops[idx], op.qubits)
                self.renormalize()

    # ------------------------------------------------------------------ #
    def sample(
        self, num_shots: int, qubits: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Two-level distributed sampling: pick a device, then an offset.

        Mirrors the distributed bulk-sampling pattern: each device reports
        its probability mass (one all-reduce), shots are multinomially
        routed to devices, and each device samples its shots locally.
        """
        block = np.array([float(np.sum(np.abs(s) ** 2)) for s in self.slices])
        self.bytes_communicated += 8 * len(block)
        total = block.sum()
        if total <= 0:
            raise DeviceError("state has zero norm")
        block = block / total
        per_device = rng.multinomial(num_shots, block)
        indices = np.empty(num_shots, dtype=np.int64)
        pos = 0
        for d, count in enumerate(per_device):
            if count == 0:
                continue
            probs = np.abs(self.slices[d]) ** 2
            probs = probs / probs.sum()
            cum = np.cumsum(probs)
            cum[-1] = 1.0
            local = inverse_cdf_indices(cum, rng.random(count))
            indices[pos : pos + count] = (d << self.local_qubits) | local
            self.bytes_communicated += int(count) * 8  # shipping shot indices
            pos += count
        # Shots were generated grouped by device; shuffle to restore
        # exchangeability of the shot stream.
        rng.shuffle(indices)
        return bits_from_indices(indices, qubits, self.num_qubits)

    def __repr__(self) -> str:
        return (
            f"DistributedStatevector(qubits={self.num_qubits}, devices={self.mesh.num_devices}, "
            f"comm={self.bytes_communicated/1e6:.2f}MB)"
        )
