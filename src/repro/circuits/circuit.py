"""The :class:`Circuit` container.

A circuit is built with a fluent API::

    circ = Circuit(3)
    circ.h(0).cx(0, 1).cx(1, 2)
    circ.attach(depolarizing(0.01), 1)
    circ.measure_all()

and then *frozen* before simulation.  Freezing assigns each
:class:`~repro.circuits.operations.NoiseOp` a stable ``site_id`` — the
identifier that Pre-Trajectory Sampling uses to address stochastic decisions
and that provenance metadata reports.

The container deliberately separates coherent structure from noise:
``circ.coherent_ops`` / ``circ.noise_sites`` views are what the PTS layer
consumes (paper Fig. 2's partitioning of a noisy circuit).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import (
    CX,
    CZ,
    SWAP,
    Gate,
    H,
    RX,
    RY,
    RZ,
    S,
    SDG,
    SX,
    SXDG,
    SY,
    SYDG,
    T,
    TDG,
    X,
    Y,
    Z,
)
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp, Operation
from repro.errors import CircuitError

__all__ = ["Circuit"]


class Circuit:
    """Ordered sequence of operations on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits <= 0:
            raise CircuitError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._ops: List[Operation] = []
        #: The noise ops in site-id order and the measured qubits, read
        #: once by freeze().
        self._sites: Tuple[NoiseOp, ...] = ()
        self._measured: Tuple[int, ...] = ()
        self._frozen = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _check_mutable(self) -> None:
        if self._frozen:
            raise CircuitError("circuit is frozen; copy() it to modify")

    def _check_range(self, qubits: Sequence[int]) -> None:
        for q in qubits:
            if not (0 <= q < self.num_qubits):
                raise CircuitError(f"qubit {q} out of range for {self.num_qubits}-qubit circuit")

    def append(self, op: Operation) -> "Circuit":
        """Append a pre-built operation."""
        self._check_mutable()
        self._check_range(op.qubits)
        self._ops.append(op)
        return self

    def gate(self, gate: Gate, *qubits: int) -> "Circuit":
        """Append ``gate`` on ``qubits``."""
        return self.append(GateOp(gate, tuple(qubits)))

    def attach(self, channel, *qubits: int) -> "Circuit":
        """Attach a noise channel at this point in the circuit."""
        return self.append(NoiseOp(channel, tuple(qubits)))

    def measure(self, *qubits: int, key: str = "m") -> "Circuit":
        """Measure the listed qubits in the computational basis."""
        return self.append(MeasureOp(tuple(qubits), key=key))

    def measure_all(self, key: str = "m") -> "Circuit":
        """Measure every qubit, in index order."""
        return self.measure(*range(self.num_qubits), key=key)

    # Named gate shorthands -------------------------------------------- #
    def i(self, q: int) -> "Circuit":
        from repro.circuits.gates import I

        return self.gate(I, q)

    def x(self, q: int) -> "Circuit":
        return self.gate(X, q)

    def y(self, q: int) -> "Circuit":
        return self.gate(Y, q)

    def z(self, q: int) -> "Circuit":
        return self.gate(Z, q)

    def h(self, q: int) -> "Circuit":
        return self.gate(H, q)

    def s(self, q: int) -> "Circuit":
        return self.gate(S, q)

    def sdg(self, q: int) -> "Circuit":
        return self.gate(SDG, q)

    def t(self, q: int) -> "Circuit":
        return self.gate(T, q)

    def tdg(self, q: int) -> "Circuit":
        return self.gate(TDG, q)

    def sx(self, q: int) -> "Circuit":
        return self.gate(SX, q)

    def sxdg(self, q: int) -> "Circuit":
        return self.gate(SXDG, q)

    def sy(self, q: int) -> "Circuit":
        return self.gate(SY, q)

    def sydg(self, q: int) -> "Circuit":
        return self.gate(SYDG, q)

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.gate(RX(theta), q)

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.gate(RY(theta), q)

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.gate(RZ(theta), q)

    def cx(self, control: int, target: int) -> "Circuit":
        return self.gate(CX, control, target)

    def cz(self, a: int, b: int) -> "Circuit":
        return self.gate(CZ, a, b)

    def swap(self, a: int, b: int) -> "Circuit":
        return self.gate(SWAP, a, b)

    # ------------------------------------------------------------------ #
    # freezing / views
    # ------------------------------------------------------------------ #
    def freeze(self) -> "Circuit":
        """Assign noise-site ids and make the circuit immutable.

        Idempotent.  Site ids count noise ops in program order, starting
        at 0.
        """
        if self._frozen:
            return self
        sites: List[NoiseOp] = []
        for idx, op in enumerate(self._ops):
            if isinstance(op, NoiseOp):
                self._ops[idx] = op = op.with_site_id(len(sites))
                sites.append(op)
        self._sites = tuple(sites)
        self._measured = self.measured_qubits
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def copy(self) -> "Circuit":
        """Mutable deep-enough copy (operations are immutable, list is new)."""
        out = Circuit(self.num_qubits, name=self.name)
        out._ops = [
            op.with_site_id(None) if isinstance(op, NoiseOp) else op for op in self._ops
        ]
        return out

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._ops)

    @property
    def coherent_ops(self) -> Tuple[GateOp, ...]:
        """All gate operations in program order."""
        return tuple(op for op in self._ops if isinstance(op, GateOp))

    @property
    def noise_sites(self) -> Tuple[NoiseOp, ...]:
        """All noise-channel attachment points in program order.

        Requires the circuit to be frozen so ``site_id`` is populated.
        """
        if not self._frozen:
            raise CircuitError("freeze() the circuit before reading noise_sites")
        return self._sites

    @property
    def measurements(self) -> Tuple[MeasureOp, ...]:
        return tuple(op for op in self._ops if isinstance(op, MeasureOp))

    @property
    def measured_qubits(self) -> Tuple[int, ...]:
        """Qubits measured, in measurement order (concatenated over ops)."""
        if self._frozen:
            return self._measured
        out: List[int] = []
        for m in self.measurements:
            out.extend(m.qubits)
        return tuple(out)

    def num_noise_sites(self) -> int:
        return sum(1 for op in self._ops if isinstance(op, NoiseOp))

    def num_gates(self) -> int:
        return sum(1 for op in self._ops if isinstance(op, GateOp))

    def depth(self) -> int:
        """Depth counting gate + noise ops scheduled greedily into moments."""
        from repro.circuits.moments import schedule_moments

        return len(schedule_moments(self))

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def extend(self, other: "Circuit", qubit_map: Optional[Sequence[int]] = None) -> "Circuit":
        """Append all of ``other``'s operations, optionally remapping qubits.

        ``qubit_map[i]`` is the qubit of *self* that ``other``'s qubit ``i``
        lands on.  Noise site ids are re-assigned at freeze time.
        """
        self._check_mutable()
        if qubit_map is None:
            qubit_map = list(range(other.num_qubits))
        if len(qubit_map) != other.num_qubits:
            raise CircuitError(
                f"qubit_map has {len(qubit_map)} entries for a {other.num_qubits}-qubit circuit"
            )
        self._check_range(qubit_map)
        for op in other._ops:
            mapped = tuple(qubit_map[q] for q in op.qubits)
            if isinstance(op, GateOp):
                self.append(GateOp(op.gate, mapped))
            elif isinstance(op, NoiseOp):
                self.append(NoiseOp(op.channel, mapped))
            else:
                self.append(MeasureOp(mapped, key=op.key))
        return self

    def without_noise(self) -> "Circuit":
        """Copy with every :class:`NoiseOp` removed (the ideal circuit)."""
        out = Circuit(self.num_qubits, name=f"{self.name}_ideal")
        for op in self._ops:
            if not isinstance(op, NoiseOp):
                out.append(op)
        return out

    def without_measurements(self) -> "Circuit":
        """Copy with every :class:`MeasureOp` removed."""
        out = Circuit(self.num_qubits, name=f"{self.name}_nomeas")
        for op in self._ops:
            if not isinstance(op, MeasureOp):
                out.append(op)
        return out

    def unitary(self) -> np.ndarray:
        """Dense unitary of the coherent part (small circuits only)."""
        from repro.linalg.kron import embed_operator

        dim = 2**self.num_qubits
        if self.num_qubits > 12:
            raise CircuitError("unitary() limited to <= 12 qubits")
        u = np.eye(dim, dtype=np.complex128)
        for op in self.coherent_ops:
            u = embed_operator(op.gate.matrix, op.qubits, self.num_qubits) @ u
        return u

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, idx):
        return self._ops[idx]

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, qubits={self.num_qubits}, ops={len(self._ops)}, "
            f"noise_sites={self.num_noise_sites()}, frozen={self._frozen})"
        )
