"""Abstract pure-state backend interface.

Both the statevector and MPS backends implement this interface; the
trajectory baseline (:mod:`repro.trajectory.baseline`) and the batched
execution engine (:mod:`repro.execution.batched`) are written against it,
which is what makes PTSBE "agnostic to simulator design" (paper §3).

Semantics contract
------------------
* Measurements are *deferred*: circuits may place :class:`MeasureOp` ops
  anywhere, but no gate/noise op may touch a qubit after it is measured
  (validated in :func:`validate_deferred_measurement`).  Terminal bulk
  sampling is then exactly equivalent to mid-circuit measurement, because
  none of our workloads feed measurement results forward.
* ``apply_channel_choice`` applies one *fixed* Kraus operator, renormalizing
  the state — this is the primitive batched execution uses to realize a
  pre-sampled trajectory.
* ``branch_probabilities`` returns per-Kraus probabilities for the *current*
  state — the primitive the conventional trajectory baseline needs for
  general (non-unitary-mixture) channels.
"""

from __future__ import annotations

import abc
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channels.kraus import KrausChannel
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.errors import BackendError, ExecutionError, ZeroProbabilityTrajectory

__all__ = ["DEAD_NORM", "PureStateBackend", "validate_deferred_measurement"]

#: Squared norm at or below which a prepared state is annihilated: a dead
#: trajectory row, on every backend.
DEAD_NORM = 1e-300


def validate_deferred_measurement(circuit: Circuit) -> Tuple[int, ...]:
    """``circuit.measured_qubits``, read in the same pass that raises when
    any qubit is operated on after being measured (memoized per frozen
    circuit object: every unit a backend prepares asks again)."""
    if circuit in _DEFERRED:
        return _DEFERRED[circuit]
    order: List[int] = []
    measured = set()
    for op in circuit:
        if isinstance(op, MeasureOp):
            order.extend(op.qubits)
            measured.update(op.qubits)
        elif measured and not measured.isdisjoint(op.qubits):
            raise BackendError(
                f"operation {op!r} acts on already-measured qubit(s) "
                f"{sorted(measured.intersection(op.qubits))}; "
                "this library defers measurements to circuit end"
            )
    if circuit.frozen:
        _DEFERRED[circuit] = tuple(order)
    return tuple(order)


_DEFERRED: "weakref.WeakKeyDictionary[Circuit, Tuple[int, ...]]" = weakref.WeakKeyDictionary()


class PureStateBackend(abc.ABC):
    """A simulator holding one pure state of ``num_qubits`` qubits."""

    num_qubits: int

    # ------------------------------------------------------------------ #
    # state manipulation primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def reset(self) -> None:
        """Return to |0...0>."""

    @abc.abstractmethod
    def apply_matrix(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """Apply a (2**k, 2**k) matrix to ``targets`` (no renormalization)."""

    @abc.abstractmethod
    def norm_squared(self) -> float:
        """<psi|psi> of the current (possibly unnormalized) state."""

    @abc.abstractmethod
    def renormalize(self) -> float:
        """Normalize the state; return the pre-normalization norm**2."""

    @abc.abstractmethod
    def sample(
        self, num_shots: int, qubits: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``num_shots`` computational-basis shots of ``qubits``.

        Returns a ``(num_shots, len(qubits))`` uint8 array of bits, column
        ``j`` being ``qubits[j]``.  This is the *batched* sampling primitive
        — its cost relative to state preparation is the entire PTSBE story.
        """

    # ------------------------------------------------------------------ #
    # derived operations (shared implementations)
    # ------------------------------------------------------------------ #
    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> None:
        """Apply a unitary gate."""
        self.apply_matrix(gate.matrix, qubits)

    def apply_channel_choice(
        self, channel: KrausChannel, qubits: Sequence[int], kraus_index: int
    ) -> float:
        """Apply Kraus operator ``kraus_index`` of ``channel`` and renormalize.

        Returns the squared norm *before* renormalization — i.e. the actual
        (state-dependent) probability this branch would have had under
        conventional trajectory sampling.  PTS consumers use it to compute
        importance weights for proportional estimation.
        """
        if not (0 <= kraus_index < len(channel)):
            raise BackendError(
                f"kraus_index {kraus_index} out of range for {channel.name!r} "
                f"({len(channel)} operators)"
            )
        self.apply_matrix(channel.kraus_ops[kraus_index], qubits)
        norm2 = self.norm_squared()
        if norm2 <= DEAD_NORM:
            raise ZeroProbabilityTrajectory(
                f"Kraus branch {kraus_index} of {channel.name!r} annihilates the state"
            )
        self.renormalize()
        return norm2

    def branch_probabilities(
        self, channel: KrausChannel, qubits: Sequence[int]
    ) -> np.ndarray:
        """State-dependent probabilities ``<psi|K_i^dag K_i|psi>``.

        Default implementation computes the expectation of the Hermitian
        operator ``K_i^dag K_i`` via :meth:`expectation_local`; backends may
        override with something cheaper.
        """
        probs = np.empty(len(channel))
        for i, k in enumerate(channel.kraus_ops):
            probs[i] = max(0.0, float(np.real(self.expectation_local(k.conj().T @ k, qubits))))
        total = probs.sum()
        if total <= 0:
            raise BackendError(f"all branches of {channel.name!r} have zero probability")
        return probs / total

    @abc.abstractmethod
    def expectation_local(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """<psi| M_qubits |psi> for a local operator ``M``."""

    # ------------------------------------------------------------------ #
    # circuit execution with fixed noise choices (the BE primitive)
    # ------------------------------------------------------------------ #
    def run_fixed(
        self,
        circuit: Circuit,
        kraus_choices: Optional[Dict[int, int]] = None,
    ) -> float:
        """Prepare the trajectory state for fixed Kraus choices.

        ``kraus_choices`` maps ``site_id -> kraus_index``; sites absent from
        the map use the channel's dominant ("no error") operator.  Returns
        the product of actual branch probabilities encountered (the
        trajectory's true weight given the choices).
        """
        if not circuit.frozen:
            raise ExecutionError("run_fixed requires a frozen circuit")
        validate_deferred_measurement(circuit)
        kraus_choices = kraus_choices or {}
        self.reset()
        weight = 1.0
        for op in circuit:
            if isinstance(op, GateOp):
                self.apply_gate(op.gate, op.qubits)
            elif isinstance(op, NoiseOp):
                idx = kraus_choices.get(op.site_id)
                if idx is None:
                    idx = op.channel.dominant_index()
                weight *= self.apply_channel_choice(op.channel, op.qubits, idx)
            # MeasureOps are deferred; sampling happens afterwards.
        return weight
