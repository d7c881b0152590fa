"""Per-circuit engine routing behind ``strategy="auto"``.

Production noisy-simulation stacks route each circuit to the cheapest
*faithful* engine (the qsim/Cirq noise paper does exactly this); here the
choice is between the dense trajectory strategies and the batched
Pauli-frame fast path (:mod:`repro.execution.clifford`):

* **frames** are faithful iff every gate is Clifford (the 14 names the
  tableau backend and the frame conjugation rules both support) and every
  noise channel is a Pauli mixture — then per-trajectory conditionals and
  weights match the dense engines exactly, at millions of shots/s and
  independent of width;
* **tensornet** serves circuits the dense strategies *cannot*: widths
  past ``Config.max_dense_qubits`` (up to :data:`MAX_TENSORNET_QUBITS`)
  that are not frame-eligible route to the trajectory-stacked truncated
  MPS (:mod:`repro.execution.tensornet`) — conformance there is
  distributional (truncation perturbs amplitudes), which is the right
  contract for a workload no exact dense engine can run at all;
* **everything else** falls back to the pre-router dense resolution
  (``"vectorized"`` for a ``batched_statevector`` backend spec, else
  ``"serial"``) — bit-for-bit the same dispatch as before this module
  existed, which is what keeps ``strategy="auto"`` on non-Clifford
  circuits bitwise stable across the router's introduction.  An
  ``"mps"`` spec always resolves here, to ``"serial"``: the tensornet
  adapter at one row.

The walk reads each channel's own cached analysis
(:attr:`~repro.channels.kraus.KrausChannel.mixture`), so a repeated
dispatch of one circuit pays no channel decomposition again.  To run a
circuit on one engine whatever the router would pick, name the strategy
explicitly (e.g. ``strategy="serial"``): explicit names are never
rerouted.

Every decision is recorded on the result (``PTSBEResult.routing`` /
``StreamedResult.routing``) so a run can always answer "which engine ran,
and why".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.backends.stabilizer import StabilizerBackend
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, NoiseOp
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.execution.batched import BackendSpec

__all__ = [
    "CLIFFORD_GATES",
    "MAX_TENSORNET_QUBITS",
    "CircuitProfile",
    "analyze_circuit",
    "check_engine_fits",
    "resolve_strategy",
]

#: Gate names both the tableau backend and the frame conjugation rules
#: support — the exact applicability condition of the frame engine.
CLIFFORD_GATES = frozenset(StabilizerBackend._GATE_DISPATCH)

#: Width cap of the tensornet strategy: ``"auto"`` routes a past-dense-cap
#: circuit there only up to this width, and ``TensorNetExecutor`` refuses a
#: wider one.  Memory is linear in sites, so the cap is generous; it keeps a
#: typo'd width from compiling a million-site schedule.
MAX_TENSORNET_QUBITS = 128


@dataclass(frozen=True)
class CircuitProfile:
    """Routing-relevant facts about one frozen circuit.

    ``frame_eligible`` is the faithfulness verdict; ``reason`` names the
    first disqualifier (or summarizes the Clifford/Pauli structure when
    eligible) so routing decisions stay explainable.
    """

    frame_eligible: bool
    reason: str


def analyze_circuit(circuit: Circuit) -> CircuitProfile:
    """Routing analysis of a frozen circuit."""
    if not circuit.frozen:
        raise ExecutionError("engine routing requires a frozen circuit")
    num_gates = 0
    num_sites = 0
    for op in circuit:
        if isinstance(op, GateOp):
            num_gates += 1
            name = op.gate.name.lower()
            if name not in CLIFFORD_GATES:
                return CircuitProfile(False, f"gate {op.gate.name!r} is non-Clifford")
        elif isinstance(op, NoiseOp):
            num_sites += 1
            verdict = _non_pauli_reason(op.channel)
            if verdict is not None:
                return CircuitProfile(False, verdict)
    if not circuit.measured_qubits:
        return CircuitProfile(False, "circuit has no measurements")
    return CircuitProfile(
        True, f"{num_gates} Clifford gates, {num_sites} Pauli-mixture noise sites"
    )


def check_engine_fits(circuit: Circuit, strategy: str) -> None:
    """Refuse a circuit the engine behind ``strategy`` cannot run at all:
    ``"clifford"`` needs a frame-eligible circuit, ``"tensornet"`` one no
    wider than :data:`MAX_TENSORNET_QUBITS`.  Other names pass (the dense
    width cap is the dispatch's own check)."""
    if strategy == "clifford":
        profile = analyze_circuit(circuit)
        if not profile.frame_eligible:
            raise ExecutionError(
                f"strategy 'clifford' requires a pure-Clifford circuit with "
                f"Pauli-mixture noise: {profile.reason}"
            )
    elif strategy == "tensornet" and circuit.num_qubits > MAX_TENSORNET_QUBITS:
        raise ExecutionError(
            f"circuit width {circuit.num_qubits} exceeds max_tensornet_qubits "
            f"({MAX_TENSORNET_QUBITS})"
        )


def _non_pauli_reason(channel) -> Optional[str]:
    """Why a channel disqualifies frame routing, or ``None`` if it doesn't."""
    mixture = channel.mixture
    if mixture is None:
        return f"channel {channel.name!r} is not a unitary mixture"
    for b, pauli in enumerate(mixture.paulis):
        if pauli is None:
            return (
                f"channel {channel.name!r} branch {b} is unitary but not a "
                "Pauli string"
            )
    return None


def resolve_strategy(
    circuit: Circuit,
    backend: "BackendSpec",
    strategy: str,
    config: Optional[Config] = None,
) -> Tuple[str, str]:
    """Resolve ``strategy`` to a concrete engine name + decision trail.

    Explicit strategies pass through untouched (the trail records that
    they were requested).  ``"auto"`` consults the circuit profile:

    =====================================  ==========================
    condition                              resolved engine
    =====================================  ==========================
    backend spec of kind ``"mps"``         ``"serial"`` (MPS, one row)
    pure Clifford + Pauli-mixture noise    ``"clifford"`` (frames)
    width > ``Config.max_dense_qubits``    ``"tensornet"`` (stacked MPS)
    any non-Clifford gate / other channel  dense auto (vectorized/serial)
    =====================================  ==========================

    The tensornet tier sits *after* the frame check (frames are exact and
    cheaper when applicable) and only fires up to
    :data:`MAX_TENSORNET_QUBITS`; past that, the dense resolution is
    returned and dispatch raises its capacity error.
    """
    if strategy != "auto":
        return strategy, f"explicit strategy {strategy!r}"
    config = config or DEFAULT_CONFIG
    # The pre-router "auto" resolution, bit-for-bit.
    dense = "vectorized" if backend.kind == "batched_statevector" else "serial"
    if backend.kind == "mps":
        return dense, f"auto->{dense}: explicit {backend.kind!r} backend requested"
    profile = analyze_circuit(circuit)
    if profile.frame_eligible:
        return "clifford", f"auto->clifford: {profile.reason}"
    width = circuit.num_qubits
    if config.max_dense_qubits < width <= MAX_TENSORNET_QUBITS:
        return (
            "tensornet",
            f"auto->tensornet: width {width} exceeds the dense cap "
            f"(max_dense_qubits={config.max_dense_qubits}) and "
            f"{profile.reason}",
        )
    return dense, f"auto->{dense}: {profile.reason}"
