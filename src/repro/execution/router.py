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
  past ``Config.max_dense_qubits`` (up to ``Config.max_tensornet_qubits``)
  that are not frame-eligible route to the trajectory-stacked truncated
  MPS (:mod:`repro.execution.tensornet`) — conformance there is
  distributional (truncation perturbs amplitudes), which is the right
  contract for a workload no exact dense engine can run at all;
* **everything else** falls back to the pre-router dense resolution
  (``"vectorized"`` for a ``batched_statevector`` backend spec, else
  ``"serial"``) — bit-for-bit the same dispatch as before this module
  existed, which is what keeps ``strategy="auto"`` on non-Clifford
  circuits bitwise stable across the router's introduction.

The gate/noise analysis is cached per frozen circuit (weak-keyed, like
the fused-plan cache) so repeated dispatches — a sweep running one
circuit through several strategies, a service handling repeat requests —
pay the channel decompositions once.  To run a circuit on one engine
whatever the router would pick, name the strategy explicitly (e.g.
``strategy="serial"``): explicit names are never rerouted.

Every decision is recorded on the result (``PTSBEResult.routing`` /
``StreamedResult.routing``) so a run can always answer "which engine ran,
and why".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.backends.stabilizer import StabilizerBackend, pauli_from_unitary
from repro.channels.unitary_mixture import as_unitary_mixture
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, NoiseOp
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import ExecutionError

__all__ = [
    "CLIFFORD_GATES",
    "CircuitProfile",
    "analyze_circuit",
    "resolve_strategy",
    "clear_router_cache",
    "router_cache_stats",
]

#: Gate names both the tableau backend and the frame conjugation rules
#: support — the exact applicability condition of the frame engine.
CLIFFORD_GATES = frozenset(StabilizerBackend._GATE_DISPATCH)


@dataclass(frozen=True)
class CircuitProfile:
    """Cached routing-relevant facts about one frozen circuit.

    ``frame_eligible`` is the faithfulness verdict; ``reason`` names the
    first disqualifier (or summarizes the Clifford/Pauli structure when
    eligible) so routing decisions stay explainable.
    """

    frame_eligible: bool
    reason: str
    num_gates: int = 0
    num_noise_sites: int = 0


_ROUTER_CACHE: "weakref.WeakKeyDictionary[Circuit, CircuitProfile]" = (
    weakref.WeakKeyDictionary()
)
_CACHE_STATS = {"hits": 0, "misses": 0}


def _profile(circuit: Circuit) -> CircuitProfile:
    num_gates = 0
    num_sites = 0
    # Channels repeat object-identically across sites (noise models attach
    # one channel instance per gate name), so memoize the branch analysis
    # per channel object within the walk.
    channel_verdicts: Dict[int, Optional[str]] = {}
    for op in circuit:
        if isinstance(op, GateOp):
            num_gates += 1
            name = op.gate.name.lower()
            if name not in CLIFFORD_GATES:
                return CircuitProfile(
                    frame_eligible=False,
                    reason=f"gate {op.gate.name!r} is non-Clifford",
                    num_gates=num_gates,
                    num_noise_sites=num_sites,
                )
        elif isinstance(op, NoiseOp):
            num_sites += 1
            verdict = channel_verdicts.get(id(op.channel), "unseen")
            if verdict == "unseen":
                verdict = _non_pauli_reason(op.channel, len(op.qubits))
                channel_verdicts[id(op.channel)] = verdict
            if verdict is not None:
                return CircuitProfile(
                    frame_eligible=False,
                    reason=verdict,
                    num_gates=num_gates,
                    num_noise_sites=num_sites,
                )
    if not circuit.measured_qubits:
        return CircuitProfile(
            frame_eligible=False,
            reason="circuit has no measurements",
            num_gates=num_gates,
            num_noise_sites=num_sites,
        )
    return CircuitProfile(
        frame_eligible=True,
        reason=(
            f"{num_gates} Clifford gates, {num_sites} Pauli-mixture "
            "noise sites"
        ),
        num_gates=num_gates,
        num_noise_sites=num_sites,
    )


def _non_pauli_reason(channel, num_qubits: int) -> Optional[str]:
    """Why a channel disqualifies frame routing, or ``None`` if it doesn't."""
    mixture = as_unitary_mixture(channel)
    if mixture is None:
        return f"channel {channel.name!r} is not a unitary mixture"
    for b, unitary in enumerate(mixture.unitaries):
        if pauli_from_unitary(unitary, num_qubits) is None:
            return (
                f"channel {channel.name!r} branch {b} is unitary but not a "
                "Pauli string"
            )
    return None


def analyze_circuit(circuit: Circuit) -> CircuitProfile:
    """Memoized routing analysis of a frozen circuit."""
    if not circuit.frozen:
        raise ExecutionError("engine routing requires a frozen circuit")
    profile = _ROUTER_CACHE.get(circuit)
    if profile is None:
        _CACHE_STATS["misses"] += 1
        profile = _profile(circuit)
        _ROUTER_CACHE[circuit] = profile
    else:
        _CACHE_STATS["hits"] += 1
    return profile


def _dense_auto(backend) -> str:
    """The pre-router ``"auto"`` resolution, bit-for-bit."""
    from repro.execution.batched import BackendSpec

    kind = backend.kind if isinstance(backend, BackendSpec) else None
    return "vectorized" if kind == "batched_statevector" else "serial"


def resolve_strategy(
    circuit: Circuit,
    backend,
    strategy: str,
    config: Optional[Config] = None,
) -> Tuple[str, str]:
    """Resolve ``strategy`` to a concrete engine name + decision trail.

    Explicit strategies pass through untouched (the trail records that
    they were requested).  ``"auto"`` consults the cached circuit profile:

    =====================================  ==========================
    condition                              resolved engine
    =====================================  ==========================
    backend is a factory or ``"mps"``      dense auto (explicit backend)
    pure Clifford + Pauli-mixture noise    ``"clifford"`` (frames)
    width > ``Config.max_dense_qubits``    ``"tensornet"`` (stacked MPS)
    any non-Clifford gate / other channel  dense auto (vectorized/serial)
    =====================================  ==========================

    The tensornet tier sits *after* the frame check (frames are exact and
    cheaper when applicable) and only fires up to
    ``Config.max_tensornet_qubits``; past that, the dense resolution is
    returned and dispatch raises its capacity error.
    """
    from repro.execution.batched import BackendSpec

    if strategy != "auto":
        return strategy, f"explicit strategy {strategy!r}"
    config = config or DEFAULT_CONFIG
    dense = _dense_auto(backend)
    if not isinstance(backend, BackendSpec):
        return dense, f"auto->{dense}: explicit backend factory requested"
    if backend.kind not in ("statevector", "batched_statevector"):
        return dense, f"auto->{dense}: explicit {backend.kind!r} backend requested"
    profile = analyze_circuit(circuit)
    if profile.frame_eligible:
        return "clifford", f"auto->clifford: {profile.reason}"
    width = circuit.num_qubits
    if config.max_dense_qubits < width <= config.max_tensornet_qubits:
        return (
            "tensornet",
            f"auto->tensornet: width {width} exceeds the dense cap "
            f"(max_dense_qubits={config.max_dense_qubits}) and "
            f"{profile.reason}",
        )
    return dense, f"auto->{dense}: {profile.reason}"


def clear_router_cache() -> None:
    """Drop every cached circuit profile (tests)."""
    _ROUTER_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def router_cache_stats() -> Dict[str, int]:
    """Router-cache hit/miss counters (copies, not live references)."""
    return dict(_CACHE_STATS)
