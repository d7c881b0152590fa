"""Prebuilt circuits used by tests, examples and benchmarks.

Besides generic workloads (GHZ, QFT, random brickwork) this module provides
:func:`noisy` — the convenience wrapper that interleaves a
:class:`~repro.channels.noise_model.NoiseModel` into an ideal circuit,
producing the "arbitrary noisy circuit" that enters the PTSBE pipeline of
paper Fig. 1.

It is also the home of the **named workload registry** the scenario sweep
harness (:mod:`repro.sweep`) draws from: each :class:`WorkloadFamily`
wraps one builder with its valid width range, so a declarative sweep spec
can reference circuits by name (``"ghz"``, ``"qft"``, ``"brickwork"``,
...) and the harness can reject or skip widths a family cannot
meaningfully serve — the qsimbench-style "algorithm family × size" axis.
Registered builders always emit *measured* circuits (every sweep cell
samples shots) and derive any internal randomness from an explicit seed,
so a (family, width, seed) triple is fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.rng import library_rng
from repro.circuits.gates import CX, CZ, H, RX, RY, RZ, Gate, S, T, X
from repro.circuits.operations import GateOp
from repro.errors import CircuitError

__all__ = [
    "ghz",
    "qft",
    "random_brickwork",
    "mirror_benchmark",
    "bernstein_vazirani",
    "qaoa_ring",
    "surface_syndrome",
    "cliffordized",
    "clifford_msd_prep",
    "noisy",
    "WorkloadFamily",
    "register_workload",
    "get_workload",
    "workload_names",
    "build_workload",
]


def ghz(num_qubits: int, measure: bool = False) -> Circuit:
    """GHZ state preparation: H on qubit 0, CX ladder."""
    circ = Circuit(num_qubits, name=f"ghz_{num_qubits}")
    circ.h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    if measure:
        circ.measure_all()
    return circ


def qft(num_qubits: int, measure: bool = False) -> Circuit:
    """Quantum Fourier transform (with final qubit-reversal swaps)."""
    circ = Circuit(num_qubits, name=f"qft_{num_qubits}")
    for q in range(num_qubits):
        circ.h(q)
        for j in range(q + 1, num_qubits):
            angle = math.pi / 2 ** (j - q)
            # Controlled phase, decomposed as rz/cx/rz/cx/rz.
            circ.rz(angle / 2, q)
            circ.cx(j, q)
            circ.rz(-angle / 2, q)
            circ.cx(j, q)
            circ.rz(angle / 2, j)
    for q in range(num_qubits // 2):
        circ.swap(q, num_qubits - 1 - q)
    if measure:
        circ.measure_all()
    return circ


def random_brickwork(
    num_qubits: int,
    depth: int,
    rng: Optional[np.random.Generator] = None,
    two_qubit_gate: Gate = CZ,
    measure: bool = False,
) -> Circuit:
    """Random brickwork circuit: layers of random 1q rotations + 2q gates.

    The standard hard-to-simulate workload; entanglement grows linearly with
    depth, which is what stresses the MPS backend's truncation.
    """
    if depth < 0:
        raise CircuitError("depth must be >= 0")
    rng = rng if rng is not None else library_rng()
    circ = Circuit(num_qubits, name=f"brickwork_{num_qubits}x{depth}")
    for layer in range(depth):
        for q in range(num_qubits):
            circ.rx(float(rng.uniform(0, 2 * math.pi)), q)
            circ.rz(float(rng.uniform(0, 2 * math.pi)), q)
        start = layer % 2
        for q in range(start, num_qubits - 1, 2):
            circ.gate(two_qubit_gate, q, q + 1)
    if measure:
        circ.measure_all()
    return circ


def mirror_benchmark(
    num_qubits: int, depth: int, rng: Optional[np.random.Generator] = None
) -> Circuit:
    """Mirror circuit: U followed by U^dagger; ideal output is |0...0>.

    Useful for validating noisy backends — any deviation from the all-zeros
    shot is attributable to injected noise.
    """
    rng = rng if rng is not None else library_rng()
    half = random_brickwork(num_qubits, depth, rng=rng)
    circ = Circuit(num_qubits, name=f"mirror_{num_qubits}x{depth}")
    ops = list(half.coherent_ops)
    for op in ops:
        circ.append(op)
    for op in reversed(ops):
        circ.gate(op.gate.adjoint(), *op.qubits)
    return circ


def bernstein_vazirani(
    num_qubits: int, secret: Optional[int] = None, measure: bool = False
) -> Circuit:
    """Bernstein–Vazirani oracle circuit on ``num_qubits - 1`` data qubits.

    The last qubit is the phase ancilla; ``secret`` is a bitmask over the
    data qubits (default: alternating ``1010...``).  Noise-free output is
    the secret string on the data register, making deviations directly
    attributable to injected noise — a standard named algorithm family in
    device benchmarking suites.
    """
    if num_qubits < 2:
        raise CircuitError("bernstein_vazirani needs >= 2 qubits (data + ancilla)")
    data = num_qubits - 1
    if secret is None:
        secret = int("10" * data, 2) >> (len("10" * data) - data)
    if not (0 <= secret < 2**data):
        raise CircuitError(f"secret {secret} out of range for {data} data qubits")
    circ = Circuit(num_qubits, name=f"bv_{num_qubits}")
    ancilla = num_qubits - 1
    circ.x(ancilla)
    for q in range(num_qubits):
        circ.h(q)
    for q in range(data):
        if (secret >> (data - 1 - q)) & 1:
            circ.cx(q, ancilla)
    for q in range(data):
        circ.h(q)
    if measure:
        circ.measure_all()
    return circ


def qaoa_ring(
    num_qubits: int,
    layers: int = 1,
    gamma: float = 0.7,
    beta: float = 0.4,
    measure: bool = False,
) -> Circuit:
    """QAOA MaxCut ansatz on a ring graph: ZZ cost layers + RX mixers.

    Each layer applies ``exp(-i gamma Z_i Z_j)`` on every ring edge
    (decomposed as CX·RZ·CX) followed by the transverse mixer
    ``RX(2 beta)`` on every qubit.  Fixed angles keep the workload
    deterministic; the ring topology keeps two-qubit depth independent of
    width.
    """
    if num_qubits < 3:
        raise CircuitError("qaoa_ring needs >= 3 qubits to form a ring")
    if layers < 1:
        raise CircuitError("layers must be >= 1")
    circ = Circuit(num_qubits, name=f"qaoa_ring_{num_qubits}x{layers}")
    for q in range(num_qubits):
        circ.h(q)
    for _ in range(layers):
        for i in range(num_qubits):
            j = (i + 1) % num_qubits
            circ.cx(i, j)
            circ.rz(2.0 * gamma, j)
            circ.cx(i, j)
        for q in range(num_qubits):
            circ.rx(2.0 * beta, q)
    if measure:
        circ.measure_all()
    return circ


#: Rotated distance-3 surface code ("surface-17") stabilizer supports over
#: the 3x3 data grid (row-major indices 0..8).
_SURFACE17_Z_STABILIZERS = ((0, 1, 3, 4), (4, 5, 7, 8), (2, 5), (3, 6))
_SURFACE17_X_STABILIZERS = ((1, 2, 4, 5), (3, 4, 6, 7), (0, 1), (7, 8))


def surface_syndrome(num_qubits: int, measure: bool = False) -> Circuit:
    """Rotated d=3 surface-code syndrome extraction, pure Clifford.

    Nine data qubits hold the code patch (prepared in ``|0...0>``, a Z
    eigenstate); each extraction round reads all eight stabilizers into
    eight *fresh* ancillas (the circuit model has terminal measurement
    only, so rounds cannot reuse ancillas) — X stabilizers via
    H·CX-fan·H, Z stabilizers via data-controlled CX.  Rounds are derived
    from the width: ``(num_qubits - 9) // 8``, with any remainder qubits
    idle (they measure deterministically to 0 and simply pad the register
    to the requested width).

    Every gate is H or CX, so the family is the QEC-shaped workload the
    Clifford frame engine serves at widths far past the dense statevector
    cap — a 33-qubit instance is three full rounds.
    """
    if num_qubits < 17:
        raise CircuitError(
            "surface_syndrome needs >= 17 qubits (9 data + 8 ancillas per round)"
        )
    rounds = (num_qubits - 9) // 8
    circ = Circuit(num_qubits, name=f"surface_syndrome_{num_qubits}x{rounds}")
    for r in range(rounds):
        base = 9 + 8 * r
        for i, support in enumerate(_SURFACE17_X_STABILIZERS):
            ancilla = base + i
            circ.h(ancilla)
            for data in support:
                circ.cx(ancilla, data)
            circ.h(ancilla)
        for i, support in enumerate(_SURFACE17_Z_STABILIZERS):
            ancilla = base + len(_SURFACE17_X_STABILIZERS) + i
            for data in support:
                circ.cx(data, ancilla)
    if measure:
        circ.measure_all()
    return circ


def cliffordized(circuit: Circuit) -> Circuit:
    """``circuit`` with its magic-state rotations (``ry``, ``rz``) replaced
    by S: a Clifford circuit with the same noise sites and measurements,
    mutable (site ids are assigned again at freeze)."""
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for op in circuit:
        rotation = isinstance(op, GateOp) and op.gate.name in ("ry", "rz")
        out.append(GateOp(S, op.qubits) if rotation else op)
    return out


def clifford_msd_prep(measure: bool = False) -> Circuit:
    """The Steane-encoded MSD preparation (35 qubits), :func:`cliffordized`.

    :func:`~repro.qec.magic.msd_preparation_circuit` with its magic-state
    rotations replaced by S, as the benchmark's cliffordized MSD workloads
    are.  No gate joins two blocks, so every MPS bond stays at most 8 and
    both wide engines (``clifford``, ``tensornet``) serve it exactly: their
    cross-check at the width of paper Fig. 5.
    """
    from repro.qec import msd_preparation_circuit, steane_code

    circ = cliffordized(msd_preparation_circuit(steane_code(), measure=False))
    circ.name = "msd_prep_clifford"
    if measure:
        circ.measure_all()
    return circ


def noisy(circuit: Circuit, noise_model) -> Circuit:
    """Interleave a noise model into an ideal circuit.

    Every gate op is followed by the channel(s) the model binds to it;
    model-level state-preparation and measurement noise are inserted at the
    boundaries.  Returns a *frozen* circuit ready for trajectory/PTS use.
    """
    return noise_model.apply(circuit).freeze()


# --------------------------------------------------------------------------- #
# named workload registry (the sweep harness's "algorithm family" axis)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkloadFamily:
    """One named circuit family with its valid width range.

    ``builder(num_qubits, rng)`` returns an *ideal, measured, unfrozen*
    circuit — the sweep harness applies a device noise profile and freezes
    afterwards.  ``min_width``/``max_width`` bound the widths the family
    meaningfully serves (e.g. QFT gate count grows as O(n²), so its cap is
    tighter than GHZ's); out-of-range sweep cells are *skipped*, not
    errors, so one spec can sweep families of different reach.
    """

    name: str
    builder: Callable[[int, np.random.Generator], Circuit]
    min_width: int
    max_width: int
    description: str = ""

    def supports(self, num_qubits: int) -> bool:
        return self.min_width <= num_qubits <= self.max_width

    def build(self, num_qubits: int, seed: int = 0) -> Circuit:
        """Build the measured ideal circuit at ``num_qubits`` wide."""
        if not self.supports(num_qubits):
            raise CircuitError(
                f"workload {self.name!r} supports widths "
                f"[{self.min_width}, {self.max_width}], got {num_qubits}"
            )
        return self.builder(num_qubits, library_rng(seed))


_WORKLOADS: Dict[str, WorkloadFamily] = {}


def register_workload(family: WorkloadFamily) -> WorkloadFamily:
    """Add a family to the registry (rejects duplicate names)."""
    if family.name in _WORKLOADS:
        raise CircuitError(f"workload {family.name!r} already registered")
    if family.min_width < 1 or family.max_width < family.min_width:
        raise CircuitError(
            f"workload {family.name!r}: invalid width range "
            f"[{family.min_width}, {family.max_width}]"
        )
    _WORKLOADS[family.name] = family
    return family


def workload_names() -> List[str]:
    """Registered family names, in registration order."""
    return list(_WORKLOADS)


def get_workload(name: str) -> WorkloadFamily:
    known = ", ".join(repr(n) for n in _WORKLOADS)
    if name not in _WORKLOADS:
        raise CircuitError(f"unknown workload {name!r}; registered: {known}")
    return _WORKLOADS[name]


def build_workload(name: str, num_qubits: int, seed: int = 0) -> Circuit:
    """Convenience: look up ``name`` and build at ``num_qubits``."""
    return get_workload(name).build(num_qubits, seed=seed)


register_workload(
    WorkloadFamily(
        name="ghz",
        builder=lambda n, rng: ghz(n, measure=True),
        min_width=2,
        max_width=24,
        description="GHZ preparation: H + CX ladder (linear depth, Clifford)",
    )
)
register_workload(
    WorkloadFamily(
        name="qft",
        builder=lambda n, rng: qft(n, measure=True),
        min_width=2,
        max_width=12,
        description="Quantum Fourier transform (O(n^2) gates)",
    )
)
register_workload(
    WorkloadFamily(
        name="brickwork",
        builder=lambda n, rng: random_brickwork(n, depth=3, rng=rng, measure=True),
        min_width=2,
        # Wide enough to exercise the past-dense-cap tensornet strategy
        # (depth-3 brickwork stays at modest bond dimension at any width).
        max_width=64,
        description="Random brickwork, depth 3 (seeded 1q rotations + CZ layers)",
    )
)
register_workload(
    WorkloadFamily(
        name="mirror",
        builder=lambda n, rng: mirror_benchmark(n, depth=2, rng=rng).measure_all(),
        min_width=2,
        max_width=12,
        description="Mirror benchmark U·U†: ideal output |0...0>",
    )
)
register_workload(
    WorkloadFamily(
        name="bernstein_vazirani",
        builder=lambda n, rng: bernstein_vazirani(n, measure=True),
        min_width=2,
        max_width=16,
        description="Bernstein-Vazirani oracle (alternating secret string)",
    )
)
register_workload(
    WorkloadFamily(
        name="surface_syndrome",
        builder=lambda n, rng: surface_syndrome(n, measure=True),
        min_width=17,
        max_width=41,
        description=(
            "Rotated d=3 surface-code syndrome extraction "
            "(pure Clifford; widths past the dense cap via the frame engine)"
        ),
    )
)
register_workload(
    WorkloadFamily(
        name="msd_prep_clifford",
        builder=lambda n, rng: clifford_msd_prep(measure=True),
        min_width=35,
        max_width=35,
        description="Steane MSD preparation, magic rotations replaced by S (35q, Clifford)",
    )
)
register_workload(
    WorkloadFamily(
        name="qaoa_ring",
        builder=lambda n, rng: qaoa_ring(n, layers=1, measure=True),
        min_width=3,
        max_width=14,
        description="QAOA MaxCut ansatz on a ring (ZZ cost + RX mixer)",
    )
)
