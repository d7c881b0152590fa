"""The five benchmark workloads: circuit, sampler sizes, backend and mode.

Every workload enters through ``run_ptsbe_stream(strategy="auto")`` with
default executor kwargs and a :class:`~repro.pts.ProbabilisticPTS`
sampler.  The shapes (circuit family, width, backend, delivery mode) are
fixed; ``nsamples``/``nshots`` were scaled from the issue's prototype so
one repetition takes 1-2 s on the 2-core sandbox and a whole run fits the
driver's time contract (see README.md, "Sizing rules").

The circuit builders are copies of the old ad-hoc benches' helpers
(``bench_vectorized_executor._brickwork_circuit``,
``bench_clifford_baseline._cliffordized``, ``conftest.make_msd_prep_35q``)
so that deleting those files later does not touch the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.circuits.gates import S
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.execution import BackendSpec
from repro.pts import ProbabilisticPTS
from repro.qec import msd_benchmark_circuit, msd_preparation_circuit, steane_code

__all__ = ["Workload", "WORKLOADS"]


def brickwork(num_qubits: int, layers: int = 4) -> Circuit:
    """Layered H/T/CX brickwork with depolarizing noise on every gate."""
    circ = Circuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("h", depolarizing(0.002))
        .add_all_qubit_gate_noise("t", depolarizing(0.002))
    )
    return model.apply(circ).freeze()


def clifford_msd(code=None) -> Circuit:
    """MSD (bare 5q, or encoded in ``code``) with its magic-prep rotations
    replaced by S gates: pure Clifford + Pauli noise, so the router picks
    frames."""
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cz", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("sx", depolarizing(0.002))
        .add_all_qubit_gate_noise("sy", depolarizing(0.002))
        .add_all_qubit_gate_noise("sxdg", depolarizing(0.002))
    )
    noisy = model.apply(msd_benchmark_circuit(code))
    out = Circuit(noisy.num_qubits, name="msd_cliffordized")
    for op in noisy:
        if isinstance(op, GateOp) and op.gate.name in ("ry", "rz"):
            out.gate(S, *op.qubits)
        elif isinstance(op, GateOp):
            out.gate(op.gate, *op.qubits)
        elif isinstance(op, NoiseOp):
            out.attach(op.channel, *op.qubits)
        else:
            out.append(MeasureOp(op.qubits, key=op.key))
    return out.freeze()


def msd_prep_35q() -> Circuit:
    """Steane-encoded MSD preparation circuit (Fig. 5's workload shape)."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.005))
    return model.apply(msd_preparation_circuit(steane_code())).freeze()


@dataclass(frozen=True)
class Workload:
    name: str
    reason: str
    shape: str  # circuit family and width, for the record
    engine: str  # what strategy="auto" must resolve to
    circuit: Callable[[], Circuit]
    nsamples: int
    nshots: int
    #: ``--smoke`` replacement for (circuit, nsamples, nshots): same
    #: engine and code path, seconds of work shrunk to milliseconds.
    smoke: Tuple[Callable[[], Circuit], int, int]
    stacked: bool = False  # BackendSpec.batched_statevector() vs BackendSpec()
    materialised: bool = True  # finalize().shot_table() vs per-chunk tables
    #: Also run once on the default serial backend and require the same
    #: digest (the cross-strategy bitwise contract of the dense engines).
    serial_digest: bool = False
    #: Listed in BENCHMARK.json, so the driver bounds its metrics.  False
    #: for a workload this sandbox cannot time steadily enough for any bound
    #: the driver accepts; it is still run, checked and reported.
    gated: bool = True

    @property
    def why(self) -> str:
        """The reason and the final sizes, as BENCHMARK.json records them."""
        mode = "materialised" if self.materialised else "streamed retain=False"
        return (
            f"{self.reason} [{self.shape}, nsamples={self.nsamples}, "
            f"nshots={self.nshots}, {self.backend().kind}, {mode}]"
        )

    def backend(self) -> BackendSpec:
        return BackendSpec.batched_statevector() if self.stacked else BackendSpec()

    def build(self, smoke: bool) -> Tuple[Circuit, ProbabilisticPTS]:
        """A fresh circuit object (cold weak-keyed caches) and its sampler."""
        circuit, nsamples, nshots = (
            self.smoke if smoke else (self.circuit, self.nsamples, self.nshots)
        )
        return circuit(), ProbabilisticPTS(nsamples=nsamples, nshots=nshots)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense_prep_20q",
            reason="Fig. 4 left end: state preparation is everything and the "
            "16 MB state is memory-bound",
            shape="brickwork 20q",
            engine="serial",
            circuit=lambda: brickwork(20),
            nsamples=6,
            nshots=100,
            smoke=(lambda: brickwork(10), 6, 100),
            # Its 16 MB states live in the host's shared L3: for minutes at a
            # time a repetition takes 1.6x as long while the probe kernel
            # (hostprobe.py) and memory-streaming kernels slow by 1.4x and
            # 1.1x, so quiet-host seconds still drift by 25-35 % (README.md).
            gated=False,
        ),
        Workload(
            name="dense_shots_16q",
            reason="Fig. 4 right end and the paper's ingest mode: the same engine "
            "sampling-bound, with bounded memory",
            shape="brickwork 16q",
            engine="serial",
            circuit=lambda: brickwork(16),
            nsamples=60,
            nshots=200_000,
            smoke=(lambda: brickwork(8), 8, 2_000),
            materialised=False,
        ),
        Workload(
            name="stack_many_12q",
            reason="The only path through BatchedStatevectorBackend: many cheap "
            "trajectories bound by dispatch, dedup and delivery",
            shape="brickwork 12q",
            engine="vectorized",
            circuit=lambda: brickwork(12),
            nsamples=12_000,
            nshots=256,
            smoke=(lambda: brickwork(6), 200, 16),
            stacked=True,
            serial_digest=True,
        ),
        Workload(
            name="clifford_pts_35q",
            reason="Dataset generation where the engine is nearly free: PTS sampling, "
            "stream derivation, frames and delivery dominate",
            shape="cliffordized Steane MSD 35q",
            engine="clifford",
            circuit=lambda: clifford_msd(steane_code()),
            nsamples=30_000,
            nshots=100,
            smoke=(clifford_msd, 200, 10),
        ),
        Workload(
            name="tensornet_shots_35q",
            reason="Fig. 5 shape past the dense cap: the router picks tensornet, "
            "where MPS shot sampling dominates",
            shape="Steane MSD-prep 35q",
            engine="tensornet",
            circuit=msd_prep_35q,
            nsamples=250,
            nshots=1_000,
            smoke=(msd_prep_35q, 4, 20),
        ),
    )
}
