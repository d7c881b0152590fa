"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Circuit, NoiseModel, depolarizing
from repro.backends.base import PureStateBackend
from repro.channels.standard import (
    amplitude_damping,
    bit_flip,
    device_profile,
    two_qubit_depolarizing,
)
from repro.circuits.library import noisy
from repro.circuits.operations import NoiseOp
from repro.errors import ZeroProbabilityTrajectory
from repro.pts import ProbabilisticPTS, TrajectorySpec
from repro.rng import make_rng
from repro.trajectory.events import KrausEvent, TrajectoryRecord


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345)


class CountedGenerator:
    """A request's generator as the MPS sampler uses it, every call tallied
    by method name in ``calls``; the draws are the wrapped generator's."""

    def __init__(self, rng: np.random.Generator, calls: dict):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def counted_generator():
    """``counted_generator(rng, calls)``: see :class:`CountedGenerator`."""
    return CountedGenerator


@pytest.fixture
def lookahead(monkeypatch):
    """``lookahead(on)`` forces the serial engine's look-ahead on (threshold
    0: every unit that draws a shot prepares the next one on the helper
    thread) or off (``None``).  It returns the names of the threads that
    ran each serial ``prepare`` from then on, so a test can tell the helper
    really prepared units."""
    from repro.execution import batched

    threads = []
    original = batched._SerialEngine.prepare

    def recording(self, choices_list, sizes):
        threads.append(threading.current_thread().name)
        return original(self, choices_list, sizes)

    monkeypatch.setattr(batched._SerialEngine, "prepare", recording)

    def force(on: bool):
        monkeypatch.setattr(batched._SerialEngine, "lookahead_shots", 0 if on else None)
        threads.clear()
        return threads

    return force


@pytest.fixture
def lookahead_threads():
    """``lookahead_threads()``: the look-ahead helper threads alive now."""
    return lambda: [t for t in threading.enumerate() if t.name.startswith("repro-lookahead")]


@pytest.fixture(scope="session")
def relaxation_dead_row():
    """``relaxation_dominated`` noise on 5 qubits, and PTS specs with one
    dead row in the middle: qubit 0 is flipped, then phased, and decays
    after both gates, which annihilates the state."""
    ideal = Circuit(5).x(0).t(0)
    for q in range(1, 5):
        ideal.h(q)
    for q in range(1, 4):
        ideal.cx(q, q + 1)
    for q in range(1, 5):
        ideal.t(q)
    circuit = noisy(ideal.measure_all(), device_profile("relaxation_dominated").noise_model())
    first, second = [
        op.site_id
        for op in circuit
        if isinstance(op, NoiseOp)
        and op.qubits == (0,)
        and op.channel.name.startswith("amp_damp")
    ]
    specs = ProbabilisticPTS(nsamples=40, nshots=50).sample(circuit, make_rng(3)).specs
    events = tuple(
        KrausEvent(site_id=site, kraus_index=1, qubits=(0,), probability=0.008)
        for site in (first, second)
    )
    record = TrajectoryRecord(
        trajectory_id=max(s.record.trajectory_id for s in specs) + 1,
        events=events,
        nominal_probability=0.008**2,
    )
    middle = len(specs) // 2
    return circuit, specs[:middle] + [TrajectorySpec(record=record, num_shots=50)] + specs[middle:]


@pytest.fixture
def ghz3() -> Circuit:
    """Ideal 3-qubit GHZ circuit with measurement."""
    return Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()


@pytest.fixture
def noisy_ghz3(ghz3: Circuit) -> Circuit:
    """GHZ with 5% depolarizing after every CX (frozen)."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    return model.apply(ghz3).freeze()


@pytest.fixture
def noisy_ghz3_general(ghz3: Circuit) -> Circuit:
    """GHZ with a *general* (non-unitary-mixture) channel per CX."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", amplitude_damping(0.08))
    return model.apply(ghz3).freeze()


@pytest.fixture
def mixed_noise_circuit() -> Circuit:
    """4-qubit circuit mixing 1q/2q channels, prep and measurement noise."""
    ideal = Circuit(4)
    ideal.h(0).cx(0, 1).cx(1, 2).cx(2, 3).t(3).cx(2, 3).measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.03))
        .add_all_qubit_gate_noise("t", depolarizing(0.02))
        .add_preparation_noise(bit_flip(0.01))
        .add_measurement_noise(bit_flip(0.015))
    )
    return model.apply(ideal).freeze()


def _layered_brickwork(num_qubits: int, layers: int = 4) -> Circuit:
    """The benchmark's brickwork shape: H/T layers and CX bricks, with
    depolarizing noise on every gate, measured."""
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


@pytest.fixture(scope="session")
def layered_brickwork():
    """``layered_brickwork(n)``: the benchmark's brickwork circuit at ``n``
    qubits (``benchmarks/e2e/workloads.py``'s ``brickwork``)."""
    return _layered_brickwork


@pytest.fixture(scope="session")
def msd35_circuit() -> Circuit:
    """Steane-encoded MSD, cliffordized: 35 measured qubits, 105 noise
    sites, 20 random measurements — the circuit of the ``clifford_pts_35q``
    benchmark workload."""
    from repro.circuits.library import cliffordized
    from repro.qec import msd_benchmark_circuit, steane_code

    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cz", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("sx", depolarizing(0.002))
        .add_all_qubit_gate_noise("sy", depolarizing(0.002))
        .add_all_qubit_gate_noise("sxdg", depolarizing(0.002))
    )
    return cliffordized(model.apply(msd_benchmark_circuit(steane_code()))).freeze()


@pytest.fixture(scope="session")
def msd_prep35_circuit() -> Circuit:
    """Steane-encoded MSD *preparation* (five blocks, 35 measured qubits,
    the ``tensornet_shots_35q`` workload's circuit), cliffordized: Clifford
    + Pauli noise at a width, and of an entanglement, both wide engines
    represent exactly; the sweep's ``msd_prep_clifford`` family."""
    from repro.circuits.library import clifford_msd_prep

    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.005))
    return model.apply(clifford_msd_prep(measure=True)).freeze()


def _assert_matches_per_op(make_backend, circuit, choices, state_of):
    """Prepare ``choices`` fused (the backend's own ``run_fixed``) and by
    the per-op reference ``PureStateBackend.run_fixed`` on a second
    backend: equal weights and states to rounding, or both annihilated.
    Returns False for a dead trajectory."""
    fused, reference = make_backend(), make_backend()
    try:
        weight = fused.run_fixed(circuit, choices)
    except ZeroProbabilityTrajectory:
        with pytest.raises(ZeroProbabilityTrajectory):
            PureStateBackend.run_fixed(reference, circuit, choices)
        return False
    want = PureStateBackend.run_fixed(reference, circuit, choices)
    assert weight == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(state_of(fused), state_of(reference), atol=1e-12)
    return True


@pytest.fixture
def assert_matches_per_op():
    """The unfused reference check: both concrete backends override the
    per-op loop ``PureStateBackend.run_fixed``, so only tests call it."""
    return _assert_matches_per_op
