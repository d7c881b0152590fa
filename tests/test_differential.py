"""Differential testing: every strategy against serial on random circuits.

``hypothesis`` draws small noisy circuits (2-4 qubits, gates from
{h, s, x, cx, cz, t, ry}, after each gate either no noise or one of
``depolarizing`` down to rare rates, ``pauli_channel`` or
``amplitude_damping``), and each one runs through a drawn sampler
(``ExhaustivePTS`` or ``ProbabilisticPTS``) at a drawn ``max_batch`` (1,
3 or 64: the dense stack's sort windows then hold one unit, several or
the whole run) on every strategy name and on ``"auto"``:

* the dense strategies agree bitwise — bits, trajectory ids and weights;
* ``tensornet``, and ``clifford`` wherever the router calls the circuit
  frame-eligible, realize serial's trajectories with serial's weights
  (their shots agree only in distribution);
* ``auto`` picks ``clifford`` if and only if the circuit is
  frame-eligible;
* a spec naming a noise site the circuit lacks, a Kraus index outside
  its site's channel or one site twice is refused with one message by
  every strategy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.channels import depolarizing, pauli_channel
from repro.channels.standard import amplitude_damping
from repro.circuits import Circuit
from repro.errors import ExecutionError
from repro.execution import analyze_circuit, run_ptsbe
from repro.execution.batched import DENSE_STRATEGIES, STRATEGIES
from repro.pts import ExhaustivePTS, ProbabilisticPTS, TrajectorySpec
from repro.trajectory.events import KrausEvent, TrajectoryRecord

SAMPLER = ExhaustivePTS(cutoff=1e-6, nshots=20)
SAMPLERS = (SAMPLER, ProbabilisticPTS(nsamples=60, nshots=20))
RATES = (1e-10, 1e-7, 1e-3, 0.02)

single_qubit_noise = st.one_of(
    st.builds(depolarizing, st.sampled_from(RATES)),
    st.builds(
        pauli_channel,
        st.sampled_from((0.0, 1e-9, 0.01)),
        st.sampled_from((0.0, 1e-3)),
        st.sampled_from((0.0, 1e-10, 0.02)),
    ),
    st.builds(amplitude_damping, st.sampled_from((1e-12, 0.01, 0.1))),
)


@st.composite
def noisy_circuits(draw):
    num_qubits = draw(st.integers(2, 4))
    qubit = st.integers(0, num_qubits - 1)
    circuit = Circuit(num_qubits)
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(("h", "s", "x", "cx", "cz", "t", "ry")))
        if name in ("cx", "cz"):
            qubits = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            getattr(circuit, name)(*qubits)
        elif name == "ry":
            qubits = [draw(qubit)]
            circuit.ry(draw(st.floats(0.1, 3.0)), *qubits)
        else:
            qubits = [draw(qubit)]
            getattr(circuit, name)(*qubits)
        channel = draw(st.none() | single_qubit_noise)
        if channel is not None:
            circuit.attach(channel, draw(st.sampled_from(qubits)))
    return circuit.measure_all().freeze()


def options(strategy, max_batch):
    if strategy in ("vectorized", "sharded", "tensornet"):
        return {"max_batch": max_batch}
    if strategy == "parallel":
        return {"num_workers": 1}
    return {}


def run(circuit, strategy, max_batch=3, sampler=SAMPLER, **extra):
    kwargs = {**options(strategy, max_batch), **extra}
    return run_ptsbe(circuit, sampler, seed=5, strategy=strategy, executor_kwargs=kwargs)


def trajectories(result):
    ids = [t.record.trajectory_id for t in result.trajectories]
    return ids, np.array([t.actual_weight for t in result.trajectories])


def assert_dense_equal(result, reference):
    table, expected = result.shot_table(), reference.shot_table()
    np.testing.assert_array_equal(table.bits, expected.bits)
    np.testing.assert_array_equal(table.trajectory_ids, expected.trajectory_ids)
    ids, weights = trajectories(result)
    expected_ids, expected_weights = trajectories(reference)
    assert ids == expected_ids
    np.testing.assert_array_equal(weights, expected_weights)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    circuit=noisy_circuits(),
    sampler=st.sampled_from(SAMPLERS),
    max_batch=st.sampled_from((1, 3, 64)),
)
def test_every_strategy_agrees_with_serial(circuit, sampler, max_batch):
    serial = run(circuit, "serial", sampler=sampler)
    eligible = analyze_circuit(circuit).frame_eligible
    for strategy in DENSE_STRATEGIES[1:]:
        assert_dense_equal(run(circuit, strategy, max_batch, sampler), serial)
    ids, weights = trajectories(serial)
    others = ["tensornet"] + ["clifford"] * eligible
    for strategy in others:
        got_ids, got_weights = trajectories(run(circuit, strategy, max_batch, sampler))
        assert got_ids == ids
        np.testing.assert_allclose(got_weights, weights, rtol=0, atol=1e-12)
    auto = run(circuit, "auto", sampler=sampler)
    assert (auto.engine == "clifford") == eligible
    if not eligible:
        assert_dense_equal(auto, serial)


class _MalformedPTS(ExhaustivePTS):
    """``ExhaustivePTS`` plus one spec with the given ``(site, kraus)`` events."""

    def __init__(self, events):
        super().__init__(cutoff=1e-6, nshots=20)
        self.events = events

    def sample(self, circuit, rng):
        result = super().sample(circuit, rng)
        events = tuple(KrausEvent(site, index) for site, index in self.events)
        result.specs.append(TrajectorySpec(TrajectoryRecord(len(result.specs), events), 20))
        return result


def malformed(kind, circuit):
    """A malformed spec's events, and what its refusal says."""
    sites = circuit.num_noise_sites()
    if kind == "unknown site":
        return [(sites, 1)], f"prescribes noise site {sites}, but"
    operators = len(circuit.noise_sites[0].channel)
    if kind == "index":
        return [(0, operators)], f"prescribes Kraus index {operators} at noise site 0, whose"
    return [(0, 0), (0, 0)], "prescribes noise site 0 twice"  # index 0 always exists


@settings(max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=noisy_circuits(), kind=st.sampled_from(("unknown site", "index", "site twice")))
def test_a_malformed_prescription_is_refused_alike_by_every_strategy(circuit, kind):
    assume(kind == "unknown site" or circuit.num_noise_sites() > 0)
    events, wording = malformed(kind, circuit)
    sampler = _MalformedPTS(events)
    messages = set()
    for strategy in list(STRATEGIES) + ["auto"]:
        if strategy == "clifford" and not analyze_circuit(circuit).frame_eligible:
            continue
        with pytest.raises(ExecutionError) as raised:
            run(circuit, strategy, sampler=sampler)
        messages.add(str(raised.value))
    assert len(messages) == 1
    assert wording in messages.pop()


def test_parallel_on_a_pool_agrees_with_serial():
    circuit = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2).ry(0.7, 2)
    circuit.attach(depolarizing(0.02), 0).attach(amplitude_damping(0.1), 1)
    circuit.attach(pauli_channel(0.01, 0.0, 0.02), 2).measure_all().freeze()
    assert_dense_equal(run(circuit, "parallel", num_workers=2), run(circuit, "serial"))

