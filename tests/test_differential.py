"""Differential testing: every strategy against serial on random circuits.

``hypothesis`` draws small noisy circuits (2-4 qubits, gates from
{h, s, x, cx, cz, t, ry}, after each gate either no noise or one of
``depolarizing`` down to rare rates, ``pauli_channel`` or
``amplitude_damping``, then sometimes a mid-circuit measurement of one
qubit; the others are measured at the end), and each one runs through a
drawn sampler (``ExhaustivePTS`` or ``ProbabilisticPTS``) at a drawn
``max_batch`` (1, 3 or 64: the dense stack's sort windows then hold one
unit, several or the whole run) on every strategy name and on ``"auto"``:

* a circuit that acts on a measured qubit is refused with one
  ``ExecutionError`` by every strategy, before any unit runs;
* otherwise the dense strategies agree bitwise — bits, trajectory ids and
  weights;
* ``tensornet``, and ``clifford`` wherever the router calls the circuit
  frame-eligible, realize serial's trajectories with serial's weights
  (their shots agree only in distribution);
* ``auto`` picks ``clifford`` if and only if the circuit is
  frame-eligible;
* a spec naming a noise site the circuit lacks, a Kraus index outside
  its site's channel or one site twice is refused with one message by
  every strategy (on a circuit that acts on a measured qubit, that
  circuit's refusal: the circuit is checked first);
* a sampler's result and the same trajectories as a hand-built spec list
  (with a duplicate and an entry naming a dominant index drawn in) give
  one shot table, the same dedup groups and each its own records;
* on unitary-mixture circuits of up to three qubits, the weighted pooled
  distribution of ``serial`` and ``vectorized`` under ``ExhaustivePTS``
  is within the oracle's TVD tolerance plus the uncovered mass of the
  density-matrix reference;
* on general-Kraus circuits of up to three qubits (amplitude and phase
  damping), every trajectory's ``actual_weight`` on ``serial`` and
  ``vectorized`` is the squared norm of its Kraus product on ``|0...0>``,
  computed with plain NumPy, and the weighted pool weighs each
  trajectory's shots by it.
"""

import dataclasses


import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import exact_distribution
from repro.backends.base import validate_deferred_measurement
from repro.channels import depolarizing, pauli_channel
from repro.channels.standard import amplitude_damping, phase_damping
from repro.circuits import Circuit
from repro.circuits.operations import GateOp, NoiseOp
from repro.errors import BackendError, ExecutionError
from repro.execution import BackendSpec, analyze_circuit, run_ptsbe, run_ptsbe_stream
from repro.execution.results import TrajectoryResult
from repro.execution import batched, clifford, tensornet, vectorized
from repro.execution.batched import DENSE_STRATEGIES, STRATEGIES, build_executor
from repro.data.stats import total_variation_distance
from repro.execution.router import resolve_strategy
from repro.pts import ExhaustivePTS, ProbabilisticPTS, TrajectorySpec
from repro.pts import base as pts_base
from repro.rng import make_rng
from repro.sweep.spec import OracleSpec
from repro.trajectory.events import KrausEvent, TrajectoryRecord

#: Every adapter class, by module.
ADAPTERS = [
    (batched, "_SerialEngine"),
    (vectorized, "_StackEngine"),
    (clifford, "_FrameEngine"),
    (tensornet, "_MPSStackEngine"),
]

SAMPLER = ExhaustivePTS(cutoff=1e-6, nshots=20)
SAMPLERS = (SAMPLER, ProbabilisticPTS(nsamples=60, nshots=20))
RATES = (1e-10, 1e-7, 1e-3, 0.02)

unitary_mixture_noise = st.one_of(
    st.builds(depolarizing, st.sampled_from(RATES)),
    st.builds(
        pauli_channel,
        st.sampled_from((0.0, 1e-9, 0.01)),
        st.sampled_from((0.0, 1e-3)),
        st.sampled_from((0.0, 1e-10, 0.02)),
    ),
)
single_qubit_noise = st.one_of(
    unitary_mixture_noise,
    st.builds(amplitude_damping, st.sampled_from((1e-12, 0.01, 0.1))),
)


@st.composite
def noisy_circuits(draw, max_qubits=4, noise=single_qubit_noise):
    """A circuit of 2 to ``max_qubits`` qubits whose gates may each carry a
    channel drawn from ``noise``, and whose qubits may be measured
    mid-circuit (each once; the rest at the end), so a later gate may act
    on a measured qubit: such a circuit is not :func:`legal`."""
    num_qubits = draw(st.integers(2, max_qubits))
    qubit = st.integers(0, num_qubits - 1)
    circuit = Circuit(num_qubits)
    measured = []
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
        channel = draw(st.none() | noise)
        if channel is not None:
            circuit.attach(channel, draw(st.sampled_from(qubits)))
        if draw(st.integers(0, 3)) == 0:  # a mid-circuit measurement
            early = draw(qubit)
            if early not in measured:
                circuit.measure(early)
                measured.append(early)
    rest = [q for q in range(num_qubits) if q not in measured]
    if rest:
        circuit.measure(*rest)
    return circuit.freeze()


def legal(circuit):
    """No operation acts on a qubit after it is measured."""
    try:
        validate_deferred_measurement(circuit)
    except BackendError:
        return False
    return True


MEASURED = "acts on already-measured qubit(s)"


def options(strategy, max_batch):
    if strategy in ("vectorized", "sharded", "tensornet"):
        return {"max_batch": max_batch}
    return {}


def run(circuit, strategy, max_batch=3, sampler=SAMPLER, **extra):
    kwargs = {**options(strategy, max_batch), **extra}
    return run_ptsbe(circuit, sampler, seed=5, strategy=strategy, executor_kwargs=kwargs)


def execute(circuit, strategy, specs, max_batch=3):
    """``specs`` through the executor ``run_ptsbe`` builds for ``strategy``."""
    backend = BackendSpec()
    resolved, _ = resolve_strategy(circuit, backend, strategy, backend.config)
    executor = build_executor(resolved, backend, **options(strategy, max_batch))
    return executor.execute(circuit, specs, seed=5)


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
    if not legal(circuit):
        assert_refused_before_any_unit(circuit, sampler)
        return
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


#: The distribution tier's sampler: every trajectory down to 1e-4 nominal
#: probability, each drawn often enough that the weighted pool's sampling
#: error sits well inside the oracle's TVD tolerance.
EXACT_SAMPLER = ExhaustivePTS(cutoff=1e-4, nshots=4000)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=noisy_circuits(max_qubits=3, noise=unitary_mixture_noise))
def test_pooled_distributions_sit_within_the_density_matrix_bound(circuit):
    """On unitary-mixture circuits of up to three qubits under
    ``ExhaustivePTS``, the weighted pooled distribution of ``serial`` and
    of ``vectorized`` is within the oracle's TVD tolerance plus the mass
    the enumeration left out (``uncovered_mass``) of
    ``DensityMatrixBackend``'s exact distribution."""
    assume(legal(circuit))
    exact = exact_distribution(circuit)
    for strategy in ("serial", "vectorized"):
        result = run(circuit, strategy, sampler=EXACT_SAMPLER)
        bound = OracleSpec().tvd_tolerance + max(0.0, result.uncovered_mass)
        tvd = total_variation_distance(result.pooled_distribution(), exact)
        assert tvd <= bound, (strategy, tvd, bound)


general_kraus_noise = st.one_of(
    st.builds(amplitude_damping, st.sampled_from((0.01, 0.1, 0.4))),
    st.builds(phase_damping, st.sampled_from((0.01, 0.1, 0.4))),
)


def apply_local(state, matrix, qubits):
    """``matrix`` on ``qubits`` of a ``(2,) * n`` state tensor (axis ``q``
    is qubit ``q``; the first listed qubit is the matrix's high bit)."""
    k = len(qubits)
    moved = np.tensordot(matrix.reshape((2,) * 2 * k), state, axes=(range(k, 2 * k), qubits))
    return np.moveaxis(moved, range(k), qubits)


def kraus_weight(circuit, choices):
    """``||K_n U ... K_1 U |0...0>||**2`` for the branches ``choices``
    (the dominant one at every site it does not list): measurements are
    deferred, so they leave the norm alone."""
    state = np.zeros((2,) * circuit.num_qubits, dtype=np.complex128)
    state[(0,) * circuit.num_qubits] = 1.0
    for op in circuit:
        if isinstance(op, GateOp):
            state = apply_local(state, op.gate.matrix, op.qubits)
        elif isinstance(op, NoiseOp):
            branch = choices.get(op.site_id, op.channel.dominant_index())
            state = apply_local(state, op.channel.kraus_ops[branch], op.qubits)
    return float(np.vdot(state, state).real)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=noisy_circuits(max_qubits=3, noise=general_kraus_noise))
def test_general_kraus_weights_are_the_kraus_product_norms(circuit):
    """Under amplitude and phase damping a branch's nominal probability is
    only a prior: ``serial`` and ``vectorized`` must weigh each
    ``ExhaustivePTS`` trajectory by the norm its Kraus product leaves on
    the actual state, and the weighted pool must use those weights."""
    assume(legal(circuit))
    for strategy in ("serial", "vectorized"):
        result = run(circuit, strategy, sampler=ExhaustivePTS(cutoff=1e-6, nshots=50))
        expected = [kraus_weight(circuit, t.record.choices) for t in result.trajectories]
        got = [t.actual_weight for t in result.trajectories]
        # atol: a branch that annihilates the state up to rounding.
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-20, err_msg=strategy)
        k = len(circuit.measured_qubits)
        pool, total = np.zeros(2**k), 0.0
        for t, weight in zip(result.trajectories, expected):
            if t.num_shots:
                keys = t.bits.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1))
                pool += weight * np.bincount(keys, minlength=2**k) / t.num_shots
                total += weight
        np.testing.assert_allclose(result.pooled_distribution(), pool / total, rtol=1e-9, atol=1e-15)


def _no_unit(self, table, sizes):
    raise AssertionError("a unit ran")


def assert_refused_before_any_unit(circuit, sampler):
    """Every strategy name plus ``auto`` refuses ``circuit`` with one
    ``ExecutionError`` (not a retried ``FaultError``), and no engine
    prepares a unit first."""
    messages = set()
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ADAPTERS:
            patch.setattr(getattr(module, name), "prepare", _no_unit)
        for strategy in list(STRATEGIES) + ["auto"]:
            with pytest.raises(ExecutionError) as raised:
                run(circuit, strategy, sampler=sampler)
            assert type(raised.value) is ExecutionError
            messages.add(str(raised.value))
    assert len(messages) == 1
    assert MEASURED in messages.pop()


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
    if not legal(circuit):
        wording = MEASURED  # the circuit is checked before its specs
    # The sampled specs plus one with the malformed events.
    specs = list(SAMPLER.sample(circuit, make_rng(5)).specs)
    record = TrajectoryRecord(len(specs), tuple(KrausEvent(s, i) for s, i in events))
    specs.append(TrajectorySpec(record, 20))
    messages = set()
    for strategy in list(STRATEGIES) + ["auto"]:
        if strategy == "clifford" and not analyze_circuit(circuit).frame_eligible:
            continue
        with pytest.raises(ExecutionError) as raised:
            execute(circuit, strategy, specs)
        messages.add(str(raised.value))
    assert len(messages) == 1
    assert wording in messages.pop()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    circuit=noisy_circuits(),
    sampler=st.sampled_from(SAMPLERS),
    max_batch=st.sampled_from((1, 3, 64)),
    data=st.data(),
)
def test_a_result_and_its_hand_built_spec_list_run_alike(circuit, sampler, max_batch, data):
    """The two input forms of ``execute``: a sampler's result (its
    ``specs`` view) and the same trajectories as a spec list built by hand,
    which ``drive()`` converts and checks.  Rows ``n`` and ``n + 1`` repeat
    two drawn rows under new ids, and the list names a dominant index in
    the second, which prescribes nothing."""
    assume(legal(circuit))
    sampled = sampler.sample(circuit, make_rng(5))
    n = sampled.num_trajectories
    twin, other = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
    rows = np.append(np.arange(n), [twin, other])
    result = dataclasses.replace(
        sampled.take(rows, np.append(sampled.shots, [7, 9]), "drawn"),
        trajectory_ids=np.arange(n + 2),
    )
    records = [spec.record for spec in result.specs]
    free = sorted(set(range(circuit.num_noise_sites())) - set(result.table[other]))
    if free:
        site = data.draw(st.sampled_from(free))
        dominant = KrausEvent(site, circuit.noise_sites[site].channel.dominant_index())
        events = tuple(sorted(records[-1].events + (dominant,)))
        records[-1] = dataclasses.replace(records[-1], events=events)
    hand_built = [TrajectorySpec(record, int(m)) for record, m in zip(records, result.shots)]
    eligible = analyze_circuit(circuit).frame_eligible
    for strategy in list(STRATEGIES) + ["auto"]:
        if strategy == "clifford" and not eligible:
            continue
        a = execute(circuit, strategy, result.specs, max_batch)
        b = execute(circuit, strategy, hand_built, max_batch)
        assert_dense_equal(b, a)
        assert a.unique_preparations == b.unique_preparations == n
        assert a.records == [spec.record for spec in result.specs]
        assert b.records == records


@pytest.mark.parametrize("strategy", list(STRATEGIES) + ["auto"])
def test_a_dominant_index_prepares_the_state_that_omits_its_site(strategy):
    circuit = Circuit(2).h(0).cx(0, 1)
    circuit.attach(depolarizing(0.1), 0).attach(depolarizing(0.1), 1).measure_all().freeze()
    dominant = circuit.noise_sites[0].channel.dominant_index()
    specs = [
        TrajectorySpec(TrajectoryRecord(tid, tuple(KrausEvent(0, k) for k in kraus)), 10)
        for tid, kraus in enumerate([(), (dominant,), (1,)])
    ]
    result = execute(circuit, strategy, specs)
    assert result.unique_preparations == 2
    assert result.records == [spec.record for spec in specs]
    bits = [t.bits for t in result.trajectories]
    assert [len(b) for b in bits] == [10, 10, 10]


def test_a_sampled_run_builds_no_spec(monkeypatch):
    """A sampler's table goes to the engines as it is: no spec is built
    and nothing is checked again (``len`` of the view builds nothing)."""
    built = []
    original = TrajectorySpec.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    def refused(*args):
        raise AssertionError("a sampled table was prescribed again")

    monkeypatch.setattr(TrajectorySpec, "__init__", counting)
    monkeypatch.setattr(pts_base, "prescribe", refused)
    circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
    circuit.attach(depolarizing(0.05), 1).attach(amplitude_damping(0.1), 2).measure_all().freeze()
    sampled = SAMPLER.sample(circuit, make_rng(1))
    assert len(sampled.specs) == sampled.num_trajectories > 1
    for strategy in list(STRATEGIES) + ["auto"]:
        if strategy != "clifford":
            assert run(circuit, strategy).num_trajectories == sampled.num_trajectories
    assert built == []
    assert sampled.specs[1].record.trajectory_id == 1 and len(built) == 1


@pytest.mark.parametrize("strategy", ["serial", "vectorized", "clifford", "tensornet"])
@pytest.mark.parametrize("retain", [False, True], ids=["streamed", "materialised"])
def test_a_shot_table_builds_no_trajectory_and_no_record(monkeypatch, strategy, retain):
    """Delivery keeps each unit's shots as one block: a run read through
    its shot tables constructs no ``TrajectoryResult`` and no
    ``TrajectoryRecord``; ``len`` of the views builds nothing and an item
    builds one."""
    built = []
    for cls in (TrajectoryResult, TrajectoryRecord):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    circuit = Circuit(3).h(0).cx(0, 1).s(2).cx(1, 2)
    circuit.attach(depolarizing(0.05), 1).attach(depolarizing(0.1), 2).measure_all().freeze()
    stream = run_ptsbe_stream(
        circuit, SAMPLER, seed=5, strategy=strategy, retain=retain,
        executor_kwargs=options(strategy, 3),
    )
    if not retain:
        chunks = list(stream)
        assert len(chunks) > 1 and all(chunk.shot_table().num_shots for chunk in chunks)
        assert sum(len(chunk.records) for chunk in chunks) > 1 and built == []
        assert chunks[-1].trajectories[0].num_shots == 20
        assert sorted(built) == ["TrajectoryRecord", "TrajectoryResult"]
        return
    result = stream.finalize()
    assert result.shot_table().num_shots == 20 * len(result.records) > 20 and built == []
    assert result.trajectories[1].record.trajectory_id == 1
    assert sorted(built) == ["TrajectoryRecord", "TrajectoryResult"]


def test_parallel_agrees_with_serial_on_general_kraus_noise():
    circuit = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2).ry(0.7, 2)
    circuit.attach(depolarizing(0.02), 0).attach(amplitude_damping(0.1), 1)
    circuit.attach(pauli_channel(0.01, 0.0, 0.02), 2).measure_all().freeze()
    assert_dense_equal(run(circuit, "parallel"), run(circuit, "serial"))

