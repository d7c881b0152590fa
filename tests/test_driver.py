"""The shared execution driver: one replay harness for every strategy.

``repro.execution.driver.drive`` is the single delivery loop behind every
strategy name — four executors, of which the two dense ones take
``num_workers`` (``parallel`` and ``sharded`` are their aliases).  Each
contract below is checked once, parametrised over the strategies it
applies to, instead of once per engine module.
"""

import concurrent.futures
import hashlib
import multiprocessing
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.statevector import StatevectorBackend
from repro.channels import NoiseModel, depolarizing
from repro.channels.standard import amplitude_damping, bit_flip, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.circuits.library import build_workload
from repro.config import DEFAULT_CONFIG, Config
from repro.errors import CapacityError, ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    CliffordFrameExecutor,
    ParallelExecutor,
    ShardedExecutor,
    ShotTable,
    TensorNetExecutor,
    VectorizedExecutor,
    run_ptsbe,
)
from repro.execution import batched, clifford, driver, tensornet, vectorized
from repro.execution.batched import DENSE_STRATEGIES, STRATEGIES, executor_class
from repro.execution.driver import Engine
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.pts import ProbabilisticPTS, PTSResult, TrajectorySpec, deduplicate_specs
from repro.rng import StreamFactory, make_rng
from repro.trajectory.events import KrausEvent, TrajectoryRecord

FAST_RETRY = RetryPolicy(backoff_base=0.0, jitter=False)

#: The four executors, under their own names; the other two are aliases.
ENGINES = ["serial", "vectorized", "clifford", "tensornet"]
ADAPTERS = {
    "serial": (batched, "_SerialEngine"),
    "parallel": (batched, "_SerialEngine"),
    "vectorized": (vectorized, "_StackEngine"),
    "sharded": (vectorized, "_StackEngine"),
    "clifford": (clifford, "_FrameEngine"),
    "tensornet": (tensornet, "_MPSStackEngine"),
}


def clifford_circuit():
    """5q Clifford circuit, Pauli-mixture noise: every strategy can run it."""
    ideal = Circuit(5)
    for q in range(5):
        ideal.h(q)
    for q in range(4):
        ideal.cx(q, q + 1)
    ideal.s(2).cz(0, 4).h(3)
    ideal.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", depolarizing(0.05))
        .add_all_qubit_gate_noise("h", bit_flip(0.02))
    )
    return model.apply(ideal).freeze()


@pytest.fixture(scope="module")
def circuit():
    return clifford_circuit()


@pytest.fixture(scope="module")
def specs(circuit):
    return ProbabilisticPTS(nsamples=60, nshots=40).sample(circuit, make_rng(5)).specs


def groups_of(circuit, specs):
    """``specs``' dedup groups, as ``drive()`` forms them."""
    trajectories = PTSResult.from_specs(circuit, specs)
    return deduplicate_specs(trajectories.table, trajectories.shots)


def make_executor(strategy, config=None):
    options = {} if config is None else {"config": config}
    if strategy == "serial":
        return BatchedExecutor(BackendSpec.statevector(**options))
    if strategy == "parallel":
        return ParallelExecutor(BackendSpec.statevector(**options), num_workers=2)
    if strategy == "vectorized":
        return VectorizedExecutor(BackendSpec.batched_statevector(**options), max_batch=2)
    if strategy == "sharded":
        return ShardedExecutor(
            BackendSpec.batched_statevector(**options), max_batch=4, num_workers=2,
        )
    if strategy == "clifford":
        return CliffordFrameExecutor(BackendSpec.statevector(**options))
    if strategy == "tensornet":
        return TensorNetExecutor(BackendSpec.statevector(**options), max_batch=4)
    raise AssertionError(strategy)


def faulty(*rules):
    return Config(fault_plan=FaultPlan(rules=tuple(rules)), retry=FAST_RETRY)


def table_of(result):
    table = result if isinstance(result, ShotTable) else result.shot_table()
    return table.bits, table.trajectory_ids


def assert_same_table(a, b):
    for x, y in zip(table_of(a), table_of(b)):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_streamed_chunks_concatenate_to_the_finalized_table(circuit, specs, strategy):
    executor = make_executor(strategy)
    stream = executor.execute_stream(circuit, specs, seed=21)
    tables = [chunk.shot_table() for chunk in stream if chunk.num_shots]
    firsts = [t.trajectory_ids[0] for t in tables]
    assert firsts == sorted(firsts)  # ordered delivery
    result = stream.finalize()
    assert result.engine == strategy
    assert result.unique_preparations == len(specs)  # global, on a pool too
    assert_same_table(ShotTable.concatenate(tables), result)
    # In-process, a row-independent engine hands over dedup group 0 alone
    # first; tensornet, whose rows share truncation ranks, a whole unit.
    local = driver.drive(partial(executor._engine, circuit), circuit, specs, seed=21)
    first = next(local)
    local.close()
    groups = groups_of(circuit, specs)
    held = min(executor.max_batch, len(groups)) if strategy == "tensornet" else 1
    held_rows = sorted(groups.members[: groups.offsets[held]])
    assert first.records == [specs[i].record for i in held_rows]
    first_bits = first.shot_table().bits
    np.testing.assert_array_equal(first_bits, result.shot_table().bits[: len(first_bits)])


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_close_before_first_chunk_releases_the_engine(
    circuit, specs, strategy, monkeypatch
):
    module, adapter = ADAPTERS[strategy]
    released = []
    monkeypatch.setattr(
        getattr(module, adapter), "release", lambda self: released.append(self)
    )
    stream = make_executor(strategy).execute_stream(circuit, specs, seed=21)
    # An adapter may reset itself through release() when built, and the
    # driver releases the parent's copy of a pooled engine straight away.
    released.clear()
    stream.close()
    assert len(released) == 1 and isinstance(released[0], Engine)
    stream.close()  # idempotent: no second release
    assert len(released) == 1
    assert multiprocessing.active_children() == []  # no pool was ever started


@pytest.mark.parametrize("num_workers", [1, 2, 3])
@pytest.mark.parametrize(
    "strategy,max_batch,budget_rows",
    [("parallel", None, None)]
    + [
        ("sharded", max_batch, budget_rows)
        for max_batch in (None, 1, 2, 3)
        for budget_rows in (None, 1, 2)
    ],
)
def test_any_worker_count_batch_and_row_budget_gives_the_serial_table(
    circuit, specs, strategy, num_workers, max_batch, budget_rows
):
    """``budget_rows`` caps the backend's own dense budget at that many rows
    of the 5-qubit state (``None``: the default budget), so a unit holds
    ``min(max_batch, budget_rows)`` rows; the table is the serial one.
    In-process, the sorting dense stack delivers group 0 alone and then at
    most one sort window a chunk; the one-row engine one unit a chunk."""
    if strategy == "parallel":
        executor = ParallelExecutor(num_workers=num_workers)
    else:
        backend = BackendSpec.batched_statevector()
        if budget_rows is not None:
            extra = budget_rows.bit_length() - 1  # log2 of a power of two
            config = Config(max_dense_qubits=circuit.num_qubits + extra)
            backend = BackendSpec.batched_statevector(config=config)
        executor = ShardedExecutor(
            backend, max_batch=max_batch, num_workers=num_workers
        )
    stream = executor.execute_stream(circuit, specs, seed=21)
    chunks = list(stream)
    result = stream.finalize()
    ends = np.cumsum([chunk.num_trajectories for chunk in chunks]).tolist()
    if strategy == "parallel" and num_workers == 1:
        assert ends == list(range(1, len(specs) + 1))  # a unit per chunk
    elif num_workers == 1:
        caps = [cap for cap in (max_batch, budget_rows) if cap is not None]
        rows = min(caps + [2 ** (DEFAULT_CONFIG.max_dense_qubits - circuit.num_qubits)])
        starts = _window_starts(specs, rows, rows * 2**circuit.num_qubits * 16, circuit.num_qubits)
        assert ends[0] == 1 and set(starts) <= set(ends), (starts, ends)
        # A capped stack is 512 bytes a row and a unit's bits 200 a row:
        # two units a window, so several windows.
        assert len(starts) > 1 or not caps
    assert_same_table(ShotTable.concatenate([c.shot_table() for c in chunks]), result)
    assert_same_table(BatchedExecutor().execute(circuit, specs, seed=21), result)
    assert result.records == [spec.record for spec in specs]
    assert result.unique_preparations == len(specs) and result.recovery == []


def _window_starts(specs, rows, stack_bytes, width):
    """Where the sort windows start after group 0 when every spec is its
    own dedup group: runs of whole ``rows``-spec units whose shot bits
    (``width`` bytes a shot) fit ``stack_bytes``, at least one unit each."""
    starts, total = [], stack_bytes
    for start in range(1, len(specs), rows):
        bits = sum(spec.num_shots for spec in specs[start : start + rows]) * width
        if total + bits > stack_bytes:
            starts.append(start)
            total = 0
        total += bits
    return starts


def test_sort_windows_bound_the_chunks_whatever_is_retained():
    """A 3-qubit run at ``max_batch=2`` whose shot bits fill several unit
    stacks of 2 x 8 amplitudes (256 bytes): its units are sorted inside
    several windows, no chunk crosses a window's first spec, and retaining
    the chunks or not cuts them the same way."""
    ghz = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
    noisy = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.2)).apply(ghz).freeze()
    specs = ProbabilisticPTS(nsamples=400, nshots=10).sample(noisy, make_rng(3)).specs
    groups = groups_of(noisy, specs)
    assert len(groups) == len(specs) > 12  # one group a spec, 30 bytes of bits each
    starts = _window_starts(specs, 2, 2 * 8 * 16, 3)
    assert len(starts) >= 2 and starts[1] - starts[0] == 8  # four units a window
    boundaries = []
    for retain in (True, False):
        stream = VectorizedExecutor(max_batch=2).execute_stream(noisy, specs, seed=4, retain=retain)
        boundaries.append(np.cumsum([chunk.num_trajectories for chunk in stream]).tolist())
    assert boundaries[0] == boundaries[1]
    assert boundaries[0][0] == 1 and set(starts) <= set(boundaries[0])
    serial = BatchedExecutor().execute(noisy, specs, seed=4)
    assert_same_table(VectorizedExecutor(max_batch=2).execute(noisy, specs, seed=4), serial)


def _even_chunks(total, size):
    """``total`` cut into runs of ``size`` and what is left."""
    return [size] * (total // size) + [total % size] * (total % size > 0)


@pytest.mark.parametrize(
    "max_rows,max_unit_shots,per_unit",
    [
        (1024, 1 << 16, 1024),  # the constants: every 40-shot spec in one unit
        (1, 1 << 16, 1),
        (4, 1 << 16, 4),
        (1024, 120, 3),  # 40-shot groups, closed on shots
        (2, 100, 2),  # on rows first
        (1024, 1, 1),  # a unit always takes one group
    ],
)
def test_frame_units_of_any_size_give_one_table(
    circuit, specs, monkeypatch, max_rows, max_unit_shots, per_unit
):
    reference = CliffordFrameExecutor().execute(circuit, specs, seed=21)
    monkeypatch.setattr(clifford._FrameEngine, "max_rows", max_rows)
    monkeypatch.setattr(clifford._FrameEngine, "max_unit_shots", max_unit_shots)
    stream = CliffordFrameExecutor().execute_stream(circuit, specs, seed=21)
    tables = [chunk.shot_table() for chunk in stream]
    assert len(specs) > 8  # several units in every row above but the first
    # Group 0 is a unit of its own; the greedy cuts start at group 1.
    assert [len(np.unique(t.trajectory_ids)) for t in tables] == [1] + _even_chunks(
        len(specs) - 1, min(per_unit, len(specs) - 1)
    )
    result = stream.finalize()
    assert_same_table(ShotTable.concatenate(tables), result)
    assert_same_table(reference, result)
    assert [t.actual_weight for t in result.trajectories] == [
        t.actual_weight for t in reference.trajectories
    ]
    assert result.records == reference.records == [spec.record for spec in specs]


def test_capacity_fault_halves_a_frame_unit_without_moving_a_bit(circuit, specs):
    clean = CliffordFrameExecutor().execute(circuit, specs, seed=21)
    # Group 0 is a unit of its own and the rest of the run is one unit;
    # halve that, then halve its upper half.
    end = len(specs)
    half, quarter = (1 + end) // 2, ((1 + end) // 2 + end) // 2
    config = faulty(
        FaultSpec("capacity", f"clifford/stack:1:{end}"),
        FaultSpec("capacity", f"clifford/stack:{half}:{end}"),
    )
    stream = make_executor("clifford", config).execute_stream(circuit, specs, seed=21)
    assert [chunk.num_trajectories for chunk in stream] == [
        1, half - 1, quarter - half, end - quarter
    ]
    result = stream.finalize()
    assert_same_table(clean, result)
    assert [t.actual_weight for t in result.trajectories] == [
        t.actual_weight for t in clean.trajectories
    ]
    assert [(e.kind, e.unit, e.detail) for e in result.recovery] == [
        (
            "batch-halved", f"clifford/stack:1:{end}",
            f"split into stack:1:{half} and stack:{half}:{end}",
        ),
        (
            "batch-halved", f"clifford/stack:{half}:{end}",
            f"split into stack:{half}:{quarter} and stack:{quarter}:{end}",
        ),
    ]


@pytest.mark.parametrize("nshots", [1 << 16, (1 << 16) + 5, 30_000, 100])
def test_frame_chunks_are_bounded_by_shots_not_rows(circuit, specs, nshots):
    # Ingest mode with a large uniform budget: what a chunk holds is set by
    # max_unit_shots, however many trajectories there are.
    limit = clifford._FrameEngine.max_unit_shots
    budget = [spec.with_shots(nshots) for spec in specs[:7]]
    stream = CliffordFrameExecutor().execute_stream(circuit, budget, seed=2, retain=False)
    sizes = [(chunk.num_trajectories, chunk.num_shots) for chunk in stream]
    assert sum(n for n, _ in sizes) == 7
    assert all(shots <= limit + nshots for _, shots in sizes)
    per_chunk = max(1, limit // nshots)
    # Group 0 is a unit of its own; the greedy cuts start at group 1.
    assert [n for n, _ in sizes] == [1] + _even_chunks(6, per_chunk)
    if nshots >= limit:
        assert [n for n, _ in sizes] == [1] * 7  # one trajectory per chunk


def test_only_the_frame_engine_cuts_on_shots():
    assert clifford._FrameEngine.max_unit_shots == 1 << 16 and clifford._FrameEngine.max_rows > 64
    for module, adapter in set(ADAPTERS.values()) - {(clifford, "_FrameEngine")}:
        assert getattr(module, adapter).max_unit_shots is None


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_every_table_entry_streams_under_its_own_name(circuit, specs, strategy, monkeypatch):
    # The registry contract, on the default-constructed executor of every
    # name: execute_stream takes the threaded seed and the retain knob,
    # stamps the name on the stream and prefixes its fault units with it.
    clean = make_executor(strategy).execute(circuit, specs, seed=21)
    monkeypatch.setattr(DEFAULT_CONFIG, "retry", FAST_RETRY)
    monkeypatch.setattr(
        DEFAULT_CONFIG,
        "fault_plan",
        FaultPlan(rules=(FaultSpec("transient-backend", f"{strategy}/stack:*"),)),
    )
    cls = executor_class(strategy)
    assert "execute_stream" not in vars(cls)  # the one on the base class
    stream = cls().execute_stream(circuit, specs, seed=21, retain=True)
    assert stream.engine == strategy and stream.seed == 21
    result = stream.finalize()
    assert result.engine == strategy
    assert result.recovery and {e.kind for e in result.recovery} == {"retry"}
    assert all(e.unit.startswith(f"{strategy}/stack:") for e in result.recovery)
    if strategy != "tensornet":  # whose shots depend on the rows of a unit
        assert_same_table(clean, result)


def test_an_alias_is_its_parent_under_another_name(circuit, specs):
    serial = BatchedExecutor().execute(circuit, specs, seed=21)
    for parent, alias, kwargs in (
        (BatchedExecutor, ParallelExecutor, {"num_workers": 2}),
        (VectorizedExecutor, ShardedExecutor, {"max_batch": 3, "num_workers": 2}),
    ):
        assert set(vars(alias)) - {"__module__", "__doc__"} == {"strategy", "__init__"}
        assert issubclass(alias, parent) and alias.strategy != parent.strategy
        for cls in (parent, alias):
            result = cls(**kwargs).execute(circuit, specs, seed=21)
            assert result.engine == cls.strategy
            assert_same_table(serial, result)
            assert result.unique_preparations == serial.unique_preparations


@pytest.mark.parametrize("cls", [BatchedExecutor, VectorizedExecutor])
def test_num_workers_must_be_positive(cls):
    with pytest.raises(ExecutionError, match="num_workers must be positive"):
        cls(num_workers=0)


def _factory(num_qubits):
    raise AssertionError("never built")


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_a_backend_is_a_spec_and_nothing_else(circuit, strategy):
    """A callable backend factory is refused by every executor and by
    ``run_ptsbe`` (before the sampler draws), naming ``BackendSpec``."""
    with pytest.raises(ExecutionError, match="takes a BackendSpec"):
        executor_class(strategy)(_factory)
    with pytest.raises(ExecutionError, match="run_ptsbe takes a BackendSpec"):
        run_ptsbe(circuit, ProbabilisticPTS(nsamples=5, nshots=5), _factory, seed=1,
                  strategy=strategy)


class _RefusedSampler(ProbabilisticPTS):
    """A sampler that fails the test if the pipeline asks it for a table."""

    def sample(self, circuit, rng):
        raise AssertionError("the sampler ran before the dispatch was refused")


#: Dispatches ``run_ptsbe`` refuses, as ``(run_ptsbe keywords, error type,
#: message fragment)``: none of the checks reads the sampler's table.
BAD_DISPATCHES = [
    ({"strategy": "warp"}, ExecutionError, "unknown strategy 'warp'"),
    ({"strategy": "serial", "executor_kwargs": {"max_batch": 4}}, ExecutionError,
     "takes no executor argument 'max_batch'"),
    ({"strategy": "clifford", "backend": BackendSpec.mps()}, ExecutionError,
     "cannot run backend kind 'mps'"),
    ({"strategy": "serial", "backend": BackendSpec.statevector(config=Config(max_dense_qubits=3))},
     CapacityError, "exceeds the dense width cap"),
]


@pytest.mark.parametrize(
    "kwargs,error,fragment", BAD_DISPATCHES, ids=["strategy", "kwargs", "kind", "width"]
)
def test_a_bad_dispatch_is_refused_before_the_sampler_runs(circuit, kwargs, error, fragment):
    with pytest.raises(error, match=fragment):
        run_ptsbe(circuit, _RefusedSampler(nsamples=5, nshots=5), seed=1, **kwargs)


#: A spec each strategy takes, with one option misspelled, and the options
#: that spec's kind accepts.
MISSPELLED = [
    ("serial", BackendSpec.mps(max_bonds=8), "'max_bond', 'cutoff', 'config'"),
    ("serial", BackendSpec.statevector(max_bond=8), "'config'"),
    ("parallel", BackendSpec.mps(cutof=0.0), "'max_bond', 'cutoff', 'config'"),
    ("vectorized", BackendSpec.batched_statevector(max_bond=8), "'config'"),
    ("vectorized", BackendSpec.batched_statevector(batch_size=4), "'config'"),
    ("sharded", BackendSpec.statevector(dtype=None), "'config'"),
    ("clifford", BackendSpec.statevector(max_bond=8), "'config'"),
    ("tensornet", BackendSpec.mps(max_bonds=8), "'max_bond', 'cutoff', 'config'"),
    ("tensornet", BackendSpec.statevector(max_bond=8), "'config'"),
]


@pytest.mark.parametrize(
    "strategy,spec,accepted",
    MISSPELLED,
    ids=[f"{strategy}-{spec.kind}-{spec.options[0][0]}" for strategy, spec, _ in MISSPELLED],
)
def test_an_option_the_backend_does_not_take_raises(circuit, strategy, spec, accepted):
    """A misspelled option is an error on every strategy, never a default
    in disguise (tensornet used to run ``max_bonds=8`` at bond 64)."""
    option = repr(spec.options[0][0])
    for run in (
        lambda: executor_class(strategy)(spec),
        lambda: run_ptsbe(circuit, ProbabilisticPTS(nsamples=5, nshots=5), spec, seed=1,
                          strategy=strategy),
    ):
        with pytest.raises(ExecutionError) as err:
            run()
        message = str(err.value)
        assert repr(spec.kind) in message and option in message
        assert message.endswith(f"it accepts: {accepted}")


COMPLEX64 = Config(dtype=np.dtype(np.complex64))

#: A strategy and spec that run a complex128 MPS, asked for complex64.
MPS_AT_COMPLEX64 = [
    ("tensornet", BackendSpec.mps(config=COMPLEX64)),
    ("tensornet", BackendSpec.statevector(config=COMPLEX64)),
    ("serial", BackendSpec.mps(config=COMPLEX64)),
    ("parallel", BackendSpec.mps(config=COMPLEX64)),
    ("auto", BackendSpec.mps(config=COMPLEX64)),
]


@pytest.mark.parametrize(
    "strategy,spec", MPS_AT_COMPLEX64, ids=[f"{s}-{spec.kind}" for s, spec in MPS_AT_COMPLEX64]
)
def test_a_non_dense_engine_refuses_another_state_dtype(circuit, strategy, spec):
    """The MPS engines run complex128 whatever the config says: a spec that
    asks for complex64 is refused, naming the dtype and the dense kinds,
    instead of running at the precision it did not ask for."""
    runs = [lambda: run_ptsbe(circuit, ProbabilisticPTS(nsamples=5, nshots=5), spec, seed=1,
                              strategy=strategy)]
    if strategy != "auto":
        runs.append(lambda: executor_class(strategy)(spec))
    for run in runs:
        with pytest.raises(ExecutionError) as err:
            run()
        message = str(err.value)
        assert "complex64" in message and "'statevector', 'batched_statevector'" in message


def test_auto_routing_to_tensornet_refuses_another_state_dtype():
    """Past the dense cap ``auto`` routes a dense spec to tensornet, which
    would ignore its complex64: refused there, while complex128 runs."""
    wide = build_workload("brickwork", 40)
    sampler = ProbabilisticPTS(nsamples=3, nshots=2)
    assert run_ptsbe(wide, sampler, BackendSpec.statevector(), seed=1).engine == "tensornet"
    with pytest.raises(ExecutionError, match="TensorNetExecutor .* dtype complex64"):
        run_ptsbe(wide, sampler, BackendSpec.statevector(config=COMPLEX64), seed=1)


@pytest.mark.parametrize("strategy", DENSE_STRATEGIES)
def test_the_dense_strategies_take_a_state_dtype(circuit, strategy):
    spec = BackendSpec.statevector(config=COMPLEX64)
    if strategy in ("vectorized", "sharded"):
        spec = BackendSpec.batched_statevector(config=COMPLEX64)
    result = run_ptsbe(circuit, ProbabilisticPTS(nsamples=5, nshots=5), spec, seed=1,
                       strategy=strategy)
    assert result.engine == strategy


def test_a_consumer_that_stops_pulling_stops_the_pool(circuit, specs, monkeypatch):
    # Two workers split the groups into ~8 tasks.  Every task but the first
    # stalls (the glob skips unit names starting "stack:0"), so the first
    # chunk is the first completion: exactly the initial window has been
    # submitted.
    step = -(-len(specs) // 8)
    tasks = [(a, min(a + step, len(specs)), 0) for a in range(0, len(specs), step)]
    assert len(tasks) > 4
    started = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, *args):
            started.append(args)
            return super().submit(fn, *args)

    # The driver imports the pool class where it builds one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    plan = FaultPlan(
        rules=(FaultSpec("slow-worker", "parallel/stack:[!0]*"),), slow_seconds=0.3
    )
    executor = ParallelExecutor(BackendSpec.statevector(config=Config(fault_plan=plan)))
    stream = executor.execute_stream(circuit, specs, seed=21)
    first = next(stream)
    assert first.num_trajectories == step
    assert started == tasks[:4]  # 2 * workers
    stream.close()
    assert started == tasks[:4]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("strategy", ["serial", "clifford"])
def test_injected_transient_fault_retries_and_reemits_identical_chunks(
    circuit, specs, strategy, monkeypatch
):
    # A serial unit is one group; a frame unit closes on shots, here at
    # three 40-shot groups, after group 0's unit of its own.
    monkeypatch.setattr(clifford._FrameEngine, "max_unit_shots", 120)
    rows = {"serial": 1, "clifford": 3}[strategy]
    units = [(0, 1)] + [(a, min(a + rows, len(specs))) for a in range(1, len(specs), rows)]
    clean = list(make_executor(strategy).execute_stream(circuit, specs, seed=21))
    config = faulty(FaultSpec("transient-backend", f"{strategy}/stack:*"))
    stream = make_executor(strategy, config).execute_stream(circuit, specs, seed=21)
    recovered = list(stream)
    assert len(recovered) == len(clean) == len(units)
    for a, b in zip(clean, recovered):
        assert_same_table(a, b)
    events = stream.recovery
    assert [e.kind for e in events] == ["retry"] * len(units)
    assert [e.unit for e in events] == [f"{strategy}/stack:{a}:{b}" for a, b in units]
    assert {(e.strategy, e.attempt) for e in events} == {(strategy, 1)}


def test_capacity_fault_on_a_two_row_unit_halves_exactly_once(circuit, specs):
    clean = make_executor("vectorized").execute(circuit, specs, seed=21)
    # Units of max_batch=2 groups start at group 1, after group 0's own.
    config = faulty(FaultSpec("capacity", "vectorized/stack:1:3"))
    result = make_executor("vectorized", config).execute(circuit, specs, seed=21)
    assert_same_table(clean, result)
    (event,) = result.recovery
    assert (event.kind, event.unit, event.attempt) == (
        "batch-halved", "vectorized/stack:1:3", 0
    )
    assert event.detail == "split into stack:1:2 and stack:2:3"


#: One way to run a seed: how units are cut, on how many processes, what
#: fails on the way and how deep the first task is halved.
PERMUTATIONS = st.fixed_dictionaries(
    {
        "seed": st.sampled_from([21, 22]),
        "rows": st.sampled_from([1, 2, 3, 5, 64]),
        "unit_shots": st.sampled_from([40, 130, 1 << 16]),  # frame units only
        "workers": st.sampled_from([1, 2]),
        "fault_rate": st.sampled_from([0.0, 0.4, 1.0]),
        "fault_kinds": st.sampled_from(
            [("transient-backend",), ("worker-crash", "transient-backend")]
        ),
        "halvings": st.integers(0, 3),
    }
)
_REFERENCE_TABLES = {}


def _permuted_executor(strategy, rows, config):
    spec = BackendSpec.batched_statevector if strategy == "vectorized" else BackendSpec.statevector
    stacked = {"max_batch": rows} if strategy in ("vectorized", "tensornet") else {}
    return executor_class(strategy)(spec(config=config), **stacked)


@pytest.mark.parametrize("strategy", ENGINES)
@settings(max_examples=20, deadline=None)
@given(how=PERMUTATIONS)
def test_any_chunking_workers_faults_and_halving_give_one_table_per_seed(
    circuit, specs, strategy, how
):
    """The replay contract on ``drive()`` itself, whatever moves underneath:
    one root seed, one shot table.  (The 5-qubit chain never truncates, so
    the tensornet stack is row-wise independent here too.)"""
    seed = how["seed"]
    if (strategy, seed) not in _REFERENCE_TABLES:
        _REFERENCE_TABLES[strategy, seed] = make_executor(strategy).execute(
            circuit, specs, seed=seed
        )
    reference = _REFERENCE_TABLES[strategy, seed]
    frame_cuts = mock.patch.multiple(
        clifford._FrameEngine, max_rows=how["rows"], max_unit_shots=how["unit_shots"]
    )
    with frame_cuts:
        # The tasks, by the driver's own rule; halve the first that holds
        # two groups or more (else the first) `halvings` deep.
        groups = groups_of(circuit, specs)
        probe = _permuted_executor(strategy, how["rows"], None)._engine(circuit)
        probe.release()
        if how["workers"] == 1:
            tasks = driver._local_cuts(groups, probe)
        else:
            step = -(-len(groups) // (4 * how["workers"]))
            tasks = list(driver._cuts(groups, 0, len(groups), step, None))
        start, end = next((task for task in tasks if task[1] - task[0] > 1), tasks[0])
        rules = []
        while end - start >= 2 and len(rules) < how["halvings"]:
            rules.append(FaultSpec("capacity", f"{strategy}/stack:{start}:{end}"))
            end = (start + end) // 2
        plan = FaultPlan(rules=tuple(rules), rate=how["fault_rate"], kinds=how["fault_kinds"])
        executor = _permuted_executor(strategy, how["rows"], Config(fault_plan=plan, retry=FAST_RETRY))
        stream = driver.drive(
            partial(executor._engine, circuit), circuit, specs, seed, workers=how["workers"]
        )
        tables = [chunk.shot_table() for chunk in stream]
        result = stream.finalize()
    assert_same_table(ShotTable.concatenate(tables), result)
    assert_same_table(reference, result)
    assert [t.actual_weight for t in result.trajectories] == [
        t.actual_weight for t in reference.trajectories
    ]
    assert result.seed == seed and result.records == [spec.record for spec in specs]
    kinds = [event.kind for event in result.recovery]
    assert kinds.count("batch-halved") == len(rules)
    if how["fault_rate"] == 1.0:
        assert kinds.count("retry") >= len(tables)  # every unit's first attempt failed
    if how["fault_rate"] == 0.0:
        assert "retry" not in kinds
    assert multiprocessing.active_children() == []


def test_wide_clifford_circuit_agrees_across_the_two_wide_engines(msd_prep35_circuit):
    """Past the dense cap nothing but the other wide engine can vouch for
    one: a 35-qubit Clifford + Pauli-noise circuit forced onto ``clifford``
    and ``tensornet`` from one seed.  (Not ``clifford_pts_35q``'s own
    circuit: the full MSD entangles its five blocks past any bond this
    suite can afford — at ``max_bond`` 64 / 128 / 256 the chain keeps
    4e-15 / 6e-14 / 4e-12 of a trajectory whose weight is 4.1e-4.  The
    preparation circuit has the same blocks and width and bond 8.)"""
    from repro.qec import steane_code

    sampler = ProbabilisticPTS(nsamples=60, nshots=4_000)
    frames = run_ptsbe(msd_prep35_circuit, sampler, seed=7, strategy="clifford")
    chains = run_ptsbe(msd_prep35_circuit, sampler, seed=7, strategy="tensornet")
    assert (frames.engine, chains.engine) == ("clifford", "tensornet")
    # One sampler stream, one trajectory set.
    assert frames.records == chains.records and frames.num_trajectories > 20
    assert max(t.record.num_errors() for t in frames.trajectories) >= 2
    # Each block's three Z checks, read off the measured bits.
    checks = np.kron(np.eye(5, dtype=np.uint8), steane_code().hz)
    shots = 4_000
    # Two engines draw `shots` independent shots each of one distribution: a
    # qubit's two means differ by sqrt(2 p (1 - p) / shots) <= 0.0112, and
    # 5.5 of those (two-sided tail 4e-8) cover trajectories x 35 qubits.
    bound = 5.5 * np.sqrt(2 * 0.25 / shots)
    for a, b in zip(frames.trajectories, chains.trajectories):
        # Pauli mixtures are unitary mixtures: both weights are the product
        # of the chosen branch probabilities, to rounding.
        assert a.actual_weight == pytest.approx(b.actual_weight, rel=1e-12)
        assert a.actual_weight == pytest.approx(a.record.nominal_probability, rel=1e-12)
        assert a.bits.shape == b.bits.shape == (shots, 35)
        assert np.abs(a.bits.mean(axis=0) - b.bits.mean(axis=0)).max() < bound
        # A trajectory's injected Paulis fix its syndrome: every shot of it
        # reads the same one, on either engine.
        syndrome = (a.bits[0] @ checks.T) % 2
        assert np.array_equal((a.bits @ checks.T) % 2, np.tile(syndrome, (shots, 1)))
        assert np.array_equal((b.bits @ checks.T) % 2, np.tile(syndrome, (shots, 1)))
        assert syndrome.any() <= (a.record.num_errors() > 0)
    pooled = frames.shot_table().bits.mean(axis=0) - chains.shot_table().bits.mean(axis=0)
    assert np.abs(pooled).max() < 5.5 * np.sqrt(2 * 0.25 / frames.shot_table().num_shots)
    assert not np.array_equal(frames.shot_table().bits, chains.shot_table().bits)


def _spec(tid, shots, choices=None):
    events = tuple(
        KrausEvent(site_id=site, kraus_index=index, qubits=(0,), probability=0.1)
        for site, index in (choices or {}).items()
    )
    record = TrajectoryRecord(trajectory_id=tid, events=events, nominal_probability=0.5)
    return TrajectorySpec(record=record, num_shots=shots)


def test_serial_prepares_duplicate_specs_once_with_unchanged_bits(circuit):
    dup = [_spec(0, 30, {0: 1}), _spec(1, 20), _spec(2, 25, {0: 1})]
    together = BatchedExecutor().execute(circuit, dup, seed=9)
    assert together.unique_preparations == 2
    assert [t.prep_seconds > 0 for t in together.trajectories] == [True, True, False]
    for spec, got in zip(dup, together.trajectories):
        alone = BatchedExecutor().execute(circuit, [spec], seed=9).trajectories[0]
        np.testing.assert_array_equal(got.bits, alone.bits)
        assert got.actual_weight == alone.actual_weight
        assert got.record is spec.record


@pytest.mark.parametrize("strategy", ENGINES)
def test_live_zero_shot_spec_reports_its_realised_weight(circuit, strategy):
    # tensornet used to report 0.0 here, as if the trajectory were dead.
    result = make_executor(strategy).execute(
        circuit, [_spec(0, 0, {0: 1}), _spec(1, 8, {0: 1}), _spec(2, 0)], seed=3
    )
    zero, sampled, ideal = result.trajectories
    assert [t.num_shots for t in result.trajectories] == [0, 8, 0]
    assert zero.bits.shape == (0, 5) and zero.bits.dtype == np.uint8
    assert zero.actual_weight == sampled.actual_weight > 0.0
    assert ideal.actual_weight > zero.actual_weight


@pytest.mark.parametrize("strategy", ENGINES)
def test_one_sample_call_per_unit_with_its_wall_split_by_shot_share(
    circuit, strategy, monkeypatch
):
    module, adapter = ADAPTERS[strategy]
    original_sample = getattr(module, adapter).sample
    original_rng_for = StreamFactory.rng_for
    calls, streams = [], []

    def recording_sample(self, requests):
        calls.append([(shots, rng) for _, shots, rng in requests])
        return original_sample(self, requests)

    def recording_rng_for(self, trajectory_id):
        streams.append(trajectory_id)
        return original_rng_for(self, trajectory_id)

    monkeypatch.setattr(getattr(module, adapter), "sample", recording_sample)
    monkeypatch.setattr(StreamFactory, "rng_for", recording_rng_for)
    monkeypatch.setattr(driver, "timed", lambda fn, *args: (fn(*args), 3.0))
    # A frame unit closes on shots: the 40-shot group fills one.
    monkeypatch.setattr(clifford._FrameEngine, "max_unit_shots", 40)
    specs = [
        _spec(0, 30, {0: 1}), _spec(1, 0, {0: 1}), _spec(2, 10, {0: 1}),
        _spec(3, 20), _spec(4, 0, {1: 1}),
    ]
    result = make_executor(strategy).execute(circuit, specs, seed=5)
    assert result.unique_preparations == 3
    # Three dedup groups of 40 / 20 / 0 shots, at max_rows 1 / 2 / 4 and at
    # 40 shots per frame unit: one call per prepared unit.
    assert len(calls) == {"serial": 3, "vectorized": 2, "clifford": 2, "tensornet": 1}[strategy]
    # One generator per spec that draws shots, handed to exactly one call;
    # a zero-shot spec asks for nothing and reads 0.0.
    assert sorted(streams) == [0, 2, 3]
    assert sorted(shots for call in calls for shots, _ in call) == [10, 20, 30]
    assert len({id(rng) for call in calls for _, rng in call}) == 3
    seconds = [t.sample_seconds for t in result.trajectories]
    assert seconds[1] == seconds[4] == 0.0
    assert seconds[0] == pytest.approx(3 * seconds[2])  # same row, 30 vs 10 shots
    # Every unit's shares add up to the wall measured around its one call.
    assert sum(seconds) == pytest.approx(3.0 * sum(1 for call in calls if call))
    assert result.shot_table().bits.shape == (60, 5)


def test_dead_row_has_zero_weight_and_no_shots_on_the_dense_engines():
    # Two successive decays of the same qubit annihilate the state.
    ideal = Circuit(1).x(0).z(0).measure_all()
    model = NoiseModel().add_all_qubit_gate_noise("x", amplitude_damping(0.3))
    model = model.add_all_qubit_gate_noise("z", amplitude_damping(0.3))
    circuit = model.apply(ideal).freeze()
    dead = [_spec(0, 10, {0: 1, 1: 1}), _spec(1, 10)]
    for strategy in ("serial", "vectorized"):
        result = make_executor(strategy).execute(circuit, dead, seed=1)
        assert [t.actual_weight == 0.0 for t in result.trajectories] == [True, False]
        assert [t.num_shots for t in result.trajectories] == [0, 10]
        assert result.trajectories[0].sample_seconds == 0.0  # and was never asked for
        assert result.recovery == []  # a dead row is not a retried failure


#: Spec 1's ``(site, kraus index)`` events, and the one error every
#: strategy raises for them.  A missing site used to run as the ideal
#: trajectory under a record claiming an error; a site named twice ran its
#: last index alone; a bad index failed inside a unit, was retried as a
#: fault, and was worded two ways.
BAD_PRESCRIPTIONS = {
    "999": (
        [(1, 1), (999, 1)],
        "spec 1 prescribes noise site 999, but the circuit has 14 noise sites (ids 0..13)",
    ),
    "-1": (
        [(-1, 1), (1, 1)],
        "spec 1 prescribes noise site -1, but the circuit has 14 noise sites (ids 0..13)",
    ),
    "index-1": (
        [(1, 1), (5, -1)],
        "spec 1 prescribes Kraus index -1 at noise site 5, whose channel has 4 operators",
    ),
    "index-arity": (
        [(1, 1), (5, 4)],
        "spec 1 prescribes Kraus index 4 at noise site 5, whose channel has 4 operators",
    ),
    "site-twice": ([(5, 1), (5, 2)], "spec 1 prescribes noise site 5 twice"),
}


@pytest.mark.parametrize("case", list(BAD_PRESCRIPTIONS))
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_a_prescription_for_a_missing_noise_site_is_rejected(circuit, strategy, case):
    """Every kind of bad prescription, a missing site first among them, is
    rejected by ``execute_stream`` before any unit runs."""
    events, message = BAD_PRESCRIPTIONS[case]
    record = TrajectoryRecord(1, tuple(KrausEvent(site, index) for site, index in events))
    specs = [_spec(0, 10, {0: 1}), TrajectorySpec(record, 10)]
    with pytest.raises(ExecutionError) as raised:
        make_executor(strategy).execute_stream(circuit, specs, seed=1)
    assert type(raised.value) is ExecutionError  # not a FaultError: nothing was retried
    assert str(raised.value) == message


class _FixedPTS(ProbabilisticPTS):
    """Hands ``run_ptsbe`` the given specs, whatever it draws."""

    def __init__(self, specs):
        super().__init__(nsamples=1, nshots=1)
        self.fixed = specs

    def sample(self, circuit, rng):
        return PTSResult.from_specs(circuit, self.fixed)


@pytest.mark.parametrize(
    "bad,problem",
    [
        ([(999, 1)], "noise site 999, but the circuit has 14 noise sites (ids 0..13)"),
        ([(5, 4)], "Kraus index 4 at noise site 5, whose channel has 4 operators"),
        ([(5, 1), (5, 2)], "noise site 5 twice"),
    ],
)
@pytest.mark.parametrize("strategy", list(STRATEGIES) + ["auto"])
def test_the_first_malformed_spec_in_caller_order_is_named(circuit, strategy, bad, problem):
    """Specs 4 and 9 are malformed alike, and spec 9's deviations sort
    first (site 1 against site 3): the table is checked in caller order,
    before any engine sorts it, so every strategy names spec 4 (``auto``
    through a sampler that emits the specs)."""
    specs = [_spec(tid, 10, {tid: 1}) for tid in range(12)]
    for tid, first in ((4, 3), (9, 1)):
        events = tuple(KrausEvent(site, index) for site, index in [(first, 1)] + bad)
        specs[tid] = TrajectorySpec(TrajectoryRecord(tid, events), 10)
    with pytest.raises(ExecutionError) as raised:
        if strategy == "auto":
            run_ptsbe(circuit, _FixedPTS(specs), seed=1)
        else:
            make_executor(strategy).execute_stream(circuit, specs, seed=1)
    assert type(raised.value) is ExecutionError
    assert str(raised.value) == f"spec 4 prescribes {problem}"


#: A Bell pair measured on qubit 0, then an X on qubit 0, then qubit 1
#: measured: the measured record is {00, 11}, a draw at the end {01, 10}.
#: The clifford engine (and ``auto``, which routes there) used to return
#: the latter, the dense engines to retry a ``BackendError`` into a
#: ``FaultError``, tensornet to word its own ``ExecutionError``.
MEASURED_THEN_ACTED_ON = (
    "operation GateOp(x, qubits=(0,)) acts on already-measured qubit(s) [0]; "
    "this library defers measurements to circuit end"
)


@pytest.mark.parametrize("strategy", list(STRATEGIES) + ["auto"])
def test_an_operation_on_a_measured_qubit_is_rejected_before_any_unit_runs(
    strategy, monkeypatch
):
    def prepare(self, table, sizes):
        raise AssertionError("a unit ran")

    for module, name in ADAPTERS.values():
        monkeypatch.setattr(getattr(module, name), "prepare", prepare)
    ideal = Circuit(2).h(0).cx(0, 1).measure(0).x(0).measure(1)
    noisy = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05)).apply(ideal)
    with pytest.raises(ExecutionError) as raised:
        run_ptsbe(noisy.freeze(), ProbabilisticPTS(nsamples=20, nshots=50), seed=1, strategy=strategy)
    assert type(raised.value) is ExecutionError  # not a FaultError: nothing was retried
    assert str(raised.value) == MEASURED_THEN_ACTED_ON


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_naming_the_dominant_index_changes_nothing(circuit, strategy):
    """The table drops an entry naming its site's dominant index (0 on
    every site here), so the bits and weights are the unnamed spec's."""
    plain = [_spec(0, 30, {5: 1}), _spec(1, 30), _spec(2, 30, {2: 1, 7: 3})]
    named = [_spec(0, 30, {5: 1, 6: 0}), _spec(1, 30, {0: 0}), _spec(2, 30, {2: 1, 7: 3, 13: 0})]
    a = make_executor(strategy).execute(circuit, plain, seed=3)
    b = make_executor(strategy).execute(circuit, named, seed=3)
    assert_same_table(a, b)
    assert [t.actual_weight for t in a.trajectories] == [t.actual_weight for t in b.trajectories]


#: SHA-256 of ``bits`` then little-endian int64 ``trajectory_ids`` of the run
#: below.  The clifford engine has no bitwise cross-check against another
#: engine, so this is it.  Regenerated by the change that gave the PTS
#: sampler its own stream and skip-ahead draw, derived trajectory streams
#: from the Philox counter and drew a request's table indices in one call
#: (every one of which moves it; before that it was the pre-driver commit's
#: ``ded355d5...``, 60 trajectories).  Frame sampling is integer-only; the
#: sampler's geometric gaps go through ``log1p``, so a libm that rounds it
#: differently could in principle move a gap that lands within an ulp of
#: an integer.
CLIFFORD_GOLDEN = "cef3a2a0ca76ae0bff1b0a5321dfab75a4395422cbbbb91ad183155c9e20eef9"


def test_clifford_shot_table_matches_the_golden_digest(circuit):
    result = run_ptsbe(
        circuit, ProbabilisticPTS(nsamples=200, nshots=64), seed=11, strategy="clifford"
    )
    bits, ids = table_of(result)
    digest = hashlib.sha256(np.ascontiguousarray(bits).tobytes())
    digest.update(ids.astype("<i8").tobytes())
    assert (bits.shape, result.num_trajectories) == ((3392, 5), 53)
    assert digest.hexdigest() == CLIFFORD_GOLDEN


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_adapters_satisfy_the_engine_protocol(circuit, specs, strategy, monkeypatch):
    module, adapter = ADAPTERS[strategy]
    built = []
    original = getattr(module, adapter).__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(getattr(module, adapter), "__init__", recording_init)
    make_executor(strategy).execute(circuit, specs[:3], seed=0)
    (engine,) = built
    assert isinstance(engine, Engine)
    assert engine.name == strategy and engine.max_rows >= 1
    assert engine.compile_seconds >= 0.0


# --------------------------------------------------------------------- #
# The in-process look-ahead
# --------------------------------------------------------------------- #
def layered(num_qubits):
    """H / CX brick / T layers with 2q depolarizing on every CX, frozen."""
    ideal = Circuit(num_qubits)
    for q in range(num_qubits):
        ideal.h(q)
    for q in range(0, num_qubits - 1, 2):
        ideal.cx(q, q + 1)
    for q in range(num_qubits):
        ideal.t(q)
    ideal.measure_all()
    model = NoiseModel().add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.05))
    return model.apply(ideal).freeze()


def ghz_like(num_qubits):
    """An H layer and one noisy CX: Clifford, Pauli noise, bond 2 — every
    engine serves it at any width here."""
    ideal = Circuit(num_qubits)
    for q in range(num_qubits):
        ideal.h(q)
    ideal.cx(0, 1).measure_all()
    return NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05)).apply(ideal).freeze()


#: Which units look ahead: ``(executor, width, shots per unit, qualifies)``.
#: The rule is ``shots > max(2**16, 2**n)`` on a serial dense state, and
#: never elsewhere.
LOOKAHEAD_RULE = {
    "serial-16q-200000-shots": (BatchedExecutor, 16, 200_000, True),
    "serial-16q-2**16-shots": (BatchedExecutor, 16, 1 << 16, False),
    "serial-20q-2**17-shots": (BatchedExecutor, 20, 1 << 17, False),
    "vectorized": (partial(VectorizedExecutor, max_batch=1), 16, 200_000, False),
    "clifford": (CliffordFrameExecutor, 16, 200_000, False),
    "tensornet": (partial(TensorNetExecutor, max_batch=1), 16, 200_000, False),
    "serial-on-mps": (partial(BatchedExecutor, BackendSpec.mps()), 16, 200_000, False),
}


@pytest.mark.parametrize("case", list(LOOKAHEAD_RULE))
def test_which_units_look_ahead(case, monkeypatch, lookahead_threads):
    make, width, shots, qualifies = LOOKAHEAD_RULE[case]
    circuit = ghz_like(width)
    started = []
    original = driver._LocalRunner.look_ahead

    def recording(self, start, end):
        started.append((start, end))
        original(self, start, end)

    monkeypatch.setattr(driver._LocalRunner, "look_ahead", recording)
    executor = make()
    engine = executor._engine(circuit)
    threshold = engine.lookahead_shots
    engine.release()
    assert (threshold is not None and shots > threshold) is qualifies
    specs = [_spec(0, shots), _spec(1, shots, {0: 1}), _spec(2, shots, {0: 2})]
    result = executor.execute(circuit, specs, seed=1)
    assert result.total_shots == 3 * shots
    # The unit at group 0 runs alone; the second prepares the third ahead.
    assert started == ([(2, 3)] if qualifies else [])
    assert lookahead_threads() == []


def test_a_drawn_serial_unit_drops_its_state(circuit, specs, monkeypatch):
    original = batched._SerialEngine.sample
    after = []

    def checking(self, requests):
        bits = original(self, requests)
        after.append((self.backend.stack.batch_size, self.backend.stack._tables))
        return bits

    monkeypatch.setattr(batched._SerialEngine, "sample", checking)
    BatchedExecutor().execute(circuit, specs[:6], seed=1)
    assert len(after) == 6 and all(rows == 0 and not tables for rows, tables in after)


def test_look_ahead_units_keep_the_timing_rule(circuit, lookahead):
    threads = lookahead(True)
    dup = [
        _spec(0, 30, {0: 1}), _spec(1, 20), _spec(2, 10, {0: 1}),
        _spec(3, 40, {1: 1}), _spec(4, 40), _spec(5, 60, {1: 1}),
    ]
    result = BatchedExecutor().execute(circuit, dup, seed=9)
    assert "repro-lookahead_0" in threads  # the third group was prepared ahead
    # A group's preparation is charged to its first spec, timed wherever it ran.
    assert [t.prep_seconds > 0 for t in result.trajectories] == [
        True, True, False, True, False, False,
    ]
    # Each unit's one draw is split by shot share: one rate per group.
    rate = [t.sample_seconds / t.num_shots for t in result.trajectories]
    for first, second in ((0, 2), (1, 4), (3, 5)):
        assert rate[second] == pytest.approx(rate[first], rel=1e-9)
    assert all(r > 0 for r in rate)


def test_look_ahead_prepare_seconds_overlap_the_draw(circuit, lookahead, monkeypatch):
    """A prepare and a draw that each sleep 20 ms: in line their seconds add
    up to at most the wall; with the look-ahead a unit's prepare runs while
    the one before it draws, so they add up to more."""
    prepare, sample = batched._SerialEngine.prepare, batched._SerialEngine.sample

    def slow_prepare(self, choices_list, sizes):
        time.sleep(0.02)
        return prepare(self, choices_list, sizes)

    def slow_sample(self, requests):
        time.sleep(0.02)
        return sample(self, requests)

    monkeypatch.setattr(batched._SerialEngine, "prepare", slow_prepare)
    monkeypatch.setattr(batched._SerialEngine, "sample", slow_sample)
    specs = [_spec(i, 10, {i: 1} if i < 5 else None) for i in range(6)]
    for on in (False, True):
        lookahead(on)
        start = time.perf_counter()
        result = BatchedExecutor().execute(circuit, specs, seed=2)
        wall = time.perf_counter() - start
        assert (result.prep_seconds + result.sample_seconds > wall) is on


def test_look_ahead_holds_at_most_one_more_preparation(lookahead):
    """On an engaged 16-qubit run of 200 000-shot units, the traced peak
    exceeds the in-line run's by at most what preparing one unit holds
    (its state, the kernel's fresh output and scratch, its draw table)."""
    circuit = layered(16)
    specs = ProbabilisticPTS(nsamples=12, nshots=200_000).sample(circuit, make_rng(7)).specs
    assert len(groups_of(circuit, specs)) >= 4

    def traced_peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def drain(on):
        lookahead(on)
        for _ in BatchedExecutor().execute_stream(circuit, specs, seed=7, retain=False):
            pass

    backend = StatevectorBackend(16)
    backend.run_fixed(circuit, specs[0].choices)  # compiles the plan
    backend.release()

    def prepare_one():
        backend.run_fixed(circuit, specs[1].choices)
        backend.cumulative()

    one_preparation = traced_peak(prepare_one)
    drain(False)
    inline = traced_peak(lambda: drain(False))
    threads = lookahead(True)
    ahead = traced_peak(lambda: drain(True))
    assert "repro-lookahead_0" in threads
    assert ahead - inline <= 1.05 * one_preparation, (ahead - inline) / one_preparation
