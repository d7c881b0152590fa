"""Streaming shot delivery: chunk equivalence, replay seeds, clean abandonment."""

import multiprocessing
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.errors import ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ParallelExecutor,
    ShardedExecutor,
    ShotChunk,
    ShotTable,
    StreamedResult,
    VectorizedExecutor,
    run_ptsbe,
    run_ptsbe_stream,
)
from repro.execution import driver
from repro.execution.results import SPEC_COLUMNS, SpecColumns, UnitShots
from repro.execution.streaming import OrderedDelivery
from repro.pts import ProbabilisticPTS, PTSResult, TrajectorySpec, deduplicate_specs
from repro.rng import make_rng
from repro.trajectory.events import TrajectoryRecord


def _pts_specs(circuit, pts_seed, nsamples=200, nshots=300):
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
        circuit, make_rng(pts_seed)
    ).specs


def _num_groups(circuit, specs):
    """How many dedup groups ``drive()`` forms from ``specs``."""
    trajectories = PTSResult.from_specs(circuit, specs)
    return len(deduplicate_specs(trajectories.table, trajectories.shots))


def _spec(tid, shots):
    return TrajectorySpec(
        record=TrajectoryRecord(trajectory_id=tid, events=(), nominal_probability=1.0),
        num_shots=shots,
    )


@pytest.fixture(scope="module")
def brickwork():
    """Small brickwork workload exercising dedup, fusion, and 2q windows."""
    circ = Circuit(5)
    for layer in range(3):
        for q in range(5):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        for q in range(layer % 2, 4, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
        .add_all_qubit_gate_noise("h", depolarizing(0.01))
    )
    return model.apply(circ).freeze()


def _executor(strategy):
    if strategy == "serial":
        return BatchedExecutor(BackendSpec.statevector())
    if strategy == "parallel":
        return ParallelExecutor(BackendSpec.statevector(), num_workers=2)
    if strategy == "vectorized":
        return VectorizedExecutor(BackendSpec.batched_statevector(), max_batch=4)
    if strategy == "sharded":
        return ShardedExecutor(BackendSpec.batched_statevector(), max_batch=4)
    raise AssertionError(strategy)


STRATEGIES = ["serial", "parallel", "vectorized", "sharded"]


class TestStreamedEquivalence:
    """Acceptance matrix: all four strategies."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_concat_chunks_bitwise_equal_materialized(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 11)
        materialized = _executor(strategy).execute(brickwork, specs, seed=21)
        stream = _executor(strategy).execute_stream(brickwork, specs, seed=21)
        chunks = list(stream)
        assert all(isinstance(c, ShotChunk) for c in chunks)
        concat = ShotTable.concatenate([c.shot_table() for c in chunks])
        reference = materialized.shot_table()
        np.testing.assert_array_equal(concat.bits, reference.bits)
        np.testing.assert_array_equal(concat.trajectory_ids, reference.trajectory_ids)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_finalize_reproduces_materialized_result(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 5)
        materialized = _executor(strategy).execute(brickwork, specs, seed=8)
        finalized = _executor(strategy).execute_stream(
            brickwork, specs, seed=8
        ).finalize()
        np.testing.assert_array_equal(
            finalized.shot_table().bits, materialized.shot_table().bits
        )
        assert finalized.records == materialized.records
        np.testing.assert_array_equal(
            [t.actual_weight for t in finalized.trajectories],
            [t.actual_weight for t in materialized.trajectories],
        )
        assert finalized.unique_preparations == materialized.unique_preparations
        assert finalized.seed == materialized.seed == 8

    def test_finalize_after_partial_consumption(self, brickwork):
        specs = _pts_specs(brickwork, 3)
        materialized = BatchedExecutor().execute(brickwork, specs, seed=5)
        stream = BatchedExecutor().execute_stream(brickwork, specs, seed=5)
        first = next(stream)  # consume one chunk, then drain via finalize
        assert first.num_trajectories == 1
        result = stream.finalize()
        np.testing.assert_array_equal(
            result.shot_table().bits, materialized.shot_table().bits
        )

    def test_run_ptsbe_stream_matches_run_ptsbe(self, brickwork):
        sampler = lambda: ProbabilisticPTS(nsamples=80, nshots=100)
        materialized = run_ptsbe(brickwork, sampler(), seed=17, strategy="vectorized",
                                 backend=BackendSpec.batched_statevector())
        stream = run_ptsbe_stream(brickwork, sampler(), seed=17, strategy="vectorized",
                                  backend=BackendSpec.batched_statevector())
        concat = ShotTable.concatenate(list(stream.tables()))
        np.testing.assert_array_equal(concat.bits, materialized.shot_table().bits)

    def test_duplicate_specs_still_ordered(self, brickwork):
        """Dedup groups spanning chunk boundaries must not reorder specs."""
        base = _pts_specs(brickwork, 3)[:6]
        # Re-key duplicates of spec 0's choices at late trajectory ids.
        dup = TrajectorySpec(
            record=TrajectoryRecord(
                trajectory_id=base[-1].record.trajectory_id + 1,
                events=base[0].record.events,
                nominal_probability=base[0].record.nominal_probability,
            ),
            num_shots=40,
        )
        specs = base + [dup]
        materialized = VectorizedExecutor(max_batch=2).execute(brickwork, specs, seed=3)
        stream = VectorizedExecutor(max_batch=2).execute_stream(brickwork, specs, seed=3)
        concat = ShotTable.concatenate([c.shot_table() for c in stream])
        np.testing.assert_array_equal(concat.bits, materialized.shot_table().bits)
        np.testing.assert_array_equal(
            concat.trajectory_ids, materialized.shot_table().trajectory_ids
        )


class TestSeedResolution:
    """The seed=None reproducibility bugfix."""

    def test_run_ptsbe_records_resolved_seed(self, brickwork):
        result = run_ptsbe(brickwork, ProbabilisticPTS(nsamples=40, nshots=50))
        assert isinstance(result.seed, int)

    def test_unseeded_run_replays_bitwise(self, brickwork):
        first = run_ptsbe(brickwork, ProbabilisticPTS(nsamples=60, nshots=80))
        replay = run_ptsbe(
            brickwork, ProbabilisticPTS(nsamples=60, nshots=80), seed=first.seed
        )
        # Same PTS draw (same specs/records) AND same per-trajectory shots.
        assert first.records == replay.records
        np.testing.assert_array_equal(
            first.shot_table().bits, replay.shot_table().bits
        )
        assert replay.seed == first.seed

    @pytest.mark.parametrize("strategy,kwargs", [
        ("parallel", {"num_workers": 2}),
        ("sharded", {"num_workers": 2}),
    ])
    def test_unseeded_multiprocess_replay(self, brickwork, strategy, kwargs):
        """Regression: workers used to draw independent entropy on seed=None."""
        backend = (
            BackendSpec.batched_statevector()
            if strategy == "sharded"
            else BackendSpec()
        )
        first = run_ptsbe(
            brickwork,
            ProbabilisticPTS(nsamples=40, nshots=60),
            backend=backend,
            strategy=strategy,
            executor_kwargs=kwargs,
        )
        replay = run_ptsbe(
            brickwork,
            ProbabilisticPTS(nsamples=40, nshots=60),
            backend=backend,
            strategy=strategy,
            executor_kwargs=kwargs,
            seed=first.seed,
        )
        np.testing.assert_array_equal(
            first.shot_table().bits, replay.shot_table().bits
        )

    def test_seeded_runs_unchanged_by_resolution(self, brickwork):
        """Resolution is the identity for integer seeds (back-compat)."""
        a = run_ptsbe(brickwork, ProbabilisticPTS(nsamples=40, nshots=50), seed=7)
        b = run_ptsbe(brickwork, ProbabilisticPTS(nsamples=40, nshots=50), seed=7)
        assert a.seed == b.seed == 7
        np.testing.assert_array_equal(a.shot_table().bits, b.shot_table().bits)

    def test_executor_records_resolved_seed(self, brickwork):
        specs = _pts_specs(brickwork, 2)
        result = BatchedExecutor().execute(brickwork, specs)  # seed=None
        assert isinstance(result.seed, int)
        replay = BatchedExecutor().execute(brickwork, specs, seed=result.seed)
        np.testing.assert_array_equal(
            result.shot_table().bits, replay.shot_table().bits
        )

    def test_stream_exposes_seed_before_any_chunk(self, brickwork):
        stream = run_ptsbe_stream(brickwork, ProbabilisticPTS(nsamples=30, nshots=40))
        assert isinstance(stream.seed, int)  # available pre-consumption
        stream.close()

    def test_two_unseeded_runs_draw_different_seeds(self, brickwork):
        a = run_ptsbe(brickwork, ProbabilisticPTS(nsamples=20, nshots=30))
        b = run_ptsbe(brickwork, ProbabilisticPTS(nsamples=20, nshots=30))
        assert a.seed != b.seed  # 2**32 space; collision ~ never


def _assert_no_child_processes(timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(
        f"leaked worker processes: {multiprocessing.active_children()}"
    )


class TestAbandonment:
    """Mid-stream close() must leak neither processes nor buffers."""

    def test_serial_close_is_idempotent(self, brickwork):
        specs = _pts_specs(brickwork, 4)
        stream = BatchedExecutor().execute_stream(brickwork, specs, seed=1)
        next(stream)
        stream.close()
        stream.close()
        assert stream.closed
        with pytest.raises(StopIteration):
            next(stream)

    def test_finalize_after_close_raises(self, brickwork):
        specs = _pts_specs(brickwork, 4)
        stream = BatchedExecutor().execute_stream(brickwork, specs, seed=1)
        next(stream)
        stream.close()
        with pytest.raises(ExecutionError, match="closed"):
            stream.finalize()

    @staticmethod
    def _stack_engines(monkeypatch):
        """The vectorized adapters a run builds, captured at construction."""
        from repro.execution import vectorized

        built = []
        original = vectorized._StackEngine.__init__

        def recording_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(vectorized._StackEngine, "__init__", recording_init)
        return built

    def test_vectorized_close_releases_backend(self, brickwork, monkeypatch):
        specs = _pts_specs(brickwork, 4)
        built = self._stack_engines(monkeypatch)
        stream = VectorizedExecutor(max_batch=1).execute_stream(brickwork, specs, seed=2)
        next(stream)
        (engine,) = built
        assert engine.backend.batch_size > 0  # stack resident mid-run
        stream.close()
        assert engine.backend.batch_size == 0  # released on abandonment

    def test_vectorized_close_before_first_chunk_releases(self, brickwork, monkeypatch):
        """close() without consuming anything must still free the stack
        (the generator body never starts, so close() runs the release)."""
        specs = _pts_specs(brickwork, 4)
        built = self._stack_engines(monkeypatch)
        stream = VectorizedExecutor(max_batch=1).execute_stream(brickwork, specs, seed=2)
        (engine,) = built
        assert engine.backend.batch_size > 0  # allocated eagerly
        stream.close()
        assert engine.backend.batch_size == 0

    def test_vectorized_full_drain_also_releases(self, brickwork, monkeypatch):
        specs = _pts_specs(brickwork, 4)
        built = self._stack_engines(monkeypatch)
        stream = VectorizedExecutor().execute_stream(brickwork, specs, seed=2)
        stream.finalize()
        (engine,) = built
        assert engine.backend.batch_size == 0

    def test_parallel_close_leaves_no_processes(self, brickwork):
        specs = _pts_specs(brickwork, 8)
        stream = ParallelExecutor(num_workers=2).execute_stream(
            brickwork, specs, seed=3
        )
        next(stream)
        stream.close()
        _assert_no_child_processes()

    def test_sharded_pool_close_leaves_no_processes(self, brickwork):
        specs = _pts_specs(brickwork, 8)
        stream = ShardedExecutor(num_workers=2).execute_stream(
            brickwork, specs, seed=3
        )
        next(stream)
        stream.close()
        _assert_no_child_processes()

    def test_context_manager_closes(self, brickwork):
        specs = _pts_specs(brickwork, 4)
        with ParallelExecutor(num_workers=2).execute_stream(
            brickwork, specs, seed=4
        ) as stream:
            next(stream)
        assert stream.closed
        _assert_no_child_processes()


class TestCloseIdempotency:
    """close() is a no-op the second time — and after finalize()."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_second_close_is_noop(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 4)
        stream = _executor(strategy).execute_stream(brickwork, specs, seed=5)
        next(stream)
        stream.close()
        stream.close()
        stream.close()
        assert stream.closed

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_close_after_finalize_is_noop(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 4)
        stream = _executor(strategy).execute_stream(brickwork, specs, seed=5)
        result = stream.finalize()
        stream.close()
        stream.close()
        assert stream.closed
        assert result.total_shots > 0

    def test_tensornet_and_clifford_close_idempotent(self, brickwork):
        stream = run_ptsbe_stream(
            brickwork, ProbabilisticPTS(nsamples=8, nshots=80), seed=6,
            strategy="tensornet",
        )
        next(stream)
        stream.close()
        stream.close()
        assert stream.closed
        ghz = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        noisy = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", depolarizing(0.05))
            .apply(ghz)
            .freeze()
        )
        stream = run_ptsbe_stream(
            noisy, ProbabilisticPTS(nsamples=8, nshots=80), seed=6,
            strategy="clifford",
        )
        stream.finalize()
        stream.close()
        stream.close()
        assert stream.closed

    def test_on_close_fires_exactly_once(self):
        calls = []

        def chunks():
            yield []

        stream = StreamedResult(
            chunks(), measured_qubits=(0,), seed=0, total_trajectories=0,
            on_close=lambda: calls.append(1),
        )
        stream.close()
        stream.close()
        assert calls == [1]

    def test_on_close_not_refired_after_exhaustion(self):
        # Once the generator is exhausted its own finally has released
        # every resource; close() must not re-touch freed buffers.
        calls = []

        def chunks():
            return iter(())

        stream = StreamedResult(
            chunks(), measured_qubits=(0,), seed=0, total_trajectories=0,
            on_close=lambda: calls.append(1),
        )
        stream.finalize()
        stream.close()
        stream.close()
        assert stream.closed
        assert calls == []


class TestRetention:
    """retain=False: pure-ingest streams drop chunks after delivery."""

    @pytest.mark.parametrize("strategy", ["serial", "vectorized", "sharded"])
    def test_chunks_identical_but_nothing_retained(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 4)
        executor = _executor(strategy)
        retained = list(executor.execute_stream(brickwork, specs, seed=5))
        dropping = _executor(strategy).execute_stream(
            brickwork, specs, seed=5, retain=False
        )
        assert dropping.retain is False
        chunks = list(dropping)
        assert len(chunks) == len(retained)
        for a, b in zip(retained, chunks):
            np.testing.assert_array_equal(a.shot_table().bits, b.shot_table().bits)
        assert dropping.delivered_trajectories == len(specs)
        # Nothing was kept behind the scenes.
        assert dropping._collected == []

    def test_finalize_unavailable(self, brickwork):
        specs = _pts_specs(brickwork, 4)
        stream = BatchedExecutor().execute_stream(
            brickwork, specs, seed=6, retain=False
        )
        with pytest.raises(ExecutionError, match="retain=False"):
            stream.finalize()
        # Even after a full drain: the chunks are gone.
        for _ in stream:
            pass
        assert stream.delivered_trajectories == len(specs)
        with pytest.raises(ExecutionError, match="retain=False"):
            stream.finalize()

    def test_run_ptsbe_stream_threads_retain(self, brickwork):
        sampler = ProbabilisticPTS(nsamples=80, nshots=100)
        stream = run_ptsbe_stream(
            brickwork, sampler, seed=7, strategy="vectorized", retain=False
        )
        total = sum(chunk.num_trajectories for chunk in stream)
        assert total == stream.delivered_trajectories > 0
        with pytest.raises(ExecutionError, match="retain=False"):
            stream.finalize()

    def test_default_still_retains(self, brickwork):
        specs = _pts_specs(brickwork, 4)
        stream = BatchedExecutor().execute_stream(brickwork, specs, seed=8)
        assert stream.retain is True
        result = stream.finalize()
        assert result.total_shots > 0


class TestRetainFalseAbandonment:
    """retain=False streams must deliver identically, abandon cleanly
    mid-run on every strategy, and leave the sharded pool reusable."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_retain_false_stream_matches_materialized(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 4)
        materialized = _executor(strategy).execute(brickwork, specs, seed=10)
        stream = _executor(strategy).execute_stream(
            brickwork, specs, seed=10, retain=False
        )
        concat = ShotTable.concatenate([c.shot_table() for c in stream])
        reference = materialized.shot_table()
        np.testing.assert_array_equal(concat.bits, reference.bits)
        np.testing.assert_array_equal(
            concat.trajectory_ids, reference.trajectory_ids
        )
        assert stream._collected == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_midstream_close_retain_false(self, brickwork, strategy):
        specs = _pts_specs(brickwork, 8)
        stream = _executor(strategy).execute_stream(
            brickwork, specs, seed=9, retain=False
        )
        first = next(stream)
        assert first.num_shots > 0
        stream.close()
        assert stream.closed
        with pytest.raises(StopIteration):
            next(stream)
        with pytest.raises(ExecutionError):
            stream.finalize()
        _assert_no_child_processes()

    def test_sharded_close_then_reopen_same_executor(self, brickwork):
        """An abandoned run must not poison the executor: the same sharded
        instance has to serve a fresh, complete, bitwise-correct run."""
        specs = _pts_specs(brickwork, 8)
        materialized = _executor("sharded").execute(brickwork, specs, seed=12)
        executor = _executor("sharded")
        stream = executor.execute_stream(brickwork, specs, seed=12, retain=False)
        next(stream)
        stream.close()
        _assert_no_child_processes()
        reopened = executor.execute_stream(brickwork, specs, seed=12)
        result = reopened.finalize()
        np.testing.assert_array_equal(
            result.shot_table().bits, materialized.shot_table().bits
        )
        _assert_no_child_processes()


class TestLookAhead:
    """The serial engine's look-ahead moves no bit and leaks nothing.

    Forced on, every unit after the first prepares the next one on the
    helper thread, on the other of two adapters; forced off, none does."""

    @staticmethod
    def _run(circuit, specs, mode):
        """The shot table and weights of one serial run, read ``mode``'s way;
        a run that needed a retry is not the run under test."""
        retain = mode != "retain=False"
        stream = BatchedExecutor().execute_stream(circuit, specs, seed=13, retain=retain)
        if mode == "materialised":
            result = stream.finalize()
            table, trajectories = result.shot_table(), result.trajectories
        else:
            chunks = list(stream)
            table = ShotTable.concatenate([chunk.shot_table() for chunk in chunks])
            trajectories = [t for chunk in chunks for t in chunk.trajectories]
        assert stream.recovery == []
        return table, [t.actual_weight for t in trajectories]

    @pytest.mark.parametrize("mode", ["materialised", "chunk-by-chunk", "retain=False"])
    @pytest.mark.parametrize("workload", ["unitary-mixture", "relaxation-dead-row"])
    def test_same_table_with_and_without(
        self, brickwork, relaxation_dead_row, lookahead, workload, mode
    ):
        if workload == "unitary-mixture":
            circuit, specs = brickwork, _pts_specs(brickwork, 11, nsamples=120, nshots=90)
        else:
            circuit, specs = relaxation_dead_row
        lookahead(False)
        inline, inline_weights = self._run(circuit, specs, mode)
        threads = lookahead(True)
        ahead, ahead_weights = self._run(circuit, specs, mode)
        # Every unit past the first two was prepared ahead.
        assert threads.count("repro-lookahead_0") == _num_groups(circuit, specs) - 2
        np.testing.assert_array_equal(ahead.bits, inline.bits)
        np.testing.assert_array_equal(ahead.trajectory_ids, inline.trajectory_ids)
        assert ahead_weights == inline_weights
        assert (0.0 in inline_weights) is (workload == "relaxation-dead-row")

    def test_same_table_under_rapid_thread_switching(self, brickwork, lookahead):
        """The two threads share no adapter at a time: switching every
        microsecond moves no bit."""
        specs = _pts_specs(brickwork, 12, nsamples=120, nshots=2_000)
        lookahead(False)
        inline, _ = self._run(brickwork, specs, "materialised")
        threads = lookahead(True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            ahead, _ = self._run(brickwork, specs, "materialised")
            assert time.perf_counter() - start < 30
        finally:
            sys.setswitchinterval(interval)
        assert threads.count("repro-lookahead_0") == _num_groups(brickwork, specs) - 2
        np.testing.assert_array_equal(ahead.bits, inline.bits)

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_close_mid_stream_joins_the_helper_and_releases_both_adapters(
        self, brickwork, lookahead, lookahead_threads, monkeypatch, chunks
    ):
        from repro.execution import batched

        built = []
        original = batched._SerialEngine.__init__

        def recording_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(batched._SerialEngine, "__init__", recording_init)
        lookahead(True)
        stream = BatchedExecutor().execute_stream(brickwork, _pts_specs(brickwork, 4), seed=1)
        for _ in range(chunks):
            next(stream)
        # The unit at group 0 runs alone: the helper and its adapter come
        # with the second unit, which prepares the third ahead.
        assert len(built) == len(lookahead_threads()) + 1 == min(chunks, 2)
        stream.close()
        assert lookahead_threads() == []
        assert all(engine.backend.stack.batch_size == 0 for engine in built)

    def test_exhaustion_joins_the_helper(self, brickwork, lookahead, lookahead_threads):
        threads = lookahead(True)
        specs = _pts_specs(brickwork, 4)
        result = BatchedExecutor().execute(brickwork, specs, seed=1)
        assert "repro-lookahead_0" in threads and result.num_trajectories == len(specs)
        assert lookahead_threads() == []


def _unit(positions, shots=2):
    """A drawn unit whose spec at position ``p`` drew ``shots`` rows of ``p``."""
    positions = np.asarray(positions, dtype=np.intp)
    bits = np.repeat(positions, shots).astype(np.uint8)[:, None]
    specs = np.zeros(len(positions), dtype=SPEC_COLUMNS)
    specs["row"], specs["count"], specs["weight"] = np.arange(len(positions)) * shots, shots, 1
    return UnitShots(positions, bits, specs)


def _run(total):
    """The two fields of a run's trajectory table that delivery reads."""
    return SimpleNamespace(num_trajectories=total, trajectory_ids=np.arange(total) + 10)


class TestStreamingPrimitives:
    def test_ordered_delivery_reorders(self):
        delivery = OrderedDelivery(_run(4))
        assert delivery.add([_unit([2])]) is None
        first = delivery.add([_unit([0])])
        assert (first.start, len(first.specs)) == (0, 1)
        rest = delivery.add([_unit([3, 1])])
        assert (rest.start, len(rest.specs)) == (1, 3)
        table = ShotChunk(rest, (0,)).shot_table()
        assert table.bits[:, 0].tolist() == [1, 1, 2, 2, 3, 3]
        assert table.trajectory_ids.tolist() == [11, 11, 12, 12, 13, 13]
        assert delivery.outstanding == 0

    def test_ordered_delivery_rejects_duplicates_and_range(self):
        delivery = OrderedDelivery(_run(3))
        delivery.add([_unit([0])])
        with pytest.raises(ExecutionError, match="duplicate"):
            delivery.add([_unit([0])])
        with pytest.raises(ExecutionError, match="position 2"):
            delivery.add([_unit([2, 1, 2])])
        with pytest.raises(ExecutionError, match="out of range"):
            delivery.add([_unit([5])])

    def test_shot_chunk_table(self, brickwork):
        stream = BatchedExecutor().execute_stream(
            brickwork, _pts_specs(brickwork, 2)[:1], seed=0
        )
        chunk = next(stream)
        table = chunk.shot_table()
        assert table.num_shots == chunk.num_shots
        assert table.measured_qubits == stream.measured_qubits
        assert repr(chunk).startswith("ShotChunk(")

    def test_empty_chunk_has_no_table(self):
        chunk = ShotChunk(SpecColumns.concatenate([]), measured_qubits=(0,))
        with pytest.raises(ExecutionError, match="empty"):
            chunk.shot_table()

    def test_streamed_result_repr_tracks_state(self, brickwork):
        specs = _pts_specs(brickwork, 3)
        stream = BatchedExecutor().execute_stream(brickwork, specs, seed=0)
        assert "open" in repr(stream)
        next(stream)
        assert stream.delivered_trajectories == 1
        stream.close()
        assert "closed" in repr(stream)


def _halves(unit):
    """``unit`` cut between its specs the way a halved task cuts it."""
    half = len(unit.positions) // 2
    cut = unit.specs["row"][half]
    second = unit.specs[half:].copy()
    second["row"] -= cut
    return (
        UnitShots(unit.positions[:half], unit.bits[:cut], unit.specs[:half]),
        UnitShots(unit.positions[half:], unit.bits[cut:], second),
    )


class TestUnitDelivery:
    """Delivery is unit-granular: however a run's units arrive — out of
    order, reissued, overlapping a halved range, over a pool — the chunk
    tables concatenate to ``finalize().shot_table()`` bitwise."""

    @pytest.fixture(scope="class")
    def drawn(self, brickwork):
        """A vectorized run's trajectory table, its units as drawn (in
        completion order) and its materialized shot table."""
        specs = list(_pts_specs(brickwork, 5, nsamples=120, nshots=40))
        # Re-keyed duplicates join earlier specs' dedup groups, so a unit's
        # positions interleave with other units'.
        specs += [
            TrajectorySpec(
                TrajectoryRecord(1000 + i, spec.record.events, spec.probability), 30
            )
            for i, spec in enumerate(specs[::4])
        ]
        units = []
        original = driver._Runner.draw

        def recording(self, *args):
            units.append(original(self, *args))
            return units[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(driver._Runner, "draw", recording)
            table = VectorizedExecutor(max_batch=4).execute(brickwork, specs, seed=3).shot_table()
        assert len(units) > 4 and any(np.diff(u.positions).max() > 1 for u in units)
        return specs, PTSResult.from_specs(brickwork, specs), units, table

    @staticmethod
    def _replay(run, arrivals, reference):
        """Feed ``(units, reissue)`` arrivals through one delivery; the chunk
        tables, joined, and the finalized table must equal ``reference``."""
        delivery = OrderedDelivery(run)

        def chunks():
            for units, reissue in arrivals:
                ready = delivery.add(units, reissue)
                if ready is not None:
                    yield ready

        stream = StreamedResult(
            chunks(), reference.measured_qubits, seed=3, total_trajectories=run.num_trajectories
        )
        joined = ShotTable.concatenate([chunk.shot_table() for chunk in stream])
        for table in (joined, stream.finalize().shot_table()):
            np.testing.assert_array_equal(table.bits, reference.bits)
            np.testing.assert_array_equal(table.trajectory_ids, reference.trajectory_ids)

    def test_out_of_order_completions(self, drawn):
        _, run, units, reference = drawn
        self._replay(run, [([unit], False) for unit in reversed(units)], reference)
        order = np.random.default_rng(0).permutation(len(units))
        self._replay(run, [([units[i]], False) for i in order], reference)
        self._replay(run, [(units[::-1], False)], reference)

    def test_reissued_unit_is_dropped_whole(self, drawn):
        _, run, units, reference = drawn
        delivery = OrderedDelivery(run)
        delivery.add(units[:2])
        outstanding = delivery.outstanding
        assert delivery.add(units[1:2], reissue=True) is None
        assert delivery.outstanding == outstanding
        again = [([units[0]], False), ([units[1]], False), ([units[1], units[0]], True)]
        self._replay(run, again + [([unit], False) for unit in units[2:]], reference)

    def test_reissue_overlapping_a_halved_range(self, drawn):
        _, run, units, reference = drawn
        widest = max(range(len(units)), key=lambda i: len(units[i].positions))
        first, _ = _halves(units[widest])
        others = [([unit], False) for i, unit in enumerate(units) if i != widest]
        # The first half lands, then the whole unit comes back reissued: its
        # second half's specs are read from the reissued block.
        self._replay(run, [([first], False)] + others + [([units[widest]], True)], reference)

    def test_duplicate_tripwire_on_a_non_reissued_unit(self, drawn):
        _, run, units, _ = drawn
        widest = max(units, key=lambda unit: len(unit.positions))
        first, _ = _halves(widest)
        delivery = OrderedDelivery(run)
        delivery.add([first])
        with pytest.raises(ExecutionError, match="duplicate delivery"):
            delivery.add([widest])
        with pytest.raises(ExecutionError, match="duplicate delivery"):
            OrderedDelivery(run).add([widest, widest])

    @pytest.mark.parametrize("retain", [False, True])
    def test_a_table_aliases_a_block_only_when_nothing_keeps_it(self, brickwork, retain):
        """A ``retain=False`` chunk whose shots are one block's contiguous
        rows hands them over uncopied; a retained block is always copied."""
        specs = _pts_specs(brickwork, 5, nsamples=40, nshots=64)
        stream = BatchedExecutor().execute_stream(brickwork, specs, seed=3, retain=retain)
        for chunk in stream:
            bits = chunk.shot_table().bits
            shared = [np.shares_memory(bits, b) for b in chunk.columns.blocks.values()]
            assert any(shared) is (not retain)
        if retain:
            result = stream.finalize()
            bits = result.shot_table().bits
            assert not any(np.shares_memory(bits, b) for b in result.columns.blocks.values())

    def test_two_workers(self, drawn, brickwork):
        specs, _, _, reference = drawn
        executor = VectorizedExecutor(max_batch=4, num_workers=2)
        stream = executor.execute_stream(brickwork, specs, seed=3)
        joined = ShotTable.concatenate([chunk.shot_table() for chunk in stream])
        for table in (joined, stream.finalize().shot_table()):
            np.testing.assert_array_equal(table.bits, reference.bits)
            np.testing.assert_array_equal(table.trajectory_ids, reference.trajectory_ids)
        _assert_no_child_processes()


class TestStreamedDecoderDataset:
    """The incremental decoder-training consumer (paper §2.3)."""

    @pytest.fixture(scope="class")
    def steane(self):
        from repro.circuits import Circuit as C
        from repro.circuits.operations import GateOp
        from repro.qec import steane_code, syndrome_extraction_circuit

        code = steane_code()
        circ, layout = syndrome_extraction_circuit(code, rounds=1)
        noisy = C(circ.num_qubits)
        injected = False
        for op in circ:
            if not injected and isinstance(op, GateOp) and op.qubits[0] >= code.n:
                for q in range(code.n):
                    noisy.attach(depolarizing(0.02), q)
                injected = True
            noisy.append(op)
        noisy.freeze()
        return code, noisy, layout

    def test_streamed_dataset_matches_materialized(self, steane):
        from repro.data.dataset import build_decoder_dataset

        code, circ, layout = steane
        sampler = lambda: ProbabilisticPTS(nsamples=150, nshots=40)
        materialized = build_decoder_dataset(
            run_ptsbe(circ, sampler(), seed=40), circ, code, layout
        )
        streamed = build_decoder_dataset(
            run_ptsbe_stream(circ, sampler(), seed=40), circ, code, layout
        )
        np.testing.assert_array_equal(streamed.features, materialized.features)
        np.testing.assert_array_equal(streamed.labels, materialized.labels)
        np.testing.assert_array_equal(
            streamed.trajectory_ids, materialized.trajectory_ids
        )
        assert streamed.records == materialized.records
        assert streamed.metadata == materialized.metadata

    def test_rejects_partially_consumed_stream(self, steane):
        from repro.data.dataset import build_decoder_dataset
        from repro.errors import DataError

        code, circ, layout = steane
        stream = run_ptsbe_stream(
            circ, ProbabilisticPTS(nsamples=50, nshots=20), seed=42
        )
        next(stream)  # consume a chunk before handing the stream over
        with pytest.raises(DataError, match="partially consumed"):
            build_decoder_dataset(stream, circ, code, layout)
        stream.close()

    def test_iter_decoder_batches_incremental(self, steane):
        from repro.data.dataset import iter_decoder_batches

        code, circ, layout = steane
        # The router picks frames, whose units close on shots (2**16): a
        # 30 000-shot budget is two trajectories per chunk.
        stream = run_ptsbe_stream(
            circ, ProbabilisticPTS(nsamples=100, nshots=30_000), seed=41
        )
        batches = list(iter_decoder_batches(stream, circ, code, layout))
        assert stream.engine == "clifford"
        assert len(batches) > 1  # genuinely incremental, not one blob
        assert max(len(np.unique(tids)) for _, _, tids in batches) == 2
        total = sum(features.shape[0] for features, _, _ in batches)
        assert total == stream.finalize().total_shots
        for features, labels, tids in batches:
            assert features.shape[0] == labels.shape[0] == tids.shape[0]
            assert features.shape[1] == layout.syndrome_bit_count()
            assert set(np.unique(labels)) <= {0, 1}
