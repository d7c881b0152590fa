"""Chaos suite: deterministic fault injection, seed-exact retry, degradation.

The central claim under test: a run that crashes, hiccups, and OOMs its
way to completion produces the *bitwise identical* shot table of a
fault-free run at the same seed, with every recovery action recorded as
a structured :class:`~repro.faults.retry.RecoveryEvent`.  Seed threading
(per-trajectory Philox streams keyed by ``(seed, trajectory_id)``) is
what makes retry exactly-once-equivalent; these tests are the proof.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from concurrent.futures import CancelledError
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends.statevector import StatevectorBackend
from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.config import Config
from repro.errors import (
    BackendError,
    CapacityError,
    ExecutionError,
    FaultError,
    SamplingError,
    WorkerCrashError,
)
from repro.execution import BackendSpec, ParallelExecutor, run_ptsbe, run_ptsbe_stream
from repro.execution.batched import _SerialEngine
from repro.execution.driver import drive
from repro.execution.results import SPEC_COLUMNS, UnitShots
from repro.execution.streaming import OrderedDelivery, ShotChunk
from repro.faults import (
    FaultContext,
    FaultPlan,
    FaultSpec,
    RecoveryEvent,
    RetryPolicy,
    maybe_inject,
    parse_fault_plan,
)
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng

SEED = 7

#: Backoff-free policy so chaos runs finish in test time; determinism is
#: unaffected (backoff only changes *pauses*, never results).
FAST_RETRY = RetryPolicy(backoff_base=0.0, jitter=False)


@pytest.fixture(scope="module")
def ghz():
    ideal = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
    noise = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    return noise.apply(ideal).freeze()


@pytest.fixture(scope="module")
def brickwork():
    circ = Circuit(4)
    for layer in range(2):
        for q in range(4):
            circ.h(q)
        for q in range(layer % 2, 3, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.02))
        .add_all_qubit_gate_noise("h", depolarizing(0.01))
    )
    return model.apply(circ).freeze()


def _pts(nsamples=24, nshots=240):
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots)


def _run(circuit, strategy, plan=None, seed=SEED, retry=FAST_RETRY, nsamples=24):
    """One run_ptsbe call with the plan threaded through Config.

    Both fan-out strategies run on two worker processes, so their faults
    fire inside the workers.  The default sampler yields <= 8 dedup
    groups, which the driver turns into one single-group task each
    (``<strategy>/stack:i:i+1``).
    """
    cfg = Config(fault_plan=plan, retry=retry)
    if strategy == "parallel":
        return run_ptsbe(
            circuit,
            _pts(nsamples),
            seed=seed,
            strategy="parallel",
            backend=BackendSpec.statevector(config=cfg),
            executor_kwargs={"num_workers": 2},
        )
    if strategy == "sharded":
        return run_ptsbe(
            circuit,
            _pts(nsamples),
            seed=seed,
            strategy="sharded",
            backend=BackendSpec.batched_statevector(config=cfg),
            executor_kwargs={"num_workers": 2},
        )
    if strategy == "vectorized":
        return run_ptsbe(
            circuit,
            _pts(nsamples),
            seed=seed,
            strategy="vectorized",
            backend=BackendSpec.batched_statevector(config=cfg),
            executor_kwargs={"max_batch": 4},
        )
    if strategy == "tensornet":
        return run_ptsbe(
            circuit,
            _pts(nsamples),
            seed=seed,
            strategy="tensornet",
            backend=BackendSpec.mps(config=cfg),
        )
    raise AssertionError(strategy)


def _bits(result):
    return result.shot_table().bits


def _kinds(result):
    return [event.kind for event in result.recovery]


# --------------------------------------------------------------------- #
# FaultPlan: matching, determinism, parsing
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_rule_matches_glob_and_times(self):
        spec = FaultSpec("transient-backend", "parallel/stack:*", times=2)
        assert spec.matches("parallel/stack:3:4", 0)
        assert spec.matches("parallel/stack:3:4", 1)
        assert not spec.matches("parallel/stack:3:4", 2)
        assert not spec.matches("sharded/stack:0:1", 0)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            rules=(
                FaultSpec("worker-crash", "parallel/stack:1:2"),
                FaultSpec("transient-backend", "parallel/stack:*"),
            )
        )
        assert plan.fault_at("parallel/stack:1:2", 0, seed=1) == "worker-crash"
        assert plan.fault_at("parallel/stack:0:1", 0, seed=1) == "transient-backend"
        assert plan.fault_at("vectorized/stack:0:4", 0, seed=1) is None

    def test_random_mode_is_seed_deterministic(self):
        plan = FaultPlan(rate=0.5, kinds=("transient-backend", "capacity"))
        sites = [f"parallel/stack:{k}:{k + 1}" for k in range(32)]
        first = [plan.fault_at(site, 0, seed=11) for site in sites]
        second = [plan.fault_at(site, 0, seed=11) for site in sites]
        assert first == second
        assert any(kind is not None for kind in first)
        assert any(kind is None for kind in first)
        other = [plan.fault_at(site, 0, seed=12) for site in sites]
        assert other != first  # a different seed draws a different pattern

    def test_random_mode_only_hits_attempt_zero(self):
        plan = FaultPlan(rate=1.0)
        assert plan.fault_at("parallel/stack:0:1", 0, seed=3) is not None
        assert plan.fault_at("parallel/stack:0:1", 1, seed=3) is None

    def test_maybe_inject_exception_classes(self):
        for kind, exc_type in [
            ("worker-crash", WorkerCrashError),
            ("transient-backend", BackendError),
            ("capacity", CapacityError),
        ]:
            plan = FaultPlan(rules=(FaultSpec(kind, "unit"),))
            with pytest.raises(exc_type, match="injected"):
                maybe_inject(plan, "unit", 0, seed=0)

    def test_slow_worker_stalls_then_succeeds(self):
        plan = FaultPlan(
            rules=(FaultSpec("slow-worker", "unit"),), slow_seconds=0.01
        )
        t0 = time.perf_counter()
        maybe_inject(plan, "unit", 0, seed=0)  # must not raise
        assert time.perf_counter() - t0 >= 0.01

    def test_disabled_plan_is_inert(self):
        maybe_inject(None, "anything", 0, seed=0)  # no-op, no raise

    def test_validation(self):
        with pytest.raises(ExecutionError, match="unknown fault kind"):
            FaultSpec("melted", "unit")
        with pytest.raises(ExecutionError, match="times"):
            FaultSpec("capacity", "unit", times=0)
        with pytest.raises(ExecutionError, match="rate"):
            FaultPlan(rate=1.5)
        with pytest.raises(ExecutionError, match="unknown fault kind"):
            FaultPlan(kinds=("bogus",))

    def test_parse_round_trip(self):
        plan = parse_fault_plan(
            "worker-crash@parallel/stack:1:2; transient-backend@sharded/*#2"
        )
        assert plan.rules == (
            FaultSpec("worker-crash", "parallel/stack:1:2"),
            FaultSpec("transient-backend", "sharded/*", times=2),
        )
        assert plan.rate == 0.0

    def test_parse_random_mode(self):
        plan = parse_fault_plan("random:0.25:transient-backend,slow-worker")
        assert plan.rate == 0.25
        assert plan.kinds == ("transient-backend", "slow-worker")

    def test_parse_empty_disables(self):
        assert parse_fault_plan("") is None
        assert parse_fault_plan("   ") is None

    @pytest.mark.parametrize(
        "text",
        [
            "worker-crash",  # no @SITE
            "melted@unit",  # unknown kind
            "capacity@unit#zero",  # non-integer times
            "random:lots",  # non-float rate
            "random:0.5:bogus",  # unknown kind in pool
            "random:2.0",  # out-of-range rate
        ],
    )
    def test_parse_malformed_raises(self, text):
        with pytest.raises(ExecutionError):
            parse_fault_plan(text)

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan(rules=(FaultSpec("capacity", "vectorized/stack:*"),))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_env_var_threads_into_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "transient-backend@parallel/stack:0:1")
        cfg = Config()
        assert cfg.fault_plan == FaultPlan(
            rules=(FaultSpec("transient-backend", "parallel/stack:0:1"),)
        )
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert Config().fault_plan is None

    def test_env_var_malformed_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "not-a-directive")
        with pytest.raises(ExecutionError, match="REPRO_FAULTS"):
            Config()


# --------------------------------------------------------------------- #
# RetryPolicy and the unit driver
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(BackendError("hiccup"))
        assert policy.is_retryable(WorkerCrashError("died"))
        # CapacityError subclasses BackendError but repeating the same
        # allocation fails the same way -> structurally excluded.
        assert not policy.is_retryable(CapacityError("oom"))
        assert not policy.is_retryable(ValueError("not ours"))
        assert not policy.is_retryable(SamplingError("typed but not transient"))

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_max=0.05, jitter=True)
        a = policy.backoff_seconds(3, "unit", 1)
        assert a == policy.backoff_seconds(3, "unit", 1)
        assert policy.backoff_seconds(4, "unit", 1) != a  # keyed off seed
        assert policy.backoff_seconds(3, "other", 1) != a  # ... and unit
        for attempt in range(1, 10):
            delay = policy.backoff_seconds(3, "unit", attempt)
            assert 0.0 < delay <= 0.05 * 1.5

    def test_backoff_without_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_max=1.0, jitter=False)
        assert policy.backoff_seconds(0, "u", 1) == 0.01
        assert policy.backoff_seconds(0, "u", 2) == 0.02
        assert policy.backoff_seconds(0, "u", 3) == 0.04

    def test_validation(self):
        with pytest.raises(ExecutionError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError, match="backoff"):
            RetryPolicy(backoff_base=-1.0)

    def test_next_attempt_counts_up_and_records(self):
        ctx = FaultContext(plan=None, policy=FAST_RETRY, seed=0, strategy="test")
        events = []
        assert ctx.next_attempt("u", 0, BackendError("hiccup"), events) == 1
        assert ctx.next_attempt("u", 1, BackendError("hiccup"), events) == 2
        assert [(e.kind, e.attempt) for e in events] == [("retry", 1), ("retry", 2)]
        assert all(e.unit == "u" and e.strategy == "test" for e in events)
        with pytest.raises(FaultError, match="failed after 3 attempt"):
            ctx.next_attempt("u", 2, BackendError("hiccup"), events)

    def test_capacity_error_passes_straight_through(self):
        ctx = FaultContext(plan=None, policy=FAST_RETRY, seed=0)
        events = []
        with pytest.raises(CapacityError):
            ctx.next_attempt("u", 0, CapacityError("stack too wide"), events)
        assert events == []  # escalation, not recovery

    def test_non_retryable_propagates_unchanged(self):
        ctx = FaultContext(plan=None, policy=FAST_RETRY, seed=0)
        bug = ValueError("logic bug")
        with pytest.raises(ValueError) as info:
            ctx.next_attempt("u", 0, bug, [])
        assert info.value is bug


class TestOrderedDeliveryReissue:
    @staticmethod
    def _unit(*positions):
        positions = np.array(positions, dtype=np.intp)
        specs = np.zeros(len(positions), dtype=SPEC_COLUMNS)
        specs["row"], specs["count"] = np.arange(len(positions)), 1
        return UnitShots(positions, positions.astype(np.uint8)[:, None], specs)

    def test_reissue_drops_duplicates_silently(self):
        run = SimpleNamespace(num_trajectories=3, trajectory_ids=np.arange(3))
        delivery = OrderedDelivery(run)
        delivery.add([self._unit(0, 1)])
        again = delivery.add([self._unit(1, 2)], reissue=True)
        assert (again.start, len(again.specs)) == (2, 1)
        assert ShotChunk(again, (0,)).shot_table().bits.tolist() == [[2]]

    def test_plain_duplicate_still_raises(self):
        delivery = OrderedDelivery(SimpleNamespace(num_trajectories=2))
        delivery.add([self._unit(0)])
        with pytest.raises(ExecutionError, match="duplicate"):
            delivery.add([self._unit(0)])


# --------------------------------------------------------------------- #
# Bitwise recovery across strategies
# --------------------------------------------------------------------- #
class TestBitwiseRecovery:
    """Faulty runs must reproduce fault-free shot tables exactly."""

    def test_parallel_crash_and_transient(self, ghz):
        plan = FaultPlan(
            rules=(
                FaultSpec("worker-crash", "parallel/stack:1:2"),
                FaultSpec("transient-backend", "parallel/stack:0:1"),
            )
        )
        clean = _run(ghz, "parallel")
        faulty = _run(ghz, "parallel", plan=plan)
        assert sorted(_kinds(faulty)) == ["retry", "retry"]
        assert {e.unit for e in faulty.recovery} == {
            "parallel/stack:0:1",
            "parallel/stack:1:2",
        }
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_vectorized_transient_retry(self, brickwork):
        plan = FaultPlan(rules=(FaultSpec("transient-backend", "vectorized/stack:0:*"),))
        clean = _run(brickwork, "vectorized")
        faulty = _run(brickwork, "vectorized", plan=plan)
        assert _kinds(faulty) == ["retry"]
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_vectorized_capacity_halving_is_bitwise(self, brickwork):
        # An exact-site rule fires once on the first full stack (after
        # group 0's unit of its own); the two halves have different unit
        # names, so the ladder recovers.  Dense stacking is
        # chunking-invariant, so halving is bitwise.
        clean = _run(brickwork, "vectorized")
        probe = _run(
            brickwork,
            "vectorized",
            plan=FaultPlan(rules=(FaultSpec("transient-backend", "vectorized/stack:*"),)),
        )
        assert probe.recovery[0].unit == "vectorized/stack:0:1"
        first_chunk = probe.recovery[1].unit
        assert first_chunk == "vectorized/stack:1:5"
        plan = FaultPlan(rules=(FaultSpec("capacity", first_chunk),))
        faulty = _run(brickwork, "vectorized", plan=plan)
        assert _kinds(faulty) == ["batch-halved"]
        assert faulty.recovery[0].unit == first_chunk
        assert "split into" in faulty.recovery[0].detail
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_sharded_crash_and_transient_recover_bitwise(self, ghz):
        # A crashed worker's task goes back to the pool like any other
        # failed task: two retries, no other kind of event.
        plan = FaultPlan(
            rules=(
                FaultSpec("worker-crash", "sharded/stack:0:1"),
                FaultSpec("transient-backend", "sharded/stack:1:2"),
            )
        )
        clean = _run(ghz, "sharded")
        faulty = _run(ghz, "sharded", plan=plan)
        assert sorted((e.kind, e.unit, e.attempt) for e in faulty.recovery) == [
            ("retry", "sharded/stack:0:1", 1),
            ("retry", "sharded/stack:1:2", 1),
        ]
        assert "WorkerCrashError" in faulty.recovery[0].error + faulty.recovery[1].error
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_sharded_inner_capacity_halving_bitwise(self, brickwork):
        # Two workers cut the dedup groups into eight tasks (a few groups
        # each).  OOM exactly the first: the fault fires inside the worker
        # process (the plan travels there), the parent halves the task, and
        # the halves — different unit names — go back to the pool.
        clean = _run(brickwork, "sharded", nsamples=200)
        step = -(-clean.unique_preparations // 8)
        assert step >= 2
        faulty = _run(
            brickwork,
            "sharded",
            plan=FaultPlan(rules=(FaultSpec("capacity", f"sharded/stack:0:{step}"),)),
            nsamples=200,
        )
        (halved,) = faulty.recovery
        assert (halved.kind, halved.unit) == ("batch-halved", f"sharded/stack:0:{step}")
        assert halved.detail == f"split into stack:0:{step // 2} and stack:{step // 2}:{step}"
        assert np.array_equal(_bits(clean), _bits(faulty))

    @pytest.mark.parametrize("strategy", ["parallel", "sharded"])
    def test_in_worker_transient_faults_reach_the_result(self, ghz, strategy):
        # Regression: parallel's workers used to retry faults at their own
        # sites and return only the trajectories, so the run recorded none.
        plan = FaultPlan(rules=(FaultSpec("transient-backend", f"{strategy}/stack:*"),))
        clean = _run(ghz, strategy)
        faulty = _run(ghz, strategy, plan=plan)
        units = [f"{strategy}/stack:{i}:{i + 1}" for i in range(clean.unique_preparations)]
        assert sorted((e.kind, e.unit) for e in faulty.recovery) == [
            ("retry", unit) for unit in units
        ]
        assert np.array_equal(_bits(clean), _bits(faulty))

    @pytest.mark.parametrize("kind", ["transient-backend", "worker-crash"])
    def test_tensornet_retry_is_bitwise(self, ghz, kind):
        plan = FaultPlan(rules=(FaultSpec(kind, "tensornet/stack:*"),))
        clean = _run(ghz, "tensornet")
        faulty = _run(ghz, "tensornet", plan=plan)
        assert "retry" in _kinds(faulty)
        assert np.array_equal(_bits(clean), _bits(faulty))

    @pytest.mark.parametrize("strategy", ["parallel", "sharded", "tensornet"])
    def test_acceptance_plan_recovers_bitwise(self, ghz, strategy):
        """The issue's acceptance plan: >=1 crash, >=1 transient, >=1
        stacked-prep capacity fault in one plan, completing on every
        pooled/stacked strategy with fault-free-identical tables."""
        plan = FaultPlan(
            rules=(
                FaultSpec("worker-crash", "parallel/stack:1:2"),
                FaultSpec("worker-crash", "sharded/stack:0:1"),
                FaultSpec("worker-crash", "tensornet/stack:*"),
                FaultSpec("transient-backend", "parallel/stack:0:1"),
                FaultSpec("transient-backend", "sharded/stack:1:2"),
                FaultSpec("capacity", "vectorized/stack:0:3"),
            )
        )
        clean = _run(ghz, strategy)
        faulty = _run(ghz, strategy, plan=plan)
        assert faulty.recovery, f"{strategy} recorded no recovery events"
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_random_chaos_recovers_bitwise(self, ghz):
        # Random mode only ever hits attempt 0, so the default budget
        # always recovers; the same seed reproduces the same fault set.
        plan = FaultPlan(rate=0.8)
        clean = _run(ghz, "parallel")
        faulty = _run(ghz, "parallel", plan=plan)
        again = _run(ghz, "parallel", plan=plan)
        assert _kinds(faulty)  # 4 tasks at rate 0.8: some fault fired
        # Events are appended as tasks come back from the pool, which
        # process scheduling may permute — the deterministic contract is
        # the fault *set* (and the bits), not the diagnostic ordering.
        assert sorted((e.unit, e.kind, e.attempt) for e in faulty.recovery) == sorted(
            (e.unit, e.kind, e.attempt) for e in again.recovery
        )
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_disabled_faults_record_nothing(self, ghz):
        result = _run(ghz, "vectorized")
        assert result.recovery == []

    def test_stream_and_result_share_recovery(self, ghz):
        cfg = Config(
            fault_plan=FaultPlan(
                rules=(FaultSpec("transient-backend", "parallel/stack:*"),)
            ),
            retry=FAST_RETRY,
        )
        stream = run_ptsbe_stream(
            ghz,
            _pts(),
            seed=SEED,
            strategy="parallel",
            backend=BackendSpec.statevector(config=cfg),
            executor_kwargs={"num_workers": 2},
        )
        result = stream.finalize()
        assert result.recovery == stream.recovery
        assert all(isinstance(e, RecoveryEvent) for e in result.recovery)
        assert len(result.recovery) == result.unique_preparations  # one retry per task


# --------------------------------------------------------------------- #
# Degradation ladders: escalation when recovery cannot help
# --------------------------------------------------------------------- #
class TestDegradation:
    def test_vectorized_capacity_glob_hits_the_floor(self, brickwork):
        # A glob matching every descendant chunk keeps firing as the
        # ladder halves; at the single-row floor it must escalate.
        plan = FaultPlan(rules=(FaultSpec("capacity", "vectorized/stack:*"),))
        with pytest.raises(FaultError, match="single-row floor") as info:
            _run(brickwork, "vectorized", plan=plan)
        assert info.value.unit.startswith("vectorized/stack:")

    def test_retry_budget_exhaustion(self, ghz):
        plan = FaultPlan(
            rules=(FaultSpec("transient-backend", "parallel/stack:0:1", times=99),)
        )
        with pytest.raises(FaultError, match="parallel/stack:0:1") as info:
            _run(
                ghz,
                "parallel",
                plan=plan,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            )
        assert info.value.attempts == 2

    def test_sharded_all_devices_dead(self, ghz):
        # Whichever worker picks a task up dies with it, every time: the
        # first task to spend its budget escalates, naming itself.
        plan = FaultPlan(rules=(FaultSpec("worker-crash", "sharded/stack:*", times=99),))
        with pytest.raises(FaultError, match="failed after 3 attempt") as info:
            _run(ghz, "sharded", plan=plan)
        assert info.value.unit.startswith("sharded/stack:")
        assert isinstance(info.value.__cause__, WorkerCrashError)

    def test_tensornet_capacity_halving_is_structural(self, ghz):
        # Tensor-network stacking is *not* chunking-invariant (the batched
        # truncated SVD keeps a common rank per chunk), so the capacity
        # ladder promises distribution preservation, not bitwise identity:
        # assert structure, not bits.
        probe = _run(
            ghz,
            "tensornet",
            plan=FaultPlan(rules=(FaultSpec("transient-backend", "tensornet/stack:*"),)),
        )
        full_chunk = probe.recovery[0].unit
        clean = _run(ghz, "tensornet")
        faulty = _run(
            ghz, "tensornet", plan=FaultPlan(rules=(FaultSpec("capacity", full_chunk),))
        )
        assert "batch-halved" in _kinds(faulty)
        assert faulty.total_shots == clean.total_shots
        assert [t.record.trajectory_id for t in faulty.trajectories] == [
            t.record.trajectory_id for t in clean.trajectories
        ]

    def test_fault_error_is_execution_error(self):
        assert issubclass(FaultError, ExecutionError)
        assert issubclass(WorkerCrashError, ExecutionError)


# --------------------------------------------------------------------- #
# The in-process look-ahead: recovered exactly as in line
# --------------------------------------------------------------------- #
def _serial_stream(circuit, plan=None):
    cfg = Config(fault_plan=plan, retry=FAST_RETRY)
    return run_ptsbe_stream(
        circuit, _pts(), seed=SEED, strategy="serial", backend=BackendSpec.statevector(config=cfg)
    )


def _serial(circuit, plan=None):
    return _serial_stream(circuit, plan).finalize()


def _same_run(a, b):
    assert a.recovery == b.recovery
    assert np.array_equal(_bits(a), _bits(b))
    assert [t.actual_weight for t in a.trajectories] == [t.actual_weight for t in b.trajectories]


HELPER = "repro-lookahead_0"


class TestLookAheadRecovery:
    """Forced on, serial unit ``stack:2:3`` is prepared on the helper thread
    while ``stack:1:2`` draws (the unit at group 0 runs alone).  Whatever
    fails on the way, the run records the in-line run's events and draws
    its bits."""

    @pytest.mark.parametrize("kind", ["transient-backend", "worker-crash", "slow-worker"])
    def test_fault_at_a_look_ahead_unit(self, brickwork, lookahead, kind):
        plan = FaultPlan(rules=(FaultSpec(kind, "serial/stack:2:3"),))
        lookahead(False)
        inline = _serial(brickwork, plan)
        threads = lookahead(True)
        ahead = _serial(brickwork, plan)
        assert HELPER in threads
        _same_run(ahead, inline)
        retried = [] if kind == "slow-worker" else [("retry", "serial/stack:2:3", 1)]
        assert [(e.kind, e.unit, e.attempt) for e in inline.recovery] == retried

    def test_capacity_fault_at_a_look_ahead_unit(self, brickwork, lookahead, lookahead_threads):
        # A serial unit is one row: the ladder has nothing to halve.
        plan = FaultPlan(rules=(FaultSpec("capacity", "serial/stack:2:3"),))
        runs = []
        for on in (False, True):
            threads = lookahead(on)
            stream = _serial_stream(brickwork, plan)
            delivered = []
            with pytest.raises(FaultError, match="single-row floor") as info:
                for chunk in stream:
                    delivered.append(chunk.shot_table().bits)
            assert (HELPER in threads) is on
            assert lookahead_threads() == []  # the failure joined the helper
            runs.append((str(info.value), info.value.unit, stream.recovery, delivered))
        (message, unit, recovery, bits), again = runs
        assert (message, unit, recovery) == again[:3] and unit == "serial/stack:2:3"
        assert len(bits) == len(again[3]) == 2
        assert all(np.array_equal(a, b) for a, b in zip(bits, again[3]))

    @pytest.mark.parametrize("error", [BackendError, CapacityError])
    def test_a_look_ahead_that_raised_is_prepared_again_in_line(
        self, brickwork, lookahead, monkeypatch, error
    ):
        """The helper's ``prepare`` always raises: every unit it took is
        dropped and prepared in line, and no event is recorded."""
        lookahead(False)
        inline = _serial(brickwork)
        lookahead(True)
        prepare, raised = _SerialEngine.prepare, []

        def helper_fails(self, choices_list, sizes):
            if threading.current_thread() is not threading.main_thread():
                raised.append(choices_list)
                raise error("the helper's preparation failed")
            return prepare(self, choices_list, sizes)

        monkeypatch.setattr(_SerialEngine, "prepare", helper_fails)
        ahead = _serial(brickwork)
        assert len(raised) == inline.unique_preparations - 2
        assert inline.recovery == []
        _same_run(ahead, inline)

    def test_a_look_ahead_behind_a_failed_draw_is_dropped(self, brickwork, lookahead, monkeypatch):
        """``stack:1:2`` starts ``stack:2:3``'s look-ahead, then its draw
        fails once: the retried ``stack:1:2`` is popped next, so the
        look-ahead is dropped and ``stack:2:3`` prepared again."""
        sample = _SerialEngine.sample

        def run(on):
            calls = []

            def second_draw_fails_once(self, requests):
                calls.append(requests)
                if len(calls) == 2:
                    raise BackendError("draw hiccup")
                return sample(self, requests)

            monkeypatch.setattr(_SerialEngine, "sample", second_draw_fails_once)
            threads = lookahead(on)
            return _serial(brickwork), list(threads)

        inline, inline_threads = run(False)
        ahead, threads = run(True)
        assert [(e.kind, e.unit) for e in inline.recovery] == [("retry", "serial/stack:1:2")]
        _same_run(ahead, inline)
        # One more preparation: the dropped look-ahead.
        assert len(threads) == len(inline_threads) + 1 == inline.unique_preparations + 2


# --------------------------------------------------------------------- #
# Pool substrate failures (real crashes, not injected exceptions)
# --------------------------------------------------------------------- #
class _TestEngine(_SerialEngine):
    def __init__(self, circuit):
        super().__init__("test", StatevectorBackend(circuit.num_qubits), circuit, Config())


class _DyingEngine(_TestEngine):
    """Serial engine whose worker process dies — no exception, no cleanup —
    the first time anyone prepares ``doomed``; the marker file makes it
    happen once per test, whichever process gets there."""

    def __init__(self, circuit, doomed, marker):
        super().__init__(circuit)
        self.doomed, self.marker = doomed, marker

    def prepare(self, choices_list, sizes):
        if choices_list[0] == self.doomed and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(13)  # hard death: the pool itself breaks
        return super().prepare(choices_list, sizes)


class _CancelledEngine(_TestEngine):
    def prepare(self, choices_list, sizes):
        raise CancelledError()


class TestPoolSubstrate:
    def test_broken_pool_recreated_and_survivors_resubmitted(self, ghz, tmp_path):
        specs = _pts().sample(ghz, make_rng(3)).specs
        assert len(specs) > 2
        clean = ParallelExecutor(num_workers=2).execute(ghz, specs, seed=SEED)
        build = functools.partial(
            _DyingEngine, ghz, specs[1].choices, str(tmp_path / "died-once")
        )
        result = drive(build, ghz, specs, seed=SEED, workers=2).finalize()
        assert np.array_equal(_bits(clean), _bits(result))
        assert any("BrokenProcessPool" in e.error for e in result.recovery)
        assert {e.kind for e in result.recovery} == {"retry"}
        assert multiprocessing.active_children() == []

    def test_cancelled_error_translated_with_unit_context(self, ghz):
        specs = _pts().sample(ghz, make_rng(3)).specs
        stream = drive(functools.partial(_CancelledEngine, ghz), ghz, specs, workers=2)
        with pytest.raises(ExecutionError, match="test/stack:.*cancelled"):
            stream.finalize()
        assert multiprocessing.active_children() == []


# --------------------------------------------------------------------- #
# Mid-stream abandonment under faults
# --------------------------------------------------------------------- #
class TestMidStreamClose:
    def test_close_during_in_flight_retries(self, ghz):
        # Every task faults on its first attempt; close after the first
        # chunk lands while other tasks are mid-retry.  Nothing may leak.
        cfg = Config(
            fault_plan=FaultPlan(
                rules=(FaultSpec("transient-backend", "parallel/stack:*"),),
            ),
            retry=RetryPolicy(backoff_base=0.05, backoff_max=0.05, jitter=False),
        )
        stream = run_ptsbe_stream(
            ghz,
            _pts(),
            seed=SEED,
            strategy="parallel",
            backend=BackendSpec.statevector(config=cfg),
            executor_kwargs={"num_workers": 2},
        )
        next(stream)
        stream.close()
        stream.close()  # idempotent under fault recovery too
        assert stream.closed
        deadline = time.time() + 10
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_finalize_after_partial_consumption_with_faults(self, ghz):
        plan = FaultPlan(rules=(FaultSpec("worker-crash", "sharded/stack:0:1"),))
        cfg = Config(fault_plan=plan, retry=FAST_RETRY)
        stream = run_ptsbe_stream(
            ghz,
            _pts(),
            seed=SEED,
            strategy="sharded",
            backend=BackendSpec.batched_statevector(config=cfg),
            executor_kwargs={"num_workers": 2},
        )
        next(stream)
        result = stream.finalize()
        clean = _run(ghz, "sharded")
        assert np.array_equal(_bits(clean), result.shot_table().bits)
        assert [(e.kind, e.unit) for e in result.recovery] == [
            ("retry", "sharded/stack:0:1")
        ]
