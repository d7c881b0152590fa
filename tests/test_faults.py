"""Chaos suite: deterministic fault injection, seed-exact retry, degradation.

The central claim under test: a run that hiccups and OOMs its
way to completion produces the *bitwise identical* shot table of a
fault-free run at the same seed, with every recovery action recorded as
a structured :class:`~repro.faults.retry.RecoveryEvent`.  Seed threading
(per-trajectory Philox streams keyed by ``(seed, trajectory_id)``) is
what makes retry exactly-once-equivalent; these tests are the proof.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.config import Config
from repro.errors import (
    BackendError,
    CapacityError,
    ExecutionError,
    FaultError,
    SamplingError,
)
from repro.execution import BackendSpec, run_ptsbe, run_ptsbe_stream
from repro.execution.batched import _SerialEngine
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

SEED = 7

#: Backoff-free policy so chaos runs finish in test time; determinism is
#: unaffected (backoff only changes *pauses*, never results).
FAST_RETRY = RetryPolicy(backoff_base=0.0)


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

    The default sampler yields <= 8 dedup groups: ``serial`` / ``parallel``
    run one single-group task each (``parallel/stack:i:i+1``), ``sharded``
    group 0 alone and then one stack of the rest
    (``sharded/stack:1:<groups>``), ``vectorized`` group 0 alone and then
    stacks of 4.
    """
    cfg = Config(fault_plan=plan, retry=retry)
    if strategy in ("serial", "parallel", "clifford"):
        return run_ptsbe(
            circuit,
            _pts(nsamples),
            seed=seed,
            strategy=strategy,
            backend=BackendSpec.statevector(config=cfg),
        )
    if strategy == "sharded":
        return run_ptsbe(
            circuit,
            _pts(nsamples),
            seed=seed,
            strategy="sharded",
            backend=BackendSpec.batched_statevector(config=cfg),
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
                FaultSpec("capacity", "parallel/stack:1:2"),
                FaultSpec("transient-backend", "parallel/stack:*"),
            )
        )
        assert plan.fault_at("parallel/stack:1:2", 0, seed=1) == "capacity"
        assert plan.fault_at("parallel/stack:0:1", 0, seed=1) == "transient-backend"
        assert plan.fault_at("vectorized/stack:0:4", 0, seed=1) is None

    def test_random_mode_is_seed_deterministic(self):
        plan = FaultPlan(rate=0.5, kinds=("transient-backend", "capacity"))
        sites = [f"parallel/stack:{k}:{k + 1}" for k in range(32)]
        first = [plan.fault_at(site, 0, seed=11) for site in sites]
        second = [plan.fault_at(site, 0, seed=11) for site in sites]
        assert first == second
        # Both kinds are drawn across the sites, and some sites draw none.
        assert set(first) == {None, "transient-backend", "capacity"}
        other = [plan.fault_at(site, 0, seed=12) for site in sites]
        assert other != first  # a different seed draws a different pattern

    def test_random_mode_only_hits_attempt_zero(self):
        plan = FaultPlan(rate=1.0)
        assert plan.fault_at("parallel/stack:0:1", 0, seed=3) is not None
        assert plan.fault_at("parallel/stack:0:1", 1, seed=3) is None

    def test_maybe_inject_exception_classes(self):
        for kind, exc_type in [
            ("transient-backend", BackendError),
            ("capacity", CapacityError),
        ]:
            plan = FaultPlan(rules=(FaultSpec(kind, "unit"),))
            with pytest.raises(exc_type, match="injected"):
                maybe_inject(plan, "unit", 0, seed=0)

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

    @pytest.mark.parametrize("kind", ["worker-crash", "slow-worker"])
    def test_the_pool_kinds_are_unknown(self, kind, monkeypatch):
        """The two kinds that modelled a worker pool are gone: a spec, a
        plan's random pool and a ``REPRO_FAULTS`` string naming one are
        refused like any unknown kind."""
        with pytest.raises(ExecutionError, match="unknown fault kind"):
            FaultSpec(kind, "serial/stack:*")
        for text in (f"{kind}@serial/stack:*", f"random:0.5:{kind}"):
            with pytest.raises(ExecutionError, match="unknown fault kind"):
                parse_fault_plan(text)
            monkeypatch.setenv("REPRO_FAULTS", text)
            with pytest.raises(ExecutionError, match="unknown fault kind"):
                Config()

    def test_parse_round_trip(self):
        plan = parse_fault_plan(
            "transient-backend@parallel/stack:1:2; transient-backend@sharded/*#2"
        )
        assert plan.rules == (
            FaultSpec("transient-backend", "parallel/stack:1:2"),
            FaultSpec("transient-backend", "sharded/*", times=2),
        )
        assert plan.rate == 0.0

    def test_parse_random_mode(self):
        plan = parse_fault_plan("random:0.25:transient-backend,capacity")
        assert plan.rate == 0.25
        assert plan.kinds == ("transient-backend", "capacity")

    def test_parse_empty_disables(self):
        assert parse_fault_plan("") is None
        assert parse_fault_plan("   ") is None

    @pytest.mark.parametrize(
        "text",
        [
            "transient-backend",  # no @SITE
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
        # CapacityError subclasses BackendError but repeating the same
        # allocation fails the same way -> structurally excluded.
        assert not policy.is_retryable(CapacityError("oom"))
        assert not policy.is_retryable(ValueError("not ours"))
        assert not policy.is_retryable(SamplingError("typed but not transient"))

    def test_backoff_is_exact_and_capped(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_max=1.0)
        assert policy.backoff_seconds(1) == 0.01
        assert policy.backoff_seconds(2) == 0.02
        assert policy.backoff_seconds(3) == 0.04
        capped = RetryPolicy(backoff_base=0.01, backoff_max=0.05)
        assert [capped.backoff_seconds(k) for k in range(3, 10)] == [0.04] + [0.05] * 6

    def test_validation(self):
        with pytest.raises(ExecutionError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError, match="backoff"):
            RetryPolicy(backoff_base=-1.0)

    def test_next_attempt_counts_up_and_records(self):
        ctx = FaultContext(plan=None, policy=FAST_RETRY, strategy="test")
        events = []
        assert ctx.next_attempt("u", 0, BackendError("hiccup"), events) == 1
        assert ctx.next_attempt("u", 1, BackendError("hiccup"), events) == 2
        assert [(e.kind, e.attempt) for e in events] == [("retry", 1), ("retry", 2)]
        assert all(e.unit == "u" and e.strategy == "test" for e in events)
        with pytest.raises(FaultError, match="failed after 3 attempt"):
            ctx.next_attempt("u", 2, BackendError("hiccup"), events)

    def test_capacity_error_passes_straight_through(self):
        ctx = FaultContext(plan=None, policy=FAST_RETRY)
        events = []
        with pytest.raises(CapacityError):
            ctx.next_attempt("u", 0, CapacityError("stack too wide"), events)
        assert events == []  # escalation, not recovery

    def test_non_retryable_propagates_unchanged(self):
        ctx = FaultContext(plan=None, policy=FAST_RETRY)
        bug = ValueError("logic bug")
        with pytest.raises(ValueError) as info:
            ctx.next_attempt("u", 0, bug, [])
        assert info.value is bug


class TestOrderedDeliveryTripwire:
    @staticmethod
    def _unit(*positions):
        positions = np.array(positions, dtype=np.intp)
        specs = np.zeros(len(positions), dtype=SPEC_COLUMNS)
        specs["row"], specs["count"] = np.arange(len(positions)), 1
        return UnitShots(positions, positions.astype(np.uint8)[:, None], specs)

    def test_plain_duplicate_still_raises(self):
        """A failed unit files nothing, so its retry files each position
        once; a unit filed twice is an executor bug."""
        run = SimpleNamespace(num_trajectories=3, trajectory_ids=np.arange(3))
        delivery = OrderedDelivery(run)
        first = delivery.add(self._unit(0, 1))
        assert ShotChunk(first, (0,)).shot_table().bits.tolist() == [[0], [1]]
        with pytest.raises(ExecutionError, match="duplicate delivery for trajectory position 1"):
            delivery.add(self._unit(1, 2))


# --------------------------------------------------------------------- #
# Bitwise recovery across strategies
# --------------------------------------------------------------------- #
class TestBitwiseRecovery:
    """Faulty runs must reproduce fault-free shot tables exactly."""

    def test_parallel_transients(self, ghz):
        plan = FaultPlan(
            rules=(
                FaultSpec("transient-backend", "parallel/stack:1:2"),
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

    def test_sharded_transients_recover_bitwise(self, ghz):
        # Each failed task is retried in this process: two retries, in
        # task order, no other kind of event.
        clean = _run(ghz, "sharded")
        rest = f"sharded/stack:1:{clean.unique_preparations}"
        plan = FaultPlan(
            rules=(
                FaultSpec("transient-backend", "sharded/stack:0:1"),
                FaultSpec("transient-backend", rest),
            )
        )
        faulty = _run(ghz, "sharded", plan=plan)
        assert [(e.kind, e.unit, e.attempt) for e in faulty.recovery] == [
            ("retry", "sharded/stack:0:1", 1),
            ("retry", rest, 1),
        ]
        assert "BackendError" in faulty.recovery[0].error
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_sharded_inner_capacity_halving_bitwise(self, brickwork):
        # Group 0 is a unit of its own and the rest one stack.  OOM exactly
        # that stack: the driver halves it, and the halves — different
        # unit names — run in its place.
        clean = _run(brickwork, "sharded", nsamples=200)
        groups = clean.unique_preparations
        assert groups >= 3
        mid = (1 + groups) // 2
        faulty = _run(
            brickwork,
            "sharded",
            plan=FaultPlan(rules=(FaultSpec("capacity", f"sharded/stack:1:{groups}"),)),
            nsamples=200,
        )
        (halved,) = faulty.recovery
        assert (halved.kind, halved.unit) == ("batch-halved", f"sharded/stack:1:{groups}")
        assert halved.detail == f"split into stack:1:{mid} and stack:{mid}:{groups}"
        assert np.array_equal(_bits(clean), _bits(faulty))

    @pytest.mark.parametrize("strategy", ["serial", "parallel", "vectorized", "sharded"])
    def test_transient_faults_reach_the_result(self, ghz, strategy):
        # Regression: parallel used to retry faults at their own sites and
        # return only the trajectories, so the run recorded none.  Every
        # dense name records one retry per unit, in unit order.
        plan = FaultPlan(rules=(FaultSpec("transient-backend", f"{strategy}/stack:*"),))
        clean = _run(ghz, strategy)
        faulty = _run(ghz, strategy, plan=plan)
        groups = clean.unique_preparations
        if strategy in ("serial", "parallel"):
            cuts = [(i, i + 1) for i in range(groups)]
        elif strategy == "vectorized":
            cuts = [(0, 1)] + [(a, min(a + 4, groups)) for a in range(1, groups, 4)]
        else:
            cuts = [(0, 1), (1, groups)]
        assert [(e.kind, e.unit) for e in faulty.recovery] == [
            ("retry", f"{strategy}/stack:{a}:{b}") for a, b in cuts
        ]
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_tensornet_retry_is_bitwise(self, ghz):
        plan = FaultPlan(rules=(FaultSpec("transient-backend", "tensornet/stack:*"),))
        clean = _run(ghz, "tensornet")
        faulty = _run(ghz, "tensornet", plan=plan)
        assert "retry" in _kinds(faulty)
        assert np.array_equal(_bits(clean), _bits(faulty))

    @pytest.mark.parametrize(
        "strategy", ["serial", "parallel", "vectorized", "sharded", "clifford", "tensornet"]
    )
    def test_acceptance_plan_recovers_bitwise(self, ghz, strategy):
        """The acceptance plan: >=1 retried fault on every strategy name and
        >=1 stacked-prep capacity fault in one plan, completing with
        fault-free-identical tables."""
        plan = FaultPlan(
            rules=(
                FaultSpec("transient-backend", "serial/stack:1:2"),
                FaultSpec("transient-backend", "parallel/stack:1:2"),
                FaultSpec("transient-backend", "sharded/stack:0:1"),
                FaultSpec("transient-backend", "clifford/stack:0:1"),
                FaultSpec("transient-backend", "tensornet/stack:*"),
                FaultSpec("transient-backend", "serial/stack:0:1"),
                FaultSpec("transient-backend", "parallel/stack:0:1"),
                FaultSpec("transient-backend", "sharded/stack:1:*"),
                FaultSpec("transient-backend", "clifford/stack:1:*"),
                FaultSpec("transient-backend", "vectorized/stack:0:1"),
                FaultSpec("capacity", "vectorized/stack:1:5"),
                FaultSpec("capacity", "vectorized/stack:0:3"),
            )
        )
        clean = _run(ghz, strategy)
        faulty = _run(ghz, strategy, plan=plan)
        assert faulty.recovery, f"{strategy} recorded no recovery events"
        assert "retry" in _kinds(faulty)
        if strategy == "vectorized":
            assert "batch-halved" in _kinds(faulty)
        assert np.array_equal(_bits(clean), _bits(faulty))

    def test_random_chaos_recovers_bitwise(self, ghz):
        # Random mode only ever hits attempt 0, so the default budget
        # always recovers; the same seed reproduces the same fault set.
        plan = FaultPlan(rate=0.8)
        clean = _run(ghz, "parallel")
        faulty = _run(ghz, "parallel", plan=plan)
        again = _run(ghz, "parallel", plan=plan)
        assert _kinds(faulty)  # 4 tasks at rate 0.8: some fault fired
        # Tasks run in order in this process: the same seed records the
        # same events in the same order.
        assert faulty.recovery == again.recovery
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
        # Every attempt of every unit fails: the first task to spend its
        # budget escalates, naming itself.
        plan = FaultPlan(rules=(FaultSpec("transient-backend", "sharded/stack:*", times=99),))
        with pytest.raises(FaultError, match="failed after 3 attempt") as info:
            _run(ghz, "sharded", plan=plan)
        assert info.value.unit == "sharded/stack:0:1"
        assert type(info.value.__cause__) is BackendError

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

    def test_fault_at_a_look_ahead_unit(self, brickwork, lookahead):
        plan = FaultPlan(rules=(FaultSpec("transient-backend", "serial/stack:2:3"),))
        lookahead(False)
        inline = _serial(brickwork, plan)
        threads = lookahead(True)
        ahead = _serial(brickwork, plan)
        assert HELPER in threads
        _same_run(ahead, inline)
        assert [(e.kind, e.unit, e.attempt) for e in inline.recovery] == [
            ("retry", "serial/stack:2:3", 1)
        ]

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
# Mid-stream abandonment under faults
# --------------------------------------------------------------------- #
class TestMidStreamClose:
    def test_close_during_in_flight_retries(self, ghz):
        # Every task faults on its first attempt; close after the first
        # chunk lands, before the next task's retry.  Nothing may leak.
        cfg = Config(
            fault_plan=FaultPlan(
                rules=(FaultSpec("transient-backend", "parallel/stack:*"),),
            ),
            retry=RetryPolicy(backoff_base=0.05, backoff_max=0.05),
        )
        stream = run_ptsbe_stream(
            ghz,
            _pts(),
            seed=SEED,
            strategy="parallel",
            backend=BackendSpec.statevector(config=cfg),
        )
        next(stream)
        stream.close()
        stream.close()  # idempotent under fault recovery too
        assert stream.closed
        assert [(e.kind, e.unit) for e in stream.recovery] == [("retry", "parallel/stack:0:1")]

    def test_finalize_after_partial_consumption_with_faults(self, ghz):
        plan = FaultPlan(rules=(FaultSpec("transient-backend", "sharded/stack:0:1"),))
        cfg = Config(fault_plan=plan, retry=FAST_RETRY)
        stream = run_ptsbe_stream(
            ghz,
            _pts(),
            seed=SEED,
            strategy="sharded",
            backend=BackendSpec.batched_statevector(config=cfg),
        )
        next(stream)
        result = stream.finalize()
        clean = _run(ghz, "sharded")
        assert np.array_equal(_bits(clean), result.shot_table().bits)
        assert [(e.kind, e.unit) for e in result.recovery] == [
            ("retry", "sharded/stack:0:1")
        ]
