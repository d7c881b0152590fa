"""Structural invariants of the tensornet engine and its routing, checked
on real runs.

These were inline scripts of CI's tensornet job; as tests they run with
tier-1, with the same circuits, sizes and assertions.  Counts go through
``monkeypatch`` wrappers, so a change that adds the work an invariant
forbids fails here.
"""

import hashlib
import time

import numpy as np
import pytest

import repro.channels.unitary_mixture as unitary_mixture
import repro.execution.router as router
from benchmarks.e2e.workloads import clifford_msd, msd_prep_35q
from repro import MPSBackend, ProbabilisticPTS, run_ptsbe, run_ptsbe_stream
from repro.channels.standard import device_profile
from repro.circuits.library import build_workload, noisy
from repro.errors import CapacityError
from repro.execution import BackendSpec
from repro.execution.tensornet import SwapStep, compile_schedule
from repro.pts import ProportionalPTS


@pytest.fixture(scope="module")
def wide():
    """40q brickwork: past the dense cap, served by tensornet alone."""
    profile = device_profile("uniform_depolarizing")
    return noisy(build_workload("brickwork", 40, seed=3), profile.noise_model()).freeze()


def test_auto_routes_past_the_dense_cap_and_serial_is_refused_before_pts(wide):
    auto = run_ptsbe(wide, ProportionalPTS(total_shots=200), seed=3)
    assert auto.engine == "tensornet", auto.routing
    assert "max_dense_qubits" in auto.routing, auto.routing

    class NoPTS(ProportionalPTS):
        def sample(self, circuit, rng):
            raise AssertionError("PTS sampled before the dispatch was refused")

    with pytest.raises(CapacityError) as err:
        run_ptsbe(wide, NoPTS(total_shots=200), seed=3, strategy="serial")
    assert "'tensornet'" in str(err.value), err.value
    print("auto ->", auto.routing)


def test_serial_on_mps_is_tensornet_at_one_row_past_the_cap(wide):
    """One MPS adapter: past the dense cap, where no dense reference
    exists, auto on an mps spec runs serial, and serial is the tensornet
    adapter at one row, bit for bit."""
    mps = BackendSpec.mps(max_bond=8)
    serial = run_ptsbe(wide, ProportionalPTS(total_shots=200), mps, seed=3)
    assert serial.engine == "serial", serial.routing
    assert "'mps'" in serial.routing, serial.routing
    stacked = run_ptsbe(wide, ProportionalPTS(total_shots=200), mps, seed=3,
                        strategy="tensornet", executor_kwargs={"max_batch": 1})
    a, b = serial.shot_table(), stacked.shot_table()
    assert np.array_equal(a.bits, b.bits), "serial mps bits != tensornet's"
    assert np.array_equal(a.trajectory_ids, b.trajectory_ids)
    print(f"auto on mps -> {serial.routing}; == tensornet at max_batch=1, {a.num_shots} shots")


def test_an_auto_run_on_clifford_analyses_the_circuit_and_each_channel_once(monkeypatch):
    """An auto run that lands on clifford walks the circuit once (routing
    and the engine check share the profile) and analyses each distinct
    channel object once."""
    counts = {"analyze_circuit": 0, "as_unitary_mixture": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(router, "analyze_circuit")
    counted(unitary_mixture, "as_unitary_mixture")
    msd = clifford_msd()
    channels = {id(op.channel) for op in msd.noise_sites}
    frames = run_ptsbe(msd, ProportionalPTS(total_shots=500), seed=3)
    assert frames.engine == "clifford", frames.routing
    assert counts == {"analyze_circuit": 1, "as_unitary_mixture": len(channels)}, counts
    print(f"auto on cliffordized MSD -> clifford: {counts}")


def test_sampling_cost_follows_distinct_outcomes_not_shots():
    """Every Steane block of the MSD-prep state has 16 outcomes per
    trajectory, so 100x the shots is 100x the expansion and nothing else:
    about 15x the wall end to end (10x while every trajectory was
    replayed, a fixed cost the frame sites took away).  A sampler that
    carries every shot through every site again reads about 40x."""

    def wall(nshots):
        best = float("inf")
        for _ in range(3):
            circuit = msd_prep_35q()
            start = time.perf_counter()
            stream = run_ptsbe_stream(
                circuit, ProbabilisticPTS(nsamples=40, nshots=nshots), seed=7, retain=True,
            )
            assert stream.engine == "tensornet", stream.routing
            table = stream.finalize().shot_table()
            best = min(best, time.perf_counter() - start)
        return best, table.num_shots

    small, few = wall(1_000)
    large, many = wall(100_000)
    assert many == 100 * few > 0, (few, many)
    print(f"{few} shots {small:.3f} s, {many} shots {large:.3f} s: "
          f"{large / small:.1f}x the wall, {many / large / 1e6:.2f} M shots/s")
    assert large < 30 * small, "100x the shots cost >= 30x the wall"


def test_the_msd_prep_schedule_routes_without_swapping_back():
    schedule = compile_schedule(msd_prep_35q())
    swaps = sum(isinstance(step, SwapStep) for step in schedule.steps)
    assert swaps <= 95, f"{swaps} SWAP steps (swap-back routing emitted 220)"
    assert sorted(schedule.site_of) == list(range(35)), schedule.site_of
    print(f"{swaps} SWAP steps, site_of is a permutation")

    # MPSBackend is the one-row view of the same replay: it ends on the
    # schedule's sites, and serial on it draws tensornet's bits.
    mps = MPSBackend(35)
    mps.run_fixed(msd_prep_35q())
    assert mps.site_of == list(schedule.site_of), mps.site_of

    def digest(strategy, **executor_kwargs):
        result = run_ptsbe(
            msd_prep_35q(), ProbabilisticPTS(nsamples=5, nshots=1000),
            BackendSpec.mps(), seed=7, strategy=strategy,
            executor_kwargs=executor_kwargs,
        )
        table = result.shot_table()
        return hashlib.sha256(table.bits.tobytes() + table.trajectory_ids.tobytes()).hexdigest()

    serial, tensornet = digest("serial"), digest("tensornet", max_batch=1)
    assert serial == tensornet, (serial, tensornet)
    print(f"serial mps == tensornet at max_batch=1: {serial[:16]}")
