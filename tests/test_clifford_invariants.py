"""Structural invariants of a clifford benchmark run, counted on real runs.

The first two were inline scripts of CI's clifford job; as tests they run
with tier-1.  Each counts through ``monkeypatch`` wrappers or the
sampler's own stream, so a change that adds the work an invariant forbids
fails here.
"""

import sys

from benchmarks.e2e.workloads import WORKLOADS

import repro
import repro.pts.base
from repro.pts import NoiseSiteView
from repro.rng import StreamFactory
from repro.trajectory.events import TrajectoryRecord


def test_clifford_run_builds_records_only_when_they_are_read(monkeypatch):
    """Delivery keeps each unit's shots as one block and per-spec columns
    beside the run's trajectory table: the finalized run's shot table
    constructs no ``TrajectoryRecord``, and reading ``result.records``
    builds one per trajectory."""
    built = []
    init = TrajectoryRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryRecord, "__init__", counting)
    workload = WORKLOADS["clifford_pts_35q"]
    circuit, sampler = workload.build(True)
    stream = repro.run_ptsbe_stream(circuit, sampler, backend=workload.backend(), seed=7)
    result = stream.finalize()
    table = result.shot_table()
    at_table = len(built)
    records = list(result.records)
    print(f"{len(records)} trajectories, {table.num_shots} shots: {at_table} records "
          f"through finalize().shot_table(), {len(built)} after result.records")
    assert stream.engine == "clifford", stream.engine
    assert at_table == 0 and len(built) == len(records) == result.num_trajectories > 1


def test_pts_sampling_cost_follows_what_fires_not_the_cells():
    """Hardware-independent: the 64-bit words the sampler's Philox stream
    hands out, read off its counter.  Algorithm 2 at full size is 30 000
    attempts x 735 candidates = 22 M cells of which attempts x sum(p) ~
    14.7 k fire; the skip-ahead draw spends two uniforms per landing of its
    p_max walk (plus a 4-sigma block margin), so 8 per fired cell with 64
    words of slack is generous, and a sampler that draws per cell again
    reads ~1500x the bound."""
    circuit, sampler = WORKLOADS["clifford_pts_35q"].build(False)
    candidates = NoiseSiteView(circuit).candidates
    fired = sampler.nsamples * sum(c.probability for c in candidates)
    rng = StreamFactory(7).sampler_rng()

    def words():
        state = rng.bit_generator.state
        return 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])

    before = words()
    result = sampler.sample(circuit, rng)
    drawn = words() - before
    cells = sampler.nsamples * len(candidates)
    print(f"{result.num_trajectories} specs of {sampler.nsamples} attempts: {drawn} words "
          f"for {fired:.0f} expected fired cells of {cells}")
    assert before == 0 and 0 < drawn <= 8 * fired + 64, (drawn, fired)
    assert result.attempted_samples == 30_000 and result.num_trajectories > 3_000


def test_a_run_groups_its_trajectories_once(monkeypatch):
    """``uniqueKraus`` shares ``deduplicate_specs``'s sort, not the function:
    one run calls it exactly once (the driver's grouping), wherever a
    ``repro`` module binds it, so ``dedup.group_s`` and ``dedup.ratio``
    time and count the driver alone."""
    calls = []
    original = repro.pts.base.deduplicate_specs

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "deduplicate_specs", None) is original:
            monkeypatch.setattr(module, "deduplicate_specs", counting)
    workload = WORKLOADS["clifford_pts_35q"]
    circuit, sampler = workload.build(True)
    result = repro.run_ptsbe(circuit, sampler, backend=workload.backend(), seed=7)
    assert result.engine == "clifford", result.engine
    assert calls == [result.num_trajectories]
