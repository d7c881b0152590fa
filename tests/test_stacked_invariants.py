"""Structural invariants of the stacked dense engine, counted on real runs.

These were inline scripts of CI's stacked e2e step; as tests they run
with tier-1.  Each counts calls through ``monkeypatch`` wrappers, so a
change that adds a pass the invariant forbids fails here.
"""

from benchmarks.e2e.workloads import brickwork

import repro.backends.batched_statevector as stacked
from repro import ProbabilisticPTS
from repro.execution import BatchedExecutor, VectorizedExecutor
from repro.execution.plan import NoiseStep, build_fused_plan
from repro.rng import make_rng


def test_walked_draws_relabel_through_one_search_per_unit(monkeypatch):
    """Draws under 2**n shots read the walked-order table and are
    relabelled through the tail: on brickwork(12) at 256 shots a unit is
    prepared and drawn with no tail gather (``_permute``) and the same
    kernel calls as at 4 096 shots, where the table applies the tail.  The
    16q serial shape at 200 000 shots keeps the table path.  A unit's
    walked draws resolve through one stacked search (no per-request
    lookup), over a table with one row per distinct walked state: rows the
    trie joins at the tail share their source's.  A variant deviating at
    its window's last noise site starts from the dominant prefix: only the
    factors from that site on are multiplied."""
    calls = dict.fromkeys(
        ("kernel", "gather", "relabel", "search", "lookup", "units", "rows", "table_rows"), 0
    )

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(
        stacked, "apply_compiled_stack", counted("kernel", stacked.apply_compiled_stack)
    )
    monkeypatch.setattr(stacked, "_permute", counted("gather", stacked._permute))
    monkeypatch.setattr(
        stacked,
        "stacked_inverse_cdf_indices",
        counted("search", stacked.stacked_inverse_cdf_indices),
    )
    monkeypatch.setattr(
        stacked, "inverse_cdf_indices", counted("lookup", stacked.inverse_cdf_indices)
    )
    Backend = stacked.BatchedStatevectorBackend
    monkeypatch.setattr(Backend, "_relabel", counted("relabel", Backend._relabel))
    prepare, build = Backend._prepare, Backend._build_table

    def preparing(self, circuit, table, *rest):  # rest: the serial path's ladder
        calls["units"] += 1
        calls["rows"] += len(table)
        return prepare(self, circuit, table, *rest)

    def building(self, walked, rows):
        entry = build(self, walked, rows)
        calls["table_rows"] += len(entry[1]) if walked else 0
        return entry

    monkeypatch.setattr(Backend, "_prepare", preparing)
    monkeypatch.setattr(Backend, "_build_table", building)

    def run(executor, circuit, nshots, nsamples):
        specs = ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
            circuit, make_rng(7)
        ).specs
        calls.update(dict.fromkeys(calls, 0))
        executor.execute(circuit, specs, seed=7)
        return dict(calls)

    circuit = brickwork(12)
    small, large = (run(VectorizedExecutor(), circuit, shots, 400) for shots in (256, 4096))
    assert small["gather"] == 0 and small["relabel"] > 0, small
    assert large["gather"] > 0 and large["relabel"] == 0, large
    assert small["kernel"] == large["kernel"] > 0, (small, large)
    assert small["search"] == small["units"] > 1 and small["lookup"] == 0, small
    assert 0 < small["table_rows"] < small["rows"], small
    assert large["search"] == 0 and large["lookup"] > 0, large
    serial = run(BatchedExecutor(), brickwork(16), 200_000, 3)
    assert serial["gather"] > 0 and serial["relabel"] == 0, serial
    plan = build_fused_plan(circuit)  # fresh: no variant compiled yet
    noise = [s for s in plan.steps if isinstance(s, NoiseStep)]
    step = max(noise, key=lambda s: len(s._items))
    key = step.dominant_key[:-1] + ((step.dominant_key[-1] + 1) % len(step.channels[-1]),)
    step.variant(step.dominant_key)
    factors, factor = [], NoiseStep._factor

    def recording(self, pos, variant):
        factors.append(pos)
        return factor(self, pos, variant)

    monkeypatch.setattr(NoiseStep, "_factor", recording)
    step.variant(key)
    last = step._site_items[-1]
    assert factors == list(range(last, len(step._items))) and last > 0, (factors, last)
