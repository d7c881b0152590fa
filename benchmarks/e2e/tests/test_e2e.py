"""The benchmark's own contract: names, wrap table, arithmetic, smoke runs."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, hostprobe, run, trace, worker
from benchmarks.e2e.workloads import WORKLOADS

RUN = [sys.executable, str(run.HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` pass over every workload, both modes."""
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((out / "e2e-7.json").read_text()), done.stdout, out


def test_smoke_runs_every_workload_end_to_end(smoke):
    document, stdout, out = smoke
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["failures"] == []
        assert set(entry["end_to_end"]) == set(run.END_TO_END)
        assert set(entry["per_layer"]) == set(trace.PER_LAYER)
        assert entry["host"]["host.slowdown"]["median"] > 0
        assert entry["end_to_end"]["failed_share"]["median"] == 0
        assert entry["end_to_end"]["shots_per_s"]["median"] > 0
        assert entry["shots"] == entry["trajectories"] * entry["sizes"]["nshots"]
        spans = json.loads((out / f"trace-{name}.json").read_text())["spans"]
        assert spans[0]["name"] == "timed_region" and spans[0]["parent"] == -1
        for metric in list(run.END_TO_END) + list(trace.PER_LAYER):
            assert re.search(rf"^{name}\s+{re.escape(metric)}\s", stdout, re.M), metric
    for key in ("nproc", "git_commit", "seed", "malloc_pins"):
        assert key in document
    assert {"python", "numpy", "blas", "blas_threads"} <= set(entry["env"])


def test_smoke_trace_covers_the_timed_region(smoke):
    for name, entry in smoke[0]["workloads"].items():
        assert entry["per_layer"]["trace.coverage"]["median"] >= 0.95, name


def test_smoke_layers_match_the_engine(smoke):
    layers = {name: entry["per_layer"] for name, entry in smoke[0]["workloads"].items()}
    assert layers["dense_prep_20q"]["sv.prepare_calls"]["median"] > 0
    assert layers["dense_shots_16q"]["sv.sample_shots"]["median"] > 0
    assert layers["stack_many_12q"]["stack.rows"]["median"] > 0
    assert layers["clifford_pts_35q"]["frame.assemble_calls"]["median"] > 0
    assert layers["tensornet_shots_35q"]["mps.sample_shots"]["median"] > 0
    assert layers["clifford_pts_35q"]["linalg.apply_calls"]["median"] == 0
    assert layers["tensornet_shots_35q"]["sv.prepare_calls"]["median"] == 0


@pytest.mark.parametrize("mode", [0, 1])
def test_driver_line(tmp_path, mode):
    done = subprocess.run(
        RUN + ["--workload", "dense_shots_16q", "--seed", "3", "--seconds", "0",
               "--trace", str(mode), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if mode else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: value["unit"] for name, value in line["metrics"].items()
    }


def test_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values() if w.gated
    ]
    # failed_share is always 0 on a healthy tree, which the driver cannot
    # take a ratio of; it reads the same number from failed / attempted.
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (name, *rest) for name, rest in run.END_TO_END.items() if name != "failed_share"
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, *rest) for name, rest in trace.PER_LAYER.items()
    ]
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_every_wrap_target_resolves_and_is_restored():
    originals = [trace.resolve(wrap.target) for wrap in trace.WRAPS]
    with trace.install():
        for wrap, (_, _, original) in zip(trace.WRAPS, originals):
            assert trace.resolve(wrap.target)[2] is not original
    for wrap, (_, _, original) in zip(trace.WRAPS, originals):
        assert trace.resolve(wrap.target)[2] is original
    assert {f"{wrap.span}_s" for wrap in trace.WRAPS} <= set(trace.PER_LAYER)


@pytest.mark.parametrize("target", [
    "repro.execution.plan:no_such_function",
    "repro.no_such_module:f",
    "repro.backends.statevector:NoSuchClass.run_fixed",
    "repro.backends.mps:MPSBackend.sample_fixed",
])
def test_unresolved_wrap_target_is_a_hard_error(target):
    with pytest.raises(trace.TraceError):
        trace.resolve(target)


def test_self_time_arithmetic_on_a_synthetic_nest():
    tracer = trace.Tracer("synthetic")
    # root [0, 10] > a [1, 7] > (b [2, 4], b [4, 5]); root > c [8, 9.5]
    tracer.names = ["timed_region", "sv.prepare", "linalg.apply", "linalg.apply", "sv.sample"]
    tracer.starts = [0.0, 1.0, 2.0, 4.0, 8.0]
    tracer.ends = [10.0, 7.0, 4.0, 5.0, 9.5]
    tracer.parents = [-1, 0, 1, 1, 0]
    tracer.counts = [None, {"renorm_s": 0.5}, {"bytes": 32}, {"bytes": 32}, {"shots": 100}]
    assert tracer.self_times() == [2.5, 3.0, 2.0, 1.0, 1.5]
    layers = trace.layer_metrics(tracer, root=0, untraced_seconds=8.0)
    assert layers["sv.prepare_s"] == 2.5 and layers["sv.renorm_s"] == 0.5
    assert layers["linalg.apply_s"] == 3.0 and layers["linalg.apply_calls"] == 2
    assert layers["linalg.apply_bytes"] == 64 and layers["sv.sample_shots"] == 100
    assert layers["sv.sample_s"] == 1.5 and layers["sv.prepare_calls"] == 1
    assert layers["trace.coverage"] == pytest.approx(0.75)
    assert layers["trace.overhead"] == pytest.approx(0.25)
    assert set(layers) == set(trace.PER_LAYER)


def test_host_speed_arithmetic_on_synthetic_samples():
    rep = {"start": 10.0, "seconds": 2.0, "first_chunk_s": 0.5}
    nominal = hostprobe.NOMINAL
    samples = [(9.9, 9.0), (10.1, 2 * nominal), (10.4, 2 * nominal), (11.0, 40 * nominal),
               (11.5, 2 * nominal), (12.0, 9.0)]  # the first and last are outside
    out = worker.host_speed(rep, samples)
    assert out["probe_samples"] == 4
    assert out["probe_s"] == pytest.approx(46 * nominal)
    assert out["first_probe_s"] == pytest.approx(4 * nominal)
    assert out["slowdown"] == pytest.approx(2.0)  # the median ignores the stalled sample
    assert worker.host_speed(rep, [])["slowdown"] == 1.0


def test_host_probe_samples_on_a_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostprobe.HostProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        samples = probe.take()
    assert signal.getsignal(signal.SIGALRM) is before
    assert 3 <= len(samples) <= 0.2 / hostprobe.INTERVAL + 1
    assert all(duration > 0 for _, duration in samples)
    assert probe.take() == []


def _document(shots_per_s, first_chunk_s, failed_share=0.0):
    samples = {
        "shots_per_s": shots_per_s, "first_chunk_s": first_chunk_s,
        "peak_rss_mb": [100.0], "setup_s": [0.2, 0.21, 0.19], "failed_share": [failed_share],
    }
    return {
        "metrics": run.metric_specs(),
        "workloads": {"w": {"end_to_end": {
            metric: run.summarise(values, run.END_TO_END[metric][0])
            for metric, values in samples.items()
        }}},
    }


def _verdicts(a, b):
    return {row[1]: row[-1] for row in compare.compare(a, b)}


def test_compare_passes_identical_inputs_and_flags_a_regression():
    shots, chunk = [100.0, 101.0, 99.0, 100.5, 99.5], [1.0, 1.01, 0.99, 1.0, 1.0]
    base = _document(shots, chunk)
    assert set(_verdicts(base, base).values()) == {"ok"}

    bound = run.END_TO_END["shots_per_s"][2]
    within = _document([x * (1 - bound / 2) for x in shots], chunk)
    assert set(_verdicts(base, within).values()) == {"ok"}
    slower = _document([x * (1 - bound - 0.1) for x in shots], chunk)
    verdicts = _verdicts(base, slower)
    assert verdicts["shots_per_s"] == "REGRESSION"
    assert verdicts["first_chunk_s"] == "ok"
    assert set(_verdicts(slower, base).values()) == {"ok"}

    failing = _document(shots, chunk, failed_share=0.1)
    assert _verdicts(base, failing)["failed_share"] == "REGRESSION"

    # A workload the sandbox cannot time steadily: reported, not counted.
    base["workloads"]["w"]["gated"] = False
    verdicts = _verdicts(base, slower)
    assert verdicts["shots_per_s"] == "ungated: REGRESSION"
    assert _verdicts(base, failing)["failed_share"] == "REGRESSION"


def test_compare_reports_wide_spread_as_unresolved_unless_sides_separate():
    noisy = _document([100.0, 140.0, 70.0, 120.0, 85.0], [1.0] * 5)  # spread 0.475
    worse = _document([95.0, 130.0, 60.0, 110.0, 80.0], [1.0] * 5)
    assert _verdicts(noisy, worse)["shots_per_s"] == "unresolved"
    better = _document([150.0, 190.0, 145.0, 170.0, 160.0], [1.0] * 5)
    assert _verdicts(noisy, better)["shots_per_s"] == "ok"
    assert _verdicts(better, noisy)["shots_per_s"] == "REGRESSION"
