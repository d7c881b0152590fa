"""Serial vs. parallel vs. vectorized execution: shots/sec across strategies.

Extends the paper's Fig. 4/5 shots-per-second story to the trajectory-
stacked execution path: for a 12-qubit brickwork workload with B distinct
error trajectories, the serial engine pays the per-operation Python
dispatch cost B times per moment while the vectorized engine pays it once
(one broadcast kernel over the (B, 2**12) stack), so its advantage grows
with the trajectory count.  The parallel engine amortizes the same cost
over worker processes instead, at the price of process startup.

The fusion axis rides on top: with ``Config.fusion="auto"`` every strategy
walks the circuit's compiled ``FusedPlan`` (adjacent gates and sampled
noise-branch operators merged into per-window matrices, see
``repro.execution.plan``), which cuts both the kernel-pass count and the
per-window renormalization sweeps — the ``fusion`` column compares it
against the unfused ``"off"`` plan on the same strategy.

The ``1st chunk`` column is the streaming-delivery headline: seconds until
``execute_stream`` hands its first ``ShotChunk`` to the consumer, versus
the ``seconds`` column's full materialized run — the latency a streaming
decoder-training loop (``run_ptsbe_stream``) saves before its first
mini-batch.

The ``renorm s`` column reports the wall time each in-process run spent
in post-noise-window renormalization (the backends' ``renorm_seconds``
counters) — the cost the batched ``row_norms_squared`` reduction attacks.
The standalone main additionally emits micro-bench rows for the
renormalization sweep itself (batched vs. the legacy per-row vdot loop,
with a B>=64 speedup assertion) and for the k=3 reshape-view kernel tier
vs. the moveaxis+GEMM fallback it replaced.

Run under pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/bench_vectorized_executor.py -q

or standalone for the quick report table (``--json PATH`` additionally
writes the rows as a machine-readable ``BENCH_*.json``, schema in
``benchmarks/_harness.py``; diff two documents with
``benchmarks/bench_compare.py``):

    PYTHONPATH=src python benchmarks/bench_vectorized_executor.py \
        --json BENCH_vectorized_executor.json
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels import NoiseModel, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.config import Config
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ParallelExecutor,
    ShardedExecutor,
    VectorizedExecutor,
)
from repro.linalg import (
    apply_compiled_stack,
    apply_gemm_stack,
    compile_operator,
    random_unitary,
    row_norms_squared,
)
from repro.pts.base import NoiseSiteView, PTSAlgorithm

NUM_QUBITS = 12
SHOTS_PER_TRAJECTORY = 256
TRAJECTORY_COUNTS = [1, 8, 32, 64]

#: Explicit fusion configs so the bench measures what it claims even under
#: a REPRO_FUSION=off environment (the CI fusion-off leg).  On this
#: 12-qubit workload the width-aware auto-cap resolves the fused window
#: cap to 4.
FUSION_AUTO = Config(fusion="auto")
FUSION_OFF = Config(fusion="off")


def _brickwork_circuit(num_qubits: int = NUM_QUBITS, layers: int = 4) -> Circuit:
    """Layered CX brickwork with depolarizing noise on every gate."""
    circ = Circuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        start = layer % 2
        for q in range(start, num_qubits - 1, 2):
            circ.cx(q, q + 1)
    circ.measure_all()
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.01))
        .add_all_qubit_gate_noise("h", depolarizing(0.002))
        .add_all_qubit_gate_noise("t", depolarizing(0.002))
    )
    return model.apply(circ).freeze()


def _distinct_specs(circuit: Circuit, count: int, shots: int = SHOTS_PER_TRAJECTORY):
    """Deterministic single-error trajectory specs, one per noise candidate."""
    view = NoiseSiteView(circuit)
    if count > len(view.candidates) + 1:
        raise ValueError(
            f"workload has only {len(view.candidates)} error candidates, need {count - 1}"
        )
    specs = [PTSAlgorithm.make_spec(view, [], shots, trajectory_id=0)]
    for tid, cand in enumerate(view.candidates[: count - 1], start=1):
        specs.append(PTSAlgorithm.make_spec(view, [cand], shots, trajectory_id=tid))
    return specs


@pytest.fixture(scope="module")
def workload():
    return _brickwork_circuit()


@pytest.mark.parametrize("num_traj", TRAJECTORY_COUNTS)
def test_serial_executor(benchmark, workload, num_traj):
    specs = _distinct_specs(workload, num_traj)
    executor = BatchedExecutor(BackendSpec.statevector(config=FUSION_AUTO))

    result = benchmark(lambda: executor.execute(workload, specs, seed=0))
    benchmark.extra_info["shots_per_second"] = result.total_shots / (
        result.prep_seconds + result.sample_seconds
    )


@pytest.mark.parametrize("num_traj", TRAJECTORY_COUNTS)
def test_vectorized_executor(benchmark, workload, num_traj):
    specs = _distinct_specs(workload, num_traj)
    executor = VectorizedExecutor(BackendSpec.batched_statevector(config=FUSION_AUTO))

    result = benchmark(lambda: executor.execute(workload, specs, seed=0))
    benchmark.extra_info["shots_per_second"] = result.total_shots / (
        result.prep_seconds + result.sample_seconds
    )


def _time_to_first_chunk(executor, workload, specs) -> float:
    """Seconds until a streamed run delivers its first ShotChunk.

    The streaming-delivery headline number: a decoder-training consumer
    sees its first shots after this long, versus the full-run wall time
    for the materialized path.  The stream is abandoned right after the
    first chunk (cleanup included in the run, not in the measurement).
    """
    t0 = time.perf_counter()
    stream = executor.execute_stream(workload, specs, seed=0)
    try:
        next(stream)
        return time.perf_counter() - t0
    finally:
        stream.close()


def _capturing_serial(config):
    """A serial executor whose created backends stay reachable, so the
    per-run renormalization wall time (``backend.renorm_seconds``) can be
    read back after each execute."""
    created = []

    def factory(num_qubits):
        backend = StatevectorBackend(num_qubits, config=config)
        created.append(backend)
        return backend

    return BatchedExecutor(factory), created


def _capturing_vectorized(config):
    created = []

    def factory(num_qubits):
        backend = BatchedStatevectorBackend(num_qubits, config=config)
        created.append(backend)
        return backend

    return VectorizedExecutor(factory), created


def _strategy_rows(workload, num_traj, include_parallel=False, include_sharded=False):
    """(strategy, fusion, shots/s, seconds, first-chunk s, renorm s) rows.

    The renorm column reports the wall time the best run spent in
    post-noise-window renormalization (norm reduction + scale) — the cost
    the batched ``row_norms_squared`` sweep attacks.  It is measurable
    in-process only, so the process-pool strategies report ``None``.
    """
    specs = _distinct_specs(workload, num_traj)
    serial_auto, serial_auto_backends = _capturing_serial(FUSION_AUTO)
    serial_off, serial_off_backends = _capturing_serial(FUSION_OFF)
    vec_auto, vec_auto_backends = _capturing_vectorized(FUSION_AUTO)
    vec_off, vec_off_backends = _capturing_vectorized(FUSION_OFF)
    executors = [
        ("serial", "auto", serial_auto, serial_auto_backends),
        ("serial", "off", serial_off, serial_off_backends),
        ("vectorized", "auto", vec_auto, vec_auto_backends),
        ("vectorized", "off", vec_off, vec_off_backends),
    ]
    if include_parallel:
        executors.insert(
            2,
            (
                "parallel",
                "auto",
                ParallelExecutor(
                    BackendSpec.statevector(config=FUSION_AUTO), num_workers=2
                ),
                None,
            ),
        )
    if include_sharded:
        executors.append(
            (
                "sharded",
                "auto",
                ShardedExecutor(
                    BackendSpec.batched_statevector(config=FUSION_AUTO), devices=2
                ),
                None,
            )
        )
    rows = []
    total_shots = num_traj * SHOTS_PER_TRAJECTORY
    for name, fusion, executor, backends in executors:
        best = float("inf")
        best_renorm = None
        for _ in range(3):
            before = (
                sum(b.renorm_seconds for b in backends)
                if backends is not None
                else 0.0
            )
            t0 = time.perf_counter()
            executor.execute(workload, specs, seed=0)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
                if backends is not None:
                    best_renorm = sum(b.renorm_seconds for b in backends) - before
        first_chunk = min(
            _time_to_first_chunk(executor, workload, specs) for _ in range(3)
        )
        rows.append((name, fusion, total_shots / best, best, first_chunk, best_renorm))
    return rows


def _best_of(fn, repeats=20):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_stack(rows, num_qubits, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(rows, 2**num_qubits)) + 1j * rng.normal(
        size=(rows, 2**num_qubits)
    )
    return np.ascontiguousarray(stack.astype(np.complex128))


def _renorm_sweep_rows(stack_rows=(8, 64, 256), num_qubits=NUM_QUBITS):
    """Batched ``row_norms_squared`` vs. the legacy per-row vdot sweep.

    The batched path must win at B >= 64 on the reduction itself.
    """
    rows = []
    speedups = {}
    for b in stack_rows:
        stack = _random_stack(b, num_qubits, seed=b)
        sweep = _best_of(
            lambda: np.array(
                [float(np.real(np.vdot(row, row))) for row in stack]
            )
        )
        batched = _best_of(lambda: row_norms_squared(stack))
        rows.append(
            {"kernel": "renorm-vdot-sweep", "stack_rows": b, "seconds": sweep}
        )
        rows.append(
            {"kernel": "renorm-batched", "stack_rows": b, "seconds": batched}
        )
        speedups[b] = sweep / batched
    return rows, speedups


K3_BENCH_TARGETS = [(0, 1, 2), (4, 5, 6), (9, 10, 11), (2, 6, 10)]


def _k3_tier_rows(stack_rows=64, num_qubits=NUM_QUBITS):
    """The k=3 reshape-view tier vs. the moveaxis+GEMM fallback it replaced.

    Contiguous and gapped target layouts on the bench workload's width;
    dense application does not mutate its input, so one stack serves every
    timed call.
    """
    rng = np.random.default_rng(7)
    stack = _random_stack(stack_rows, num_qubits, seed=3)
    rows = []
    for targets in K3_BENCH_TARGETS:
        op = compile_operator(
            random_unitary(8, rng), targets, np.dtype(np.complex128)
        )
        label = "-".join(str(t) for t in targets)
        view = _best_of(
            lambda: apply_compiled_stack(stack, op, num_qubits), repeats=5
        )
        gemm = _best_of(
            lambda: apply_gemm_stack(stack, op, num_qubits), repeats=5
        )
        rows.append(
            {
                "kernel": "k3-view",
                "targets": label,
                "stack_rows": stack_rows,
                "seconds": view,
            }
        )
        rows.append(
            {
                "kernel": "k3-gemm",
                "targets": label,
                "stack_rows": stack_rows,
                "seconds": gemm,
            }
        )
    return rows


def _format_renorm(renorm):
    return f"{renorm:>9.4f}" if renorm is not None else f"{'-':>9}"


def test_strategy_report(benchmark, workload):
    """Full strategy comparison; asserts the vectorized path wins at B>=8
    and that fusion pays on the stacked path."""

    def series():
        return {b: _strategy_rows(workload, b, include_parallel=(b >= 8)) for b in TRAJECTORY_COUNTS}

    table = benchmark.pedantic(series, rounds=1, iterations=1)
    lines = ["", f"strategies on {NUM_QUBITS}-qubit brickwork, {SHOTS_PER_TRAJECTORY} shots/trajectory"]
    lines.append(
        f"{'trajectories':>12} {'strategy':>11} {'fusion':>6} {'shots/s':>12} "
        f"{'seconds':>9} {'1st chunk':>10} {'renorm s':>9}"
    )
    for num_traj, rows in table.items():
        for name, fusion, rate, seconds, first_chunk, renorm in rows:
            lines.append(
                f"{num_traj:>12d} {name:>11} {fusion:>6} {rate:>12.3e} "
                f"{seconds:>9.4f} {first_chunk:>10.4f} {_format_renorm(renorm)}"
            )
    report = "\n".join(lines)
    print(report)
    benchmark.extra_info["report"] = report
    # Acceptance: stacked preparation beats serial once many trajectories
    # share the moment structure.  Gate on the large counts, where the
    # ~1.5x margin is robust to a noisy runner; B=8 is report-only.
    for num_traj in (32, 64):
        rates = {(name, fusion): rate for name, fusion, rate, *_ in table[num_traj]}
        # Streaming: the serial stream hands over its first trajectory
        # after ~1/num_traj of the run — assert it beats the full-run
        # latency by a wide margin (the time-to-first-chunk contract).
        for name, fusion, _, seconds, first_chunk, _renorm in table[num_traj]:
            if name == "serial":
                assert first_chunk < seconds / 2, (
                    f"first streamed chunk ({first_chunk:.4f}s) should be well "
                    f"under the materialized {name} run ({seconds:.4f}s) at "
                    f"{num_traj} trajectories"
                )
        assert rates[("vectorized", "auto")] > rates[("serial", "auto")], (
            f"vectorized ({rates[('vectorized', 'auto')]:.3e} shots/s) should beat "
            f"serial ({rates[('serial', 'auto')]:.3e} shots/s) at {num_traj} trajectories"
        )
        # Fusion target: >=1.5x shots/s on this workload (measured ~1.6-1.7x
        # on a quiet machine); assert a margin that tolerates noisy CI boxes.
        speedup = rates[("vectorized", "auto")] / rates[("vectorized", "off")]
        assert speedup > 1.25, (
            f"fusion speedup {speedup:.2f}x at {num_traj} trajectories below the "
            "1.25x floor (target 1.5x)"
        )


def test_batched_renorm_beats_vdot_sweep():
    """The batched row_norms_squared reduction must outrun the legacy
    per-row vdot sweep at B >= 64."""
    _, speedups = _renorm_sweep_rows(stack_rows=(64, 256))
    assert speedups[64] > 1.0, (
        f"batched renorm reduction {speedups[64]:.2f}x vs the per-row vdot "
        "sweep at B=64 — expected a measurable speedup"
    )


if __name__ == "__main__":
    from _harness import make_parser, write_json

    args = make_parser(__doc__.splitlines()[0]).parse_args()
    circuit = _brickwork_circuit()
    print(f"workload: {circuit}")
    print(
        f"{'trajectories':>12} {'strategy':>11} {'fusion':>6} {'shots/s':>12} "
        f"{'seconds':>9} {'1st chunk':>10} {'renorm s':>9}"
    )
    json_rows = []
    fusion_rates = {}
    first_chunks = {}
    full_runs = {}
    for num_traj in TRAJECTORY_COUNTS:
        rows = _strategy_rows(
            circuit,
            num_traj,
            include_parallel=(num_traj >= 8),
            include_sharded=(num_traj >= 8),
        )
        for name, fusion, rate, seconds, first_chunk, renorm in rows:
            print(
                f"{num_traj:>12d} {name:>11} {fusion:>6} {rate:>12.3e} "
                f"{seconds:>9.4f} {first_chunk:>10.4f} {_format_renorm(renorm)}"
            )
            fusion_rates[(num_traj, name, fusion)] = rate
            first_chunks[(num_traj, name, fusion)] = first_chunk
            full_runs[(num_traj, name, fusion)] = seconds
            json_rows.append(
                {
                    "trajectories": num_traj,
                    "strategy": name,
                    "fusion": fusion,
                    "shots_per_second": rate,
                    "seconds": seconds,
                    "first_chunk_seconds": first_chunk,
                    "renorm_seconds": renorm,
                }
            )
    largest = TRAJECTORY_COUNTS[-1]
    speedup = fusion_rates[(largest, "vectorized", "auto")] / fusion_rates[
        (largest, "vectorized", "off")
    ]
    print(f"fusion speedup (vectorized, B={largest}): {speedup:.2f}x (target >= 1.5x)")
    ttfc = first_chunks[(largest, "serial", "auto")]
    full = full_runs[(largest, "serial", "auto")]
    print(
        f"time to first streamed chunk (serial, B={largest}): {ttfc:.4f}s vs "
        f"{full:.4f}s materialized ({full / ttfc:.0f}x earlier delivery)"
    )

    print(f"\nrenormalization sweep on (B, 2**{NUM_QUBITS}) stacks")
    print(f"{'kernel':>18} {'rows':>6} {'seconds':>12}")
    renorm_rows, renorm_speedups = _renorm_sweep_rows()
    for row in renorm_rows:
        print(f"{row['kernel']:>18} {row['stack_rows']:>6d} {row['seconds']:>12.3e}")
    json_rows.extend(renorm_rows)
    for b, s in sorted(renorm_speedups.items()):
        print(f"batched renorm speedup vs per-row vdot sweep (B={b}): {s:.2f}x")
    assert renorm_speedups[64] > 1.0, (
        f"batched renorm reduction regressed: {renorm_speedups[64]:.2f}x vs the "
        "per-row vdot sweep at B=64"
    )

    print(f"\nk=3 kernel tier on a (64, 2**{NUM_QUBITS}) stack")
    print(f"{'kernel':>10} {'targets':>8} {'seconds':>12}")
    k3_rows = _k3_tier_rows()
    for row in k3_rows:
        print(f"{row['kernel']:>10} {row['targets']:>8} {row['seconds']:>12.3e}")
    json_rows.extend(k3_rows)

    if args.json:
        write_json(
            args.json,
            "vectorized_executor",
            json_rows,
            workload={
                "circuit": "brickwork",
                "num_qubits": NUM_QUBITS,
                "shots_per_trajectory": SHOTS_PER_TRAJECTORY,
            },
        )
