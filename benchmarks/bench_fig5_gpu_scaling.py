"""F5-b — Fig. 5 inset: intra-/inter-trajectory device scaling.

Paper shape: intra-trajectory shot efficiency scales near-linearly with
GPU count (inset); inter-trajectory scaling is exactly linear by
embarrassing parallelism.  Three measurements here:

* the calibrated perf model's strong-scaling law (paper-scale numbers);
* the *actual* emulated distributed statevector across 1/2/4 devices
  (correctness + communication volume, not wall-time — the devices share
  one CPU);
* actual multiprocessing inter-trajectory throughput on this machine.
"""

from __future__ import annotations

import time

import pytest

from repro.circuits import library
from repro.channels import NoiseModel, depolarizing
from repro.devices import (
    DeviceMesh,
    DistributedStatevector,
    PAPER_STATEVECTOR_TIMINGS,
    PerfModel,
)
from repro.execution import BackendSpec, BatchedExecutor, ParallelExecutor
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng, StreamFactory


def make_workload():
    """Noisy 10-qubit brickwork shared by the fixture and the --json main."""
    circ = library.random_brickwork(10, 4, rng=make_rng(3), measure=True)
    model = NoiseModel().add_all_qubit_gate_noise("cz", depolarizing(0.01))
    return model.apply(circ).freeze()


@pytest.fixture(scope="module")
def workload():
    return make_workload()


@pytest.mark.parametrize("num_devices", [1, 2, 4])
def test_fig5_inset_distributed_prep(benchmark, workload, num_devices):
    """Distributed statevector preparation across emulated devices."""
    dist = DistributedStatevector(10, DeviceMesh(num_devices))

    def run():
        dist.run_fixed(workload)
        return dist.bytes_communicated

    comm = benchmark(run)
    benchmark.extra_info["num_devices"] = num_devices
    benchmark.extra_info["bytes_communicated"] = comm


@pytest.mark.parametrize("workers", [1, 2])
def test_fig5_inset_inter_trajectory(benchmark, workload, workers):
    """Embarrassingly parallel trajectories over worker processes."""
    specs = ProbabilisticPTS(nsamples=60, nshots=2000).sample(
        workload, StreamFactory(0).sampler_rng()
    ).specs

    def run():
        executor = ParallelExecutor(BackendSpec.statevector(), num_workers=workers)
        return executor.execute(workload, specs, seed=0).total_shots

    benchmark(run)
    benchmark.extra_info["workers"] = workers


def test_fig5_inset_report(benchmark, workload):
    def series():
        model = PerfModel(PAPER_STATEVECTOR_TIMINGS)
        model_rows = [
            (d, model.shots_per_second(10**6, num_devices=d)) for d in (1, 2, 4, 8)
        ]
        comm_rows = []
        for d in (1, 2, 4):
            dist = DistributedStatevector(10, DeviceMesh(d))
            dist.run_fixed(workload)
            comm_rows.append((d, dist.bytes_communicated))
        return model_rows, comm_rows

    model_rows, comm_rows = benchmark.pedantic(series, rounds=1, iterations=1)
    lines = ["", "Fig. 5 inset: intra-trajectory device scaling"]
    lines.append("perf model (paper-calibrated, 1e6-shot batches):")
    base = model_rows[0][1]
    for d, rate in model_rows:
        lines.append(f"  {d} device(s): {rate:.3e} shots/s ({rate / base:.2f}x)")
    lines.append("emulated distributed statevector, communication volume:")
    for d, comm in comm_rows:
        lines.append(f"  {d} device(s): {comm / 1e6:.3f} MB exchanged")
    lines.append("paper: nearly linear intra-trajectory scaling; inter-trajectory exactly linear")
    print("\n".join(lines))
    # Shape: model scaling is monotone and near-linear up to saturation.
    rates = [r for _, r in model_rows]
    assert rates[1] > 1.5 * rates[0]


if __name__ == "__main__":
    from _harness import make_parser, write_json

    args = make_parser("Fig. 5 inset: intra-trajectory device scaling").parse_args()
    circuit = make_workload()
    model = PerfModel(PAPER_STATEVECTOR_TIMINGS)
    rows = []
    print("perf model (paper-calibrated, 1e6-shot batches):")
    for d in (1, 2, 4, 8):
        rate = model.shots_per_second(10**6, num_devices=d)
        print(f"  {d} device(s): {rate:.3e} shots/s")
        rows.append({"kind": "perf_model", "num_devices": d, "shots_per_second": rate})
    print("emulated distributed statevector, communication volume:")
    for d in (1, 2, 4):
        dist = DistributedStatevector(10, DeviceMesh(d))
        dist.run_fixed(circuit)
        comm = dist.bytes_communicated
        print(f"  {d} device(s): {comm / 1e6:.3f} MB exchanged")
        rows.append(
            {"kind": "distributed_comm", "num_devices": d, "bytes_communicated": comm}
        )
    if args.json:
        write_json(
            args.json,
            "fig5_gpu_scaling",
            rows,
            workload={"circuit": "random_brickwork", "num_qubits": 10},
        )
