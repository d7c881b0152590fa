"""Multi-device scaling: both parallel axes of PTSBE (paper §3, Fig. 5).

* Intra-trajectory: one statevector sliced across emulated devices, with
  bit-exact results and counted communication (the multi-GPU layout of
  the paper's 4xH100 per 35-qubit trajectory).
* Inter-trajectory: embarrassingly parallel trajectories over worker
  processes, shot-for-shot identical to the serial run.
* Both axes composed: the sharded strategy sizes ``(B, 2**n)`` stacks of
  deduplicated trajectories to a device pool and hands them to one worker
  process per device — still bitwise identical to the serial run.
* Paper-scale planning: the calibrated performance model answers "how
  many H100-hours for a trillion shots?" — reproducing the paper's
  4,445 / 2,223 GPU-hour headlines.

Run:  python examples/multi_device_scaling.py
"""

import time

import numpy as np

from repro import NoiseModel, ProbabilisticPTS, StatevectorBackend, depolarizing
from repro.circuits import library
from repro.devices import (
    DeviceMesh,
    DistributedStatevector,
    PAPER_STATEVECTOR_TIMINGS,
    PAPER_TENSORNET_TIMINGS,
    PerfModel,
    min_devices_for_statevector,
)
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    ParallelExecutor,
    ShardedExecutor,
)
from repro.rng import StreamFactory


def intra_trajectory_demo() -> None:
    print("=== intra-trajectory: distributed statevector ===")
    n = 12
    circ = library.random_brickwork(n, 4, rng=np.random.default_rng(0), measure=True).freeze()
    ref = StatevectorBackend(n)
    ref.run_fixed(circ)
    for devices in (1, 2, 4, 8):
        dist = DistributedStatevector(n, DeviceMesh(devices))
        t0 = time.perf_counter()
        dist.run_fixed(circ)
        dt = time.perf_counter() - t0
        exact = np.allclose(dist.gather(), ref.statevector, atol=1e-10)
        print(
            f"  {devices} device(s): bit-exact={exact}  comm={dist.bytes_communicated / 1e6:7.2f} MB  "
            f"exchanges={dist.exchange_count:4d}  ({dt * 1e3:.0f} ms emulated)"
        )
    print(f"  paper: a 35-qubit statevector needs {min_devices_for_statevector(35)} x 80GB H100s\n")


def inter_trajectory_demo() -> None:
    print("=== inter-trajectory: process-parallel PTSBE ===")
    circ = library.ghz(10, measure=True)
    noisy = (
        NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.01)).apply(circ).freeze()
    )
    specs = ProbabilisticPTS(nsamples=120, nshots=5_000).sample(
        noisy, StreamFactory(0).sampler_rng()
    ).specs
    serial = BatchedExecutor(BackendSpec.statevector())
    t0 = time.perf_counter()
    serial_result = serial.execute(noisy, specs, seed=4)
    serial_s = time.perf_counter() - t0
    for workers in (1, 2):
        executor = ParallelExecutor(BackendSpec.statevector(), num_workers=workers)
        t0 = time.perf_counter()
        result = executor.execute(noisy, specs, seed=4)
        dt = time.perf_counter() - t0
        same = np.array_equal(result.shot_table().bits, serial_result.shot_table().bits)
        print(
            f"  {workers} worker(s): {result.total_shots} shots in {dt:.2f}s "
            f"(serial {serial_s:.2f}s), shot-identical to serial: {same}"
        )
    print()


def sharded_demo() -> None:
    print("=== both axes: device-sharded trajectory stacks ===")
    circ = library.ghz(10, measure=True)
    noisy = (
        NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.01)).apply(circ).freeze()
    )
    specs = ProbabilisticPTS(nsamples=200, nshots=2_000).sample(
        noisy, StreamFactory(0).sampler_rng()
    ).specs
    serial_result = BatchedExecutor(BackendSpec.statevector()).execute(noisy, specs, seed=4)
    for devices in (1, 2, 4):
        executor = ShardedExecutor(devices=devices, num_workers=devices)
        t0 = time.perf_counter()
        result = executor.execute(noisy, specs, seed=4)
        dt = time.perf_counter() - t0
        same = np.array_equal(result.shot_table().bits, serial_result.shot_table().bits)
        print(
            f"  {devices} device(s): {result.unique_preparations} unique preparations "
            f"for {len(specs)} specs in {dt:.2f}s, bitwise identical to serial: {same}"
        )
    print()


def paper_scale_planning() -> None:
    print("=== paper-scale planning (calibrated performance model) ===")
    sv = PerfModel(PAPER_STATEVECTOR_TIMINGS)
    tn = PerfModel(PAPER_TENSORNET_TIMINGS)
    print(
        f"  statevector 35q: 1e12 shots @ 1e6/trajectory -> "
        f"{sv.dataset_gpu_hours(10**12, 10**6):,.0f} GPU-hours (paper: 4,445)"
    )
    print(
        f"  tensornet  85q: 1e6 shots @ 100/trajectory  -> "
        f"{tn.dataset_gpu_hours(10**6, 100):,.0f} GPU-hours (paper: 2,223)"
    )
    print(
        f"  conventional baseline for the same 1e12 shots: "
        f"{sv.baseline_gpu_hours(10**12):,.0f} GPU-hours "
        f"({sv.baseline_gpu_hours(10**12) / sv.dataset_gpu_hours(10**12, 10**6):,.0f}x more)"
    )


if __name__ == "__main__":
    intra_trajectory_demo()
    inter_trajectory_demo()
    sharded_demo()
    paper_scale_planning()
