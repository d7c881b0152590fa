"""Quickstart: the PTSBE pipeline in ~40 lines.

Build a noisy circuit, pre-sample its error trajectories (PTS), execute
them with batched sampling (BE), and inspect shots + provenance.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Circuit,
    DensityMatrixBackend,
    NoiseModel,
    ProbabilisticPTS,
    depolarizing,
    run_ptsbe,
)
from repro.data.stats import total_variation_distance


def main() -> None:
    # 1. An ideal circuit: 3-qubit GHZ with terminal measurement.
    ideal = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()

    # 2. A noise model: 5% depolarizing on each qubit of every CX.
    noise = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    noisy = noise.apply(ideal).freeze()
    print(f"noisy circuit: {noisy}")

    # 3. PTSBE: Algorithm-2 pre-sampling + batched execution.
    #    200 sampling attempts; every unique error combination gets a
    #    10,000-shot batch from ONE state preparation.
    result = run_ptsbe(noisy, ProbabilisticPTS(nsamples=200, nshots=10_000), seed=7)
    table = result.shot_table()
    print(f"\n{result}")
    print(f"total shots: {table.num_shots}, trajectories: {result.num_trajectories}")

    # 4. Error provenance: every trajectory knows exactly which Kraus
    #    operators fired (the paper's ML-training labels).
    print("\ntrajectory provenance (top 5 by probability):")
    for t in sorted(result.trajectories, key=lambda t: -t.record.nominal_probability)[:5]:
        print(
            f"  p={t.record.nominal_probability:.4f}  shots={t.num_shots:>6}  "
            f"errors: {t.record.label()}"
        )

    # 5. Validation: the trajectory-weighted pooled distribution matches
    #    the exact density-matrix reference.
    exact = DensityMatrixBackend(3).run(noisy).probabilities()
    pooled = result.pooled_distribution()
    tvd = total_variation_distance(pooled, exact)
    print(f"\nTVD(pooled PTSBE, exact density matrix) = {tvd:.4f}")
    print("top outcomes:", sorted(table.counts().items(), key=lambda kv: -kv[1])[:4])


if __name__ == "__main__":
    main()
