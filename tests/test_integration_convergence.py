"""Integration: every estimator converges to the exact noisy distribution.

The exactness chain of DESIGN.md §5: density matrix is ground truth;
the Algorithm-1 baseline, PTSBE with proportional shots, PTSBE's
probability-weighted pooled estimator, the MPS backend, and the
Pauli-frame sampler all must agree with it (within multinomial error).
"""

import numpy as np
import pytest

from repro.analysis.convergence import (
    convergence_curve,
    distribution_error,
    exact_distribution,
)
from repro.backends.pauli_frame import FrameSampler
from repro.backends.statevector import StatevectorBackend
from repro.data.stats import empirical_distribution, total_variation_distance
from repro.execution import BackendSpec, BatchedExecutor, run_ptsbe
from repro.pts import ExhaustivePTS, ProbabilisticPTS, ProportionalPTS
from repro.rng import make_rng
from repro.trajectory.baseline import TrajectorySimulator


class TestProportionalPTSBEExactness:
    def test_pooled_matches_density_matrix(self, noisy_ghz3):
        """Proportional PTS + BE pooled raw = exact distribution (up to the
        un-sampled tail, captured here by a generous trajectory set)."""
        exact = exact_distribution(noisy_ghz3)
        sampler = ProportionalPTS(total_shots=60_000, nsamples=3000)
        result = run_ptsbe(noisy_ghz3, sampler, seed=21)
        pooled = result.shot_table().empirical_distribution(len(exact))
        assert total_variation_distance(pooled, exact) < 0.02

    def test_weighted_pooling_fixes_uniform_shots(self, noisy_ghz3):
        """Algorithm 2's uniform-shot mode is deliberately biased; the
        probability-weighted pooled estimator corrects it."""
        exact = exact_distribution(noisy_ghz3)
        result = run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=3000, nshots=3000), seed=22)
        raw = result.shot_table().empirical_distribution(len(exact))
        weighted = result.pooled_distribution(weighted=True)
        assert total_variation_distance(weighted, exact) < total_variation_distance(raw, exact)
        assert total_variation_distance(weighted, exact) < 0.03

    def test_exhaustive_weighted_is_near_exact(self, noisy_ghz3):
        """Deterministic enumeration down to 1e-5 coverage leaves only the
        triple-error tail; the weighted estimator is then near-exact."""
        exact = exact_distribution(noisy_ghz3)
        # Pinned to the dense engine: the 0.015 threshold was calibrated
        # against its draws (auto now routes this Clifford circuit to the
        # frame engine, whose equally-valid draws differ per seed).
        result = run_ptsbe(
            noisy_ghz3, ExhaustivePTS(cutoff=1e-5, nshots=4000), seed=23,
            strategy="serial",
        )
        weighted = result.pooled_distribution(weighted=True)
        assert total_variation_distance(weighted, exact) < 0.015

    def test_general_channel_weighted_pooling(self, noisy_ghz3_general):
        """Amplitude damping: nominal probabilities are priors, but the
        trajectory states themselves are exact, so weighting by *actual*
        realized weights reproduces the distribution."""
        exact = exact_distribution(noisy_ghz3_general)
        result = run_ptsbe(
            noisy_ghz3_general, ProbabilisticPTS(nsamples=2000, nshots=4000), seed=24
        )
        # Re-pool with actual (state-dependent) weights from execution.
        dim = len(exact)
        out = np.zeros(dim)
        total = 0.0
        for t in result.trajectories:
            if t.num_shots == 0:
                continue
            hist = np.bincount(
                t.bits @ (1 << np.arange(t.bits.shape[1] - 1, -1, -1)), minlength=dim
            ).astype(float)
            out += t.actual_weight * hist / hist.sum()
            total += t.actual_weight
        out /= total
        assert total_variation_distance(out, exact) < 0.03


class TestBaselineEquivalence:
    def test_baseline_and_ptsbe_sample_same_distribution(self, mixed_noise_circuit):
        exact = exact_distribution(mixed_noise_circuit)
        base = TrajectorySimulator(
            lambda: StatevectorBackend(mixed_noise_circuit.num_qubits)
        ).sample(mixed_noise_circuit, 5000, seed=25)
        pts = run_ptsbe(
            mixed_noise_circuit, ProportionalPTS(total_shots=20_000, nsamples=2500), seed=26
        )
        err_base = distribution_error(base.bits, exact)
        err_pts = total_variation_distance(
            pts.shot_table().empirical_distribution(len(exact)), exact
        )
        assert err_base < 0.06
        assert err_pts < 0.04

    def test_convergence_curve_decays(self, noisy_ghz3):
        exact = exact_distribution(noisy_ghz3)

        def sampler(m):
            result = run_ptsbe(noisy_ghz3, ProportionalPTS(total_shots=m, nsamples=1500), seed=27)
            return result.shot_table().bits

        curve = convergence_curve(sampler, exact, [200, 2000, 50_000])
        errs = [e for _, e in curve]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.03


class TestMPSPipeline:
    def test_mps_backend_end_to_end(self, noisy_ghz3):
        exact = exact_distribution(noisy_ghz3)
        result = run_ptsbe(
            noisy_ghz3,
            ProportionalPTS(total_shots=30_000, nsamples=2000),
            backend=BackendSpec.mps(max_bond=16),
            seed=28,
        )
        pooled = result.shot_table().empirical_distribution(len(exact))
        assert total_variation_distance(pooled, exact) < 0.03


class TestFrameSamplerCrossCheck:
    def test_frame_sampler_agrees_with_ptsbe(self, noisy_ghz3):
        """Three estimators, one distribution: frames vs PTSBE vs exact."""
        exact = exact_distribution(noisy_ghz3)
        frame_bits = FrameSampler(noisy_ghz3).sample(60_000, make_rng(30))
        frame_dist = empirical_distribution(frame_bits, len(exact))
        ptsbe = run_ptsbe(noisy_ghz3, ExhaustivePTS(cutoff=1e-5, nshots=4000), seed=31)
        pts_dist = ptsbe.pooled_distribution(weighted=True)
        assert total_variation_distance(frame_dist, exact) < 0.02
        assert total_variation_distance(frame_dist, pts_dist) < 0.03
