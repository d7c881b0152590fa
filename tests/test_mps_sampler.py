"""MPS sampling: cached vs. naive equivalence and distribution exactness.

This is the Fig. 5 mechanism test: both sampling modes must produce the
same distribution (the exact one), while the cached mode amortizes the
environment chain across the batch.
"""

import numpy as np
import pytest

from repro.backends import mps_sampler
from repro.backends.mps import MPSBackend
from repro.backends.mps_sampler import compute_right_environments, sample_cached
from repro.backends.statevector import StatevectorBackend
from repro.circuits import library
from repro.data.stats import empirical_distribution, total_variation_distance
from repro.errors import BackendError
from repro.rng import make_rng


def _prepared_mps(num_qubits=5, depth=3, seed=0):
    circ = library.random_brickwork(num_qubits, depth, rng=make_rng(seed))
    mps = MPSBackend(num_qubits, max_bond=64)
    sv = StatevectorBackend(num_qubits)
    for op in circ.coherent_ops:
        mps.apply_gate(op.gate, op.qubits)
        sv.apply_gate(op.gate, op.qubits)
    return mps, sv


class TestEnvironments:
    def test_full_contraction_equals_norm(self):
        mps, _ = _prepared_mps()
        envs = compute_right_environments(mps.tensors)
        assert envs[0][0, 0].real == pytest.approx(mps.norm_squared(), abs=1e-9)

    def test_environment_shapes(self):
        mps, _ = _prepared_mps()
        envs = compute_right_environments(mps.tensors)
        for k, a in enumerate(mps.tensors):
            assert envs[k].shape == (a.shape[0], a.shape[0])
        assert envs[len(mps.tensors)].shape == (1, 1)


class TestDistributions:
    def test_cached_matches_exact_distribution(self):
        mps, sv = _prepared_mps()
        bits = mps.sample(40000, range(5), make_rng(7), mode="cached")
        emp = empirical_distribution(bits)
        assert total_variation_distance(emp, sv.probabilities()) < 0.03

    def test_naive_matches_exact_distribution(self):
        mps, sv = _prepared_mps()
        bits = mps.sample(2000, range(5), make_rng(8), mode="naive")
        emp = empirical_distribution(bits)
        assert total_variation_distance(emp, sv.probabilities()) < 0.08

    def test_cached_and_naive_agree(self):
        mps, _ = _prepared_mps(seed=3)
        cached = mps.sample(8000, range(5), make_rng(9), mode="cached")
        naive = mps.sample(2000, range(5), make_rng(10), mode="naive")
        tvd = total_variation_distance(
            empirical_distribution(cached), empirical_distribution(naive)
        )
        assert tvd < 0.1

    def test_deterministic_state(self):
        mps = MPSBackend(4)
        from repro.circuits.gates import X

        mps.apply_gate(X, [2])
        bits = mps.sample(100, range(4), make_rng(11))
        assert np.all(bits == [0, 0, 1, 0])

    def test_qubit_subset_and_order(self):
        mps = MPSBackend(3)
        from repro.circuits.gates import X

        mps.apply_gate(X, [0])
        bits = mps.sample(10, [2, 0], make_rng(12))
        assert np.all(bits[:, 0] == 0) and np.all(bits[:, 1] == 1)

    def test_unknown_mode_rejected(self):
        mps = MPSBackend(2)
        with pytest.raises(Exception):
            mps.sample(1, [0], make_rng(0), mode="wat")

    def test_ghz_correlations_via_cached_sampler(self):
        circ = library.ghz(8)
        mps = MPSBackend(8, max_bond=4)
        for op in circ.coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        bits = mps.sample(500, range(8), make_rng(13))
        # Every shot is all-zeros or all-ones.
        assert np.all((bits.sum(axis=1) == 0) | (bits.sum(axis=1) == 8))


class TestPerformanceCharacter:
    def test_cached_amortizes_contraction(self):
        """Cached batch sampling must beat naive per-shot re-contraction.

        This is the structural claim behind Fig. 5's 16x; at laptop scale
        with a modest chi the gap is already pronounced.
        """
        import time

        circ = library.random_brickwork(12, 4, rng=make_rng(14))
        mps = MPSBackend(12, max_bond=32)
        for op in circ.coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        shots = 300
        t0 = time.perf_counter()
        mps.sample(shots, range(12), make_rng(1), mode="cached")
        cached_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        mps.sample(shots, range(12), make_rng(2), mode="naive")
        naive_s = time.perf_counter() - t0
        assert naive_s > 2.0 * cached_s


# --------------------------------------------------------------------- #
# The prefix-collapsed stacked sweep, bit for bit against a frozen oracle
# --------------------------------------------------------------------- #
def reference_sample_cached(tensors, envs, num_shots, rng):
    """``sample_cached`` as it was before the stacked sweep: one MPS, one
    conditioned left vector per shot.  Frozen here as the oracle."""
    n = len(tensors)
    if num_shots == 0:
        return np.empty((0, n), dtype=np.uint8)
    bits = np.empty((num_shots, n), dtype=np.uint8)
    left = np.ones((num_shots, 1), dtype=np.complex128)
    uniforms = rng.random((num_shots, n))
    for k in range(n):
        a = tensors[k]
        v = np.einsum("ma,aib->mib", left, a, optimize=True)
        r = envs[k + 1]
        rv = np.einsum("mib,bc->mic", v, r, optimize=True)
        p = np.einsum("mic,mic->mi", rv, v.conj(), optimize=True).real
        np.clip(p, 0.0, None, out=p)
        total = p.sum(axis=1, keepdims=True)
        dead = total[:, 0] <= 0
        if np.any(dead):
            p[dead] = 0.5
            total[dead] = 1.0
        p0 = p[:, 0] / total[:, 0]
        choice = (uniforms[:, k] >= p0).astype(np.uint8)
        bits[:, k] = choice
        chosen_v = v[np.arange(num_shots), choice]
        chosen_p = p[np.arange(num_shots), choice]
        scale = np.sqrt(np.maximum(chosen_p, 1e-300))
        left = chosen_v / scale[:, None]
    return bits


def random_stack(rows, sites, bond, cuts=(), seed=0):
    """A ``(B, Dl, 2, Dr)`` stack of random site tensors (sampling is exact
    for any MPS, canonical or not) with bond 1 at ``cuts``, and its
    batched right environments."""
    rng = np.random.default_rng(seed)
    dims = [1] + [1 if k in cuts else bond for k in range(1, sites)] + [1]
    tensors = [
        rng.normal(size=(rows, dims[k], 2, dims[k + 1]))
        + 1j * rng.normal(size=(rows, dims[k], 2, dims[k + 1]))
        for k in range(sites)
    ]
    return tensors, mps_sampler.compute_right_environments_batched(tensors)


def assert_matches_oracle(tensors, envs, shape):
    """``shape`` is ``[(row, shots), ...]``; request ``i`` draws from its own
    Philox stream on both sides."""

    def stream(i):
        return np.random.Generator(np.random.Philox(key=1000 + i))

    requests = [(row, shots, stream(i)) for i, (row, shots) in enumerate(shape)]
    got = sample_cached(tensors, envs, sum(s for _, s in shape), requests)
    want = [
        reference_sample_cached(
            [a[row] for a in tensors], [r[row] for r in envs], shots, stream(i)
        )
        for i, (row, shots) in enumerate(shape)
    ]
    np.testing.assert_array_equal(got, np.concatenate(want))
    return got


CUTS = [(), (3, 4, 9)]


class TestStackedSweepBitwise:
    @pytest.mark.parametrize("cuts", CUTS)
    def test_ragged_requests_including_zero_and_one_shot(self, cuts):
        tensors, envs = random_stack(4, 12, 4, cuts)
        assert_matches_oracle(tensors, envs, [(0, 5), (1, 0), (2, 1), (3, 130), (1, 17)])

    @pytest.mark.parametrize("cuts", CUTS)
    def test_specs_sharing_one_row(self, cuts):
        tensors, envs = random_stack(3, 12, 4, cuts, seed=1)
        assert_matches_oracle(tensors, envs, [(0, 40), (0, 40), (2, 9), (0, 1), (2, 30)])

    @pytest.mark.parametrize("tile", [7, 1 << 20])
    @pytest.mark.parametrize("cuts", CUTS)
    def test_any_tile_size_gives_the_same_bits(self, cuts, tile, monkeypatch):
        # At 7 lanes: more rows than one tile holds, and a request that
        # spans many tiles continues its generator's stream across them.
        monkeypatch.setattr(mps_sampler, "_TILE_LANES", tile)
        tensors, envs = random_stack(9, 12, 4, cuts, seed=2)
        shape = [(row, 3) for row in range(9)] + [(4, 60), (8, 2)]
        assert_matches_oracle(tensors, envs, shape)

    def test_request_larger_than_the_default_tile(self):
        tensors, envs = random_stack(2, 6, 2, seed=3)
        shots = 2 * mps_sampler._TILE_LANES + 123
        assert_matches_oracle(tensors, envs, [(1, shots), (0, 10)])

    @pytest.mark.parametrize("cuts", CUTS)
    def test_zeroed_environment_falls_back_to_a_fair_coin(self, cuts):
        tensors, envs = random_stack(2, 12, 4, cuts, seed=4)
        envs[6][1] = 0.0  # row 1: site 5 sees total <= 0
        bits = assert_matches_oracle(tensors, envs, [(0, 50), (1, 400)])
        assert 0.35 < bits[50:, 5].mean() < 0.65

    def test_collapsed_prefixes_on_a_low_entropy_state(self):
        # GHZ: two distinct prefixes however many shots.
        mps = MPSBackend(10, max_bond=4)
        for op in library.ghz(10).coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        tensors = [a[None] for a in mps.tensors]
        envs = [r[None] for r in compute_right_environments(mps.tensors)]
        assert_matches_oracle(tensors, envs, [(0, 500), (0, 500)])

    def test_request_total_must_equal_num_shots(self):
        tensors, envs = random_stack(1, 3, 2)
        with pytest.raises(BackendError, match="num_shots=5"):
            sample_cached(tensors, envs, 5, [(0, 4, make_rng(0))])

    def test_backend_cached_and_naive_modes_unchanged_for_a_fixed_seed(self):
        mps, _ = _prepared_mps(seed=5)
        envs = compute_right_environments(mps.tensors)
        cols = [3, 0, 4]
        cached = mps.sample(300, cols, make_rng(21), mode="cached")
        want = reference_sample_cached(mps.tensors, envs, 300, make_rng(21))
        np.testing.assert_array_equal(cached, want[:, cols])
        naive = mps.sample(25, cols, make_rng(22), mode="naive")
        rng = make_rng(22)
        want = [reference_sample_cached(mps.tensors, envs, 1, rng)[0] for _ in range(25)]
        np.testing.assert_array_equal(naive, np.array(want)[:, cols])

    def test_sampling_memory_is_one_tile_not_the_shot_budget(self):
        import tracemalloc

        tensors, envs = random_stack(1, 40, 4, seed=6)
        shots = 200_000  # the uniforms alone would be 64 MB drawn at once
        tracemalloc.start()
        try:
            bits = sample_cached(tensors, envs, shots, [(0, shots, make_rng(23))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bits.shape == (shots, 40)
        assert peak - bits.nbytes < 8 * 2**20
