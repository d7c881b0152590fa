"""MPS sampling: cached environments, count splitting, distribution exactness.

This is the Fig. 5 mechanism test: one environment pass per prepared state,
then shot counts split down the prefix tree, must draw the exact
distribution, at a cost that follows distinct outcomes rather than shots.
"""

import numpy as np
import pytest

from repro.backends import mps_sampler
from repro.backends.mps import MPSBackend
from repro.backends.mps_sampler import (
    compute_right_environments,
    compute_right_environments_batched,
    sample_cached,
)
from repro.backends.statevector import StatevectorBackend
from repro.circuits import library
from repro.data.stats import (
    chi_square_statistic,
    empirical_distribution,
    total_variation_distance,
)
from repro.errors import BackendError
from repro.rng import make_rng
from repro.sweep.oracle import chi_square_critical_value


def _prepared_mps(num_qubits=5, depth=3, seed=0):
    circ = library.random_brickwork(num_qubits, depth, rng=make_rng(seed))
    mps = MPSBackend(num_qubits, max_bond=64)
    sv = StatevectorBackend(num_qubits)
    for op in circ.coherent_ops:
        mps.apply_gate(op.gate, op.qubits)
        sv.apply_gate(op.gate, op.qubits)
    return mps, sv


def one_row(mps):
    """An MPS backend's state as the one-row stack the sampler reads, and
    its batched right environments."""
    tensors = mps.stack.dense()
    return tensors, compute_right_environments_batched(tensors)


class TestEnvironments:
    def test_full_contraction_equals_norm(self):
        mps, _ = _prepared_mps()
        envs = compute_right_environments(mps.stack.row_tensors(0))
        assert envs[0][0, 0].real == pytest.approx(mps.norm_squared(), abs=1e-9)

    def test_environment_shapes(self):
        mps, _ = _prepared_mps()
        tensors = mps.stack.row_tensors(0)
        envs = compute_right_environments(tensors)
        for k, a in enumerate(tensors):
            assert envs[k].shape == (a.shape[0], a.shape[0])
        assert envs[len(tensors)].shape == (1, 1)


class TestDistributions:
    def test_cached_matches_exact_distribution(self):
        mps, sv = _prepared_mps()
        bits = mps.sample(40000, range(5), make_rng(7))
        emp = empirical_distribution(bits)
        assert total_variation_distance(emp, sv.probabilities()) < 0.03

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

    def test_ghz_correlations_via_cached_sampler(self):
        circ = library.ghz(8)
        mps = MPSBackend(8, max_bond=4)
        for op in circ.coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        bits = mps.sample(500, range(8), make_rng(13))
        # Every shot is all-zeros or all-ones.
        assert np.all((bits.sum(axis=1) == 0) | (bits.sum(axis=1) == 8))


# --------------------------------------------------------------------- #
# Count splitting: the distribution, and what a request's bits depend on
# --------------------------------------------------------------------- #
def reference_sample_cached(tensors, envs, num_shots, rng):
    """``sample_cached`` as it first was: one MPS, one conditioned left
    vector and one uniform per shot and site.  Frozen here as the
    distribution reference (it defines the dead-class fair coin too)."""
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


def stream(i):
    return np.random.Generator(np.random.Philox(key=1000 + i))


def sample_stacked(tensors, envs, shape, **kwargs):
    """``shape`` is ``[(row, shots), ...]``; request ``i`` draws from its own
    Philox stream.  Returns the requests' bit tables."""
    requests = [(row, shots, stream(i)) for i, (row, shots) in enumerate(shape)]
    bits = sample_cached(tensors, envs, sum(s for _, s in shape), requests, **kwargs)
    ends = np.cumsum([shots for _, shots in shape])
    return [bits[end - shots : end] for (_, shots), end in zip(shape, ends)]


def assert_same_as_alone(tensors, envs, shape):
    """Request ``i`` gets the bits it gets as the only request of a call."""
    tables = sample_stacked(tensors, envs, shape)
    for i, ((row, shots), table) in enumerate(zip(shape, tables)):
        alone = sample_cached(tensors, envs, shots, [(row, shots, stream(i))])
        np.testing.assert_array_equal(table, alone)
    return tables


def dense_probabilities(tensors, row):
    """Outcome probabilities of one row, site 0 the most significant bit."""
    acc = tensors[0][row]
    for a in tensors[1:]:
        acc = np.tensordot(acc, a[row], axes=([-1], [0]))
    p = np.abs(acc.reshape(-1)) ** 2
    return p / p.sum()


def assert_distributed_as(bits, probs, alpha=1e-4):
    counts = empirical_distribution(bits, len(probs)) * len(bits)
    stat, dof = chi_square_statistic(counts, probs)
    assert stat < chi_square_critical_value(dof, alpha), (stat, dof)


CUTS = [(), (3, 4, 9)]


class TestCountSplitting:
    @pytest.mark.parametrize("cuts", CUTS)
    def test_every_request_follows_its_rows_dense_distribution(self, cuts):
        # Ragged, two requests on row 1, one row unused.
        tensors, envs = random_stack(4, 10, 4, cuts)
        shape = [(0, 30_000), (1, 12_000), (3, 20_000), (1, 25_000)]
        for (row, _), table in zip(shape, sample_stacked(tensors, envs, shape)):
            probs = dense_probabilities(tensors, row)
            assert_distributed_as(table, probs)
            assert total_variation_distance(empirical_distribution(table), probs) < 0.1

    @pytest.mark.parametrize("cuts", CUTS)
    def test_agrees_with_the_one_vector_per_shot_reference(self, cuts):
        tensors, envs = random_stack(2, 8, 4, cuts, seed=7)
        (got,) = sample_stacked(tensors, envs, [(1, 40_000)])
        want = reference_sample_cached(
            [a[1] for a in tensors], [r[1] for r in envs], 40_000, stream(99)
        )
        tvd = total_variation_distance(empirical_distribution(got), empirical_distribution(want))
        assert tvd < 0.05

    @pytest.mark.parametrize("cuts", CUTS)
    def test_ragged_requests_including_zero_and_one_shot(self, cuts):
        tensors, envs = random_stack(4, 12, 4, cuts)
        shape = [(0, 5), (1, 0), (2, 1), (3, 130), (1, 17)]
        tables = assert_same_as_alone(tensors, envs, shape)
        assert [t.shape for t in tables] == [(shots, 12) for _, shots in shape]
        assert all(t.dtype == np.uint8 and t.max(initial=0) <= 1 for t in tables)

    @pytest.mark.parametrize("cuts", CUTS)
    def test_specs_sharing_one_row(self, cuts):
        tensors, envs = random_stack(3, 12, 4, cuts, seed=1)
        tables = assert_same_as_alone(tensors, envs, [(0, 40), (0, 40), (2, 9), (0, 1), (2, 30)])
        # Same row, same count, different generators: different shots.
        assert not np.array_equal(tables[0], tables[1])

    @pytest.mark.parametrize("tile", [64, 1 << 20])
    @pytest.mark.parametrize("cuts", CUTS)
    def test_any_tile_budget_gives_the_same_bits(self, cuts, tile, monkeypatch):
        # At 64 cells the eleven requests take several passes; no request
        # is larger than the small budget, so none is cut under either.
        tensors, envs = random_stack(9, 12, 4, cuts, seed=2)
        shape = [(row, 3) for row in range(9)] + [(4, 60), (8, 2)]
        want = sample_stacked(tensors, envs, shape)
        monkeypatch.setattr(mps_sampler, "_TILE_CELLS", tile)
        passes = len(list(mps_sampler._tiles([(r, s, None) for r, s in shape], tensors)))
        assert passes > 1 if tile == 64 else passes == 1
        for got, table in zip(assert_same_as_alone(tensors, envs, shape), want):
            np.testing.assert_array_equal(got, table)

    def test_request_larger_than_one_tile(self, monkeypatch):
        # 2**10 prefixes do not fit 256 cells: the big request is cut into
        # 256-shot pieces by a rule of its own, whatever it is sampled beside.
        monkeypatch.setattr(mps_sampler, "_TILE_CELLS", 256)
        tensors, envs = random_stack(2, 10, 4, seed=3)
        tables = assert_same_as_alone(tensors, envs, [(0, 10), (1, 30_000), (0, 300)])
        assert_distributed_as(tables[1], dense_probabilities(tensors, 1))

    def test_request_larger_than_the_default_tile(self):
        tensors, envs = random_stack(2, 14, 2, seed=3)
        shots = 2 * mps_sampler._TILE_CELLS + 123
        tables = assert_same_as_alone(tensors, envs, [(1, shots), (0, 10)])
        marginal = dense_probabilities(tensors, 1).reshape(64, -1).sum(axis=1)
        assert_distributed_as(tables[0][:, :6], marginal)

    @pytest.mark.parametrize("cuts", CUTS)
    def test_zeroed_environment_falls_back_to_a_fair_coin(self, cuts):
        tensors, envs = random_stack(2, 12, 4, cuts, seed=4)
        envs[6][1] = 0.0  # row 1: site 5 sees total <= 0
        tables = assert_same_as_alone(tensors, envs, [(0, 50), (1, 4000)])
        assert 0.46 < tables[1][:, 5].mean() < 0.54
        want = reference_sample_cached(
            [a[1] for a in tensors], [r[1] for r in envs], 4000, stream(99)
        )
        tvd = total_variation_distance(
            empirical_distribution(tables[1][:, :7]), empirical_distribution(want[:, :7])
        )
        assert tvd < 0.1

    def test_low_entropy_state_has_two_outcomes(self):
        # GHZ: two distinct prefixes however many shots.
        mps = MPSBackend(10, max_bond=4)
        for op in library.ghz(10).coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        tensors, envs = one_row(mps)
        for table in assert_same_as_alone(tensors, envs, [(0, 500), (0, 501)]):
            weight = table.sum(axis=1)
            assert set(weight.tolist()) == {0, 10}
            assert abs(np.count_nonzero(weight) - 250) < 60

    def test_shots_of_one_request_are_exchangeable(self):
        # Classes are expanded under a shuffle: neither half of a request
        # is sorted by outcome, and both follow the distribution.
        tensors, envs = random_stack(1, 8, 4, seed=8)
        (table,) = sample_stacked(tensors, envs, [(0, 40_000)])
        probs = dense_probabilities(tensors, 0)
        first, second = table[:20_000], table[20_000:]
        assert_distributed_as(first, probs)
        assert_distributed_as(second, probs)
        assert_distributed_as(table[::2], probs)

    def test_blocks_across_a_product_cut_are_independently_paired(self):
        # Sites 0-3 | 4-7: the joint distribution is the product of the
        # blocks' marginals, which a shared expansion order would break.
        tensors, envs = random_stack(1, 8, 4, cuts=(4,), seed=9)
        (table,) = sample_stacked(tensors, envs, [(0, 40_000)])
        probs = dense_probabilities(tensors, 0)
        assert_distributed_as(table, probs)
        left = empirical_distribution(table[:, :4])
        right = empirical_distribution(table[:, 4:])
        joint = empirical_distribution(table)
        assert total_variation_distance(joint, np.outer(left, right).ravel()) < 0.04

    def test_columns_selects_and_orders_sites(self):
        tensors, envs = random_stack(2, 9, 4, cuts=(3,), seed=10)
        shape = [(0, 70), (1, 33)]
        cols = [5, 0, 8, 3]
        for full, picked in zip(
            sample_stacked(tensors, envs, shape), sample_stacked(tensors, envs, shape, columns=cols)
        ):
            np.testing.assert_array_equal(picked, full[:, cols])
            assert picked.flags.c_contiguous

    def test_request_total_must_equal_num_shots(self):
        tensors, envs = random_stack(1, 3, 2)
        with pytest.raises(BackendError, match="num_shots=5"):
            sample_cached(tensors, envs, 5, [(0, 4, make_rng(0))])

    def test_backend_sample_is_one_request_for_a_fixed_seed(self):
        mps, _ = _prepared_mps(seed=5)
        tensors, envs = one_row(mps)
        cols = [3, 0, 4]
        got = mps.sample(300, cols, make_rng(21))
        want = sample_cached(tensors, envs, 300, [(0, 300, make_rng(21))])
        np.testing.assert_array_equal(got, want[:, [mps.site_of[q] for q in cols]])

    def test_sampling_memory_is_one_tile_not_the_shot_budget(self):
        import tracemalloc

        tensors, envs = random_stack(1, 40, 4, seed=6)
        shots = 200_000  # all distinct: 200 000 classes if taken in one pass
        tracemalloc.start()
        try:
            bits = sample_cached(tensors, envs, shots, [(0, shots, make_rng(23))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bits.shape == (shots, 40)
        assert peak - bits.nbytes < 8 * 2**20

    def test_cost_follows_distinct_outcomes_not_shots(self):
        """100x the shots of an eight-outcome state (one Steane block)
        costs a few times the wall, not 100x: only the expansion is per
        shot."""
        import time

        from repro.qec import css_encoding_circuit, steane_code

        mps = MPSBackend(7, max_bond=8)
        for op in css_encoding_circuit(steane_code())[0].coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        tensors, envs = one_row(mps)
        bits = sample_cached(tensors, envs, 2000, [(0, 2000, make_rng(0))])
        assert len(np.unique(bits, axis=0)) == 8

        def best(shots):
            walls = []
            for rep in range(5):
                t0 = time.perf_counter()
                sample_cached(tensors, envs, shots, [(0, shots, make_rng(rep))])
                walls.append(time.perf_counter() - t0)
            return min(walls)

        assert best(100_000) < 20 * best(1_000)


# --------------------------------------------------------------------- #
# Product blocks side by side: the lanes of one descent
# --------------------------------------------------------------------- #
def assert_blocks_independently_paired(table, first, second, bound):
    """The joint of two blocks' bits is the outer product of their
    marginals, which a shared expansion order (or a shared draw) breaks."""
    a = empirical_distribution(table[:, first])
    b = empirical_distribution(table[:, second])
    joint = empirical_distribution(table[:, list(first) + list(second)])
    assert total_variation_distance(joint, np.outer(a, b).ravel()) < bound


class TestProductBlockLanes:
    def test_groups_are_equal_signature_blocks_in_order_of_appearance(self):
        assert mps_sampler._groups(random_stack(1, 12, 4, (3, 4, 9))[0]) == [
            ([0, 9], 3), ([3], 1), ([4], 5)
        ]
        assert mps_sampler._groups(random_stack(1, 9, 4, (3, 6))[0]) == [([0, 3, 6], 3)]
        assert mps_sampler._groups(random_stack(1, 10, 4)[0]) == [([0], 10)]
        # Same length, another bond: not the same descent.
        uneven, _ = random_stack(1, 6, 4, (3,))
        uneven[4] = uneven[4][:, :, :, :2]
        uneven[5] = uneven[5][:, :2]
        assert mps_sampler._groups(uneven) == [([0], 3), ([3], 3)]

    def test_three_equal_blocks_follow_the_dense_distribution_pair_by_pair(self):
        # One group of three lanes per request; two requests share row 1.
        tensors, envs = random_stack(3, 9, 4, cuts=(3, 6), seed=11)
        shape = [(0, 40_000), (1, 25_000), (2, 30_000), (1, 12_000)]
        blocks = [range(0, 3), range(3, 6), range(6, 9)]
        for (row, shots), table in zip(shape, assert_same_as_alone(tensors, envs, shape)):
            assert_distributed_as(table, dense_probabilities(tensors, row))
            for i, first in enumerate(blocks):
                for second in blocks[i + 1 :]:
                    # 64 joint cells of independent draws: the TVD between the
                    # joint and the product of its marginals has mean about
                    # sqrt(64 / (2 pi shots)) <= 0.03 at 12 000 shots; blocks
                    # expanded in one order read > 0.5.
                    assert_blocks_independently_paired(table, first, second, 0.06)

    def test_mixed_signatures_alone_is_beside_others(self):
        # (3, 4, 9): a group of two blocks that are not neighbours and two
        # groups of one, rows differing, ragged shots including 0 and 1.
        tensors, envs = random_stack(5, 12, 4, (3, 4, 9), seed=12)
        shape = [(4, 1), (0, 700), (2, 0), (1, 33), (3, 1), (0, 2), (4, 250)]
        tables = assert_same_as_alone(tensors, envs, shape)
        assert [len(t) for t in tables] == [shots for _, shots in shape]
        assert_blocks_independently_paired(tables[1], range(0, 3), range(9, 12), 0.15)

    @pytest.mark.parametrize(
        "sites, cuts, binomials, shuffles",
        [(12, (3, 6, 9), 3, 4), (14, (7,), 7, 2), (9, (), 9, 1), (12, (3, 4, 9), 3 + 1 + 5, 4)],
    )
    def test_a_request_draws_once_per_level_and_shuffles_once_per_block(
        self, sites, cuts, binomials, shuffles, counted_generator
    ):
        tensors, envs = random_stack(2, sites, 4, cuts, seed=13)
        calls = {}
        requests = [(1, 300, counted_generator(stream(0), calls))]
        bits = sample_cached(tensors, envs, 300, requests)
        assert calls == {"binomial": binomials, "shuffle": shuffles}
        np.testing.assert_array_equal(bits, sample_cached(tensors, envs, 300, [(1, 300, stream(0))]))
        # Beside others it draws the same number of times; a request for
        # no shots draws nothing at all.
        calls.clear()
        idle = {}
        requests = [
            (0, 40, stream(1)),
            (1, 300, counted_generator(stream(0), calls)),
            (0, 0, counted_generator(stream(2), idle)),
        ]
        sample_cached(tensors, envs, 340, requests)
        assert calls == {"binomial": binomials, "shuffle": shuffles} and idle == {}

    def test_request_larger_than_one_tile_on_a_multi_block_chain(self, monkeypatch):
        # Three lanes of 2**4 prefixes fit 256 cells, the 2**9 of the long
        # block do not: every request is cut into 256-shot pieces by that
        # block alone, whatever it is sampled beside.
        monkeypatch.setattr(mps_sampler, "_TILE_CELLS", 256)
        tensors, envs = random_stack(2, 21, 4, cuts=(4, 8, 12), seed=14)
        shape = [(0, 10), (1, 20_000), (0, 300)]
        pieces = list(mps_sampler._tiles([(r, s, None) for r, s in shape], tensors))
        assert [shots for tile in pieces for _, shots, _ in tile] == (
            [10] + [256] * 78 + [32] + [256, 44]
        )
        big = assert_same_as_alone(tensors, envs, shape)[1]
        assert_distributed_as(big[:, :8], dense_probabilities(tensors[:8], 1))
        assert_blocks_independently_paired(big, range(0, 4), range(4, 8), 0.1)
        # Many lanes of few prefixes: cut by lanes, not by shots.
        monkeypatch.setattr(mps_sampler, "_TILE_CELLS", 16)
        wide, wide_envs = random_stack(1, 12, 2, cuts=tuple(range(1, 12)), seed=15)
        pieces = list(mps_sampler._tiles([(0, 5, None)], wide))
        assert [[shots for _, shots, _ in tile] for tile in pieces] == [[1]] * 5
        assert_same_as_alone(wide, wide_envs, [(0, 5), (0, 3)])


class TestArgumentChecks:
    """Out-of-range sampling arguments are a typed error, in the dense
    backends' wording, before anything is drawn."""

    @pytest.mark.parametrize("columns, qubit", [([-1], -1), ([0, 9], 9), ([2, 3, 1], 3)])
    def test_column_outside_the_chain(self, columns, qubit):
        tensors, envs = random_stack(2, 3, 2)
        with pytest.raises(BackendError, match=f"qubit {qubit} is outside a 3-qubit register"):
            sample_cached(tensors, envs, 4, [(0, 4, make_rng(0))], columns=columns)
        tensors, envs = one_row(_prepared_mps(num_qubits=3)[0])
        with pytest.raises(BackendError, match=f"qubit {qubit} is outside a 3-qubit register"):
            sample_cached(tensors, envs, 4, [(0, 4, make_rng(0))], columns=columns)

    @pytest.mark.parametrize("row, rows", [(-1, 2), (5, 1), (2, 2)])
    def test_row_outside_the_stack(self, row, rows):
        tensors, envs = random_stack(rows, 3, 2)
        with pytest.raises(BackendError, match=f"row {row} is outside a {rows}-row stack"):
            sample_cached(tensors, envs, 7, [(0, 3, make_rng(0)), (row, 4, make_rng(1))])

    def test_negative_count(self):
        tensors, envs = random_stack(2, 3, 2)
        with pytest.raises(BackendError, match="num_shots must be >= 0"):
            sample_cached(tensors, envs, 2, [(0, 5, make_rng(0)), (1, -3, make_rng(1))])
        tensors, envs = one_row(_prepared_mps(num_qubits=3)[0])
        with pytest.raises(BackendError, match="num_shots must be >= 0"):
            sample_cached(tensors, envs, -1, [(0, -1, make_rng(0))])

    @pytest.mark.parametrize("qubit", [-1, 7])
    def test_backend_rejects_what_the_dense_backends_reject(self, qubit):
        message = f"qubit {qubit} is outside a 4-qubit register"
        with pytest.raises(BackendError, match=message):
            StatevectorBackend(4).sample(3, [qubit], make_rng(0))
        with pytest.raises(BackendError, match=message):
            MPSBackend(4).sample(3, [0, qubit], make_rng(0))
        with pytest.raises(BackendError, match="num_shots must be >= 0"):
            MPSBackend(4).sample(-1, [0], make_rng(0))

    def test_backend_samples_only_the_qubits_asked_for(self):
        mps, _ = _prepared_mps(seed=5)
        bits = mps.sample(50, [4, 1], make_rng(3))
        assert bits.shape == (50, 2) and bits.flags.c_contiguous
        np.testing.assert_array_equal(bits, mps.sample(50, range(5), make_rng(3))[:, [4, 1]])
