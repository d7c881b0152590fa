"""The shared shot-sampling kernels: inverse-CDF lookups and bit unpack.

Each function replaced a slower formula with an exact equivalent, so the
old formulas live on here as oracles: ``cum.searchsorted(r, side="right")``
(row by row, for the stacked search) and the shift-and-mask bit
extraction.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Circuit
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend
from repro.errors import BackendError
from repro.linalg import sampling
from repro.linalg.sampling import (
    bits_from_indices,
    guide_table,
    inverse_cdf_indices,
    stacked_inverse_cdf_indices,
)
from repro.rng import make_rng


def cumulative(state: np.ndarray) -> np.ndarray:
    """The dense backends' cumulative vector for ``state`` (tail clamped)."""
    probs = np.abs(state) ** 2
    cum = np.cumsum((probs / probs.sum()).astype(np.float64, copy=False))
    cum[-1] = 1.0
    return cum


def porter_thomas(num_qubits: int, rng: np.random.Generator, dtype=np.complex128):
    dim = 2**num_qubits
    return (rng.normal(size=dim) + 1j * rng.normal(size=dim)).astype(dtype)


def shot_counts(dim: int):
    """Shot counts on both sides of (and exactly at) the guide rule."""
    floor = sampling._GUIDE_MIN_SHOTS
    counts = {1, 7, floor - 1, floor, 3 * floor}
    if dim // 4 > floor:
        counts |= {dim // 4 - 1, dim // 4}
    return sorted(counts)


def assert_is_searchsorted(cum: np.ndarray, r: np.ndarray) -> None:
    got = inverse_cdf_indices(cum, r)
    np.testing.assert_array_equal(got, cum.searchsorted(r, side="right"))


class TestInverseCdfIndices:
    @settings(max_examples=40, deadline=None)
    @given(
        num_qubits=st.integers(1, 13),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.complex128, np.complex64]),
    )
    def test_porter_thomas_states(self, num_qubits, seed, dtype):
        rng = np.random.default_rng(seed)
        cum = cumulative(porter_thomas(num_qubits, rng, dtype))
        for m in shot_counts(cum.shape[0]):
            assert_is_searchsorted(cum, rng.random(m))

    @settings(max_examples=20, deadline=None)
    @given(
        num_qubits=st.integers(8, 13),
        heavy=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_heavy_entry_among_thousands_of_tiny_ones(
        self, num_qubits, heavy, seed
    ):
        """Thousands of entries share one cell: the bounded fallback runs."""
        rng = np.random.default_rng(seed)
        dim = 2**num_qubits
        probs = rng.random(dim) * 1e-9 / dim
        probs[int(heavy * (dim - 1))] = 1.0
        cum = cumulative(np.sqrt(probs))
        # Uniforms inside the tiny mass on either side of the heavy entry
        # need far more than _GUIDE_MAX_STEPS linear steps.
        r = np.concatenate(
            [rng.random(4096), rng.random(512) * 1e-10, 1.0 - rng.random(512) * 1e-10]
        )
        r = r[r < 1.0]
        assert sampling._use_guide(r.shape[0], dim)
        assert_is_searchsorted(cum, r)

    def test_the_fallback_is_the_binary_search_on_the_unresolved_lanes(
        self, monkeypatch
    ):
        """With no linear steps allowed, every unresolved lane falls back."""
        rng = np.random.default_rng(5)
        cum = cumulative(porter_thomas(10, rng))
        r = rng.random(4096)
        expected = cum.searchsorted(r, side="right")
        monkeypatch.setattr(sampling, "_GUIDE_MAX_STEPS", 0)
        np.testing.assert_array_equal(inverse_cdf_indices(cum, r), expected)

    @pytest.mark.parametrize("num_qubits", [1, 2, 5, 12])
    def test_flat_runs_from_zero_probability_states(self, num_qubits):
        """GHZ: every basis state but the first and last has probability 0."""
        state = np.zeros(2**num_qubits)
        state[0] = state[-1] = np.sqrt(0.5)
        cum = cumulative(state)
        rng = np.random.default_rng(num_qubits)
        for m in shot_counts(cum.shape[0]):
            r = rng.random(m)
            r[::3] = 0.5  # exactly on the flat run's value
            assert_is_searchsorted(cum, r)

    def test_cumulative_sum_overshooting_one_before_the_tail_clamp(self):
        rng = np.random.default_rng(3)
        cum = cumulative(porter_thomas(9, rng))
        cum[-4:-1] = np.nextafter(1.0, 2.0)
        r = np.concatenate([rng.random(4096), [np.nextafter(1.0, 0.0)] * 8])
        assert_is_searchsorted(cum, r)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(16, 3000), seed=st.integers(0, 2**32 - 1))
    def test_dimension_that_is_not_a_power_of_two(self, dim, seed):
        """A noise site's branch count: the cell count still is, so the
        cell boundaries stay exact for uniforms one ulp off an entry."""
        rng = np.random.default_rng(seed)
        cum = cumulative(np.sqrt(rng.exponential(size=dim)))
        r = np.concatenate(
            [rng.random(4096), cum[:-1], np.nextafter(cum, 0.0), np.nextafter(cum[:-1], 1.0)]
        )
        assert sampling._use_guide(r.shape[0], dim)
        assert_is_searchsorted(cum, r)

    def test_cell_count_is_a_power_of_two_whatever_the_dimension(self):
        """With 2 * 17 = 34 cells, two neighbouring doubles near 1/34 both
        scale to exactly 1.0: an entry at the upper one would be counted
        into the cell of a uniform at the lower one and start past it."""
        lower = np.float64(1.0) / 34
        upper = np.nextafter(lower, 1.0)
        assert lower * 34 == upper * 34 == 1.0
        cum = np.concatenate([[upper], np.linspace(0.1, 1.0, 16)])
        r = np.full(4096, lower)
        assert sampling._use_guide(r.shape[0], cum.shape[0])
        assert inverse_cdf_indices(cum, r).tolist() == [0] * 4096

    def test_uniforms_equal_to_cumulative_entries_and_zero(self):
        rng = np.random.default_rng(4)
        cum = cumulative(porter_thomas(8, rng))
        # side="right": a uniform equal to cum[i] belongs to outcome i + 1.
        r = np.concatenate([cum[:-1], [0.0], rng.random(4096)])
        rng.shuffle(r)
        assert_is_searchsorted(cum, r)
        # A leading zero-probability outcome is never drawn, even by r = 0.
        cum0 = cumulative(np.array([0.0, 0.0, 1.0, 1.0] + [0.0] * 12))
        assert inverse_cdf_indices(cum0, np.zeros(4096)).tolist() == [2] * 4096

    @pytest.mark.parametrize("force_guide", [False, True])
    def test_dimension_two(self, monkeypatch, force_guide):
        """Below the rule's smallest dimension; the guide is exact there too."""
        if force_guide:
            monkeypatch.setattr(sampling, "_use_guide", lambda m, dim: True)
        rng = np.random.default_rng(6)
        for p0 in (0.0, 0.25, 0.5, 1.0):
            cum = np.array([p0, 1.0])
            for m in (1, 5000):
                assert_is_searchsorted(cum, rng.random(m))

    def test_rule_is_a_fixed_function_of_shots_and_dimension(self):
        floor = sampling._GUIDE_MIN_SHOTS
        assert not sampling._use_guide(floor - 1, 16)
        assert sampling._use_guide(floor, 16)
        assert not sampling._use_guide(200_000, 8)  # a three-level search
        assert sampling._use_guide(floor, 4 * floor)
        assert not sampling._use_guide(floor, 4 * floor + 1)
        assert sampling._use_guide(2**14, 2**16)
        assert not sampling._use_guide(2**14 - 1, 2**16)

    def test_guide_is_built_only_when_the_rule_says_so(self, monkeypatch):
        built = []
        real = sampling._guide_table

        def spy(cum):
            built.append(cum.shape[0])
            return real(cum)

        monkeypatch.setattr(sampling, "_guide_table", spy)
        rng = np.random.default_rng(8)
        cum = cumulative(porter_thomas(12, rng))
        inverse_cdf_indices(cum, rng.random(256))
        assert built == []
        inverse_cdf_indices(cum, rng.random(4096))
        assert built == [cum.shape[0]]


def peaked(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """One heavy amplitude among thousands of near-zero ones."""
    dim = 2**num_qubits
    probs = rng.random(dim) * 1e-9 / dim
    probs[rng.integers(dim)] = 1.0
    return np.sqrt(probs)


class TestPrebuiltGuide:
    """A guide built ahead of the draw (``guide_table``) gives the draw
    built on the fly, which is ``searchsorted``'s."""

    @settings(max_examples=30, deadline=None)
    @given(
        num_qubits=st.integers(4, 14),
        kind=st.sampled_from(["porter-thomas", "peaked"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_prebuilt_guide_path_is_searchsorted(self, num_qubits, kind, seed):
        rng = np.random.default_rng(seed)
        state = porter_thomas(num_qubits, rng) if kind == "porter-thomas" else peaked(num_qubits, rng)
        cum = cumulative(state)
        for m in shot_counts(cum.shape[0]):
            r = rng.random(m)
            guide = guide_table(cum, m)
            assert (guide is None) is not sampling._use_guide(m, cum.shape[0])
            expected = cum.searchsorted(r, side="right")
            np.testing.assert_array_equal(inverse_cdf_indices(cum, r, guide), expected)
            out = np.full(m, -1, dtype=np.int64)
            assert inverse_cdf_indices(cum, r, guide, out) is out
            np.testing.assert_array_equal(out, expected)

    def test_a_200000_shot_serial_draw_builds_no_guide(self, monkeypatch):
        """The serial engine builds each unit's guide in ``prepare`` (on the
        look-ahead's helper when it runs): its draws build none."""
        from repro.channels import NoiseModel, depolarizing
        from repro.execution import BatchedExecutor, batched
        from repro.pts import ProbabilisticPTS

        built = {"prepare": 0, "sample": 0}
        drawing = set()  # the threads inside a draw (the look-ahead prepares beside one)
        real, sample = sampling._guide_table, batched._SerialEngine.sample

        def counting(cum):
            built["sample" if threading.get_ident() in drawing else "prepare"] += 1
            return real(cum)

        def sampling_unit(self, requests):
            drawing.add(threading.get_ident())
            try:
                return sample(self, requests)
            finally:
                drawing.discard(threading.get_ident())

        monkeypatch.setattr(sampling, "_guide_table", counting)
        monkeypatch.setattr(batched._SerialEngine, "sample", sampling_unit)
        circuit = Circuit(10)
        for q in range(10):
            circuit.h(q)
        for q in range(9):
            circuit.cx(q, q + 1)
        model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
        circuit = model.apply(circuit.measure_all()).freeze()
        specs = ProbabilisticPTS(nsamples=6, nshots=200_000).sample(circuit, make_rng(1)).specs
        result = BatchedExecutor().execute(circuit, specs, seed=1)
        assert sampling._use_guide(200_000, 2**10)
        assert built == {"prepare": result.unique_preparations, "sample": 0}


def unit_table(num_qubits: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """A ``(rows, 2**n)`` stack of the backends' cumulative rows: Porter-Thomas
    rows, with a GHZ row (one plateau across the middle) and a row whose
    every other outcome has probability 0 when there is room."""
    table = np.stack([cumulative(porter_thomas(num_qubits, rng)) for _ in range(rows)])
    dim = 2**num_qubits
    if rows > 1:
        ghz = np.zeros(dim)
        ghz[0] = ghz[-1] = np.sqrt(0.5)
        table[1] = cumulative(ghz)
    if rows > 2:
        gapped = porter_thomas(num_qubits, rng)
        gapped[::2] = 0
        table[2] = cumulative(gapped)
    return table


def uneven_unit(table: np.ndarray, rng: np.random.Generator, most: int = 300):
    """Per-uniform table rows and uniforms for a unit whose requests draw
    0 to ``most`` shots each, one request per row, rows interleaved."""
    counts = rng.integers(0, most, size=table.shape[0])
    counts[rng.integers(table.shape[0])] = most  # never an empty unit
    rows = rng.permutation(np.repeat(np.arange(table.shape[0]), counts))
    return rows, rng.random(rows.shape[0])


def assert_is_rowwise_searchsorted(cum: np.ndarray, rows: np.ndarray, r: np.ndarray) -> None:
    got = stacked_inverse_cdf_indices(cum, rows, r)
    expected = np.empty(r.shape[0], dtype=np.intp)
    for row in range(cum.shape[0]):
        mine = rows == row
        expected[mine] = cum[row].searchsorted(r[mine], side="right")
    np.testing.assert_array_equal(got, expected)


class TestStackedInverseCdfIndices:
    """One branchless search over a unit's table is ``searchsorted`` on
    each uniform's own row, bit for bit."""

    @pytest.mark.parametrize("num_qubits", range(1, 13))
    def test_every_width_and_unit_size(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for rows in (1, 2, 3, 7, 64):
            table = unit_table(num_qubits, rows, rng)
            assert_is_rowwise_searchsorted(table, *uneven_unit(table, rng))

    @settings(max_examples=40, deadline=None)
    @given(
        num_qubits=st.integers(1, 12),
        rows=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.complex128, np.complex64]),
    )
    def test_porter_thomas_units(self, num_qubits, rows, seed, dtype):
        rng = np.random.default_rng(seed)
        table = np.stack(
            [cumulative(porter_thomas(num_qubits, rng, dtype)) for _ in range(rows)]
        )
        assert_is_rowwise_searchsorted(table, *uneven_unit(table, rng))

    @pytest.mark.parametrize("num_qubits", [1, 4, 12])
    def test_uniforms_equal_to_table_entries_and_zero(self, num_qubits):
        """side="right": a uniform equal to ``cum[i]`` belongs to outcome ``i + 1``."""
        rng = np.random.default_rng(40 + num_qubits)
        table = unit_table(num_qubits, 9, rng)
        rows, r = uneven_unit(table, rng)
        columns = rng.integers(0, table.shape[1] - 1, size=r.shape[0])
        on_entry = rng.random(r.shape[0]) < 0.5
        r[on_entry] = table[rows[on_entry], columns[on_entry]]
        r[::7] = 0.0
        assert (r < 1.0).all()
        assert_is_rowwise_searchsorted(table, rows, r)
        # A leading zero-probability outcome is never drawn, even by r = 0.
        flat = cumulative(np.array([0.0, 0.0, 1.0, 1.0] + [0.0] * 12))
        zeros = stacked_inverse_cdf_indices(flat[None, :], np.zeros(50, dtype=np.intp), np.zeros(50))
        assert zeros.tolist() == [2] * 50

    @pytest.mark.parametrize("num_qubits", [1, 2, 5, 12])
    def test_zero_probability_plateaus(self, num_qubits):
        """Uniforms exactly on a plateau's value land past its last entry."""
        rng = np.random.default_rng(50 + num_qubits)
        table = unit_table(num_qubits, 5, rng)
        rows, r = uneven_unit(table, rng)
        on_plateau = rows == min(1, table.shape[0] - 1)
        r[on_plateau & (rng.random(r.shape[0]) < 0.5)] = 0.5  # the GHZ row's plateau
        assert_is_rowwise_searchsorted(table, rows, r)

    def test_a_row_whose_cumsum_overshoots_one_before_the_clamp(self):
        rng = np.random.default_rng(3)
        table = unit_table(9, 6, rng)
        table[4, -4:-1] = np.nextafter(1.0, 2.0)
        rows, r = uneven_unit(table, rng)
        rows = np.concatenate([rows, [4] * 8, [0] * 8])
        r = np.concatenate([r, [np.nextafter(1.0, 0.0)] * 16])
        assert_is_rowwise_searchsorted(table, rows, r)

    def test_an_empty_unit(self):
        table = unit_table(3, 2, np.random.default_rng(0))
        got = stacked_inverse_cdf_indices(table, np.empty(0, dtype=np.intp), np.empty(0))
        assert got.shape == (0,)

    @pytest.mark.parametrize("dim", [1, 3, 12])
    def test_a_width_that_is_not_a_power_of_two_is_refused(self, dim):
        with pytest.raises(BackendError, match="2\\*\\*n columns"):
            stacked_inverse_cdf_indices(np.ones((2, dim)), np.zeros(1, dtype=np.intp), np.zeros(1))


def shift_and_mask(indices, qubits, num_qubits):
    """The formula ``bits_from_indices`` used before the byte-wise unpack."""
    indices = np.asarray(indices, dtype=np.uint64)
    shifts = np.array([num_qubits - 1 - q for q in qubits], dtype=np.uint64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


class TestBitsFromIndices:
    @pytest.mark.parametrize("num_qubits", range(1, 65))
    def test_matches_shift_and_mask_at_every_width(self, num_qubits):
        """Every word size the indices are narrowed to (1, 2, 4, 8 bytes),
        each padded and exactly filled."""
        rng = np.random.default_rng(num_qubits)
        indices = rng.integers(0, 2**num_qubits, size=300, dtype=np.uint64)
        everything = list(range(num_qubits))
        permuted = [int(q) for q in rng.permutation(num_qubits)]
        selections = [
            everything,
            permuted,
            permuted[: max(1, num_qubits // 2)],  # subset, arbitrary order
            everything[num_qubits // 3:],  # ascending run off qubit 0
            [permuted[0], permuted[0], permuted[-1], permuted[0]],  # duplicates
            [],
        ]
        for qubits in selections:
            got = bits_from_indices(indices, qubits, num_qubits)
            assert got.dtype == np.uint8
            assert got.flags["C_CONTIGUOUS"]
            assert got.shape == (300, len(qubits))
            np.testing.assert_array_equal(
                got, shift_and_mask(indices, qubits, num_qubits)
            )

    @pytest.mark.parametrize("num_qubits", [7, 16, 20, 33])
    def test_non_contiguous_unsorted_qubits(self, num_qubits):
        """A gather across byte boundaries, in neither order nor a run."""
        indices = np.random.default_rng(num_qubits).integers(0, 2**num_qubits, size=500)
        qubits = [num_qubits - 2, 0, num_qubits // 2, 2, num_qubits - 1]
        got = bits_from_indices(indices, qubits, num_qubits)
        assert got.flags["C_CONTIGUOUS"] and got.shape == (500, 5)
        np.testing.assert_array_equal(got, shift_and_mask(indices, qubits, num_qubits))

    @pytest.mark.parametrize("qubits", [[0, 1, 2, 3, 4], [4, 0], []])
    def test_empty_indices(self, qubits):
        got = bits_from_indices(np.empty(0, dtype=np.int64), qubits, 5)
        assert got.shape == (0, len(qubits)) and got.dtype == np.uint8

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.intp])
    def test_index_dtype_does_not_matter(self, dtype):
        indices = np.array([0, 1, 0b1011, 2**11 - 1], dtype=dtype)
        np.testing.assert_array_equal(
            bits_from_indices(indices, range(11), 11),
            shift_and_mask(indices, range(11), 11),
        )

    @pytest.mark.parametrize("bad", [-1, 3, 64])
    def test_out_of_range_qubit_is_a_typed_error(self, bad):
        with pytest.raises(BackendError, match=rf"qubit {bad} .* 3-qubit"):
            bits_from_indices(np.array([5]), [0, bad], 3)

    def test_importable_from_the_statevector_module(self):
        from repro.backends import statevector

        assert statevector.bits_from_indices is bits_from_indices


class TestCrossBackendBitwise:
    """One kernel behind every dense sampler: same seed, same shot table."""

    @pytest.mark.parametrize("num_shots", [300, 5000])  # below / above the rule
    def test_serial_stacked_and_density_matrix_agree(self, num_shots):
        assert sampling._use_guide(5000, 32) and not sampling._use_guide(300, 32)
        circuit = Circuit(5).h(0).cx(0, 1).t(1).h(2).cx(2, 3).ry(0.7, 4).cx(3, 4)
        circuit = circuit.measure_all().freeze()
        qubits = [4, 0, 2]

        serial = StatevectorBackend(5)
        serial.run_fixed(circuit)
        stacked = BatchedStatevectorBackend(5)
        stacked.run_fixed_stack(circuit, [{}])
        exact = DensityMatrixBackend(5).run(circuit)

        tables = [
            serial.sample(num_shots, qubits, make_rng(21)),
            stacked.sample([(0, num_shots, make_rng(21))], qubits),
            exact.sample(num_shots, qubits, make_rng(21)),
        ]
        assert tables[0].shape == (num_shots, 3)
        np.testing.assert_array_equal(tables[0], tables[1])
        np.testing.assert_array_equal(tables[0], tables[2])


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del out
    return peak


class TestMemory:
    def test_bit_unpack_peaks_near_its_output(self):
        """The shift-and-mask formula peaked at ~24x its output bytes and an
        unpack of ``>u8`` words at ~1.5x; the 16-bit words it unpacks now
        add 2 bytes per shot to the 16 of the output (1.125x)."""
        indices = np.random.default_rng(0).integers(0, 2**16, size=200_000)
        qubits = list(range(16))
        output_bytes = 200_000 * 16
        peak = traced_peak(lambda: bits_from_indices(indices, qubits, 16))
        assert peak <= 1.15 * output_bytes, peak / output_bytes

    def test_guide_table_is_int32_and_peaks_at_three_cumulative_vectors(self):
        """An int64 guide at the 26-qubit dense cap would be 1 GiB by itself."""
        cum = cumulative(porter_thomas(18, np.random.default_rng(0)))
        guide = sampling._guide_table(cum)
        assert guide.dtype == np.int32 and guide.nbytes == cum.nbytes
        del guide
        peak = traced_peak(lambda: sampling._guide_table(cum))
        assert peak <= 3.1 * cum.nbytes, peak / cum.nbytes
