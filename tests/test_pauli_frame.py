"""Pauli-frame bulk sampler vs. exact references."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.density_matrix import DensityMatrixBackend
from repro.backends import pauli_frame
from repro.backends.pauli_frame import FrameSampler
from repro.backends.stabilizer import StabilizerBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels import NoiseModel, bit_flip, depolarizing
from repro.channels.standard import amplitude_damping
from repro.circuits import Circuit, library
from repro.data.stats import empirical_distribution, total_variation_distance
from repro.errors import BackendError, ExecutionError
from repro.rng import make_rng


def _noisy(circ, p=0.15, gate="cx"):
    return NoiseModel().add_all_qubit_gate_noise(gate, depolarizing(p)).apply(circ).freeze()


class TestCorrectness:
    def test_noiseless_ghz(self):
        circ = library.ghz(3, measure=True).freeze()
        bits = FrameSampler(circ).sample(4000, make_rng(0))
        sums = bits.sum(axis=1)
        assert np.all((sums == 0) | (sums == 3))
        assert abs((sums == 0).mean() - 0.5) < 0.05

    def test_matches_density_matrix_with_noise(self):
        circ = _noisy(library.ghz(3, measure=True))
        exact = DensityMatrixBackend(3).run(circ).probabilities()
        bits = FrameSampler(circ).sample(60000, make_rng(1))
        assert total_variation_distance(empirical_distribution(bits), exact) < 0.015

    def test_matches_density_matrix_bitflip_measurement_noise(self):
        ideal = Circuit(2).h(0).cx(0, 1).measure_all()
        model = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", depolarizing(0.1))
            .add_measurement_noise(bit_flip(0.08))
        )
        circ = model.apply(ideal).freeze()
        exact = DensityMatrixBackend(2).run(circ).probabilities()
        bits = FrameSampler(circ).sample(60000, make_rng(2))
        assert total_variation_distance(empirical_distribution(bits), exact) < 0.015

    def test_deterministic_circuit_with_noise(self):
        # |0> -> X -> measure, with bit flip noise before measurement.
        ideal = Circuit(1).x(0).measure_all()
        model = NoiseModel().add_measurement_noise(bit_flip(0.2))
        circ = model.apply(ideal).freeze()
        bits = FrameSampler(circ).sample(20000, make_rng(3))
        assert abs(bits.mean() - 0.8) < 0.01

    def test_mid_circuit_noise_propagates_through_cliffords(self):
        # X error before a CX must flip both outputs.
        circ = Circuit(2)
        circ.attach(bit_flip(0.3), 0)
        circ.cx(0, 1)
        circ.measure_all()
        circ.freeze()
        bits = FrameSampler(circ).sample(30000, make_rng(4))
        assert np.all(bits[:, 0] == bits[:, 1])
        assert abs(bits[:, 0].mean() - 0.3) < 0.01

    def test_sy_frame_rule(self):
        # Z error then sqrt(Y): Z -> X, which flips the measurement.
        circ = Circuit(1)
        circ.attach(
            # phase_flip p=1: always Z
            __import__("repro.channels.standard", fromlist=["phase_flip"]).phase_flip(1.0),
            0,
        )
        circ.sy(0)
        circ.measure_all()
        circ.freeze()
        bits = FrameSampler(circ).sample(5000, make_rng(5))
        # Reference: the exact statevector with the (deterministic) Z branch.
        from repro.backends.statevector import StatevectorBackend

        sv = StatevectorBackend(1)
        sv.run_fixed(circ)  # phase_flip(1.0) has a single (Z) branch
        expected = sv.sample(5000, [0], make_rng(6)).mean()
        assert abs(bits.mean() - expected) < 0.03


class TestRestrictions:
    def test_requires_frozen(self):
        with pytest.raises(BackendError):
            FrameSampler(Circuit(1).h(0).measure_all())

    def test_requires_measurement(self):
        with pytest.raises(BackendError):
            FrameSampler(Circuit(1).h(0).freeze())

    def test_rejects_an_operation_on_a_measured_qubit(self):
        """Frames draw every measurement at the end: an X after measuring
        qubit 0 of a Bell pair would turn the record {00, 11} into {01, 10}."""
        circ = Circuit(2).h(0).cx(0, 1).measure(0).x(0).measure(1).freeze()
        with pytest.raises(BackendError, match=r"already-measured qubit\(s\) \[0\]"):
            FrameSampler(circ)
        with pytest.raises(BackendError, match=r"already-measured qubit\(s\) \[0\]"):
            FrameSampler(circ).sample(10, make_rng(0))

    def test_rejects_non_pauli_noise(self):
        circ = Circuit(1)
        circ.attach(amplitude_damping(0.1), 0)
        circ.measure_all()
        with pytest.raises(BackendError):
            FrameSampler(circ.freeze())

    def test_rejects_non_clifford_gate(self):
        circ = Circuit(1).t(0).measure_all().freeze()
        sampler = FrameSampler.__new__(FrameSampler)
        with pytest.raises(BackendError):
            FrameSampler(circ).sample(1, make_rng(0))


class TestBulkRate:
    def test_vectorized_rate_exceeds_tableau_per_shot(self):
        """The frame sampler's raison d'etre: bulk rate >> per-shot tableau."""
        import time

        circ = _noisy(library.ghz(8, measure=True))
        sampler = FrameSampler(circ)
        t0 = time.perf_counter()
        sampler.sample(50000, make_rng(7))
        frame_s = time.perf_counter() - t0
        from repro.backends.stabilizer import StabilizerBackend

        st = StabilizerBackend(8)
        st.run(circ, rng=make_rng(8))
        t0 = time.perf_counter()
        st.sample(200, range(8), make_rng(9))
        tableau_s_per_shot = (time.perf_counter() - t0) / 200
        frame_s_per_shot = frame_s / 50000
        assert frame_s_per_shot < tableau_s_per_shot / 10


# --------------------------------------------------------------------- #
# Bitwise oracles for the stack forms (frames, packed sampling, compile)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def msd35(msd35_circuit):
    return msd35_circuit, FrameSampler(msd35_circuit)


def all_sites_walk(sampler, choices):
    """One trajectory's flips and weight by walking every site: what
    ``frame_for_choices`` did before it took a stack, kept as its oracle."""
    flips = np.zeros(len(sampler.measured_qubits), dtype=np.uint8)
    weight = 1.0
    for site, start in zip(sampler.sites, sampler._site_start):
        branch = choices.get(site.site_id, site.dominant_index)
        if not 0 <= branch < len(site.probs):
            raise BackendError(f"site {site.site_id}: Kraus index {branch} out of range")
        flips ^= sampler._end_x[start + branch][sampler._measured_index]
        weight *= float(site.probs[branch])
    return flips, weight


def forced_runs(circuit):
    """``(reference, random_positions, generators)`` from one full tableau
    run per forced outcome: what the compile did before it shared the
    prefix, kept as its oracle."""
    from repro.backends.stabilizer import StabilizerBackend
    from repro.circuits.operations import GateOp

    measured = list(circuit.measured_qubits)

    def run(forces):
        backend = StabilizerBackend(circuit.num_qubits)
        for op in circuit:
            if isinstance(op, GateOp):
                backend.apply_gate_by_name(op.gate.name, op.qubits)
        return backend.measure_many(
            measured, forces={i: forces.get(i, 0) for i in range(len(measured))}
        )

    reference, flags = run({})
    reference = np.array(reference, dtype=np.uint8)
    positions = [i for i, flag in enumerate(flags) if flag]
    generators = np.zeros((len(positions), len(measured)), dtype=np.uint8)
    for row, pos in zip(generators, positions):
        row[:] = np.array(run({pos: 1})[0], dtype=np.uint8) ^ reference
    return reference, positions, generators


def one_trajectory_draw(sampler, flips, num_shots, rng):
    """One trajectory's shots without any lookup table: per generator group
    (16 wide while the outcome packs into a word, 12 beyond), one uniform
    integer whose bit i selects generator i.  The request's one
    ``(groups, shots)`` draw of 16-bit words is ``sample_stack``'s, so this
    is the oracle of everything it does with them."""
    out = np.tile(sampler.reference ^ flips, (num_shots, 1))
    width = 16 if len(sampler.measured_qubits) <= 64 else 12
    starts = range(0, len(sampler.generators), width)
    words = rng.integers(
        0, 0xFFFF, size=(len(starts), num_shots), dtype=np.uint16, endpoint=True
    )
    for draws, start in zip(words, starts):
        group = sampler.generators[start : start + width]
        draws = draws & ((1 << len(group)) - 1)
        coefficients = (draws[:, None].astype(np.int64) >> np.arange(len(group))) & 1
        out ^= ((coefficients @ group.astype(np.int64)) & 1).astype(np.uint8)
    return out


class TestStackFrames:
    def random_choices(self, sampler, rng, count):
        sites = sampler.sites
        chosen = rng.choice(len(sites), size=count, replace=False)
        return {
            sites[i].site_id: int(rng.integers(0, len(sites[i].probs))) for i in chosen
        }

    def test_rows_equal_the_all_sites_walk(self, msd35):
        _, sampler = msd35
        rng = make_rng(17)
        choices_list = [{}] + [
            self.random_choices(sampler, rng, count)
            for count in (1, 1, 2, 3, 7, 40, len(sampler.sites))
            for _ in range(6)
        ]
        # An entry naming its site's dominant index is dropped from the
        # table: the row is its other entries' alone.
        dominant = sampler.sites[3]
        choices_list.append({dominant.site_id: dominant.dominant_index, sampler.sites[4].site_id: 2})
        flips, weights = sampler.frame_for_choices(choices_list)
        assert flips.shape == (len(choices_list), 35) and flips.dtype == np.uint8
        assert weights.shape == (len(choices_list),) and weights.dtype == np.float64
        for row, choices in enumerate(choices_list):
            expected_flips, expected_weight = all_sites_walk(sampler, choices)
            np.testing.assert_array_equal(flips[row], expected_flips)
            assert weights[row] == expected_weight  # to the last bit
        assert len(set(weights.tolist())) > 10 and flips.any()
        # An id the circuit does not have is rejected, not ignored.
        with pytest.raises(ExecutionError, match=r"spec 1 prescribes noise site 1000000\b"):
            sampler.frame_for_choices([{}, {10**6: 3, sampler.sites[4].site_id: 2}])

    def test_a_row_does_not_depend_on_its_neighbours(self, msd35):
        _, sampler = msd35
        rng = make_rng(3)
        choices_list = [self.random_choices(sampler, rng, 3) for _ in range(9)]
        flips, weights = sampler.frame_for_choices(choices_list)
        for row in (0, 4, 8):
            alone_flips, alone_weights = sampler.frame_for_choices([choices_list[row]])
            np.testing.assert_array_equal(alone_flips[0], flips[row])
            assert alone_weights[0] == weights[row]

    @pytest.mark.parametrize("branch", [-1, 4, 16])
    def test_kraus_index_out_of_range(self, msd35, branch):
        _, sampler = msd35
        one_qubit = next(s for s in sampler.sites if len(s.probs) == 4)
        with pytest.raises(
            ExecutionError,
            match=rf"spec 1 prescribes Kraus index {branch} at noise site {one_qubit.site_id}, "
            r"whose channel has 4 operators",
        ):
            sampler.frame_for_choices([{}, {one_qubit.site_id: branch}])
        with pytest.raises(BackendError):
            all_sites_walk(sampler, {one_qubit.site_id: branch})

    def test_noiseless_circuit_has_unit_weights_and_no_flips(self):
        sampler = FrameSampler(library.ghz(3, measure=True).freeze())
        flips, weights = sampler.frame_for_choices([{}, None])
        assert not flips.any() and weights.tolist() == [1.0, 1.0]
        with pytest.raises(ExecutionError, match="noise site 5, but the circuit has 0 noise sites"):
            sampler.frame_for_choices([{}, {5: 1}])


def _fan_out(n, every):
    """``n`` measured qubits; a Hadamard on every ``every``-th one, fanned
    out to the next by a cx: ``n / every`` random measurements."""
    circ = Circuit(n)
    for q in range(0, n, every):
        circ.h(q)
    for q in range(n - 1):
        circ.cx(q, q + 1)
    return circ.measure_all()


def _seventy_qubit_sampler():
    """70 measured qubits (no packed word holds them), 14 random."""
    return FrameSampler(_noisy(_fan_out(70, every=5), p=0.1))


class TestStackSampling:
    def requests(self, seeds_and_shots, rows):
        return [(row, n, make_rng(seed)) for row, (seed, n) in zip(rows, seeds_and_shots)]

    def check_unit(self, sampler, flips, rows, shots):
        plan = list(zip(range(100, 100 + len(shots)), shots))
        block = sampler.sample_stack(flips, self.requests(plan, rows))
        k = len(sampler.measured_qubits)
        assert block.shape == (sum(shots), k)
        drawn = np.split(block, np.cumsum(shots)[:-1])
        for bits, row, (seed, n) in zip(drawn, rows, plan):
            assert bits.shape == (n, k) and bits.dtype == np.uint8
            np.testing.assert_array_equal(
                bits, one_trajectory_draw(sampler, flips[row], n, make_rng(seed))
            )
            np.testing.assert_array_equal(
                bits, sampler.sample_fixed(flips[row], n, make_rng(seed))
            )
        return drawn

    def test_unit_slices_equal_one_request_at_a_time(self, msd35):
        _, sampler = msd35  # 20 random measurements: two packed tables
        assert len(sampler._packed_combination_tables()) == 2
        flips, _ = sampler.frame_for_choices(
            [{}, {sampler.sites[0].site_id: 1}, {sampler.sites[50].site_id: 2}]
        )
        drawn = self.check_unit(sampler, flips, rows=[0, 0, 1, 2, 2], shots=[5, 0, 130, 1, 64])
        assert drawn[2].any()

    def test_sampled_bits_satisfy_the_affine_outcome_space(self, msd35):
        # Independent of the draw mechanism: every shot is reference XOR
        # flips XOR a combination of the generators.
        from repro.qec.gf2 import rank as gf2_rank

        _, sampler = msd35
        flips, _ = sampler.frame_for_choices([{sampler.sites[7].site_id: 3}])
        bits = sampler.sample_fixed(flips[0], 300, make_rng(1))
        shifted = bits ^ sampler.reference ^ flips[0]
        rank = gf2_rank(sampler.generators)
        assert gf2_rank(np.vstack([sampler.generators, shifted])) == rank == 20
        assert gf2_rank(shifted) > 15  # and they do spread over it

    def test_retained_bits_hold_no_more_than_their_unit(self, msd35):
        # unpackbits used to leave 64 columns behind every 35-column view.
        _, sampler = msd35
        flips, _ = sampler.frame_for_choices([{}, {}])
        shots = [100, 28, 72]
        bits = sampler.sample_stack(flips, self.requests(zip((1, 2, 3), shots), [0, 1, 1]))
        owner = bits if bits.base is None else bits.base
        assert owner.nbytes <= sum(shots) * 35
        alone = sampler.sample_fixed(flips[0], 100, make_rng(1))
        assert (alone if alone.base is None else alone.base).nbytes <= 100 * 35

    def test_more_than_64_measured_qubits_take_the_unpacked_tables(self):
        sampler = _seventy_qubit_sampler()
        assert sampler._packed_word_dtype() is None and len(sampler.random_positions) == 14
        assert len(sampler._combination_tables()) == 2
        flips, _ = sampler.frame_for_choices([{}, {sampler.sites[3].site_id: 1}])
        self.check_unit(sampler, flips, rows=[1, 0, 1], shots=[40, 3, 9])
        bits = sampler.sample_fixed(flips[1], 50, make_rng(0))
        assert bits.shape == (50, 70) and len({row.tobytes() for row in bits}) > 20

    @pytest.mark.parametrize("tables", ["one packed", "two packed", "unpacked"])
    def test_one_shot_and_odd_shot_requests_equal_the_integers_draw(self, tables, msd35):
        # A request reads ceil(groups * shots / 4) raw words of its stream:
        # 1 and odd shot counts end inside a word, and the next request
        # still starts on its own stream's first word.
        sampler = {
            "one packed": lambda: FrameSampler(_noisy(_fan_out(20, every=2), p=0.1)),
            "two packed": lambda: msd35[1],
            "unpacked": _seventy_qubit_sampler,
        }[tables]()
        packed = sampler._packed_word_dtype() is not None
        groups = sampler._packed_combination_tables() if packed else sampler._combination_tables()
        assert (packed, len(groups)) == {
            "one packed": (True, 1), "two packed": (True, 2), "unpacked": (False, 2)
        }[tables]
        flips, _ = sampler.frame_for_choices([{}, {sampler.sites[1].site_id: 1}])
        self.check_unit(sampler, flips, rows=[1, 0, 1, 1, 0], shots=[1, 3, 1, 7, 2])
        self.check_unit(sampler, flips, rows=[0], shots=[1])

    def test_a_stream_without_64_bit_raw_words_is_refused(self, msd35):
        _, sampler = msd35
        flips, _ = sampler.frame_for_choices([{}])
        mersenne = np.random.Generator(np.random.MT19937(5))
        with pytest.raises(BackendError, match="MT19937 has no 64-bit raw output"):
            sampler.sample_fixed(flips[0], 10, mersenne)
        for bit_generator in (np.random.PCG64(5), np.random.SFC64(5)):  # 64-bit raw words
            np.testing.assert_array_equal(
                sampler.sample_fixed(flips[0], 10, np.random.Generator(bit_generator)),
                one_trajectory_draw(
                    sampler, flips[0], 10, np.random.Generator(type(bit_generator)(5))
                ),
            )

    def test_deterministic_circuit_repeats_its_one_outcome(self):
        ideal = Circuit(2).x(0).cx(0, 1).measure_all()
        sampler = FrameSampler(_noisy(ideal))
        flips, _ = sampler.frame_for_choices([{}, {sampler.sites[0].site_id: 1}])
        first, second = np.split(
            sampler.sample_stack(flips, [(0, 3, make_rng(0)), (1, 2, make_rng(0))]), [3]
        )
        assert first.tolist() == [[1, 1]] * 3
        assert second.tolist() == [(sampler.reference ^ flips[1]).tolist()] * 2

    @pytest.mark.parametrize("k", [3, 16, 17, 32, 33, 64])
    def test_pack_and_unpack_are_inverse_at_every_word_width(self, k):
        sampler = FrameSampler(library.ghz(k, measure=True).freeze())
        bits = make_rng(k).integers(0, 2, size=(50, k), dtype=np.uint8)
        words = sampler._pack_words(bits)
        assert words.dtype.itemsize * 8 >= k and words.shape == (50,)
        assert int(words[0]) == sum(int(b) << j for j, b in enumerate(bits[0]))
        unpacked = sampler._unpack_words(words)
        np.testing.assert_array_equal(unpacked, bits)
        assert unpacked.flags.c_contiguous and unpacked.base is None


_ONE_QUBIT_GATES = ("h", "s", "sdg", "x", "y", "z", "i", "sx", "sxdg", "sy", "sydg")
_TWO_QUBIT_GATES = ("cx", "cz", "swap")


@st.composite
def clifford_circuits(draw, max_qubits=7, measure=None):
    """A frozen Clifford circuit over every tableau gate, measuring a drawn
    subset of its qubits in a drawn order (``measure="all"``: every qubit)."""
    n = draw(st.integers(1, max_qubits))
    circ = Circuit(n)
    names = _ONE_QUBIT_GATES + (_TWO_QUBIT_GATES if n > 1 else ())
    for _ in range(draw(st.integers(0, 4 * n))):
        name = draw(st.sampled_from(names))
        if name in _TWO_QUBIT_GATES:
            qubits = draw(st.permutations(range(n)))[:2]
        else:
            qubits = [draw(st.integers(0, n - 1))]
        getattr(circ, name)(*qubits)
    order = draw(st.permutations(range(n)))
    count = n if measure == "all" else draw(st.integers(1, n))
    return circ.measure(*order[:count]).freeze()


def ideal_support(circuit):
    """``{outcome: probability}`` over the measured qubits (measurement
    order, first qubit most significant) from the ideal statevector."""
    sv = StatevectorBackend(circuit.num_qubits)
    sv.run_fixed(circuit)
    measured = list(circuit.measured_qubits)
    probs = sv.probabilities().reshape((2,) * circuit.num_qubits)
    drop = tuple(q for q in range(circuit.num_qubits) if q not in measured)
    marginal = np.transpose(probs.sum(axis=drop), np.argsort(np.argsort(measured)))
    flat = marginal.reshape(-1)
    return {int(i): float(flat[i]) for i in np.flatnonzero(flat > 1e-9)}


class TestCompile:
    def check(self, circuit):
        sampler = FrameSampler(circuit)
        reference, positions, generators = forced_runs(circuit)
        np.testing.assert_array_equal(sampler.reference, reference)
        assert sampler.reference.dtype == np.uint8
        assert sampler.random_positions == positions
        np.testing.assert_array_equal(sampler.generators, generators)
        assert sampler.generators.dtype == np.uint8
        assert sampler.generators.shape == (len(positions), len(circuit.measured_qubits))
        return sampler

    def test_prefix_shared_compile_equals_independent_forced_runs(self, msd35):
        circuit, _ = msd35
        sampler = self.check(circuit)
        assert len(sampler.random_positions) == 20  # 21 runs in the oracle

    def test_circuit_without_a_random_measurement(self):
        sampler = self.check(_noisy(Circuit(3).x(0).cx(0, 1).cx(1, 2).measure_all()))
        assert sampler.random_positions == [] and sampler.generators.shape == (0, 3)

    def test_site_patterns_equal_a_per_site_analysis(self, msd35):
        # Every site analysed on its own (no channel memo), its branches
        # conjugated through the gates after it one site at a time.
        from repro.channels.pauli import pauli_from_unitary
        from repro.channels.unitary_mixture import as_unitary_mixture
        from repro.circuits.operations import GateOp, NoiseOp

        circuit, sampler = msd35
        ops = list(circuit)
        sites = [(i, op) for i, op in enumerate(ops) if isinstance(op, NoiseOp)]
        assert len(sites) == len(sampler.sites) == 105
        assert len({id(op.channel) for _, op in sites}) == 4  # analysed once each
        for (op_index, op), site, start in zip(sites, sampler.sites, sampler._site_start):
            mixture = as_unitary_mixture(op.channel)
            fx = np.zeros((len(mixture.probs), circuit.num_qubits), dtype=np.uint8)
            fz = np.zeros_like(fx)
            for b, unitary in enumerate(mixture.unitaries):
                local = pauli_from_unitary(unitary, len(op.qubits))
                fx[b, list(op.qubits)] = local.x
                fz[b, list(op.qubits)] = local.z
            np.testing.assert_array_equal(site.x_patterns, fx)
            np.testing.assert_array_equal(site.z_patterns, fz)
            np.testing.assert_array_equal(site.probs, np.asarray(mixture.probs))
            assert (site.site_id, site.op_index, site.qubits) == (op.site_id, op_index, op.qubits)
            assert site.dominant_index == op.channel.dominant_index()
            for later in ops[op_index + 1 :]:
                if isinstance(later, GateOp):
                    pauli_frame._conjugate(later.gate.name, later.qubits, fx, fz)
            np.testing.assert_array_equal(sampler._end_x[start : start + len(fx)], fx)

    def test_drawn_gates_cover_the_tableau_dispatch(self):
        assert set(_ONE_QUBIT_GATES + _TWO_QUBIT_GATES) == set(StabilizerBackend._GATE_DISPATCH)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(clifford_circuits())
    def test_drawn_circuits_equal_forced_runs(self, circuit):
        self.check(circuit)

    def test_circuit_whose_every_measurement_is_random(self):
        circ = Circuit(4).h(0).h(1).h(2).h(3).cx(0, 1).cz(2, 3).measure(3, 1, 0, 2)
        sampler = self.check(circ.freeze())
        assert sampler.random_positions == [0, 1, 2, 3]
        np.testing.assert_array_equal(sampler.generators, np.eye(4, dtype=np.uint8))

    def test_more_than_64_measured_qubits(self):
        circ = Circuit(70)
        for q in range(0, 70, 3):
            circ.h(q)
        for q in range(69):
            circ.cx(q, q + 1) if q % 2 else circ.cz(q, q + 1)
        circ.s(5).sx(11).swap(0, 69)
        sampler = self.check(circ.measure(*range(69, -1, -1)).freeze())
        assert 0 < len(sampler.random_positions) < 70

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(clifford_circuits(max_qubits=8))
    def test_affine_space_is_the_ideal_support(self, circuit):
        # An oracle that never reads a tableau: the statevector's support
        # is reference XOR span(generators), each outcome at 2**-r.
        sampler = FrameSampler(circuit)
        r, k = len(sampler.random_positions), len(circuit.measured_qubits)
        coefficients = (np.arange(1 << r)[:, None] >> np.arange(r)) & 1
        space = sampler.reference ^ ((coefficients @ sampler.generators) & 1).astype(np.uint8)
        keys = space.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1))
        assert len(set(keys.tolist())) == 1 << r  # independent generators
        support = ideal_support(circuit)
        assert set(support) == set(keys.tolist())
        np.testing.assert_allclose(list(support.values()), 2.0**-r, rtol=1e-9)

    def test_a_compile_measures_each_qubit_once_and_copies_no_tableau(self, msd35, monkeypatch):
        circuit, _ = msd35
        calls = {"copy": 0, "measure": 0, "collapse": 0, "product": 0}

        def counting(name, method):
            def wrapped(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            return wrapped

        for name, attr in (("copy", "copy"), ("measure", "measure"),
                           ("collapse", "_collapse"), ("product", "_product_sign")):
            monkeypatch.setattr(
                StabilizerBackend, attr, counting(name, getattr(StabilizerBackend, attr))
            )
        sampler = FrameSampler(circuit)
        assert calls["copy"] == calls["measure"] == 0
        assert calls["collapse"] == len(sampler.random_positions) == 20
        assert calls["collapse"] + calls["product"] == len(circuit.measured_qubits) == 35
