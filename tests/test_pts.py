"""PTS algorithms: Algorithm 2, proportional, bands, exhaustive, top-k."""

import math
from collections import defaultdict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.channels import NoiseModel, bit_flip, depolarizing, two_qubit_depolarizing
from repro.circuits import Circuit
from repro.circuits.moments import moment_index_of_ops
from repro.errors import SamplingError
from repro.pts import (
    ExhaustivePTS,
    NoiseSiteView,
    PTSAlgorithm,
    PTSResult,
    ProbabilisticPTS,
    ProbabilityBandPTS,
    ProportionalPTS,
    TopKPTS,
    apportion_shots,
    by_gate_context,
    by_min_probability,
    by_qubits,
)
from repro.pts.compatibility import (
    compatible, conflicting, selection_signature, unique_kraus,
)
from repro.rng import StreamFactory, make_rng


class TestNoiseSiteView:
    def test_candidate_enumeration(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        # 4 sites x 3 non-dominant branches (X, Y, Z of depolarizing).
        assert view.num_sites == 4
        assert view.num_candidates == 12

    def test_gate_context_recorded(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        assert all(c.gate_context == "cx" for c in view.candidates)

    def test_joint_probability_ideal(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        assert view.result([[]], 1, "one").probabilities[0] == pytest.approx((1 - 0.05) ** 4)

    def test_joint_probability_one_error(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        cand = view.candidates[0]
        expected = (0.05 / 3) * (1 - 0.05) ** 3
        assert view.result([[cand]], 1, "one").probabilities[0] == pytest.approx(expected)

    def test_result_rows_are_the_selections_bit_for_bit(self, mixed_noise_circuit):
        """The builder's table, records and nominal probabilities against
        the per-selection formula it replaced: ``math.log`` per candidate
        in selection order from the ideal's log, one ``math.exp``."""
        view = NoiseSiteView(mixed_noise_circuit)
        by_site = {}
        for cand in view.candidates:
            by_site.setdefault(cand.site_id, []).append(cand)
        sites = sorted(by_site)
        rng = make_rng(4)
        selections = [[]] + [
            [by_site[site][rng.integers(len(by_site[site]))] for site in sorted(chosen)]
            for chosen in (rng.choice(sites, rng.integers(1, 6), replace=False) for _ in range(60))
        ]
        result = view.result(selections, np.arange(61) + 1, "drawn", attempted_samples=9)
        assert result.attempted_samples == 9 and result.shots.tolist() == list(range(1, 62))
        for row, selection in enumerate(selections):
            log_p = view.log_dominant_total()
            for cand in selection:
                log_p += math.log(cand.probability) - math.log(view.dominant_prob[cand.site_id])
            assert result.probabilities[row] == math.exp(log_p)
            assert result.table[row] == {c.site_id: c.kraus_index for c in selection}
            record = result.specs[row].record
            assert record.trajectory_id == row and record.nominal_probability == math.exp(log_p)
            assert [(e.site_id, e.kraus_index, e.qubits, e.channel_name, e.probability)
                    for e in record.events] == [
                (c.site_id, c.kraus_index, c.qubits, c.channel_name, c.probability)
                for c in selection
            ]

    def test_requires_frozen(self):
        with pytest.raises(SamplingError):
            NoiseSiteView(Circuit(1).h(0))


class TestCompatibility:
    def test_same_site_conflicts(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        a, b = view.candidates[0], view.candidates[1]
        assert a.site_id == b.site_id
        assert not compatible(b, [a])

    def test_different_sites_compatible(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        a = view.candidates[0]
        other = next(c for c in view.candidates if c.site_id != a.site_id and not (
            c.moment == a.moment and set(c.qubits) & set(a.qubits)))
        assert compatible(other, [a])

    @pytest.mark.parametrize("one_moment", [False, True])
    def test_conflicting_is_compatible_over_columns(self, mixed_noise_circuit, one_moment):
        # Every ordered pair of candidates; with one_moment, every channel
        # is put in moment 0, so shared qubits conflict too.
        view = NoiseSiteView(mixed_noise_circuit)
        if one_moment:
            view.moment[:] = 0
        candidates = [replace(c, moment=0) if one_moment else c for c in view.candidates]
        a, b = np.divmod(np.arange(len(candidates) ** 2), len(candidates))
        expected = [not compatible(candidates[j], [candidates[i]]) for i, j in zip(a, b)]
        assert conflicting(view, a, b).tolist() == expected
        assert sum(expected) > (len(candidates) ** 2 if one_moment else 0) // 4

    def test_unique_kraus_registers(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        seen = set()
        sel = [view.candidates[0]]
        assert unique_kraus(sel, seen)
        assert not unique_kraus(sel, seen)

    def test_signature_order_invariant(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        a = view.candidates[0]
        b = next(c for c in view.candidates if c.site_id != a.site_id)
        assert selection_signature([a, b]) == selection_signature([b, a])


class TestProbabilisticPTS(object):
    def test_uniform_shots_assigned(self, noisy_ghz3):
        result = ProbabilisticPTS(nsamples=200, nshots=500).sample(noisy_ghz3, make_rng(0))
        assert result.num_trajectories > 0
        assert all(s.num_shots == 500 for s in result.specs)

    def test_no_duplicate_signatures(self, noisy_ghz3):
        result = ProbabilisticPTS(nsamples=500, nshots=1).sample(noisy_ghz3, make_rng(1))
        sigs = [s.record.signature() for s in result.specs]
        assert len(sigs) == len(set(sigs))

    def test_duplicates_counted(self, noisy_ghz3):
        result = ProbabilisticPTS(nsamples=500, nshots=1).sample(noisy_ghz3, make_rng(2))
        assert result.attempted_samples == 500
        assert result.duplicates_rejected + result.num_trajectories == 500

    def test_ideal_trajectory_included_by_default(self, noisy_ghz3):
        result = ProbabilisticPTS(nsamples=300, nshots=1).sample(noisy_ghz3, make_rng(3))
        assert any(s.record.num_errors() == 0 for s in result.specs)

    def test_exclude_ideal(self, noisy_ghz3):
        result = ProbabilisticPTS(nsamples=300, nshots=1, include_ideal=False).sample(
            noisy_ghz3, make_rng(4)
        )
        assert all(s.record.num_errors() > 0 for s in result.specs)

    def test_error_rate_statistics(self, noisy_ghz3):
        """Sampled single-error frequency tracks the Bernoulli expectation."""
        result = ProbabilisticPTS(nsamples=4000, nshots=1).sample(noisy_ghz3, make_rng(5))
        # Each of 12 candidates fires independently w.p. 0.05/3; the chance a
        # given attempt yields exactly zero errors is (1-p)^12 ~ 0.82.
        zero = sum(1 for s in result.specs if s.record.num_errors() == 0)
        assert zero == 1  # deduplicated to a single ideal spec

    def test_filter_restricts_candidates(self, mixed_noise_circuit):
        result = ProbabilisticPTS(
            nsamples=400, nshots=1, include_ideal=False,
            candidate_filter=by_qubits({3}),
        ).sample(mixed_noise_circuit, make_rng(6))
        for spec in result.specs:
            for event in spec.record.events:
                assert set(event.qubits) <= {3}

    def test_coverage_bounded_by_one(self, noisy_ghz3):
        result = ProbabilisticPTS(nsamples=2000, nshots=1).sample(noisy_ghz3, make_rng(7))
        assert 0 < result.coverage() <= 1.0 + 1e-9

    def test_coverage_counts_a_repeated_set_once(self, noisy_ghz3):
        """Coverage sums each distinct set once, so a run's rows listed
        twice (another run's duplicates, a merged workload) cover what they
        covered once."""
        result = ProbabilisticPTS(nsamples=10, nshots=1).sample(noisy_ghz3, make_rng(7))
        twice = PTSResult.from_specs(noisy_ghz3, list(result.specs) * 2)
        assert twice.num_trajectories == 2 * result.num_trajectories
        assert twice.coverage() == result.coverage() < 1.0

    def test_invalid_params(self):
        with pytest.raises(SamplingError):
            ProbabilisticPTS(nsamples=-1, nshots=1)
        with pytest.raises(SamplingError):
            ProbabilisticPTS(nsamples=1, nshots=0)


def filtered_candidates(sampler, circuit):
    """The view of ``circuit`` and the columns of the candidates the
    sampler's filter accepts: what ``select`` takes."""
    view = NoiseSiteView(circuit)
    return view, view.columns(sampler.candidate_filter)


def algorithm2_reference(sampler, circuit, fired):
    """Algorithm 2 one attempt at a time over every candidate: the loop
    ``ProbabilisticPTS`` ran before it visited only what fired, kept as the
    oracle of its selection pass.  ``fired[attempt, candidate]`` stands in
    for the loop's ``rng.random() <= p``."""
    view = NoiseSiteView(circuit)
    candidates = view.candidates
    if sampler.candidate_filter is not None:
        candidates = [c for c in candidates if sampler.candidate_filter(c)]
    selections, seen = [], set()
    duplicates = incompatible = 0
    for attempt in range(sampler.nsamples):
        selection = []
        for idx in range(len(candidates)):
            if not fired[attempt, idx]:
                continue
            if compatible(candidates[idx], selection):
                selection.append(candidates[idx])
            else:
                incompatible += 1
        if not selection and not sampler.include_ideal:
            continue
        if unique_kraus(selection, seen):
            selections.append(selection)
        else:
            duplicates += 1
    return view.result(selections, sampler.nshots, sampler.name).specs, duplicates, incompatible


def crowded():
    # Two channels back to back on each qubit (consecutive moments), and
    # branches likely enough to fire together at one site: incompatible
    # candidates are routine here.
    circ = Circuit(3).h(0).cx(0, 1).cx(1, 2)
    for q in range(3):
        circ.attach(depolarizing(0.3), q)
        circ.attach(depolarizing(0.2), q)
    return circ.measure_all().freeze()


@st.composite
def noisy_circuits(draw):
    """Small noisy circuits: 1- and 2-qubit channels after gates, and two
    channels back to back on one qubit."""
    n = draw(st.integers(2, 4))
    circ = Circuit(n)
    for _ in range(draw(st.integers(1, 7))):
        q = draw(st.integers(0, n - 1))
        p = draw(st.sampled_from([0.01, 0.1, 0.3]))
        kind = draw(st.sampled_from(["h", "cx", "twice"]))
        if kind == "h":
            circ.h(q).attach(depolarizing(p), q)
        elif kind == "cx":
            circ.cx(q, (q + 1) % n).attach(two_qubit_depolarizing(p), q, (q + 1) % n)
        else:
            circ.attach(depolarizing(p), q).attach(bit_flip(p), q)
    return circ.measure_all().freeze()


class TestSelectionPass:
    """``ProbabilisticPTS.select`` against the per-attempt loop, field for
    field, on one set of fired cells."""

    @settings(max_examples=80, deadline=None)
    @given(
        circuit=noisy_circuits(),
        nsamples=st.sampled_from([0, 1, 2, 9, 40]),
        include_ideal=st.booleans(),
        candidate_filter=st.sampled_from(
            [None, by_qubits({0, 1}), by_gate_context("cx"), by_min_probability(0.02)]
        ),
        density=st.sampled_from([0.01, 0.2, 0.7]),
        seed=st.integers(0, 2**16),
        one_moment=st.booleans(),
    )
    def test_array_pass_is_the_loop(
        self, circuit, nsamples, include_ideal, candidate_filter, density, seed, one_moment
    ):
        # A circuit's moments never put two channels on one qubit together,
        # so the same-site rule alone decides; with every operation in
        # moment 0, shared qubits conflict too, and the rule is no longer
        # transitive: what a cell is checked against (the cells kept, not
        # every cell) matters.
        sampler = ProbabilisticPTS(
            nsamples, 1, include_ideal=include_ideal, candidate_filter=candidate_filter
        )
        moments = (lambda circuit: defaultdict(int)) if one_moment else moment_index_of_ops
        with mock.patch("repro.pts.base.moment_index_of_ops", moments):
            columns = filtered_candidates(sampler, circuit)[1]
            fired = make_rng(seed).random((nsamples, len(columns))) < density
            self.check(sampler, circuit, fired)

    def check(self, sampler, circuit, fired):
        view, columns = filtered_candidates(sampler, circuit)
        fired = np.asarray(fired, dtype=bool).reshape(sampler.nsamples, len(columns))
        got = sampler.select(view, columns, np.flatnonzero(fired))
        specs, duplicates, incompatible = algorithm2_reference(sampler, circuit, fired)
        assert [s.record for s in got.specs] == [s.record for s in specs]
        assert [s.record.trajectory_id for s in got.specs] == list(range(len(specs)))
        assert [s.choices for s in got.specs] == [s.choices for s in specs]
        assert [s.probability for s in got.specs] == [s.probability for s in specs]
        assert [s.num_shots for s in got.specs] == [s.num_shots for s in specs]
        assert got.attempted_samples == sampler.nsamples
        assert got.duplicates_rejected == duplicates
        assert got.incompatible_rejected == incompatible
        return got

    def bernoulli(self, sampler, circuit, seed):
        # Drawn without the sampler: one uniform per cell, as Algorithm 2 reads.
        view, columns = filtered_candidates(sampler, circuit)
        return make_rng(seed).random((sampler.nsamples, len(columns))) <= view.probability[columns]

    @pytest.mark.parametrize("nsamples", [57, 1, 0])
    def test_crowded_circuit(self, nsamples):
        sampler = ProbabilisticPTS(nsamples=nsamples, nshots=3)
        got = self.check(sampler, crowded(), self.bernoulli(sampler, crowded(), 8))
        assert got.incompatible_rejected > 0 or nsamples < 57

    def test_the_samplers_own_fired_cells(self, mixed_noise_circuit):
        sampler = ProbabilisticPTS(nsamples=700, nshots=2)
        view, columns = filtered_candidates(sampler, mixed_noise_circuit)
        cells = sampler.fired_cells(view.probability[columns], make_rng(1))
        fired = np.zeros(700 * len(columns), dtype=bool)
        fired[cells] = True
        got = self.check(sampler, mixed_noise_circuit, fired)
        again = sampler.sample(mixed_noise_circuit, make_rng(1))  # sample() is the two halves
        assert [s.record for s in again.specs] == [s.record for s in got.specs]
        assert again.duplicates_rejected == got.duplicates_rejected

    @pytest.mark.parametrize("include_ideal", [True, False])
    def test_candidate_filter(self, mixed_noise_circuit, include_ideal):
        sampler = ProbabilisticPTS(
            nsamples=300, nshots=1, include_ideal=include_ideal,
            candidate_filter=by_qubits({2, 3}),
        )
        fired = self.bernoulli(sampler, mixed_noise_circuit, 6)
        got = self.check(sampler, mixed_noise_circuit, fired)
        assert all(s.record.num_errors() > 0 for s in got.specs) != include_ideal
        assert all(set(e.qubits) <= {2, 3} for s in got.specs for e in s.record.events)

    @pytest.mark.parametrize("include_ideal", [True, False])
    def test_every_cell_fires(self, include_ideal):
        # What p_max = 1 on every candidate would draw: each attempt keeps
        # the first candidate of each site and moment, rejects the rest.
        sampler = ProbabilisticPTS(nsamples=5, nshots=1, include_ideal=include_ideal)
        got = self.check(sampler, crowded(), np.ones((5, 18), dtype=bool))
        assert got.num_trajectories == 1 and got.duplicates_rejected == 4
        assert got.incompatible_rejected == 5 * (18 - got.specs[0].record.num_errors())

    def test_ideal_spec_is_numbered_where_its_first_attempt_stands(self, noisy_ghz3):
        sampler = ProbabilisticPTS(nsamples=4, nshots=1)
        fired = np.zeros((4, 12), dtype=bool)
        fired[0, 3] = fired[1, 7] = fired[3, 3] = True  # attempt 2 fires nothing
        got = self.check(sampler, noisy_ghz3, fired)
        assert [s.record.num_errors() for s in got.specs] == [1, 1, 0]
        assert got.duplicates_rejected == 1

    @pytest.mark.parametrize("include_ideal", [True, False])
    def test_noiseless_circuit_draws_nothing(self, ghz3, include_ideal):
        sampler = ProbabilisticPTS(nsamples=9, nshots=5, include_ideal=include_ideal)
        got = self.check(sampler, ghz3.freeze(), np.zeros((9, 0), dtype=bool))
        assert got.num_trajectories == int(include_ideal)
        assert got.duplicates_rejected == (8 if include_ideal else 0)
        rng = make_rng(3)
        sampled = sampler.sample(ghz3, rng)
        assert [s.record for s in sampled.specs] == [s.record for s in got.specs]
        assert rng.random() == make_rng(3).random()  # the stream was not touched

    @pytest.mark.parametrize("idle", [0, 1, 3, 5, None])
    def test_rows_of_every_length_are_numbered_by_first_occurrence(self, noisy_ghz3, idle):
        # uniqueKraus runs once per row length and the firsts are merged by
        # attempt; the ideal row stands where the first idle attempt does
        # (first, between rows of other lengths, last, or nowhere).
        sampler = ProbabilisticPTS(nsamples=6, nshots=1)
        fired = np.zeros((6, 12), dtype=bool)
        for attempt, cells in enumerate([[3, 7], [3], [0, 4, 10], [3], [3, 7], [10]]):
            fired[attempt, cells] = attempt != idle
        got = self.check(sampler, noisy_ghz3, fired)
        ideal = [s.record.num_errors() == 0 for s in got.specs]
        assert ideal.count(True) == (idle is not None)

    def test_scratch_follows_what_fired_not_the_attempts(self, noisy_ghz3):
        # select() holds NumPy arrays over the fired cells (a few 8-byte
        # words each) and one block of Python ints: nothing the length of
        # the run.  One Python int per attempt would be ~40 MB here.
        import tracemalloc

        sampler = ProbabilisticPTS(nsamples=1_000_000, nshots=1)
        view, candidates = filtered_candidates(sampler, noisy_ghz3)
        fired = sampler.fired_cells(np.full(len(candidates), 2.0e-3), make_rng(5))
        assert 20_000 < fired.size < 28_000
        tracemalloc.start()
        result = sampler.select(view, candidates, fired)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert result.duplicates_rejected == 1_000_000 - result.num_trajectories
        assert peak < 64 * fired.size + (1 << 20)

    def test_conflict_rule_reads_only_multiple_fired_attempts(self, monkeypatch, noisy_ghz3):
        # compatible's rule reads each pair of an attempt's fired cells
        # once, position by position: an attempt that fired one cell is
        # never read.
        from repro.pts import probabilistic

        pairs = []
        monkeypatch.setattr(
            probabilistic, "conflicting",
            lambda view, a, b: pairs.append(len(b)) or conflicting(view, a, b),
        )
        sampler = ProbabilisticPTS(nsamples=500, nshots=1)
        fired = self.bernoulli(sampler, noisy_ghz3, 2)
        view, columns = filtered_candidates(sampler, noisy_ghz3)
        sampler.select(view, columns, np.flatnonzero(fired))
        counts = fired.sum(axis=1)
        assert sum(pairs) == (counts * (counts - 1) // 2).sum() and 0 < sum(pairs) < 500


def words_drawn(rng):
    """64-bit words a Philox generator has produced (4 per counter step)."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"]) % 4


class TestFiredCellDraw:
    """``ProbabilisticPTS.fired_cells`` draws the product Bernoulli of
    Algorithm 2 by skipping, not cell by cell, so it has no bitwise oracle:
    these are distribution and contract tests, deterministic at their seeds."""

    #: Heterogeneous on purpose: every landing below p_max is thinned.
    PROBS = np.array([0.3, 0.004, 0.11, 0.05, 0.3, 0.02, 0.0007, 0.19, 0.08, 0.25, 0.01, 0.15])

    def fired_table(self, probs, nsamples, seed):
        cells = ProbabilisticPTS(nsamples, 1).fired_cells(probs, make_rng(seed))
        assert cells.dtype == np.int64 and np.all(np.diff(cells) > 0)  # ascending, no repeat
        assert cells.size == 0 or (0 <= cells[0] and cells[-1] < nsamples * len(probs))
        table = np.zeros(nsamples * len(probs), dtype=bool)
        table[cells] = True
        return table.reshape(nsamples, len(probs))

    @staticmethod
    def within(count, n, p, tail=1e-7):
        low, high = stats.binom.interval(1 - tail, n, p)
        return low <= count <= high

    def test_firing_rate_of_every_candidate(self):
        n = 1_000_000  # a 1 % bias of the gap is 6 sigma on the 0.3 columns
        fired = self.fired_table(self.PROBS, n, 11)
        for count, p in zip(fired.sum(axis=0), self.PROBS):
            assert self.within(count, n, p), (count, n * p)

    def test_candidates_fire_independently_within_and_across_attempts(self):
        n = 40_000
        fired = self.fired_table(self.PROBS, n, 12)
        for a in range(len(self.PROBS)):
            for b in range(a + 1, len(self.PROBS)):
                both = int((fired[:, a] & fired[:, b]).sum())
                assert self.within(both, n, self.PROBS[a] * self.PROBS[b]), (a, b, both)
        # The walk crosses attempt boundaries: the last cell of an attempt
        # and the first of the next are neighbours in it.
        across = int((fired[:-1, -1] & fired[1:, 0]).sum())
        assert self.within(across, n - 1, self.PROBS[-1] * self.PROBS[0])
        # Given a cell fired, the gap to the next fired cell of its column
        # is geometric: its neighbour in the next attempt fires at rate p.
        again = int((fired[:-1, 0] & fired[1:, 0]).sum())
        assert self.within(again, n - 1, self.PROBS[0] ** 2)

    def test_selection_frequencies_match_the_exact_trajectory_distribution(self):
        # One non-dominant branch per site and no two sites in conflict: an
        # attempt's selection is then distributed exactly as the trajectory
        # itself, whose probabilities ExhaustivePTS enumerates.
        circ = Circuit(4)
        rates = [0.3, 0.04, 0.11, 0.2, 0.07, 0.25, 0.02, 0.15, 0.09, 0.3]
        for layer in range(3):
            for q in range(4):
                circ.h(q)
                if rates:
                    circ.attach(bit_flip(rates.pop()), q)
        circuit = circ.measure_all().freeze()
        exact = {
            s.record.signature(): s.probability
            for s in ExhaustivePTS(cutoff=1e-15, nshots=1).sample(circuit, make_rng(0)).specs
        }
        assert len(exact) == 2**10 and sum(exact.values()) == pytest.approx(1.0)
        n = 60_000
        sampler = ProbabilisticPTS(nsamples=n, nshots=1)
        view, columns = filtered_candidates(sampler, circuit)
        probs = view.probability[columns]
        assert len(set(probs)) == 9 and sampler.select(
            view, columns, np.arange(10)
        ).incompatible_rejected == 0
        fired = self.fired_table(probs, n, 13)
        pairs = [(c.site_id, c.kraus_index) for c in view.candidates]
        observed = {}
        for row in fired:
            key = tuple(pairs[i] for i in np.flatnonzero(row))
            observed[key] = observed.get(key, 0) + 1
        assert set(observed) <= set(exact)
        # Pool the cells a chi-square cannot use (expected count below 5).
        expected = np.array([n * p for p in exact.values()])
        counts = np.array([observed.get(key, 0) for key in exact])
        big = expected >= 5
        expected = np.append(expected[big], expected[~big].sum())
        counts = np.append(counts[big], counts[~big].sum())
        assert big.sum() > 100
        assert stats.chisquare(counts, expected).pvalue > 1e-3
        # And what sample() keeps of them is every outcome seen, once.
        result = sampler.sample(circuit, make_rng(13))
        assert {s.record.signature() for s in result.specs} == set(observed)
        assert result.duplicates_rejected == n - len(observed)

    @pytest.mark.parametrize("p_max", [1.0, 0.999999, 0.5, 1e-9])
    def test_one_path_for_every_p_max(self, p_max):
        probs = np.array([p_max, 0.25 * p_max, p_max])
        n = 4_000
        fired = self.fired_table(probs, n, 5)
        for count, p in zip(fired.sum(axis=0), probs):
            assert self.within(count, n, p)
        if p_max == 1.0:
            assert fired[:, 0].all() and fired[:, 2].all()

    def test_replays_and_is_empty_where_nothing_can_fire(self):
        sampler = ProbabilisticPTS(nsamples=300, nshots=1)
        a = sampler.fired_cells(self.PROBS, make_rng(4))
        b = sampler.fired_cells(self.PROBS, make_rng(4))
        np.testing.assert_array_equal(a, b)
        rng = make_rng(4)
        assert sampler.fired_cells(np.zeros(0), rng).size == 0
        assert ProbabilisticPTS(0, 1).fired_cells(self.PROBS, rng).size == 0
        assert words_drawn(rng) == 0

    def test_draws_follow_what_fires_not_the_cells(self, monkeypatch):
        # attempts x sum(p) cells fire; a few uniforms each, however many
        # cells lie between them.
        from repro.pts import probabilistic

        probs = np.full(700, 6.0e-4)
        attempts = 20_000
        rng = make_rng(6)
        cells = ProbabilisticPTS(attempts, 1).fired_cells(probs, rng)
        assert abs(cells.size - attempts * probs.sum()) < 5 * np.sqrt(attempts * probs.sum())
        assert words_drawn(rng) <= 2.2 * attempts * probs.sum() + 64
        # A block cap bounds the scratch, not the result: many small blocks
        # walk to the same end (and a different, equally valid, draw).
        monkeypatch.setattr(probabilistic, "_BLOCK", 256)
        small = ProbabilisticPTS(attempts, 1).fired_cells(probs, make_rng(6))
        assert abs(small.size - cells.size) < 8 * np.sqrt(cells.size)
        assert np.all(np.diff(small) > 0) and small[-1] < attempts * 700
        # Standing on the last cell the walk is over: no block is drawn for
        # cells past the end.
        monkeypatch.setattr(probabilistic, "_BLOCK", 40)
        rng = make_rng(6)
        assert ProbabilisticPTS(10, 1).fired_cells(np.ones(4), rng).tolist() == list(range(40))
        assert words_drawn(rng) == 80

    def test_counters_at_35q_are_the_parents_within_sampling_noise(self, msd35_circuit):
        # The commit before the skip-ahead draw read 3354 specs, 26 646
        # duplicates and 52 incompatible rejections here (seed 7, drawing
        # from trajectory 0's stream).  Distinct multi-error trajectories
        # and conflicts are rare independent events, so each count is close
        # to Poisson and two draws of it differ by ~sqrt(a + b).
        result = ProbabilisticPTS(30_000, 100).sample(
            msd35_circuit, StreamFactory(7).sampler_rng()
        )
        singles = 1 + NoiseSiteView(msd35_circuit).num_candidates  # all found either way
        assert singles == 736
        rare = result.num_trajectories - singles
        assert abs(rare - (3354 - singles)) < 5 * np.sqrt(rare + 3354 - singles)
        assert result.duplicates_rejected == 30_000 - result.num_trajectories
        assert abs(result.incompatible_rejected - 52) < 5 * np.sqrt(
            result.incompatible_rejected + 52
        )
        assert sum(s.record.num_errors() == 1 for s in result.specs) == singles - 1


class TestApportionment:
    def test_sums_to_total(self):
        shots = apportion_shots(np.array([0.5, 0.3, 0.2]), 1000)
        assert shots.sum() == 1000

    def test_proportionality(self):
        shots = apportion_shots(np.array([0.75, 0.25]), 100)
        assert shots.tolist() == [75, 25]

    def test_largest_remainder(self):
        shots = apportion_shots(np.array([1.0, 1.0, 1.0]), 100)
        assert shots.sum() == 100
        assert sorted(shots.tolist()) == [33, 33, 34]

    def test_zero_probability_gets_zero(self):
        shots = apportion_shots(np.array([1.0, 0.0]), 10)
        assert shots.tolist() == [10, 0]

    def test_rejects_negative(self):
        with pytest.raises(SamplingError):
            apportion_shots(np.array([-0.1, 1.1]), 10)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_total_conserved_property(self, total):
        rng = np.random.default_rng(total)
        probs = rng.random(7)
        assert apportion_shots(probs, total).sum() == total


class TestProportionalPTS:
    def test_total_shot_budget_respected(self, noisy_ghz3):
        result = ProportionalPTS(total_shots=10_000, nsamples=500).sample(
            noisy_ghz3, make_rng(8)
        )
        assert result.total_shots == 10_000

    def test_shots_track_probability(self, noisy_ghz3):
        result = ProportionalPTS(total_shots=100_000, nsamples=500).sample(
            noisy_ghz3, make_rng(9)
        )
        specs = result.sorted_by_probability()
        # The ideal (highest-probability) trajectory gets the most shots.
        assert specs[0].num_shots == max(s.num_shots for s in specs)
        assert specs[0].record.num_errors() == 0

    def test_multinomial_resampling_mode(self, noisy_ghz3):
        result = ProportionalPTS(total_shots=5000, nsamples=300, resample=True).sample(
            noisy_ghz3, make_rng(10)
        )
        assert result.total_shots == 5000


class TestBandPTS:
    def test_band_excludes_outside(self, noisy_ghz3):
        # Single-error trajectories have p ~ 0.0143; the ideal has ~0.815.
        result = ProbabilityBandPTS(1e-3, 0.1, nsamples=2000, nshots=10).sample(
            noisy_ghz3, make_rng(11)
        )
        assert result.num_trajectories > 0
        for spec in result.specs:
            assert 1e-3 <= spec.probability <= 0.1
        assert all(s.record.num_errors() >= 1 for s in result.specs)

    def test_invalid_band(self):
        with pytest.raises(SamplingError):
            ProbabilityBandPTS(0.5, 0.1)

    @pytest.mark.parametrize(
        "p_min, p_max", [(1e-3, 0.1), (1e-4, 1e-2)], ids=["wide", "16-specs"]
    )
    def test_renormalize_shots(self, noisy_ghz3, p_min, p_max):
        """The base total is split evenly over the kept specs: on the
        16-spec band floor division would keep only 288 of 300 shots."""
        base_total = ProbabilisticPTS(nsamples=2000, nshots=10).sample(
            noisy_ghz3, make_rng(12)
        ).total_shots
        result = ProbabilityBandPTS(
            p_min, p_max, nsamples=2000, nshots=10, renormalize_shots=True
        ).sample(noisy_ghz3, make_rng(12))
        shots = [s.num_shots for s in result.specs]
        assert result.total_shots == base_total
        assert max(shots) - min(shots) <= 1

    def test_renormalize_drops_specs_left_without_shots(self, noisy_ghz3):
        """A base whose total is below the kept count: the split hands out
        one shot each to the first specs and drops the rest."""
        specs = ProbabilisticPTS(nsamples=2000, nshots=1).sample(noisy_ghz3, make_rng(12)).specs
        fixed = PTSResult.from_specs(noisy_ghz3, [s.with_shots(0) for s in specs[2:]] + specs[:2])

        class Fixed(PTSAlgorithm):
            name = "fixed"

            def sample(self, circuit, rng):
                return fixed

        result = ProbabilityBandPTS(0.0, 1.0, base=Fixed(), renormalize_shots=True).sample(
            noisy_ghz3, make_rng(12)
        )
        assert len(specs) > 2
        assert [s.num_shots for s in result.specs] == [1, 1]


class TestExhaustive:
    def test_enumerates_all_above_cutoff(self, noisy_ghz3):
        # p_ideal ~ 0.8145; single errors ~ 0.0143 each (12 of them);
        # double errors ~ 2.5e-4.
        result = ExhaustivePTS(cutoff=1e-3, nshots=1).sample(noisy_ghz3, make_rng(0))
        assert result.num_trajectories == 1 + 12

    def test_includes_doubles_at_lower_cutoff(self, noisy_ghz3):
        result = ExhaustivePTS(cutoff=1e-4, nshots=1).sample(noisy_ghz3, make_rng(0))
        # doubles: C(4,2) site pairs x 9 branch combos = 54, plus 13.
        assert result.num_trajectories == 13 + 54

    def test_sorted_by_probability(self, noisy_ghz3):
        result = ExhaustivePTS(cutoff=1e-4, nshots=1).sample(noisy_ghz3, make_rng(0))
        probs = [s.probability for s in result.specs]
        assert probs == sorted(probs, reverse=True)

    def test_coverage_is_certified(self, noisy_ghz3):
        result = ExhaustivePTS(cutoff=1e-4, nshots=1).sample(noisy_ghz3, make_rng(0))
        # Everything except triple+ errors: coverage > 0.999.
        assert result.coverage() > 0.999

    def test_max_errors_cap(self, noisy_ghz3):
        result = ExhaustivePTS(cutoff=1e-9, nshots=1, max_errors=1).sample(
            noisy_ghz3, make_rng(0)
        )
        assert max(s.record.num_errors() for s in result.specs) == 1

    def test_proportional_shot_mode(self, noisy_ghz3):
        result = ExhaustivePTS(cutoff=1e-3, nshots=None, total_shots=1000).sample(
            noisy_ghz3, make_rng(0)
        )
        assert result.total_shots == 1000

    def test_zero_cutoff_rejected(self):
        with pytest.raises(SamplingError):
            ExhaustivePTS(cutoff=0.0)

    @pytest.mark.parametrize("nshots", [0, -5])
    def test_non_positive_nshots_rejected(self, nshots):
        # Used to return an empty result: every spec had <= 0 shots.
        with pytest.raises(SamplingError, match="nshots"):
            ExhaustivePTS(cutoff=1e-3, nshots=nshots)

    @pytest.mark.parametrize("total_shots", [0, -100])
    def test_non_positive_total_shots_rejected(self, total_shots):
        with pytest.raises(SamplingError, match="total_shots"):
            ExhaustivePTS(cutoff=1e-3, nshots=None, total_shots=total_shots)


class TestTopK:
    @pytest.mark.parametrize("nshots", [0, -5])
    def test_non_positive_nshots_rejected(self, nshots):
        # Used to emit k specs with a zero or negative shot budget.
        with pytest.raises(SamplingError, match="nshots"):
            TopKPTS(k=3, nshots=nshots)

    def test_returns_k_most_likely(self, noisy_ghz3):
        result = TopKPTS(k=5, nshots=1).sample(noisy_ghz3, make_rng(0))
        assert result.num_trajectories == 5
        probs = [s.probability for s in result.specs]
        assert probs == sorted(probs, reverse=True)
        assert result.specs[0].record.num_errors() == 0

    def test_agrees_with_exhaustive(self, noisy_ghz3):
        top = TopKPTS(k=13, nshots=1).sample(noisy_ghz3, make_rng(0))
        exh = ExhaustivePTS(cutoff=1e-3, nshots=1).sample(noisy_ghz3, make_rng(0))
        top_sigs = {s.record.signature() for s in top.specs}
        exh_sigs = {s.record.signature() for s in exh.specs}
        assert top_sigs == exh_sigs

    def test_pruning_visits_fewer_nodes_than_full_tree(self, noisy_ghz3):
        sampler = TopKPTS(k=3, nshots=1)
        sampler.sample(noisy_ghz3, make_rng(0))
        # Full tree = prod(1 + 3 branches)^4 sites = 4^4 = 256 leaves plus
        # internals; pruning should visit far fewer nodes.
        assert sampler.nodes_visited < 200


def test_pts_imports_nothing_from_execution():
    """PTS is a pure stage: a sampler's specs are a function of the circuit
    and one seed, so no module under ``repro.pts`` may import an executor."""
    import ast
    from pathlib import Path

    import repro.pts

    offenders = []
    for path in sorted(Path(repro.pts.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = ["repro", "pts"][: 3 - node.level] if node.level else []
                module = ".".join(package + [node.module] if node.module else package)
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name == "repro.execution" or name.startswith("repro.execution.")
            ]
    assert offenders == []
