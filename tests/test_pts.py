"""PTS algorithms: Algorithm 2, proportional, bands, exhaustive, top-k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import NoiseModel, depolarizing
from repro.circuits import Circuit
from repro.errors import SamplingError
from repro.pts import (
    ExhaustivePTS,
    NoiseSiteView,
    ProbabilisticPTS,
    ProbabilityBandPTS,
    ProportionalPTS,
    TopKPTS,
    apportion_shots,
    by_gate_context,
    by_qubits,
)
from repro.pts.compatibility import compatible, selection_signature, unique_kraus
from repro.rng import make_rng


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
        assert view.joint_probability([]) == pytest.approx((1 - 0.05) ** 4)

    def test_joint_probability_one_error(self, noisy_ghz3):
        view = NoiseSiteView(noisy_ghz3)
        cand = view.candidates[0]
        expected = (0.05 / 3) * (1 - 0.05) ** 3
        assert view.joint_probability([cand]) == pytest.approx(expected)

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

    def test_invalid_params(self):
        with pytest.raises(SamplingError):
            ProbabilisticPTS(nsamples=-1, nshots=1)
        with pytest.raises(SamplingError):
            ProbabilisticPTS(nsamples=1, nshots=0)


def algorithm2_reference(sampler, circuit, rng):
    """Algorithm 2 one attempt at a time: the loop ``ProbabilisticPTS.sample``
    ran before it drew attempts a tile at a time, kept as its oracle."""
    view = NoiseSiteView(circuit)
    candidates = view.candidates
    if sampler.candidate_filter is not None:
        candidates = [c for c in candidates if sampler.candidate_filter(c)]
    probs = np.array([c.probability for c in candidates], dtype=np.float64)
    specs, seen = [], set()
    duplicates = incompatible = 0
    for _ in range(sampler.nsamples):
        selection = []
        if len(candidates):
            for idx in np.nonzero(rng.random(len(candidates)) <= probs)[0]:
                if compatible(candidates[int(idx)], selection):
                    selection.append(candidates[int(idx)])
                else:
                    incompatible += 1
        if not selection and not sampler.include_ideal:
            continue
        if unique_kraus(selection, seen):
            specs.append(sampler.make_spec(view, selection, sampler.nshots, len(specs)))
        else:
            duplicates += 1
    return specs, duplicates, incompatible


class TestTiledAlgorithm2:
    """The tiled sampler against the per-attempt loop, field for field."""

    @staticmethod
    def crowded():
        # Two channels on one qubit in one moment, and likely enough to
        # fire together: incompatible candidates are routine here.
        circ = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            circ.attach(depolarizing(0.3), q)
            circ.attach(depolarizing(0.2), q)
        return circ.measure_all().freeze()

    def check(self, sampler, circuit, seed, monkeypatch, tile=None):
        if tile is not None:
            width = max(1, NoiseSiteView(circuit).num_candidates)
            monkeypatch.setattr(ProbabilisticPTS, "_TILE_BYTES", 8 * width * tile)
        got = sampler.sample(circuit, make_rng(seed))
        specs, duplicates, incompatible = algorithm2_reference(sampler, circuit, make_rng(seed))
        assert [s.record for s in got.specs] == [s.record for s in specs]
        assert [s.record.trajectory_id for s in got.specs] == list(range(len(specs)))
        assert [s.record.signature() for s in got.specs] == [
            s.record.signature() for s in specs
        ]
        assert [s.probability for s in got.specs] == [s.probability for s in specs]
        assert [s.num_shots for s in got.specs] == [s.num_shots for s in specs]
        assert got.attempted_samples == sampler.nsamples
        assert got.duplicates_rejected == duplicates
        assert got.incompatible_rejected == incompatible
        return got

    @pytest.mark.parametrize("nsamples,tile", [(57, 1), (57, 10), (57, 57), (57, 400), (0, 4)])
    def test_any_tile_size(self, monkeypatch, nsamples, tile):
        got = self.check(
            ProbabilisticPTS(nsamples=nsamples, nshots=3), self.crowded(), 8, monkeypatch, tile
        )
        assert got.incompatible_rejected > 0 or nsamples == 0

    def test_default_tile(self, monkeypatch, mixed_noise_circuit):
        self.check(ProbabilisticPTS(nsamples=700, nshots=2), mixed_noise_circuit, 1, monkeypatch)

    @pytest.mark.parametrize("tile", [1, 7, None])
    def test_candidate_filter_and_no_ideal(self, monkeypatch, mixed_noise_circuit, tile):
        sampler = ProbabilisticPTS(
            nsamples=300, nshots=1, include_ideal=False, candidate_filter=by_qubits({2, 3})
        )
        got = self.check(sampler, mixed_noise_circuit, 6, monkeypatch, tile)
        assert all(s.record.num_errors() > 0 for s in got.specs)

    @pytest.mark.parametrize("include_ideal", [True, False])
    def test_noiseless_circuit_draws_nothing(self, monkeypatch, ghz3, include_ideal):
        sampler = ProbabilisticPTS(nsamples=9, nshots=5, include_ideal=include_ideal)
        rng = make_rng(3)
        got = self.check(sampler, ghz3.freeze(), 3, monkeypatch)
        assert got.num_trajectories == int(include_ideal)
        assert got.duplicates_rejected == (8 if include_ideal else 0)
        sampler.sample(ghz3, rng)
        assert rng.random() == make_rng(3).random()  # the stream was not touched

    def test_compatible_is_asked_only_about_multiple_fired_candidates(
        self, monkeypatch, noisy_ghz3
    ):
        from repro.pts import probabilistic

        asked = []
        monkeypatch.setattr(
            probabilistic, "compatible",
            lambda cand, selection: asked.append(len(selection)) or compatible(cand, selection),
        )
        draws = []
        rng = make_rng(2)
        original = rng.random

        class Counting:
            def random(self, *args, **kwargs):
                draws.append(kwargs["out"].shape)
                return original(*args, **kwargs)

        monkeypatch.setattr(ProbabilisticPTS, "_TILE_BYTES", 8 * 12 * 64)
        ProbabilisticPTS(nsamples=500, nshots=1).sample(noisy_ghz3, Counting())
        assert draws == [(64, 12)] * 7 + [(52, 12)]  # one call per tile
        fired = make_rng(2).random((500, 12)) <= 0.05 / 3
        multiple = fired.sum(axis=1)[fired.sum(axis=1) > 1]
        assert len(asked) == multiple.sum() and 0 < len(asked) < 500


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

    def test_renormalize_shots(self, noisy_ghz3):
        base_total = ProbabilisticPTS(nsamples=2000, nshots=10).sample(
            noisy_ghz3, make_rng(12)
        ).total_shots
        result = ProbabilityBandPTS(
            1e-3, 0.1, nsamples=2000, nshots=10, renormalize_shots=True
        ).sample(noisy_ghz3, make_rng(12))
        assert result.total_shots >= base_total // 2


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


class TestTopK:
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
