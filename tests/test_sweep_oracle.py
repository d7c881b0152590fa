"""Small-width exact-oracle conformance: every named workload family.

For each family in the registry at n <= 5 qubits, under a unitary-mixture
and a general-Kraus profile, a proportionally apportioned exhaustive
PTSBE run's trajectory-weighted distribution must match the exact
density-matrix reference — the same check the sweep harness's
distribution tier applies, exercised here as plain pytest so a
conformance break fails the unit suite even when no sweep runs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import exact_distribution
from repro.channels import NoiseModel
from repro.channels.standard import amplitude_damping, depolarizing, device_profile
from repro.circuits import library
from repro.circuits.library import build_workload, get_workload, noisy, workload_names
from repro.data.stats import total_variation_distance
from repro.execution import BatchedExecutor, run_ptsbe
from repro.pts import ExhaustivePTS, TrajectorySpec
from repro.sweep.oracle import FAIL, PASS, SKIP, check_distribution
from repro.sweep.spec import OracleSpec

SHOTS = 30_000
SEED = 13


def _width_for(family_name):
    fam = get_workload(family_name)
    return max(fam.min_width, min(5, fam.max_width))


@pytest.mark.parametrize("profile", ["uniform_depolarizing", "relaxation_dominated"])
@pytest.mark.parametrize("family_name", workload_names())
def test_family_matches_density_matrix_at_small_width(family_name, profile):
    width = _width_for(family_name)
    if width > OracleSpec().distribution_max_qubits:
        pytest.skip(
            f"{family_name}'s minimum width {width} exceeds the "
            "density-matrix oracle cap (covered by the sweep's wide "
            "clifford cell instead)"
        )
    noise = device_profile(profile).noise_model()
    circuit = noisy(build_workload(family_name, width, seed=SEED), noise)
    sampler = ExhaustivePTS(cutoff=1e-6, nshots=None, total_shots=SHOTS)
    result = run_ptsbe(circuit, sampler, seed=SEED)
    finding = check_distribution(circuit, result, OracleSpec(tvd_tolerance=0.06), True)
    assert finding.status == PASS, f"{family_name} w{width} {profile}: {finding.detail}"
    assert finding.metric("tvd") < finding.metric("tvd_bound")


@pytest.mark.parametrize("family_name", workload_names())
def test_family_builders_deterministic_and_measured(family_name):
    width = _width_for(family_name)
    a = build_workload(family_name, width, seed=3)
    b = build_workload(family_name, width, seed=3)
    assert a.num_qubits == b.num_qubits == width
    assert len(a) == len(b)
    assert tuple(a.measured_qubits) == tuple(b.measured_qubits)
    assert len(a.measured_qubits) > 0  # oracle needs measured circuits


def test_relaxation_profile_is_checked_by_distribution_tier():
    """A general-Kraus profile is checked, not skipped: its realized
    weights make the weighted estimate exact."""
    profile = device_profile("relaxation_dominated")
    assert not profile.unitary_mixture_only
    circuit = noisy(build_workload("ghz", 3, seed=SEED), profile.noise_model())
    sampler = ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=2000)
    result = run_ptsbe(circuit, sampler, seed=SEED)
    finding = check_distribution(circuit, result, OracleSpec(), True)
    assert finding.status == PASS, finding.detail
    assert finding.metric("coverage") == pytest.approx(1.0 - result.uncovered_mass)


def with_weights(result, weights):
    """``result`` with its spec ``weight`` column replaced."""
    specs = result.columns.specs.copy()
    specs["weight"] = weights
    return replace(result, columns=replace(result.columns, specs=specs))


class TestRealizedWeights:
    """The tier weighs general-Kraus trajectories by their realized
    weights: the nominal probabilities are only priors."""

    @staticmethod
    def damped_ghz3():
        model = (
            NoiseModel()
            .add_all_qubit_gate_noise("h", amplitude_damping(0.3))
            .add_all_qubit_gate_noise("cx", amplitude_damping(0.3))
        )
        return model.apply(library.ghz(3, measure=True)).freeze()

    @pytest.mark.parametrize("strategy", ["serial", "vectorized", "tensornet"])
    def test_strong_damping_passes_and_nominal_weights_fail(self, strategy):
        # Every trajectory above 1e-12: the realized weights read TVD
        # ~0.0035, the nominal probabilities ~0.169 against a bound of
        # 0.06 plus the ~0.107 nominal mass they leave out.
        circuit = self.damped_ghz3()
        sampler = ExhaustivePTS(cutoff=1e-12, nshots=None, total_shots=20_000)
        result = run_ptsbe(circuit, sampler, seed=3, strategy=strategy)
        finding = check_distribution(circuit, result, OracleSpec(), True)
        assert finding.status == PASS, finding.detail
        assert finding.metric("tvd") < 0.01
        nominal = with_weights(result, result.columns.run.probabilities)
        finding = check_distribution(circuit, nominal, OracleSpec(), True)
        assert finding.status == FAIL and finding.metric("tvd") > 0.15, finding.detail


class TestRepeatedSpecs:
    """Specs that repeat one trajectory are one stratum: its weight counts
    once and its members' shots are pooled."""

    @pytest.fixture(scope="class")
    def runs(self):
        model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.2))
        circuit = model.apply(library.ghz(3, measure=True)).freeze()
        specs = list(
            ExhaustivePTS(cutoff=1e-9, nshots=4000).sample(circuit, np.random.default_rng(0)).specs
        )
        assert len(specs) == 256
        record = specs[1].record
        split = specs[:1] + [TrajectorySpec(record, 2000), TrajectorySpec(record, 2000)] + specs[2:]
        return circuit, [BatchedExecutor().execute(circuit, s, seed=5) for s in (specs, split)]

    def test_a_split_spec_weighs_once(self, runs):
        circuit, (whole, split) = runs
        assert split.columns.specs["weight"].sum() > 1.03  # each copy carries the weight
        assert split.uncovered_mass == pytest.approx(whole.uncovered_mass, abs=1e-12)
        assert abs(split.uncovered_mass) < 1e-12
        exact = exact_distribution(circuit)
        for result in (whole, split):
            assert total_variation_distance(result.pooled_distribution(), exact) < 0.005
            assert check_distribution(circuit, result, OracleSpec(), True).status == PASS

    def test_overweighted_result_fails_at_any_width(self, runs):
        circuit, (whole, _) = runs
        heavy = with_weights(whole, 1.05 * whole.columns.specs["weight"])
        narrow = OracleSpec(distribution_max_qubits=2)  # below the circuit's width
        assert check_distribution(circuit, whole, narrow, True).status == SKIP
        finding = check_distribution(circuit, heavy, narrow, True)
        assert finding.status == FAIL and "counted more than once" in finding.detail

    def test_past_the_cap_the_skip_states_the_sum_rule(self, runs):
        # Every trajectory of the circuit is here: they weigh 1.
        circuit, (whole, _) = runs
        finding = check_distribution(circuit, whole, OracleSpec(distribution_max_qubits=2), True)
        assert finding.status == SKIP
        assert finding.metric("coverage") == pytest.approx(1.0, abs=1e-12)
        assert "distinct trajectories weigh 1.000000 <= 1" in finding.detail


class TestWideEngines:
    """The wide tier: ``clifford`` against ``tensornet`` past every dense
    reference, on the cliffordized Steane MSD-prep at 35 qubits."""

    def cell(self, **overrides):
        from repro.sweep.spec import CellSpec

        fields = dict(
            family="msd_prep_clifford", width=35, profile="uniform_depolarizing",
            shots=20_000, sampler="exhaustive", sampler_options=(("cutoff", 1e-3),),
            seed=11, strategies=("clifford", "tensornet"),
        )
        fields.update(overrides)
        return CellSpec(**fields)

    def test_msd_prep_cell_passes_on_both_engines(self):
        from repro.sweep.runner import run_cell

        result = run_cell(self.cell(), OracleSpec())
        wide = result.finding("wide_engines")
        assert result.status == PASS, result.findings
        assert wide.status == PASS and wide.metric("weight_rel_error") < 1e-12
        assert wide.metric("statistics") == 35 + 20  # marginals + the blocks' Z checks
        assert sorted(result.verified_strategies()) == ["clifford", "tensornet"]

    def test_a_max_bond_2_cell_fails(self, monkeypatch):
        # The same cell with tensornet truncated to bond 2: the chain loses
        # most of every trajectory's norm, and the weights say so.
        import repro.sweep.runner as runner
        from repro.execution import BackendSpec

        forced = runner.run_ptsbe_stream

        def truncated(circuit, sampler, seed, strategy):
            backend = BackendSpec.mps(max_bond=2) if strategy == "tensornet" else BackendSpec()
            return forced(circuit, sampler, backend=backend, seed=seed, strategy=strategy)

        monkeypatch.setattr(runner, "run_ptsbe_stream", truncated)
        result = runner.run_cell(self.cell(), OracleSpec())
        wide = result.finding("wide_engines")
        assert result.status == "fail" and wide.status == "fail"
        assert "weights differ" in wide.detail and wide.metric("weight_rel_error") > 0.5
        assert result.verified_strategies() == []

    def test_one_flipped_qubit_fails_the_fixed_parities(self):
        # Flipping qubit 0 in every tensornet shot leaves its marginal at
        # 1/2 but flips the parities the ideal circuit fixes through it.
        from types import SimpleNamespace

        from repro.circuits.library import build_workload
        from repro.execution.results import ShotTable
        from repro.sweep.oracle import check_wide_engines

        circuit = noisy(
            build_workload("msd_prep_clifford", 35), device_profile("uniform_depolarizing").noise_model()
        )
        sampler = ExhaustivePTS(cutoff=1e-3, nshots=None, total_shots=20_000)
        frames = run_ptsbe(circuit, sampler, seed=SEED, strategy="clifford")
        chains = run_ptsbe(circuit, sampler, seed=SEED, strategy="tensornet")
        assert check_wide_engines(circuit, frames, chains).status == PASS
        table = chains.shot_table()
        bits = table.bits.copy()
        bits[:, 0] ^= 1
        flipped = SimpleNamespace(
            records=chains.records,
            columns=chains.columns,
            shot_table=lambda: ShotTable(bits, table.trajectory_ids, table.measured_qubits),
        )
        finding = check_wide_engines(circuit, frames, flipped)
        assert finding.status == "fail" and "fixed parity" in finding.detail

    def test_wide_smoke_spec_runs_both_engines_past_the_dense_cap(self):
        from repro.sweep.spec import load_spec

        spec = load_spec("benchmarks/sweeps/wide_smoke.yaml")
        cells = spec.expand()
        assert cells and all(c.strategies == ("clifford", "tensornet") for c in cells)
        assert all(30 <= c.width <= 40 for c in cells)
        assert all(c.budget_seconds is not None for c in cells)
        assert {c.family for c in cells} == {"msd_prep_clifford"}
