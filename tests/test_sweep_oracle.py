"""Small-width exact-oracle conformance: every named workload family.

For each family in the registry at n <= 5 qubits, a proportionally
apportioned exhaustive PTSBE run's pooled empirical distribution must
match the exact density-matrix reference — the same check the sweep
harness's distribution tier applies, exercised here as plain pytest so a
conformance break fails the unit suite even when no sweep runs.
"""

import pytest

from repro.channels.standard import device_profile
from repro.circuits.library import build_workload, get_workload, noisy, workload_names
from repro.execution import run_ptsbe
from repro.pts import ExhaustivePTS
from repro.sweep.oracle import PASS, check_distribution
from repro.sweep.spec import OracleSpec

SHOTS = 30_000
SEED = 13


def _width_for(family_name):
    fam = get_workload(family_name)
    return max(fam.min_width, min(5, fam.max_width))


@pytest.mark.parametrize("family_name", workload_names())
def test_family_matches_density_matrix_at_small_width(family_name):
    width = _width_for(family_name)
    if width > OracleSpec().distribution_max_qubits:
        pytest.skip(
            f"{family_name}'s minimum width {width} exceeds the "
            "density-matrix oracle cap (covered by the sweep's wide "
            "clifford cell instead)"
        )
    profile = device_profile("uniform_depolarizing")  # unitary mixture
    circuit = noisy(build_workload(family_name, width, seed=SEED), profile.noise_model())
    sampler = ExhaustivePTS(cutoff=1e-6, nshots=None, total_shots=SHOTS)
    result = run_ptsbe(circuit, sampler, seed=SEED)
    coverage = 0.0
    for record in result.records:
        coverage += record.nominal_probability
    finding = check_distribution(
        circuit,
        result.shot_table(),
        coverage,
        OracleSpec(tvd_tolerance=0.06),
        unitary_mixture=True,
        proportional_shots=True,
    )
    assert finding.status == PASS, f"{family_name} w{width}: {finding.detail}"
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


def test_relaxation_profile_is_skipped_by_distribution_tier():
    """Non-unitary profiles must skip (not fail) the statistical tier."""
    profile = device_profile("relaxation_dominated")
    assert not profile.unitary_mixture_only
    circuit = noisy(build_workload("ghz", 3, seed=SEED), profile.noise_model())
    sampler = ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=2000)
    result = run_ptsbe(circuit, sampler, seed=SEED)
    finding = check_distribution(
        circuit,
        result.shot_table(),
        1.0,
        OracleSpec(),
        unitary_mixture=False,
        proportional_shots=True,
    )
    assert finding.status == "skip"
    assert "non-unitary" in finding.detail


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
