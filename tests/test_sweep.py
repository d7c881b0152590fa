"""The scenario sweep harness: spec parsing, runner, oracle wiring, report."""

import json

import pytest

from repro.sweep import (
    CellSpec,
    FamilySweep,
    OracleSpec,
    SweepSpec,
    SweepSpecError,
    coverage_matrix,
    load_spec,
    make_sampler,
    render_markdown,
    run_cell,
    run_sweep,
    spec_from_dict,
    summary_dict,
    write_report,
)

SMOKE_DICT = {
    "name": "unit",
    "seed": 11,
    "shots": 3000,
    "sampler": "exhaustive",
    "sampler_options": {"cutoff": 1.0e-5},
    "strategies": ["serial", "vectorized"],
    "oracle": {"distribution_max_qubits": 6, "tvd_tolerance": 0.08},
    "sweeps": [
        {"family": "ghz", "widths": [3], "profiles": ["superconducting_median"]},
    ],
}


def _spec(**overrides):
    data = json.loads(json.dumps(SMOKE_DICT))
    data.update(overrides)
    return spec_from_dict(data)


class TestSpecParsing:
    def test_round_trip_dict(self):
        spec = spec_from_dict(SMOKE_DICT)
        assert spec.name == "unit"
        assert spec.strategies == ("serial", "vectorized")
        assert spec.oracle.tvd_tolerance == 0.08
        assert spec.to_dict()["sweeps"][0]["family"] == "ghz"

    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMOKE_DICT))
        assert load_spec(str(path)).name == "unit"

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(SMOKE_DICT))
        spec = load_spec(str(path))
        assert spec.shots == 3000
        assert spec.sweeps[0].widths == (3,)

    def test_repo_smoke_spec_parses(self):
        spec = load_spec("benchmarks/sweeps/smoke.yaml")
        cells = spec.expand()
        assert len(cells) == 6
        assert sum(len(c.strategies) for c in cells) >= 8  # acceptance floor
        # The clifford-only cell rides past the dense width cap.
        wide = [c for c in cells if c.family == "surface_syndrome"]
        assert wide and wide[0].width >= 30
        assert wide[0].strategies == ("clifford",)

    def test_unknown_family(self):
        with pytest.raises(SweepSpecError, match="unknown workload family"):
            _spec(sweeps=[{"family": "nope", "widths": [3], "profiles": ["uniform_depolarizing"]}])

    def test_unknown_profile(self):
        with pytest.raises(SweepSpecError, match="unknown noise profile"):
            _spec(sweeps=[{"family": "ghz", "widths": [3], "profiles": ["nope"]}])

    def test_unknown_strategy(self):
        with pytest.raises(SweepSpecError, match="unknown strategy"):
            _spec(strategies=["serial", "warp"])

    def test_unknown_top_level_key(self):
        data = dict(SMOKE_DICT, surprise=1)
        with pytest.raises(SweepSpecError, match="unknown key"):
            spec_from_dict(data)

    def test_unknown_oracle_key(self):
        data = json.loads(json.dumps(SMOKE_DICT))
        data["oracle"]["tvd"] = 0.1
        with pytest.raises(SweepSpecError, match="oracle"):
            spec_from_dict(data)

    def test_invalid_shots_and_sampler(self):
        with pytest.raises(SweepSpecError, match="shots"):
            _spec(shots=0)
        with pytest.raises(SweepSpecError, match="unknown sampler"):
            _spec(sampler="magic")

    def test_expand_order_and_duplicates(self):
        spec = _spec(sweeps=[
            {"family": "ghz", "widths": [3, 4],
             "profiles": ["uniform_depolarizing", "superconducting_median"]},
        ])
        cells = spec.expand()
        assert [c.cell_id for c in cells] == [
            "ghz_w3_uniform_depolarizing",
            "ghz_w3_superconducting_median",
            "ghz_w4_uniform_depolarizing",
            "ghz_w4_superconducting_median",
        ]
        dup = _spec(sweeps=[
            {"family": "ghz", "widths": [3], "profiles": ["uniform_depolarizing"]},
            {"family": "ghz", "widths": [3], "profiles": ["uniform_depolarizing"]},
        ])
        with pytest.raises(SweepSpecError, match="duplicate"):
            dup.expand()


class TestSampler:
    def _cell(self, **kw):
        base = dict(family="ghz", width=3, profile="uniform_depolarizing",
                    shots=1000, sampler="exhaustive", sampler_options=(), seed=1)
        base.update(kw)
        return CellSpec(**base)

    def test_exhaustive_proportional(self):
        sampler = make_sampler(self._cell(sampler_options=(("cutoff", 1e-4),)))
        assert sampler.total_shots == 1000
        assert sampler.cutoff == 1e-4

    def test_probabilistic(self):
        sampler = make_sampler(
            self._cell(sampler="probabilistic", sampler_options=(("nsamples", 50),))
        )
        assert sampler.nsamples == 50
        assert sampler.nshots == 20

    def test_unknown_option_rejected(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError, match="unknown exhaustive sampler options"):
            make_sampler(self._cell(sampler_options=(("typo", 1),)))


class TestRunner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(spec_from_dict(SMOKE_DICT))

    def test_cell_passes_all_tiers(self, result):
        (cell,) = result.cells
        assert cell.status == "pass"
        assert cell.finding("strategy_equivalence").status == "pass"
        assert cell.finding("distribution").status == "pass"
        streaming = [f for f in cell.findings if f.check == "streaming_concat"]
        assert len(streaming) == 2  # one per strategy
        assert all(f.status == "pass" for f in streaming)
        assert 0.9 < cell.coverage <= 1.0

    def test_verified_combos(self, result):
        assert sorted(result.verified_combos()) == [
            ("ghz", 3, "serial"), ("ghz", 3, "vectorized"),
        ]
        assert not result.failed

    def test_out_of_range_width_skips(self):
        spec = _spec(sweeps=[
            {"family": "qaoa_ring", "widths": [2], "profiles": ["uniform_depolarizing"]},
        ])  # qaoa_ring needs >= 3 qubits
        result = run_sweep(spec)
        (cell,) = result.cells
        assert cell.status == "skip"
        assert "outside" in cell.skip_reason
        assert cell.verified_strategies() == []

    def test_wide_cell_skips_distribution_only(self):
        spec = _spec(
            shots=400,
            oracle={"distribution_max_qubits": 4},
            sweeps=[{"family": "ghz", "widths": [6],
                     "profiles": ["uniform_depolarizing"]}],
        )
        (cell,) = run_sweep(spec).cells
        assert cell.status == "pass"  # skip of one tier never fails a cell
        assert cell.finding("distribution").status == "skip"
        assert cell.finding("strategy_equivalence").status == "pass"

    def test_non_unitary_profile_skips_distribution(self):
        spec = _spec(
            shots=400,
            sweeps=[{"family": "ghz", "widths": [3],
                     "profiles": ["relaxation_dominated"]}],
        )
        (cell,) = run_sweep(spec).cells
        assert cell.status == "pass"
        assert cell.finding("distribution").status == "skip"
        assert "non-unitary" in cell.finding("distribution").detail

    def test_probabilistic_sampler_skips_distribution(self):
        spec = _spec(shots=400, sampler="probabilistic",
                     sampler_options={"nsamples": 40})
        (cell,) = run_sweep(spec).cells
        assert cell.status == "pass"
        assert cell.finding("distribution").status == "skip"
        assert "proportionally" in cell.finding("distribution").detail

    def test_progress_callback(self):
        seen = []
        run_sweep(_spec(shots=200), progress=lambda c: seen.append(c.cell_id))
        assert seen == ["ghz_w3_superconducting_median"]

    def test_run_cell_serial_only(self):
        cell = CellSpec(family="ghz", width=3, profile="uniform_depolarizing",
                        shots=500, sampler="exhaustive", sampler_options=(), seed=2)
        result = run_cell(cell, ("serial",), OracleSpec())
        assert result.status == "pass"
        # Single strategy: equivalence tier has nothing to compare.
        assert result.finding("strategy_equivalence") is None
        assert result.verified_strategies() == ["serial"]


class TestReport:
    @pytest.fixture(scope="class")
    def result(self):
        spec = spec_from_dict(dict(
            SMOKE_DICT,
            sweeps=[
                {"family": "ghz", "widths": [3], "profiles": ["superconducting_median"]},
                {"family": "qaoa_ring", "widths": [2], "profiles": ["uniform_depolarizing"]},
            ],
        ))
        return run_sweep(spec)

    def test_coverage_matrix_covers_every_combo(self, result):
        records = coverage_matrix(result)
        assert len(records) == 4  # 2 cells x 2 strategies (skip included)
        statuses = {(r["family"], r["strategy"]): r["status"] for r in records}
        assert statuses[("ghz", "serial")] == "pass"
        assert statuses[("qaoa_ring", "serial")] == "skip"

    def test_markdown_contains_matrix_and_skips(self, result):
        md = render_markdown(result)
        assert "Sweep coverage matrix" in md
        assert "profile: `superconducting_median`" in md
        assert "| ghz | 3 |" in md
        assert "Skipped cells" in md
        assert "qaoa_ring_w2_uniform_depolarizing" in md

    def test_summary_json_serializable(self, result):
        summary = summary_dict(result)
        blob = json.loads(json.dumps(summary))
        assert blob["cells"] == {
            "total": 2, "pass": 1, "fail": 0, "skip": 1, "timeout": 0,
        }
        assert len(blob["verified_combos"]) == 2
        assert blob["spec"]["name"] == "unit"

    def test_write_report(self, result, tmp_path):
        md = tmp_path / "report.md"
        js = tmp_path / "report.json"
        summary = write_report(result, str(md), str(js))
        assert md.read_text().startswith("# Sweep coverage matrix")
        assert json.loads(js.read_text()) == json.loads(json.dumps(summary))


class TestBudgets:
    def test_budget_parsing_and_override(self):
        spec = _spec(
            cell_budget_seconds=30.0,
            sweeps=[
                {"family": "ghz", "widths": [3],
                 "profiles": ["uniform_depolarizing"]},
                {"family": "ghz", "widths": [4],
                 "profiles": ["uniform_depolarizing"], "budget_seconds": 5.0},
            ],
        )
        cells = spec.expand()
        assert cells[0].budget_seconds == 30.0  # spec-level default
        assert cells[1].budget_seconds == 5.0  # family override wins
        blob = spec.to_dict()
        assert blob["cell_budget_seconds"] == 30.0
        assert blob["sweeps"][1]["budget_seconds"] == 5.0
        # Round trip preserves budgets.
        again = spec_from_dict(blob)
        assert [c.budget_seconds for c in again.expand()] == [30.0, 5.0]

    def test_no_budget_means_none(self):
        (cell,) = _spec().expand()
        assert cell.budget_seconds is None

    def test_invalid_budget_rejected(self):
        with pytest.raises(SweepSpecError, match="budget"):
            _spec(cell_budget_seconds=0)
        with pytest.raises(SweepSpecError, match="budget"):
            _spec(sweeps=[{"family": "ghz", "widths": [3],
                           "profiles": ["uniform_depolarizing"],
                           "budget_seconds": -1}])

    def test_blown_budget_marks_timeout(self):
        from repro.sweep import OracleSpec, run_cell

        cell = CellSpec(
            family="ghz", width=3, profile="uniform_depolarizing",
            shots=500, sampler="exhaustive", sampler_options=(), seed=2,
            budget_seconds=1e-9,
        )
        result = run_cell(cell, ("serial",), OracleSpec())
        assert result.status == "timeout"
        assert result.elapsed_seconds > 1e-9
        # The strategy passed its own checks, but an over-budget cell
        # contributes no *verified* combos.
        assert result.outcomes[0].verified
        assert result.verified_strategies() == []

    def test_timeout_in_report_and_counts(self):
        spec = _spec(cell_budget_seconds=1e-9, shots=300)
        result = run_sweep(spec)
        assert result.counts()["timeout"] == 1
        assert result.timed_out and not result.failed
        md = render_markdown(result)
        assert "Timeouts" in md and "⏱" in md
        records = coverage_matrix(result)
        assert all(r["status"] == "timeout" for r in records)
        blob = summary_dict(result)
        assert blob["cells"]["timeout"] == 1
        finding = blob["findings"][0]
        assert finding["status"] == "timeout"
        assert finding["elapsed_seconds"] > 0
        assert finding["budget_seconds"] == 1e-9

    def test_oracle_failure_beats_timeout(self, monkeypatch):
        """A cell that both fails its oracle and blows its budget reports
        fail — an over-budget pass is a timeout, an over-budget fail is
        still a fail."""
        import repro.sweep.runner as runner_mod
        from repro.sweep import OracleSpec, run_cell
        from repro.sweep.oracle import FAIL, OracleFinding

        monkeypatch.setattr(
            runner_mod,
            "check_strategy_equivalence",
            lambda *a, **k: OracleFinding(
                check="strategy_equivalence", status=FAIL, detail="forced"
            ),
        )
        cell = CellSpec(
            family="ghz", width=3, profile="uniform_depolarizing",
            shots=200, sampler="exhaustive", sampler_options=(), seed=2,
            budget_seconds=1e-9,
        )
        result = run_cell(cell, ("serial", "vectorized"), OracleSpec())
        assert result.status == "fail"

    def test_sweep_cli_strict_exit_code(self, tmp_path):
        from repro.sweep.__main__ import main

        data = dict(
            SMOKE_DICT, shots=300, cell_budget_seconds=1e-9,
            strategies=["serial"],
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = ["--spec", str(spec_path), "--out-dir", str(out)]
        assert main(argv) == 0  # timeout alone is not a failure
        assert sorted(p.name for p in out.iterdir()) == [
            "sweep_report.json", "sweep_report.md",
        ]
        assert main(argv + ["--strict"]) == 1

    def test_sweep_cli_usage_exit_codes(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        assert main(["--list"]) == 0
        assert "workload families:" in capsys.readouterr().out
        assert main(["--spec", str(tmp_path / "missing.yaml")]) == 2
        with pytest.raises(SystemExit) as exit_info:
            main(["--out-dir", str(tmp_path)])  # --spec is required
        assert exit_info.value.code == 2


class TestFailurePath:
    def test_mismatched_table_fails_cell(self):
        """Feed the equivalence check a corrupted table: the finding and
        the cell-level verdict must both fail."""
        import numpy as np

        from repro.sweep.oracle import check_strategy_equivalence
        from repro.execution import ShotTable

        bits = np.zeros((4, 2), dtype=np.uint8)
        tids = np.zeros(4, dtype=np.int64)
        ref = ShotTable(bits=bits, trajectory_ids=tids, measured_qubits=(0, 1))
        bad_bits = bits.copy()
        bad_bits[0, 0] = 1
        bad = ShotTable(bits=bad_bits, trajectory_ids=tids, measured_qubits=(0, 1))
        finding = check_strategy_equivalence("serial", ref, {"vectorized": bad})
        assert finding.status == "fail"
        assert "vectorized" in finding.detail
        assert not finding.ok

    def test_streaming_concat_detects_dropped_chunk(self):
        import numpy as np

        from repro.sweep.oracle import check_streaming_concat
        from repro.execution import ShotTable

        bits = np.ones((6, 1), dtype=np.uint8)
        tids = np.arange(6, dtype=np.int64)
        full = ShotTable(bits=bits, trajectory_ids=tids, measured_qubits=(0,))
        half = ShotTable(bits=bits[:3], trajectory_ids=tids[:3], measured_qubits=(0,))
        finding = check_streaming_concat("serial", (half,), full)
        assert finding.status == "fail"
        assert check_streaming_concat("serial", (), full).status == "fail"

    def test_distribution_failure_reports_metrics(self):
        """A deliberately wrong empirical table must fail with TVD metrics."""
        import numpy as np

        from repro.channels.standard import device_profile
        from repro.circuits.library import build_workload, noisy
        from repro.sweep.oracle import check_distribution
        from repro.execution import ShotTable

        circuit = noisy(
            build_workload("ghz", 3, seed=1),
            device_profile("uniform_depolarizing").noise_model(),
        )
        # All-zeros shots: ~half the GHZ mass is on |111>, so TVD ~ 0.5.
        bits = np.zeros((2000, 3), dtype=np.uint8)
        table = ShotTable(
            bits=bits,
            trajectory_ids=np.zeros(2000, dtype=np.int64),
            measured_qubits=(0, 1, 2),
        )
        finding = check_distribution(
            circuit, table, 1.0, OracleSpec(), True, True
        )
        assert finding.status == "fail"
        assert finding.metric("tvd") > 0.3
