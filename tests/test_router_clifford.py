"""Engine router + Clifford frame executor: decisions, determinism, conformance.

Four contracts under test:

1. **Routing decisions** — ``strategy="auto"`` sends pure-Clifford
   circuits with Pauli-mixture noise to the frame engine and everything
   else to the pre-router dense dispatch, every decision recorded on the
   result; an explicit strategy name is never rerouted.
2. **Seeded replay** — clifford runs are bitwise reproducible for a
   fixed seed (its own contract; it is *not* bitwise tied to dense).
3. **Dense bitwise stability** — on circuits the router declines, auto
   produces exactly the pre-router tables (serial for a statevector
   spec, vectorized for batched), so introducing the router changed no
   existing dense output.
4. **Distributional conformance** — the frame engine's pooled table
   passes the same sweep-oracle distribution check the dense reference
   passes, with identical per-trajectory weights.
"""

import numpy as np
import pytest

import repro.channels.unitary_mixture as unitary_mixture_mod
from repro.channels import NoiseModel, depolarizing, pauli_string_matrix
from repro.channels.pauli import pauli_from_unitary
from repro.channels.standard import amplitude_damping, bit_flip
from repro.circuits import Circuit, library
from repro.errors import ExecutionError
from repro.execution import (
    BackendSpec,
    CliffordFrameExecutor,
    analyze_circuit,
    resolve_strategy,
    run_ptsbe,
    run_ptsbe_stream,
)
from repro.pts import ExhaustivePTS, ProbabilisticPTS, ProportionalPTS
from repro.sweep.oracle import PASS, check_distribution
from repro.sweep.spec import OracleSpec


@pytest.fixture
def clifford_circuit():
    """GHZ + depolarizing after CX: frame-eligible."""
    ideal = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    return model.apply(ideal).freeze()


@pytest.fixture
def t_gate_circuit():
    """Contains a T gate: frame-ineligible."""
    ideal = Circuit(2).h(0).t(0).cx(0, 1).measure_all()
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    return model.apply(ideal).freeze()


@pytest.fixture
def damping_circuit():
    """Clifford gates but amplitude damping: frame-ineligible."""
    ideal = Circuit(2).h(0).cx(0, 1).measure_all()
    model = NoiseModel().add_all_qubit_gate_noise("cx", amplitude_damping(0.08))
    return model.apply(ideal).freeze()


class TestRoutingDecisions:
    def test_clifford_circuit_routes_to_frames(self, clifford_circuit):
        resolved, reason = resolve_strategy(
            clifford_circuit, BackendSpec.statevector(), "auto"
        )
        assert resolved == "clifford"
        assert reason.startswith("auto->clifford")

    def test_non_clifford_gate_declines(self, t_gate_circuit):
        resolved, reason = resolve_strategy(
            t_gate_circuit, BackendSpec.statevector(), "auto"
        )
        assert resolved == "serial"
        assert "non-Clifford" in reason

    def test_non_pauli_channel_declines(self, damping_circuit):
        resolved, reason = resolve_strategy(
            damping_circuit, BackendSpec.statevector(), "auto"
        )
        assert resolved == "serial"
        assert "not a unitary mixture" in reason

    @pytest.mark.parametrize("rate", [1e-9, 1e-10, 1e-12])
    def test_rare_depolarizing_noise_routes_to_frames(self, rate):
        """A Pauli channel whose error branches sit far below the analysis
        tolerance is still a Pauli mixture: ``auto`` picks frames, which
        weigh every trajectory as the dense engine does."""
        noisy = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(rate))
        circuit = noisy.apply(library.ghz(3, measure=True)).freeze()
        resolved, reason = resolve_strategy(circuit, BackendSpec.statevector(), "auto")
        assert resolved == "clifford"
        assert reason == "auto->clifford: 3 Clifford gates, 4 Pauli-mixture noise sites"
        sampler = ExhaustivePTS(cutoff=1e-30, nshots=10, max_errors=1)
        frames = run_ptsbe(circuit, sampler, seed=3)
        dense = run_ptsbe(circuit, sampler, seed=3, strategy="serial")
        assert frames.engine == "clifford" and frames.num_trajectories == 13
        np.testing.assert_allclose(
            [t.actual_weight for t in frames.trajectories],
            [t.actual_weight for t in dense.trajectories],
            rtol=1e-12,
        )

    def test_batched_kind_declines_to_vectorized(self, t_gate_circuit):
        resolved, _ = resolve_strategy(
            t_gate_circuit, BackendSpec.batched_statevector(), "auto"
        )
        assert resolved == "vectorized"

    def test_mps_backend_declines(self, clifford_circuit):
        resolved, reason = resolve_strategy(
            clifford_circuit, BackendSpec.mps(), "auto"
        )
        assert resolved == "serial"
        assert "'mps'" in reason

    def test_explicit_strategy_never_rerouted(self, clifford_circuit):
        for name in ("serial", "vectorized", "parallel", "sharded", "clifford"):
            resolved, reason = resolve_strategy(
                clifford_circuit, BackendSpec.statevector(), name
            )
            assert resolved == name
            assert "explicit" in reason

    def test_no_measurement_declines(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1)
        circuit.attach(depolarizing(0.05), 0)
        circuit.freeze()
        profile = analyze_circuit(circuit)
        assert not profile.frame_eligible
        assert "no measurements" in profile.reason

    def test_repeat_analysis_reads_the_channels_own_analysis(self, clifford_circuit, monkeypatch):
        first = analyze_circuit(clifford_circuit)
        calls = []
        real = unitary_mixture_mod.as_unitary_mixture
        monkeypatch.setattr(
            unitary_mixture_mod,
            "as_unitary_mixture",
            lambda channel: calls.append(channel) or real(channel),
        )
        assert analyze_circuit(clifford_circuit) == first
        assert calls == []

    def test_requires_frozen(self):
        with pytest.raises(ExecutionError, match="frozen"):
            analyze_circuit(Circuit(2).h(0).measure_all())

    @pytest.mark.parametrize("strategy", ["auto", "clifford"])
    def test_a_run_walks_the_circuit_once(self, monkeypatch, strategy):
        """Routing and the clifford engine's fit check share the circuit's
        profile: one walk per circuit object, however many runs."""
        import repro.execution.router as router

        walks = []
        real = router.analyze_circuit
        monkeypatch.setattr(router, "analyze_circuit", lambda c: walks.append(c) or real(c))
        ideal = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        circuit = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05)).apply(ideal)
        circuit.freeze()
        for seed in (1, 2):
            result = run_ptsbe(circuit, ProportionalPTS(total_shots=100), seed=seed,
                               strategy=strategy)
            assert result.engine == "clifford"
        assert walks == [circuit]
        other = circuit.copy().freeze()
        assert resolve_strategy(other, BackendSpec(), "auto")[0] == "clifford"
        assert walks == [circuit, other]


class TestEngineRecording:
    def test_auto_records_clifford(self, clifford_circuit):
        result = run_ptsbe(
            clifford_circuit, ProportionalPTS(total_shots=500), seed=5
        )
        assert result.engine == "clifford"
        assert result.routing.startswith("auto->clifford")

    def test_auto_records_dense_decline(self, t_gate_circuit):
        result = run_ptsbe(
            t_gate_circuit, ProportionalPTS(total_shots=500), seed=5
        )
        assert result.engine == "serial"
        assert "non-Clifford" in result.routing

    def test_every_explicit_strategy_records_engine(self, clifford_circuit):
        sampler = ProportionalPTS(total_shots=300)
        for name in ("serial", "vectorized", "parallel", "sharded", "clifford"):
            backend = (
                BackendSpec.batched_statevector()
                if name in ("vectorized", "sharded")
                else BackendSpec.statevector()
            )
            result = run_ptsbe(clifford_circuit, sampler, backend, seed=5, strategy=name)
            assert result.engine == name
            assert result.routing == f"explicit strategy {name!r}"

    def test_stream_records_engine_and_routing(self, clifford_circuit):
        stream = run_ptsbe_stream(
            clifford_circuit, ProportionalPTS(total_shots=300), seed=5
        )
        assert stream.engine == "clifford"
        assert stream.routing.startswith("auto->clifford")
        result = stream.finalize()
        assert result.engine == "clifford"
        assert result.routing == stream.routing


class TestCliffordDeterminism:
    def test_seeded_replay_bitwise(self, clifford_circuit):
        sampler = ExhaustivePTS(cutoff=1e-5, nshots=None, total_shots=4000)
        a = run_ptsbe(clifford_circuit, sampler, seed=17)
        b = run_ptsbe(clifford_circuit, sampler, seed=17)
        assert a.engine == b.engine == "clifford"
        np.testing.assert_array_equal(a.shot_table().bits, b.shot_table().bits)
        np.testing.assert_array_equal(
            a.shot_table().trajectory_ids, b.shot_table().trajectory_ids
        )

    def test_auto_equals_explicit_clifford(self, clifford_circuit):
        sampler = ProportionalPTS(total_shots=2000)
        auto = run_ptsbe(clifford_circuit, sampler, seed=17)
        explicit = run_ptsbe(clifford_circuit, sampler, seed=17, strategy="clifford")
        np.testing.assert_array_equal(
            auto.shot_table().bits, explicit.shot_table().bits
        )

    def test_unseeded_run_replays_via_resolved_seed(self, clifford_circuit):
        sampler = ProportionalPTS(total_shots=1000)
        first = run_ptsbe(clifford_circuit, sampler)
        replay = run_ptsbe(clifford_circuit, sampler, seed=first.seed)
        np.testing.assert_array_equal(
            first.shot_table().bits, replay.shot_table().bits
        )

    def test_retain_false_streams_without_finalize(self, clifford_circuit):
        stream = run_ptsbe_stream(
            clifford_circuit, ProportionalPTS(total_shots=1000), seed=3,
            retain=False,
        )
        total = sum(chunk.num_shots for chunk in stream)
        assert total == 1000
        with pytest.raises(ExecutionError):
            stream.finalize()

    def test_midstream_close(self, clifford_circuit):
        stream = run_ptsbe_stream(
            clifford_circuit,
            ExhaustivePTS(cutoff=1e-5, nshots=None, total_shots=3000),
            seed=3,
        )
        next(iter(stream))
        stream.close()  # must not raise


class TestDenseBitwiseStability:
    """Auto on router-declined circuits = pre-router dispatch, bitwise."""

    def test_statevector_auto_matches_serial(self, t_gate_circuit):
        sampler = ProbabilisticPTS(nsamples=60, nshots=50)
        auto = run_ptsbe(t_gate_circuit, sampler, seed=9)
        pinned = run_ptsbe(t_gate_circuit, sampler, seed=9, strategy="serial")
        assert auto.engine == "serial"
        np.testing.assert_array_equal(
            auto.shot_table().bits, pinned.shot_table().bits
        )

    def test_batched_auto_matches_vectorized(self, t_gate_circuit):
        sampler = ProbabilisticPTS(nsamples=60, nshots=50)
        auto = run_ptsbe(
            t_gate_circuit, sampler, BackendSpec.batched_statevector(), seed=9
        )
        pinned = run_ptsbe(
            t_gate_circuit, sampler, BackendSpec.batched_statevector(), seed=9,
            strategy="vectorized",
        )
        assert auto.engine == "vectorized"
        np.testing.assert_array_equal(
            auto.shot_table().bits, pinned.shot_table().bits
        )

    def test_explicit_serial_pins_clifford_workload_to_dense(self, clifford_circuit):
        sampler = ProbabilisticPTS(nsamples=40, nshots=50)
        auto = run_ptsbe(clifford_circuit, sampler, seed=9)
        pinned = run_ptsbe(clifford_circuit, sampler, seed=9, strategy="serial")
        assert (auto.engine, pinned.engine) == ("clifford", "serial")
        # One PTS draw: the same trajectories, realized by another engine.
        assert [(r.trajectory_id, r.choices) for r in auto.records] == [
            (r.trajectory_id, r.choices) for r in pinned.records
        ]


class TestFrameConformance:
    def test_distribution_matches_dense_reference(self, clifford_circuit):
        """Frame and serial tables both pass the sweep-oracle distribution
        tier against the exact density-matrix reference."""
        sampler = ExhaustivePTS(cutoff=1e-6, nshots=None, total_shots=30_000)
        frames = run_ptsbe(clifford_circuit, sampler, seed=13, strategy="clifford")
        serial = run_ptsbe(clifford_circuit, sampler, seed=13, strategy="serial")
        oracle = OracleSpec(tvd_tolerance=0.03)
        for result in (frames, serial):
            finding = check_distribution(clifford_circuit, result, oracle, True)
            assert finding.status == PASS, f"{result.engine}: {finding.detail}"

    def test_weights_match_dense_exactly(self, clifford_circuit):
        sampler = ExhaustivePTS(cutoff=1e-5, nshots=None, total_shots=2000)
        frames = run_ptsbe(clifford_circuit, sampler, seed=13, strategy="clifford")
        serial = run_ptsbe(clifford_circuit, sampler, seed=13, strategy="serial")
        fw = {t.record.trajectory_id: t.actual_weight for t in frames.trajectories}
        sw = {t.record.trajectory_id: t.actual_weight for t in serial.trajectories}
        assert fw.keys() == sw.keys()
        for tid, weight in fw.items():
            assert weight == pytest.approx(sw[tid], abs=1e-12)

    def test_dedup_counts_unique_preparations(self, clifford_circuit):
        sampler = ExhaustivePTS(cutoff=1e-5, nshots=None, total_shots=2000)
        result = run_ptsbe(clifford_circuit, sampler, seed=13, strategy="clifford")
        assert result.unique_preparations is not None
        assert result.unique_preparations <= result.num_trajectories


class TestCliffordRejections:
    def test_non_clifford_circuit_raises(self, t_gate_circuit):
        with pytest.raises(ExecutionError, match="pure-Clifford"):
            run_ptsbe(
                t_gate_circuit, ProportionalPTS(total_shots=100), seed=1,
                strategy="clifford",
            )

    def test_non_pauli_noise_raises(self, damping_circuit):
        with pytest.raises(ExecutionError, match="Pauli-mixture"):
            run_ptsbe(
                damping_circuit, ProportionalPTS(total_shots=100), seed=1,
                strategy="clifford",
            )

    def test_mps_backend_spec_rejected(self):
        with pytest.raises(ExecutionError, match="mps"):
            CliffordFrameExecutor(backend=BackendSpec.mps())


class TestAlgebraicPauliRecognition:
    """The O(4^n)-scan replacement must keep exact label semantics."""

    @pytest.mark.parametrize("label", ["X", "Z", "XY", "ZI", "IXZ", "YYX"])
    def test_recovers_labels(self, label):
        matrix = pauli_string_matrix(label)
        recognized = pauli_from_unitary(matrix, len(label))
        assert recognized is not None
        assert recognized.label() == label

    def test_accepts_global_phase(self):
        matrix = np.exp(0.37j) * pauli_string_matrix("XZ")
        recognized = pauli_from_unitary(matrix, 2)
        assert recognized is not None
        assert recognized.label() == "XZ"

    def test_rejects_hadamard(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert pauli_from_unitary(h, 1) is None

    def test_rejects_scaled_pauli(self):
        assert pauli_from_unitary(0.5 * pauli_string_matrix("X"), 1) is None

    def test_rejects_sum_of_paulis(self):
        m = 0.8 * pauli_string_matrix("XX") + 0.6 * pauli_string_matrix("ZZ")
        assert pauli_from_unitary(m, 2) is None
