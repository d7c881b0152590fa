"""MPS backend: exactness at full bond, truncation, routing, sampling.

``MPSBackend`` is the one-row view of ``BatchedMPSStack``: it routes
without swapping back, so every single-state read goes through
``site_of``, and ``strategy="serial"`` on ``BackendSpec.mps`` is the
tensornet adapter at ``max_batch=1``, bit for bit.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.mps import MPSBackend
from repro.backends.statevector import StatevectorBackend
from repro.channels.standard import amplitude_damping, device_profile
from repro.circuits import Circuit, library
from repro.circuits.gates import CCX, CX, H, T, X
from repro.circuits.library import build_workload, noisy
from repro.errors import BackendError
from repro.execution import BackendSpec, compile_schedule, run_ptsbe, tensornet
from repro.execution.batched import build_executor
from repro.pts import ProbabilisticPTS
from repro.rng import make_rng

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run_both(circ):
    sv = StatevectorBackend(circ.num_qubits)
    mps = MPSBackend(circ.num_qubits, max_bond=256)
    for op in circ.coherent_ops:
        sv.apply_gate(op.gate, op.qubits)
        mps.apply_gate(op.gate, op.qubits)
    return sv, mps


class TestExactness:
    def test_initial_state(self):
        mps = MPSBackend(3)
        psi = mps.to_statevector()
        assert abs(psi[0] - 1.0) < 1e-12

    def test_single_qubit_gates(self):
        circ = Circuit(3).h(0).x(1).t(2)
        sv, mps = _run_both(circ)
        assert np.allclose(mps.to_statevector(), sv.statevector, atol=1e-10)

    def test_adjacent_two_qubit(self):
        circ = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        sv, mps = _run_both(circ)
        assert np.allclose(mps.to_statevector(), sv.statevector, atol=1e-10)

    def test_long_range_two_qubit_swap_routing(self):
        circ = Circuit(5).h(0).cx(0, 4)
        sv, mps = _run_both(circ)
        assert np.allclose(mps.to_statevector(), sv.statevector, atol=1e-10)

    def test_reversed_target_order(self):
        circ = Circuit(3).x(2).cx(2, 0)
        sv, mps = _run_both(circ)
        assert np.allclose(mps.to_statevector(), sv.statevector, atol=1e-10)

    @pytest.mark.parametrize("depth", [2, 4])
    def test_random_brickwork_exact_at_full_bond(self, depth):
        circ = library.random_brickwork(6, depth, rng=make_rng(depth))
        sv, mps = _run_both(circ)
        fidelity = abs(np.vdot(sv.statevector, mps.to_statevector())) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-9)
        assert mps.truncation_error < 1e-12

    def test_three_qubit_gate_on_scattered_qubits_is_exact(self):
        circ = Circuit(5).h(0).h(4).x(2).t(4).gate(CCX, 0, 4, 2).h(1).cx(1, 3)
        sv, mps = _run_both(circ)
        assert mps.site_of != list(range(5))  # routed, not swapped back
        np.testing.assert_allclose(mps.to_statevector(), sv.statevector, atol=1e-12)
        assert mps.truncation_error == 0.0

    def test_four_qubit_matrix_rejected(self):
        mps = MPSBackend(4)
        with pytest.raises(BackendError, match="1- to 3-qubit"):
            mps.apply_matrix(np.eye(16), [0, 1, 2, 3])
        with pytest.raises(BackendError, match="expected a 4x4 matrix"):
            mps.apply_matrix(np.eye(8), [0, 1])


class TestTruncation:
    def test_bond_cap_enforced(self):
        circ = library.random_brickwork(8, 6, rng=make_rng(1))
        mps = MPSBackend(8, max_bond=4)
        for op in circ.coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        assert max(mps.bond_dimensions()) <= 4
        assert mps.truncation_error > 0

    def test_truncation_error_decreases_with_bond(self):
        circ = library.random_brickwork(8, 4, rng=make_rng(2))
        errors = []
        for chi in (2, 8, 64):
            mps = MPSBackend(8, max_bond=chi)
            for op in circ.coherent_ops:
                mps.apply_gate(op.gate, op.qubits)
            errors.append(mps.truncation_error)
        assert errors[0] >= errors[1] >= errors[2]

    def test_ghz_needs_only_bond_two(self):
        circ = library.ghz(10)
        mps = MPSBackend(10, max_bond=2)
        for op in circ.coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        assert mps.truncation_error < 1e-12
        assert max(mps.bond_dimensions()) == 2


class TestNormsAndExpectations:
    def test_norm_after_unitaries(self):
        circ = library.random_brickwork(5, 3, rng=make_rng(3))
        mps = MPSBackend(5)
        for op in circ.coherent_ops:
            mps.apply_gate(op.gate, op.qubits)
        assert mps.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_renormalize_after_kraus(self):
        mps = MPSBackend(2)
        mps.apply_gate(H, [0])
        prob = mps.apply_channel_choice(amplitude_damping(0.5), [0], 1)
        assert prob == pytest.approx(0.25)
        assert mps.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_expectation_local_matches_statevector(self):
        circ = library.random_brickwork(5, 3, rng=make_rng(4))
        sv, mps = _run_both(circ)
        z = np.diag([1.0, -1.0])
        for q in range(5):
            expected = sv.expectation_local(z, [q])
            got = mps.expectation_local(z, [q])
            assert got.real == pytest.approx(expected.real, abs=1e-8)

    def test_branch_probabilities_match_statevector(self):
        circ = library.random_brickwork(4, 2, rng=make_rng(5))
        sv, mps = _run_both(circ)
        ch = amplitude_damping(0.3)
        assert np.allclose(
            mps.branch_probabilities(ch, [2]), sv.branch_probabilities(ch, [2]), atol=1e-8
        )

    def test_inner_product(self):
        a = MPSBackend(3)
        b = MPSBackend(3)
        b.apply_gate(X, [0])
        assert abs(a.inner(a) - 1.0) < 1e-10
        assert abs(a.inner(b)) < 1e-10


class TestConversion:
    def test_from_statevector_roundtrip(self, rng):
        from haar import random_statevector

        psi = random_statevector(5, rng)
        mps = MPSBackend.from_statevector(psi)
        assert np.allclose(mps.to_statevector(), psi, atol=1e-10)

    def test_from_statevector_truncated_is_normalized_up_to_weight(self, rng):
        from haar import random_statevector

        psi = random_statevector(6, rng)
        mps = MPSBackend.from_statevector(psi, max_bond=2)
        assert mps.truncation_error > 0
        fid = abs(np.vdot(psi, mps.to_statevector())) ** 2
        assert fid < 1.0

    def test_run_fixed_matches_statevector(self, noisy_ghz3):
        mps = MPSBackend(3, max_bond=16)
        sv = StatevectorBackend(3)
        w_mps = mps.run_fixed(noisy_ghz3, {0: 1})
        w_sv = sv.run_fixed(noisy_ghz3, {0: 1})
        assert w_mps == pytest.approx(w_sv, abs=1e-9)
        assert np.allclose(mps.to_statevector(), sv.statevector, atol=1e-8)


def _routed():
    """The dense reference, and a 6-qubit MPS whose chain no longer holds
    qubit q at site q."""
    circ = library.random_brickwork(6, 2, rng=make_rng(40))
    sv, mps = _run_both(circ.cx(0, 5).cx(4, 1).gate(CCX, 5, 0, 3).h(2).cx(3, 0))
    assert mps.site_of != list(range(6))
    return sv, mps


class TestSingleStateAfterRouting:
    """The single-state API reads the chain through ``site_of``, and stays
    exact when routing has left the qubits away from their home sites."""

    def test_to_statevector(self):
        sv, mps = _routed()
        np.testing.assert_allclose(mps.to_statevector(), sv.statevector, atol=1e-12)

    @pytest.mark.parametrize("qubits", [[0], [5], [0, 4], [5, 1]])
    def test_expectation_local(self, qubits):
        sv, mps = _routed()
        d = 1 << len(qubits)
        a = make_rng(41).normal(size=(d, 2 * d)).view(np.complex128)
        op = a + a.conj().T  # Hermitian, and not a product of 1q operators
        want = sv.expectation_local(op, qubits)
        assert mps.expectation_local(op, qubits) == pytest.approx(want, abs=1e-12)

    def test_branch_probabilities(self):
        sv, mps = _routed()
        channel = amplitude_damping(0.3)
        for q in range(6):
            np.testing.assert_allclose(
                mps.branch_probabilities(channel, [q]),
                sv.branch_probabilities(channel, [q]),
                atol=1e-12,
            )

    def test_inner_between_different_qubit_orders(self):
        sv, mps = _routed()
        home = MPSBackend.from_statevector(sv.statevector)
        assert home.site_of == list(range(6)) != mps.site_of
        assert mps.inner(home) == pytest.approx(1.0, abs=1e-12)
        assert home.inner(mps) == pytest.approx(1.0, abs=1e-12)
        other = StatevectorBackend(6)
        other.apply_gate(H, [3])
        want = np.vdot(other.statevector, sv.statevector)
        got = MPSBackend.from_statevector(other.statevector).inner(mps)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("qubit", [-1, 6])
    def test_sample_rejects_a_qubit_outside_the_register(self, qubit):
        _, mps = _routed()
        with pytest.raises(BackendError, match=f"qubit {qubit} is outside a 6-qubit register"):
            mps.sample(3, [0, qubit], make_rng(0))

    def test_sample_reads_qubits_at_their_sites(self):
        mps = MPSBackend(4)
        mps.apply_gate(X, [3])
        mps.apply_gate(CX, [3, 0])  # routes qubit 3 to site 1
        assert mps.site_of == [0, 2, 3, 1]
        bits = mps.sample(20, [3, 2, 1, 0], make_rng(1))
        assert np.all(bits == [1, 0, 0, 1])

    def test_copy_is_independent(self):
        sv, mps = _routed()
        twin = mps.copy()
        ref = StatevectorBackend(6)
        ref.set_statevector(sv.statevector)
        for gate, qubits in [(X, [2]), (CX, [0, 5]), (CX, [4, 1])]:
            twin.apply_gate(gate, qubits)
            ref.apply_gate(gate, qubits)
        assert twin.site_of != mps.site_of
        np.testing.assert_allclose(mps.to_statevector(), sv.statevector, atol=1e-12)
        np.testing.assert_allclose(twin.to_statevector(), ref.statevector, atol=1e-12)
        mps.renormalize()
        want = np.vdot(ref.statevector, sv.statevector)
        assert twin.inner(mps) == pytest.approx(want, abs=1e-12)


def _msd_x():
    example = runpy.run_path(str(EXAMPLES / "msd_dataset.py"), run_name="example")
    return example["build_circuit"]("x")


def _profiled(workload, profile, seed=0):
    return noisy(build_workload(workload, 8, seed=seed), device_profile(profile).noise_model())


ONE_IMPLEMENTATION = {
    "msd-35q": (_msd_x, 16, (30, 2000), 17),
    "qft-8q": (lambda: _profiled("qft", "superconducting_median"), 4, (40, 500), 3),
    "brickwork-8q": (lambda: _profiled("brickwork", "relaxation_dominated", 1), 4, (40, 500), 4),
    "ghz-8q": (lambda: _profiled("ghz", "uniform_depolarizing"), 4, (40, 500), 5),
}


class TestOneImplementation:
    """``strategy="serial"`` (or its alias ``parallel``) on
    ``BackendSpec.mps`` runs the tensornet replay on one row: the same shot
    table, trajectory ids and weights as ``strategy="tensornet"`` at
    ``max_batch=1``."""

    @staticmethod
    def _runs(name, strategy="serial"):
        build, bond, (nsamples, nshots), seed = ONE_IMPLEMENTATION[name]
        circuit, spec = build(), BackendSpec.mps(max_bond=bond)
        sampler = ProbabilisticPTS(nsamples, nshots)
        serial = run_ptsbe(circuit, sampler, spec, seed=seed, strategy=strategy)
        tensornet = run_ptsbe(
            circuit, sampler, spec, seed=seed, strategy="tensornet",
            executor_kwargs={"max_batch": 1},
        )
        return serial, tensornet

    @staticmethod
    def _assert_same(serial, tensornet):
        assert serial.num_trajectories > 1
        a, b = serial.shot_table(), tensornet.shot_table()
        np.testing.assert_array_equal(a.bits, b.bits)
        np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
        assert [t.actual_weight for t in serial.trajectories] == [
            t.actual_weight for t in tensornet.trajectories
        ]

    @pytest.mark.parametrize("name", list(ONE_IMPLEMENTATION))
    def test_serial_mps_is_tensornet_at_one_row(self, name):
        self._assert_same(*self._runs(name))

    @pytest.mark.parametrize("name", list(ONE_IMPLEMENTATION))
    def test_the_parallel_alias_too(self, name):
        self._assert_same(*self._runs(name, "parallel"))

    def test_run_fixed_ends_on_the_schedules_sites(self):
        circ = Circuit(5).h(0).cx(0, 4).cx(4, 2).measure_all().freeze()
        mps = MPSBackend(5)
        mps.run_fixed(circ)
        assert mps.site_of == list(compile_schedule(circ).site_of) != list(range(5))


class TestSerialIsTheTensornetAdapter:
    """Serial and parallel on ``BackendSpec.mps`` build the tensornet
    adapter at one row, under their own names: there is no second MPS
    path through ``MPSBackend.run_fixed``."""

    @pytest.mark.parametrize("strategy", ["serial", "parallel"])
    def test_the_adapter_at_one_row_under_the_strategy_name(self, strategy):
        circuit = _profiled("ghz", "uniform_depolarizing")
        executor = build_executor(strategy, BackendSpec.mps(max_bond=4))
        engine = executor._engine(circuit)
        assert isinstance(engine, tensornet._MPSStackEngine)
        assert (engine.name, engine.max_rows) == (strategy, 1)
        assert engine.stack_options["max_bond"] == 4
        specs = ProbabilisticPTS(20, 50).sample(circuit, make_rng(2)).specs
        assert executor.execute(circuit, specs, seed=3).engine == strategy

    def test_a_serial_run_never_calls_run_fixed(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("MPSBackend.run_fixed ran")

        monkeypatch.setattr(MPSBackend, "run_fixed", forbidden)
        circuit = _profiled("qft", "superconducting_median")
        result = run_ptsbe(
            circuit, ProbabilisticPTS(20, 100), BackendSpec.mps(max_bond=4), seed=3,
            strategy="serial",
        )
        assert result.engine == "serial" and result.total_shots > 0
