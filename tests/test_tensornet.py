"""Tensornet strategy: schedule compile, batched stack, routing, conformance.

Contracts under test:

1. **Exact replay** — the compiled routed schedule replayed over a
   :class:`BatchedMPSStack` at exact bond reproduces the dense
   ``run_fixed`` statevector (read through ``site_of``: routing does not
   swap back) for non-adjacent 2q gates and 3q windows, and on noisy
   brickwork the per-op reference ``PureStateBackend.run_fixed`` (one
   routed contraction per operation, no 1q absorption).
2. **Batched kernels** — ``truncated_svd_batched`` and
   ``compute_right_environments_batched`` match their serial
   counterparts row by row.
3. **Truncation accounting** — per-row cumulative ``truncation_error``,
   equal to the serial MPS backend's scalar at ``B=1``.
4. **Routing and capacity** — ``strategy="auto"`` routes past the dense
   width cap to tensornet (recorded on the result); explicit dense
   strategies above the cap raise :class:`CapacityError` at dispatch.
5. **Executor contracts** — seeded bitwise replay, ordered streaming,
   ``retain=False`` / mid-stream ``close()``, dedup counting, and
   per-trajectory weights matching the dense serial engine.
6. **Distributional conformance** — at small width and exact bond the
   tensornet table passes the density-matrix oracle across multiple
   unitary-mixture noise profiles, like the clifford engine — also on a
   circuit whose routing leaves qubits away from their home sites.
7. **Light-cone replay** — a row owns a tensor only at the sites its own
   deviations have reached and reads the ideal row's everywhere else;
   every row must equal the full replay (every row a tensor of its own at
   every site from step 0, kept here as the oracle) in statevector,
   weight and ``truncation_error``, and a batched SVD must hold only the
   rows that differ where it factors.
8. **Frame sites** — a Pauli site whose forward light cone is Clifford
   to the end is carried as end-of-circuit bit flips and a weight ratio,
   per site (every site of the MSD preparation); a later ``t`` or
   amplitude damping on its support sends it back to replay; a table
   mixing both kinds passes the density-matrix tier; a frame-only
   trajectory's weight is its replayed norm and its bits are the same at
   any ``max_batch`` and under halving.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.mps import BatchedMPSStack, MPSBackend
from repro.backends.mps_sampler import (
    compute_right_environments,
    compute_right_environments_batched,
)
from repro.backends.statevector import StatevectorBackend
from repro.channels import NoiseModel, bit_flip, depolarizing, two_qubit_depolarizing
from repro.channels.kraus import KrausChannel
from repro.channels.standard import amplitude_damping, device_profile
from repro.circuits import Circuit
from repro.circuits.gates import CCX, H
from repro.circuits.operations import MeasureOp, NoiseOp
from repro.circuits.library import build_workload, noisy, random_brickwork
from repro.config import Config
from repro.errors import BackendError, CapacityError, ExecutionError, FaultError
from repro.execution import (
    BackendSpec,
    TensorNetExecutor,
    compile_schedule,
    resolve_strategy,
    run_ptsbe,
    run_ptsbe_stream,
)
from repro.execution.batched import DENSE_STRATEGIES
from repro.execution.router import MAX_TENSORNET_QUBITS
from repro.execution.tensornet import (
    NoiseStep,
    SwapStep,
    UnitaryStep,
    clear_schedule_cache,
    replay_schedule,
)
from repro.linalg.decompositions import truncated_svd, truncated_svd_batched
from repro.pts import ExhaustivePTS, ProbabilisticPTS, ProportionalPTS
from repro.pts.base import PTSAlgorithm, PTSResult, TrajectorySpec
from repro.trajectory.events import KrausEvent, TrajectoryRecord
from repro.qec import msd_preparation_circuit, steane_code
from repro.sweep.oracle import PASS, check_distribution
from repro.sweep.spec import OracleSpec

def _exact_mps8():
    return MPSBackend(8, max_bond=256, cutoff=0.0)


def _dense_state(circuit):
    backend = StatevectorBackend(circuit.num_qubits)
    backend.run_fixed(circuit)
    return np.asarray(backend.statevector).copy()


def _replayed_state(circuit, batch=1, max_bond=4096, cutoff=0.0):
    schedule = compile_schedule(circuit)
    stack = BatchedMPSStack(
        circuit.num_qubits, batch, max_bond=max_bond, cutoff=cutoff
    )
    replay_schedule(stack, schedule, [{} for _ in range(batch)])
    # Routing does not swap back: read the chain in qubit order.
    return stack.row_statevector(0, schedule.site_of)


@pytest.fixture(autouse=True)
def _fresh_schedule_cache():
    clear_schedule_cache()
    yield
    clear_schedule_cache()


def _wide_nonclifford(num_qubits=30):
    """Past the dense cap, not frame-eligible (rx), cheap to simulate."""
    circ = Circuit(num_qubits)
    circ.h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    circ.rx(0.3, 0)
    circ.measure_all()
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.01))
    return model.apply(circ).freeze()


class TestExactReplay:
    def test_nonadjacent_2q_swap_routing(self):
        circ = Circuit(6)
        circ.h(0).t(1).rx(0.4, 2)
        circ.cx(0, 3)  # routed down over sites 1, 2
        circ.cz(2, 5)
        circ.rz(0.7, 4)
        circ.measure_all()
        circ.freeze()
        dense = _dense_state(circ)
        np.testing.assert_allclose(_replayed_state(circ), dense, atol=1e-12)

    def test_descending_targets_wire_permuted(self):
        circ = Circuit(5)
        circ.h(4).t(2)
        circ.cx(4, 1)  # control above target: operator must be permuted
        circ.cx(3, 0)
        circ.measure_all()
        circ.freeze()
        dense = _dense_state(circ)
        np.testing.assert_allclose(_replayed_state(circ), dense, atol=1e-12)

    def test_3q_gate_fused_window(self):
        circ = Circuit(6)
        circ.h(0).h(2).h(4).t(1)
        circ.gate(CCX, 0, 2, 4)  # non-contiguous 3q: routed + one 8x8 window
        circ.gate(CCX, 3, 1, 5)  # unsorted targets
        circ.measure_all()
        circ.freeze()
        dense = _dense_state(circ)
        np.testing.assert_allclose(_replayed_state(circ), dense, atol=1e-12)

    def test_brickwork_matches_dense(self):
        circ = random_brickwork(
            7, depth=3, rng=np.random.default_rng(5), measure=True
        ).freeze()
        np.testing.assert_allclose(_replayed_state(circ), _dense_state(circ), atol=1e-10)

    def test_1q_gates_absorbed_into_windows(self):
        circ = random_brickwork(
            6, depth=3, rng=np.random.default_rng(3), measure=True
        ).freeze()
        steps = compile_schedule(circ).steps
        assert len(steps) < sum(1 for op in circ.operations if not isinstance(op, MeasureOp))
        # A 1q step is a pending matrix flushed at the end of the walk.
        last_wide = max(i for i, s in enumerate(steps) if not isinstance(s, SwapStep) and s.span > 1)
        assert all(isinstance(s, SwapStep) or s.span > 1 for s in steps[: last_wide + 1])

    @pytest.mark.parametrize(
        "profile", ["uniform_depolarizing", "superconducting_median", "relaxation_dominated"]
    )
    def test_schedule_matches_per_op_loop_on_brickwork_8q(self, profile, assert_matches_per_op):
        """The fused schedule (``MPSBackend.run_fixed``) against the per-op
        reference on the same exact-bond MPS, every PTS trajectory."""
        circuit = noisy(
            build_workload("brickwork", 8, seed=1), device_profile(profile).noise_model()
        )
        specs = ProbabilisticPTS(40, 1).sample(circuit, np.random.default_rng(2)).specs
        choices_list = [{}] + [spec.record.choices for spec in specs]
        assert any(choices_list)
        live = [
            assert_matches_per_op(_exact_mps8, circuit, choices, MPSBackend.to_statevector)
            for choices in choices_list
        ]
        assert sum(live) > 1

    def test_ideal_brickwork_matches_per_op_loop(self, assert_matches_per_op):
        # No noise step between a 1q gate and the next CZ: every pending
        # 1q matrix rides into a two-site step.
        circuit = build_workload("brickwork", 8, seed=1).freeze()
        assert assert_matches_per_op(_exact_mps8, circuit, {}, MPSBackend.to_statevector)


class TestScheduleCompile:
    def test_cache_returns_same_object(self):
        circ = _wide_nonclifford(8)
        assert compile_schedule(circ) is compile_schedule(circ)

    def test_num_noise_sites_matches_circuit(self):
        circ = _wide_nonclifford(8)
        schedule = compile_schedule(circ)
        noise_ops = [op for op in circ.operations if hasattr(op, "channel")]
        assert len(schedule.sites) == len(noise_ops)
        site_ids = {s.site_id for s in schedule.steps if isinstance(s, NoiseStep)}
        assert site_ids == {op.site_id for op in noise_ops}

    def test_requires_frozen(self):
        with pytest.raises(ExecutionError, match="frozen"):
            compile_schedule(Circuit(2).h(0).measure_all())

    def test_four_qubit_gate_rejected(self):
        from repro.circuits.gates import Gate

        g4 = Gate("g4", np.eye(16).astype(complex), check=False)
        circ = Circuit(4).gate(g4, 0, 1, 2, 3).measure_all().freeze()
        with pytest.raises(ExecutionError, match="decompose_to_2q"):
            compile_schedule(circ)

    def test_noise_branch_count_preserved(self):
        circ = Circuit(2).h(0).cx(0, 1)
        circ.attach(depolarizing(0.1), 0)
        circ.measure_all().freeze()
        schedule = compile_schedule(circ)
        (noise,) = [s for s in schedule.steps if isinstance(s, NoiseStep)]
        assert noise.ops.shape == (4, 2, 2)  # I, X, Y, Z branches

    def test_swap_steps_emitted_for_nonadjacent(self):
        circ = Circuit(4).cx(0, 3).cx(0, 3).measure_all().freeze()
        schedule = compile_schedule(circ)
        # Two SWAPs bring qubit 3 next to qubit 0 and it stays there: the
        # second cx(0, 3) finds its qubits adjacent.
        assert [type(s) for s in schedule.steps] == [
            SwapStep, SwapStep, UnitaryStep, UnitaryStep
        ]
        assert [s.site for s in schedule.steps] == [2, 1, 0, 0]
        assert schedule.site_of == (0, 2, 3, 1)
        assert sorted(schedule.site_of) == list(range(4))


class TestBatchedKernels:
    def test_batched_svd_matches_serial_rows(self):
        rng = np.random.default_rng(11)
        mats = rng.normal(size=(5, 8, 6)) + 1j * rng.normal(size=(5, 8, 6))
        u, s, vh, kept, disc = truncated_svd_batched(mats, max_rank=4, cutoff=1e-3)
        assert u.shape == (5, 8, kept) and s.shape == (5, kept)
        for m in range(5):
            _, s_ref, _, info = truncated_svd(mats[m], max_rank=4, cutoff=1e-3)
            # The batch keeps the widest row's rank; the leading singular
            # values and the discarded weight still match serial whenever
            # serial kept the same count.
            np.testing.assert_allclose(s[m, : info.kept], s_ref, atol=1e-12)
            if info.kept == kept:
                assert disc[m] == pytest.approx(info.discarded_weight, abs=1e-12)
            else:
                assert disc[m] <= info.discarded_weight + 1e-12
            # Row reconstruction equals the serial rank-`kept` reconstruction.
            u_ref, s_full, vh_ref = np.linalg.svd(mats[m], full_matrices=False)
            recon_ref = (u_ref[:, :kept] * s_full[:kept]) @ vh_ref[:kept]
            np.testing.assert_allclose((u[m] * s[m]) @ vh[m], recon_ref, atol=1e-10)

    def test_batched_svd_reconstructs_exactly_without_truncation(self):
        rng = np.random.default_rng(3)
        mats = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        u, s, vh, kept, disc = truncated_svd_batched(mats)
        assert kept == 6
        np.testing.assert_allclose(disc, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("mik,mk,mkj->mij", u, s, vh), mats, atol=1e-12
        )

    def test_batched_environments_match_serial(self):
        stack = BatchedMPSStack(5, 3, max_bond=8)
        rng = np.random.default_rng(7)
        # Three distinct random product-of-gates rows via per-row 1q ops.
        for q in range(5):
            mats = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
            stack.apply(np.eye(2), q, [0, 1, 2], mats)
        stack.apply(np.eye(4), 1)
        envs = compute_right_environments_batched(stack.dense())
        for m in range(3):
            serial = compute_right_environments(stack.row_tensors(m))
            for e_b, e_s in zip(envs, serial):
                np.testing.assert_allclose(e_b[m], e_s, atol=1e-12)

    def test_env_head_equals_norms_squared(self):
        stack = BatchedMPSStack(4, 2, max_bond=8)
        stack.apply(np.array([[0.8, 0], [0, 0.8]]), 1)  # non-unitary scale
        envs = compute_right_environments_batched(stack.dense())
        np.testing.assert_allclose(
            envs[0][:, 0, 0].real, stack.norms_squared(), atol=1e-12
        )


class TestTruncationAccounting:
    def _adjacent_circuit(self, n=6, depth=4):
        rng = np.random.default_rng(19)
        circ = Circuit(n)
        for layer in range(depth):
            for q in range(n):
                circ.rx(float(rng.uniform(0, 2 * np.pi)), q)
            for q in range(layer % 2, n - 1, 2):
                circ.cz(q, q + 1)
        circ.measure_all()
        return circ.freeze()

    def test_b1_matches_serial_mps(self):
        circ = self._adjacent_circuit()
        schedule = compile_schedule(circ)
        stack = BatchedMPSStack(6, 1, max_bond=2, cutoff=1e-12)
        replay_schedule(stack, schedule, [{}])
        serial = MPSBackend(6, max_bond=2, cutoff=1e-12)
        serial.run_fixed(circ)
        assert stack.truncation_error.shape == (1,)
        assert stack.truncation_error[0] > 0  # bond 2 genuinely truncates
        assert stack.truncation_error[0] == pytest.approx(
            serial.truncation_error, rel=1e-9
        )

    def test_per_row_accumulation(self):
        # Amplitude damping (non-unitary Kraus) genuinely changes bond
        # spectra per realization; Pauli errors would not — they ride
        # through rx/rz/CZ as local frames with identical spectra.
        circ = noisy(
            build_workload("brickwork", 8, seed=2),
            device_profile("relaxation_dominated").noise_model(),
        )
        sampler = ExhaustivePTS(cutoff=1e-3, nshots=None, total_shots=200)
        from repro.rng import StreamFactory

        specs = sampler.sample(circ, StreamFactory(4).rng_for(0)).specs
        schedule = compile_schedule(circ)
        stack = BatchedMPSStack(8, len(specs), max_bond=2, cutoff=1e-12)
        replay_schedule(stack, schedule, [s.choices for s in specs])
        assert stack.truncation_error.shape == (len(specs),)
        assert np.all(stack.truncation_error >= 0)
        assert np.any(stack.truncation_error > 0)
        # Different Kraus realizations truncate differently.
        assert len(np.unique(np.round(stack.truncation_error, 12))) > 1


_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _full_replay(schedule, choices_list, max_bond, cutoff):
    """Every row replayed from step 0 with a tensor of its own at every
    site, every step over all ``B`` rows: what the shared-prefix and then
    the light-cone replay replaced, kept as their oracle (and written
    against ``truncated_svd_batched`` alone, sharing no code with them).
    Returns the dense ``(B, D_l, 2, D_r)`` tensors and the per-row
    truncation error."""
    batch = len(choices_list)
    zero = np.zeros((batch, 1, 2, 1), dtype=np.complex128)
    zero[:, 0, 0, 0] = 1.0
    tensors = [zero.copy() for _ in range(schedule.num_qubits)]
    error = np.zeros(batch)
    for step in schedule.steps:
        if isinstance(step, SwapStep):
            ops, span = _SWAP, 2
        elif isinstance(step, UnitaryStep):
            ops, span = step.matrix, step.span
        else:
            branches = [c.get(step.site_id, step.dominant) for c in choices_list]
            ops, span = step.ops[branches][:, None], step.span
        q = step.site
        theta = tensors[q]
        dl = theta.shape[1]
        for right in tensors[q + 1 : q + span]:
            theta = np.einsum("mapb,mbqc->mapqc", theta, right)
            theta = theta.reshape(batch, dl, -1, right.shape[3])
        theta = np.matmul(ops, theta)
        phys, dr = theta.shape[2:]
        while phys > 2:
            phys //= 2
            u, sv, vh, kept, disc = truncated_svd_batched(
                theta.reshape(batch, dl * 2, phys * dr), max_rank=max_bond, cutoff=cutoff
            )
            error += disc
            tensors[q] = u.reshape(batch, dl, 2, kept)
            theta = sv[:, :, None] * vh
            q, dl = q + 1, kept
        tensors[q] = theta.reshape(batch, dl, 2, dr)
    return tensors, error


def _row_state(tensors, m):
    acc = tensors[0][m]
    for a in tensors[1:]:
        acc = np.tensordot(acc, a[m], axes=([acc.ndim - 1], [0]))
    return acc.reshape(-1)


def _site_ids(circuit):
    return [op.site_id for op in circuit.operations if isinstance(op, NoiseOp)]


def _assert_matches_full_replay(circuit, choices_list, **options):
    schedule = compile_schedule(circuit)
    cone = BatchedMPSStack(circuit.num_qubits, len(choices_list), **options)
    replay_schedule(cone, schedule, choices_list)
    tensors, error = _full_replay(schedule, choices_list, **options)
    assert cone.batch_size == len(choices_list)
    for m in range(len(choices_list)):
        np.testing.assert_allclose(
            cone.row_statevector(m), _row_state(tensors, m), atol=1e-12
        )
    weights = compute_right_environments_batched(tensors)[0][:, 0, 0].real
    np.testing.assert_allclose(cone.norms_squared(), weights, atol=1e-12)
    np.testing.assert_allclose(cone.truncation_error, error, atol=1e-12)
    return cone


def _noisy_brickwork(num_qubits, depth, seed, model=None):
    model = model or (
        NoiseModel()
        .add_all_qubit_gate_noise("rz", amplitude_damping(0.2))
        .add_all_qubit_gate_noise("cz", two_qubit_depolarizing(0.1))
    )
    return model.apply(
        random_brickwork(num_qubits, depth, rng=np.random.default_rng(seed), measure=True)
    ).freeze()


def _bonds(step):
    """Bonds a step merges: one ``truncated_svd_batched`` call each."""
    return (2 if isinstance(step, SwapStep) else step.span) - 1


def _svd_sites(schedule):
    """The site each ``truncated_svd_batched`` call of one replay factors
    at, in call order."""
    return [step.site + bond for step in schedule.steps for bond in range(_bonds(step))]


@pytest.fixture
def svd_batches(monkeypatch):
    """Matrices per ``truncated_svd_batched`` call the stack makes."""
    import repro.backends.mps as mps

    batches = []

    def spy(mats, **options):
        batches.append(mats.shape[0])
        return truncated_svd_batched(mats, **options)

    monkeypatch.setattr(mps, "truncated_svd_batched", spy)
    return batches


def _msd_prep_35q():
    """The ``tensornet_shots_35q`` benchmark workload's circuit: five
    Steane blocks that never couple."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.005))
    return model.apply(msd_preparation_circuit(steane_code())).freeze()


class TestLightConeReplay:
    def test_rows_deviate_anywhere_along_the_schedule(self):
        circ = _noisy_brickwork(5, depth=3, seed=4)
        ids = _site_ids(circ)
        choices_list = [
            {ids[7]: 1, ids[9]: 1},  # leaves the ideal row mid-schedule
            {},  # never deviates: the finished ideal state
            {ids[0]: 1},  # deviates at the very first noise step
            {ids[-1]: 1},  # deviates at the very last one
            {ids[7]: 1},  # shares a first deviation with row 0
            {},
            {ids[3]: 1, ids[0]: 1},  # listed out of order
        ]
        _assert_matches_full_replay(circ, choices_list, max_bond=64, cutoff=0.0)
        _assert_matches_full_replay(circ, choices_list, max_bond=64, cutoff=1e-12)

    def test_all_rows_share_one_first_deviation(self):
        circ = _noisy_brickwork(4, depth=2, seed=8)
        ids = _site_ids(circ)
        choices_list = [{ids[4]: 1}, {ids[4]: 1, ids[6]: 1}, {ids[4]: 1, ids[5]: 1}]
        _assert_matches_full_replay(circ, choices_list, max_bond=64, cutoff=1e-12)

    @pytest.mark.parametrize("deviation", [None, 0, 5])
    def test_single_row(self, deviation):
        circ = _noisy_brickwork(4, depth=2, seed=9)
        ids = _site_ids(circ)
        choices = {} if deviation is None else {ids[deviation]: 1}
        _assert_matches_full_replay(circ, [choices], max_bond=64, cutoff=1e-12)

    def test_per_row_two_qubit_noise(self):
        # Every row realizes a different two-qubit Pauli at the same site,
        # one of them on non-adjacent qubits.
        circ = Circuit(5)
        for q in range(5):
            circ.rx(0.3 + 0.2 * q, q)
        circ.cz(0, 1)
        circ.attach(two_qubit_depolarizing(0.1), 0, 1)
        circ.cx(4, 1)
        circ.attach(two_qubit_depolarizing(0.1), 4, 1)
        circ.rx(0.4, 2).cz(2, 3)
        circ.attach(two_qubit_depolarizing(0.1), 3, 2)
        circ.measure_all().freeze()
        a, b, c = _site_ids(circ)
        choices_list = [{a: 3, b: 7}, {a: 9}, {b: 2, c: 11}, {b: 14}, {}, {c: 5}]
        _assert_matches_full_replay(circ, choices_list, max_bond=64, cutoff=1e-12)

    def test_bond_two_truncation(self):
        circ = _noisy_brickwork(6, depth=4, seed=19)
        ids = _site_ids(circ)
        choices_list = [{}, {ids[2]: 1}, {ids[20]: 1}, {ids[11]: 1, ids[30]: 1}, {ids[2]: 1}]
        cone = _assert_matches_full_replay(circ, choices_list, max_bond=2, cutoff=1e-12)
        assert cone.truncation_error[0] > 0  # bond 2 genuinely truncates
        assert len(np.unique(np.round(cone.truncation_error, 12))) > 1

    def test_rows_wider_and_narrower_than_the_ideal_row(self):
        # An identity-or-Hadamard error: on |0> the error *creates* the
        # superposition a CX entangles, on |+> it removes it.  Row 0 takes
        # both errors, so it needs more than the ideal row on bond 0-1 and
        # less on bond 2-3.
        flip = KrausChannel("i_or_h", [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * H.matrix])
        circ = Circuit(4).h(2)
        circ.attach(flip, 0).attach(flip, 2)
        circ.cx(0, 1).cx(2, 3)
        circ.attach(flip, 1)
        circ.rx(0.3, 1).cz(1, 2)
        circ.measure_all().freeze()
        a, b, c = _site_ids(circ)
        _assert_matches_full_replay(
            circ, [{a: 1, b: 1}, {c: 1}, {}], max_bond=64, cutoff=1e-12
        )

    def test_cone_crosses_a_swap_route_and_a_three_site_window(self):
        circ = Circuit(7)
        for q in range(7):
            circ.rx(0.3 + 0.2 * q, q)
        circ.attach(depolarizing(0.1), 0)
        circ.cx(0, 4)  # carries qubit 4 down the chain, over sites 3, 2, 1
        circ.attach(depolarizing(0.1), 6)
        circ.gate(CCX, 5, 1, 3)  # spread, unsorted: routed into one 8x8 window
        circ.attach(two_qubit_depolarizing(0.1), 2, 6)
        circ.rx(0.7, 3).cz(3, 4)
        circ.attach(amplitude_damping(0.2), 3)
        circ.measure_all().freeze()
        a, b, c, d = _site_ids(circ)
        schedule = compile_schedule(circ)
        assert any(isinstance(s, SwapStep) for s in schedule.steps)
        assert any(isinstance(s, UnitaryStep) and s.span == 3 for s in schedule.steps)
        choices_list = [{a: 2}, {}, {b: 1}, {c: 6, d: 1}, {a: 3, c: 11}, {d: 1}]
        _assert_matches_full_replay(circ, choices_list, max_bond=64, cutoff=0.0)
        _assert_matches_full_replay(circ, choices_list, max_bond=64, cutoff=1e-12)
        _assert_matches_full_replay(circ, choices_list, max_bond=2, cutoff=1e-12)

    def test_replay_restarts_the_stack(self):
        # What the stack held is dropped: a second replay into it, and one
        # after a replay of other rows, are bit for bit the first.
        circ = _noisy_brickwork(4, depth=2, seed=3)
        schedule = compile_schedule(circ)
        ids = _site_ids(circ)
        stack = BatchedMPSStack(4, 2, max_bond=8, cutoff=1e-12)
        replay_schedule(stack, schedule, [{ids[1]: 1}, {}])
        first, error = stack.dense(), stack.truncation_error.copy()
        replay_schedule(stack, schedule, [{ids[2]: 1}, {ids[5]: 1}])
        replay_schedule(stack, schedule, [{ids[1]: 1}, {}])
        for a, b in zip(first, stack.dense()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(error, stack.truncation_error)

    def test_caller_row_order_is_kept(self):
        circ = _noisy_brickwork(4, depth=2, seed=5)
        ids = _site_ids(circ)
        choices_list = [{ids[6]: 1}, {}, {ids[0]: 1}, {ids[3]: 1}]
        schedule = compile_schedule(circ)
        stack = BatchedMPSStack(4, 4, max_bond=64, cutoff=1e-12)
        replay_schedule(stack, schedule, choices_list)
        for m, choices in enumerate(choices_list):
            alone = BatchedMPSStack(4, 1, max_bond=64, cutoff=1e-12)
            replay_schedule(alone, schedule, [choices])
            np.testing.assert_allclose(
                stack.row_statevector(m), alone.row_statevector(0), atol=1e-12
            )

    def test_never_deviating_row_is_the_ideal_row(self):
        circ = _noisy_brickwork(5, depth=3, seed=6)
        ids = _site_ids(circ)
        schedule = compile_schedule(circ)
        stack = BatchedMPSStack(5, 3, max_bond=64, cutoff=1e-12)
        replay_schedule(stack, schedule, [{ids[2]: 1}, {}, {ids[9]: 1, ids[4]: 1}])
        assert not stack.slot[:, 1].any() and stack.slot[:, 0].any()
        for site, gathered in zip(stack.tensors, stack.dense()):
            assert gathered.shape == (3,) + site.shape[1:]
            np.testing.assert_array_equal(gathered[1], site[0])

    def test_a_deviation_in_one_block_stays_out_of_the_other_four(self, svd_batches):
        # The 35q MSD preparation is five Steane blocks that never couple
        # (and are routed within their own seven sites): a row that
        # deviates in block 0 has nothing of its own anywhere else.
        circ = _msd_prep_35q()
        schedule = compile_schedule(circ)
        site_id = next(
            op.site_id for op in circ.operations
            if isinstance(op, NoiseOp) and max(op.qubits) < 7
        )
        stack = BatchedMPSStack(35, 2, max_bond=64, cutoff=1e-12)
        replay_schedule(stack, schedule, [{site_id: 1}, {}])
        sites = _svd_sites(schedule)
        assert len(svd_batches) == len(sites) > 100
        assert 6 not in sites  # no step merges across a block boundary
        assert {b for k, b in zip(sites, svd_batches) if k >= 7} == {1}
        assert {b for k, b in zip(sites, svd_batches) if k < 6} == {1, 2}
        assert not stack.slot[7:].any() and stack.slot[:7, 0].any()

    def test_an_svd_holds_at_most_the_rows_deviated_so_far(self, svd_batches):
        # Where light cones cover the whole chain the replay must cost no
        # more than the one it replaced: that one factored every row that
        # had deviated by a step, this one those among them the step's
        # sites have reached, plus the ideal row.
        circ = _noisy_brickwork(9, depth=6, seed=12)
        ids = _site_ids(circ)
        rng = np.random.default_rng(2)
        choices_list = [
            {int(i): 1 for i in rng.choice(ids, size=rng.integers(0, 4), replace=False)}
            for _ in range(12)
        ]
        schedule = compile_schedule(circ)
        deviated, bound = set(), []
        for step in schedule.steps:
            if isinstance(step, NoiseStep):
                deviated |= {
                    m for m, c in enumerate(choices_list)
                    if c.get(step.site_id, step.dominant) != step.dominant
                }
            bound += [1 + len(deviated)] * _bonds(step)
        stack = BatchedMPSStack(9, 12, max_bond=64, cutoff=1e-12)
        replay_schedule(stack, schedule, choices_list)
        assert len(svd_batches) == len(bound)
        assert all(b <= most for b, most in zip(svd_batches, bound))
        assert svd_batches[-1] > 1 and sum(svd_batches) < sum(bound)

    def test_benchmark_repetition_factors_what_differs(self, svd_batches):
        # One repetition of ``tensornet_shots_35q`` (circuit, sampler,
        # seed 7, default max_batch): the replay that joined rows at their
        # first deviation factored 7 921 matrices, the light-cone replay of
        # every row 1 311, and the ideal row alone, with every site a frame
        # site, 150.
        result = run_ptsbe(
            _msd_prep_35q(), ProbabilisticPTS(nsamples=250, nshots=1000), seed=7
        )
        assert result.engine == "tensornet"
        assert 0 < sum(svd_batches) <= 1500, sum(svd_batches)

    @settings(max_examples=25, deadline=None)
    @given(
        num_qubits=st.integers(3, 6),
        depth=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        max_bond=st.sampled_from([2, 64]),
        data=st.data(),
    )
    def test_property_random_brickwork_random_choices(
        self, num_qubits, depth, seed, max_bond, data
    ):
        clear_schedule_cache()
        model = (
            NoiseModel()
            .add_all_qubit_gate_noise("rx", depolarizing(0.1))
            .add_all_qubit_gate_noise("cz", two_qubit_depolarizing(0.1))
        )
        circ = _noisy_brickwork(num_qubits, depth, seed, model)
        branches = {
            op.site_id: len(op.channel.kraus_ops)
            for op in circ.operations
            if isinstance(op, NoiseOp)
        }
        row = st.dictionaries(
            st.sampled_from(sorted(branches)), st.integers(0, 3), max_size=3
        )
        choices_list = data.draw(st.lists(row, min_size=1, max_size=6))
        _assert_matches_full_replay(circ, choices_list, max_bond=max_bond, cutoff=1e-12)


class _FixedSpecs(PTSAlgorithm):
    """A sampler that hands ``run_ptsbe`` hand-made specs."""

    name = "fixed"

    def __init__(self, choices_list, num_shots=10):
        self.specs = [
            TrajectorySpec(
                record=TrajectoryRecord(
                    trajectory_id=tid,
                    events=tuple(
                        KrausEvent(site_id=site, kraus_index=index, qubits=(0,), probability=0.1)
                        for site, index in choices.items()
                    ),
                    nominal_probability=0.5,
                ),
                num_shots=num_shots,
            )
            for tid, choices in enumerate(choices_list)
        ]

    def sample(self, circuit, rng):
        return PTSResult.from_specs(circuit, self.specs)


class TestKrausIndexRange:
    """A Kraus index a channel does not have is the prescription table's
    typed error naming the site and its operator count, as on every
    engine — not NumPy's wrap-around (``-1`` used to realize the last
    branch) or a bare ``IndexError``.  Through the driver it is raised
    before any unit runs (``tests/test_driver.py``)."""

    @pytest.fixture
    def chain(self):
        circ = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
        return model.apply(circ).freeze()

    @pytest.mark.parametrize("index", [-1, 4, 99])
    def test_replay_schedule_raises_the_table_error(self, chain, index):
        site = _site_ids(chain)[1]
        stack = BatchedMPSStack(3, 2, max_bond=8)
        with pytest.raises(
            ExecutionError,
            match=rf"spec 0 prescribes Kraus index {index} at noise site {site}, "
            r"whose channel has 4 operators",
        ):
            replay_schedule(stack, compile_schedule(chain), [{site: index}, {}])

    def test_last_valid_index_is_accepted(self, chain):
        site = _site_ids(chain)[0]
        result = run_ptsbe(chain, _FixedSpecs([{site: 3}, {}]), seed=1, strategy="tensornet")
        assert result.shot_table().bits.shape == (20, 3)
        depolarized, ideal = (t.actual_weight for t in result.trajectories)
        assert depolarized == pytest.approx(ideal * (0.05 / 3) / 0.95, rel=1e-9)

    def test_an_unknown_site_id_is_rejected(self, chain):
        # It used to run as the ideal trajectory under an error record.
        with pytest.raises(ExecutionError, match="prescribes noise site 10000"):
            run_ptsbe(chain, _FixedSpecs([{}, {10_000: 7}]), seed=1, strategy="tensornet")


class TestSamplingArgumentRange:
    """What the engine asks the sampler for is checked where it is asked:
    a measured site outside the chain is the dense backends' typed error,
    not the last site's column (``-1``) or a bare ``IndexError``."""

    @pytest.mark.parametrize("site", [-1, 3])
    def test_run_ptsbe_reports_a_measured_site_outside_the_chain(self, site, monkeypatch):
        import dataclasses

        from repro.execution import tensornet

        circ = Circuit(3).h(0).cx(0, 1).rx(0.3, 2).measure_all()
        circ = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05)).apply(circ).freeze()
        schedule = dataclasses.replace(compile_schedule(circ), site_of=(0, 1, site))
        monkeypatch.setattr(tensornet, "compile_schedule", lambda circuit: schedule)
        sampler = ProbabilisticPTS(nsamples=5, nshots=10)
        with pytest.raises(FaultError, match=f"qubit {site} is outside a 3-qubit register") as err:
            run_ptsbe(circ, sampler, seed=1, strategy="tensornet")
        assert isinstance(err.value.__cause__, BackendError)


class TestProductBlocksAtWidth:
    """The 35q MSD preparation is five Steane blocks side by side: one
    group of five lanes in the sampler."""

    def test_a_request_draws_once_per_block_level_and_shuffles_once_per_block(
        self, monkeypatch, counted_generator
    ):
        # One repetition of ``tensornet_shots_35q`` (circuit, sampler,
        # seed 7): 102 requests.  Site by site a request made 35 binomial
        # calls, 3 570 in all; lane by lane it makes 7.
        from repro.execution import tensornet

        calls, requested = {}, []

        def spy(tensors, envs, num_shots, requests, **kwargs):
            requested.append(len(requests))
            counted = [(row, n, counted_generator(rng, calls)) for row, n, rng in requests]
            return sample(tensors, envs, num_shots, counted, **kwargs)

        sample = tensornet.sample_cached
        monkeypatch.setattr(tensornet, "sample_cached", spy)
        result = run_ptsbe(
            _msd_prep_35q(), ProbabilisticPTS(nsamples=250, nshots=1000), seed=7
        )
        assert result.engine == "tensornet" and sum(requested) == 102
        assert calls == {"binomial": 7 * 102, "shuffle": 5 * 102}

    def test_syndromes_are_exact_and_logical_outcomes_pairwise_independent(self):
        # A trajectory is a product state over the blocks: its injected
        # Paulis fix each block's three Z checks on every shot, and each
        # block's logical readout (the parity of its seven bits, a magic
        # state's: 1 about 21 % of the time) is independent of the others'.
        shots = 20_000
        result = run_ptsbe(
            _msd_prep_35q(), ProbabilisticPTS(nsamples=40, nshots=shots), seed=3,
            strategy="tensornet",
        )
        assert result.num_trajectories >= 10
        checks = np.kron(np.eye(5, dtype=np.uint8), steane_code().hz)
        # Two independent bits' sample covariance has standard deviation
        # sqrt(p q p' q' / shots) <= 0.25 / sqrt(shots); 5.5 of those
        # (two-sided tail 4e-8) cover trajectories x 10 pairs.  Blocks
        # expanded in one order read 0.16 (about p q), sixteen bounds away.
        bound = 5.5 * 0.25 / np.sqrt(shots)
        for trajectory in result.trajectories:
            bits = trajectory.bits
            assert bits.shape == (shots, 35)
            syndrome = (bits[0] @ checks.T) % 2
            assert np.array_equal((bits @ checks.T) % 2, np.tile(syndrome, (shots, 1)))
            assert syndrome.any() <= (trajectory.record.num_errors() > 0)
            logical = (bits.reshape(shots, 5, 7).sum(axis=2) % 2).astype(float)
            assert 0.1 < logical.mean() < 0.9  # a coin worth correlating
            covariance = np.cov(logical, rowvar=False, bias=True)
            assert np.abs(covariance[~np.eye(5, dtype=bool)]).max() < bound


class TestRoutingDecisions:
    def test_wide_nonclifford_routes_to_tensornet(self):
        circ = _wide_nonclifford(30)
        resolved, reason = resolve_strategy(circ, BackendSpec.statevector(), "auto")
        assert resolved == "tensornet"
        assert "auto->tensornet" in reason
        assert "max_dense_qubits" in reason

    def test_narrow_circuit_stays_dense(self):
        circ = _wide_nonclifford(8)
        resolved, _ = resolve_strategy(circ, BackendSpec.statevector(), "auto")
        assert resolved == "serial"

    def test_clifford_wins_over_tensornet(self):
        ideal = Circuit(30).h(0)
        for q in range(29):
            ideal.cx(q, q + 1)
        ideal.measure_all()
        circ = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", depolarizing(0.01))
            .apply(ideal)
            .freeze()
        )
        resolved, _ = resolve_strategy(circ, BackendSpec.statevector(), "auto")
        assert resolved == "clifford"

    def test_beyond_tensornet_cap_falls_back_dense(self):
        at_cap = _wide_nonclifford(MAX_TENSORNET_QUBITS)
        assert resolve_strategy(at_cap, BackendSpec.statevector(), "auto")[0] == "tensornet"
        circ = _wide_nonclifford(MAX_TENSORNET_QUBITS + 1)
        resolved, _ = resolve_strategy(circ, BackendSpec.statevector(), "auto")
        assert resolved == "serial"

    def test_explicit_serial_skips_tensornet(self):
        circ = _wide_nonclifford(30)
        assert resolve_strategy(circ, BackendSpec.statevector(), "auto")[0] == "tensornet"
        resolved, reason = resolve_strategy(circ, BackendSpec.statevector(), "serial")
        assert resolved == "serial"
        assert reason == "explicit strategy 'serial'"

    def test_auto_records_engine_and_routing(self):
        circ = _wide_nonclifford(28)
        result = run_ptsbe(circ, ProportionalPTS(total_shots=200), seed=3)
        assert result.engine == "tensornet"
        assert result.routing.startswith("auto->tensornet")
        assert result.shot_table().bits.shape == (200, 28)


class TestCapacityErrors:
    @pytest.mark.parametrize("strategy", ["serial", "vectorized"])
    def test_explicit_dense_above_cap_raises(self, strategy):
        circ = _wide_nonclifford(28)
        backend = (
            BackendSpec.batched_statevector()
            if strategy == "vectorized"
            else BackendSpec.statevector()
        )
        with pytest.raises(CapacityError) as err:
            run_ptsbe(
                circ, ProportionalPTS(total_shots=100), backend, seed=1,
                strategy=strategy,
            )
        msg = str(err.value)
        assert "max_dense_qubits=26" in msg
        assert "28" in msg
        assert "'tensornet'" in msg and "'clifford'" in msg

    def test_mps_spec_not_capacity_checked(self):
        # The serial MPS path has no dense width cap; 28q runs fine.
        circ = _wide_nonclifford(28)
        result = run_ptsbe(
            circ, ProportionalPTS(total_shots=50), BackendSpec.mps(max_bond=8),
            seed=1, strategy="serial",
        )
        assert result.total_shots == 50

    def test_dense_strategies_constant(self):
        assert DENSE_STRATEGIES == ("serial", "parallel", "vectorized", "sharded")
        assert "tensornet" not in DENSE_STRATEGIES
        assert "clifford" not in DENSE_STRATEGIES


@pytest.fixture
def small_noisy_circuit():
    return noisy(
        build_workload("ghz", 6, seed=0),
        device_profile("uniform_depolarizing").noise_model(),
    )


class TestExecutorContracts:
    def test_seeded_replay_bitwise(self, small_noisy_circuit):
        sampler = ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=2000)
        a = run_ptsbe(small_noisy_circuit, sampler, seed=17, strategy="tensornet")
        b = run_ptsbe(small_noisy_circuit, sampler, seed=17, strategy="tensornet")
        assert a.engine == b.engine == "tensornet"
        np.testing.assert_array_equal(a.shot_table().bits, b.shot_table().bits)
        np.testing.assert_array_equal(
            a.shot_table().trajectory_ids, b.shot_table().trajectory_ids
        )

    def test_retain_false_streams_without_finalize(self, small_noisy_circuit):
        stream = run_ptsbe_stream(
            small_noisy_circuit, ProportionalPTS(total_shots=1000), seed=3,
            strategy="tensornet", retain=False,
        )
        total = sum(chunk.num_shots for chunk in stream)
        assert total == 1000
        with pytest.raises(ExecutionError):
            stream.finalize()

    def test_midstream_close(self, small_noisy_circuit):
        stream = run_ptsbe_stream(
            small_noisy_circuit,
            ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=3000),
            seed=3, strategy="tensornet", executor_kwargs={"max_batch": 4},
        )
        next(iter(stream))
        stream.close()  # must not raise

    def test_dedup_counts_unique_preparations(self, small_noisy_circuit):
        sampler = ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=2000)
        result = run_ptsbe(
            small_noisy_circuit, sampler, seed=13, strategy="tensornet"
        )
        assert result.unique_preparations is not None
        assert result.unique_preparations <= result.num_trajectories

    def test_weights_match_dense_serial(self, small_noisy_circuit):
        sampler = ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=2000)
        tn = run_ptsbe(small_noisy_circuit, sampler, seed=13, strategy="tensornet")
        serial = run_ptsbe(small_noisy_circuit, sampler, seed=13, strategy="serial")
        tw = {t.record.trajectory_id: t.actual_weight for t in tn.trajectories}
        sw = {t.record.trajectory_id: t.actual_weight for t in serial.trajectories}
        assert tw.keys() == sw.keys()
        for tid, weight in tw.items():
            assert weight == pytest.approx(sw[tid], rel=1e-9, abs=1e-12)

    def test_weights_obey_the_sum_rule_past_the_dense_cap(self):
        """Trace preservation at 35 qubits, where no dense reference exists:
        the realized weights of all eight branch combinations of three
        amplitude-damping sites sum to one."""
        circ = Circuit(35).h(0)
        for q in range(34):
            circ.cx(q, q + 1)
            if q in (5, 17, 29):
                circ.attach(amplitude_damping(0.2), q + 1)
        circ.measure_all().freeze()
        result = run_ptsbe(circ, ExhaustivePTS(cutoff=1e-12, nshots=10), seed=5)
        assert result.engine == "tensornet"
        assert result.num_trajectories == 8
        weights = [t.actual_weight for t in result.trajectories]
        assert abs(sum(weights) - 1.0) < 1e-12
        assert min(weights) < max(weights) < 1.0

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ExecutionError, match="max_batch"):
            TensorNetExecutor(max_batch=0)

    def test_bond_resolution_order(self, small_noisy_circuit):
        """Spec option > the stack's default, for the bond and the cutoff
        alike; a spec's ``config`` sets neither."""

        def truncation(spec):
            options = TensorNetExecutor(spec)._engine(small_noisy_circuit).stack_options
            stack = BatchedMPSStack(small_noisy_circuit.num_qubits, 1, **options)
            return stack.max_bond, stack.cutoff

        cfg = Config(max_dense_qubits=4)
        assert truncation(BackendSpec.mps(max_bond=8, cutoff=0.0, config=cfg)) == (8, 0.0)
        assert truncation(BackendSpec.mps(max_bond=8)) == (8, 1e-12)
        assert truncation(BackendSpec.mps(config=cfg)) == (64, 1e-12)
        assert truncation(BackendSpec.statevector(config=cfg)) == (64, 1e-12)
        assert truncation(BackendSpec()) == (64, 1e-12)

    def test_bond_below_one_rejected(self, small_noisy_circuit):
        with pytest.raises(ExecutionError, match="max_bond"):
            TensorNetExecutor(BackendSpec.mps(max_bond=0))._engine(small_noisy_circuit)

    def test_width_above_tensornet_cap_raises(self):
        circ = _wide_nonclifford(MAX_TENSORNET_QUBITS + 1)
        exe = TensorNetExecutor(BackendSpec.mps())
        spec = TrajectorySpec(TrajectoryRecord(trajectory_id=0, events=()), num_shots=10)
        with pytest.raises(ExecutionError, match="max_tensornet_qubits"):
            exe.execute_stream(circ, [spec], seed=0)

    def test_no_measurements_rejected(self):
        circ = Circuit(2).h(0)
        circ.attach(depolarizing(0.1), 0)
        circ.freeze()
        with pytest.raises(ExecutionError, match="measure"):
            TensorNetExecutor().execute_stream(circ, [object()], seed=0)

    def test_no_specs_rejected(self):
        circ = Circuit(2).h(0).measure_all().freeze()
        with pytest.raises(ExecutionError, match="specs"):
            TensorNetExecutor().execute_stream(circ, [], seed=0)


class TestDistributionalConformance:
    @pytest.mark.parametrize(
        "profile", ["uniform_depolarizing", "superconducting_median"]
    )
    def test_exact_bond_matches_density_matrix(self, profile):
        """n<=10 at exact bond: the tensornet table passes the same
        density-matrix distribution tier the dense reference passes."""
        circuit = noisy(
            build_workload("ghz", 6, seed=0),
            device_profile(profile).noise_model(),
        )
        sampler = ExhaustivePTS(cutoff=1e-4, nshots=None, total_shots=20_000)
        tn = run_ptsbe(circuit, sampler, seed=13, strategy="tensornet")
        serial = run_ptsbe(circuit, sampler, seed=13, strategy="serial")
        oracle = OracleSpec(tvd_tolerance=0.05)
        for result in (tn, serial):
            finding = check_distribution(circuit, result, oracle, True)
            assert finding.status == PASS, f"{result.engine}: {finding.detail}"


class TestRoutedColumns:
    """Routing leaves qubits on other sites: the engine must read each
    measured qubit's column through ``site_of``."""

    def _routed_circuit(self):
        circ = Circuit(7)
        for q in range(7):
            circ.rx(0.35 + 0.31 * q, q)  # a different marginal on every qubit
        circ.cx(0, 4).cx(5, 1).cx(0, 3).cx(6, 2).cx(4, 1)
        return circ

    def test_deterministic_bits_land_on_their_qubits(self):
        circ = Circuit(6).x(0).x(4)
        circ.cx(0, 3).cx(4, 1).cx(3, 5).cx(0, 3)
        circ.attach(depolarizing(0.01), 2)
        circ.measure(5, 0, 2, 1).freeze()
        assert compile_schedule(circ).site_of != tuple(range(6))
        result = run_ptsbe(circ, ProportionalPTS(total_shots=50), seed=2, strategy="tensornet")
        bits = result.shot_table().bits
        # x(0) -> q3 -> q5, second cx(0,3) clears q3; x(4) -> q1.
        np.testing.assert_array_equal(bits, np.tile([1, 1, 0, 1], (50, 1)))

    def test_nonadjacent_cx_matches_density_matrix(self):
        model = (
            NoiseModel()
            .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.04))
            .add_all_qubit_gate_noise("rx", depolarizing(0.02))
        )
        circuit = model.apply(self._routed_circuit().measure_all()).freeze()
        site_of = compile_schedule(circuit).site_of
        assert site_of != tuple(range(7)) and sorted(site_of) == list(range(7))
        sampler = ExhaustivePTS(cutoff=2e-4, nshots=None, total_shots=20_000)
        tn = run_ptsbe(circuit, sampler, seed=5, strategy="tensornet")
        finding = check_distribution(
            circuit, tn, OracleSpec(tvd_tolerance=0.05, distribution_max_qubits=7), True
        )
        assert finding.status == PASS, finding.detail


class TestWideExecution:
    def test_40q_brickwork_tensornet_and_auto(self):
        circ = noisy(
            build_workload("brickwork", 40, seed=1),
            NoiseModel().add_all_qubit_gate_noise(
                "cz", two_qubit_depolarizing(0.005)
            ),
        )
        sampler = ProportionalPTS(total_shots=200)
        explicit = run_ptsbe(circ, sampler, seed=7, strategy="tensornet")
        assert explicit.engine == "tensornet"
        assert explicit.shot_table().bits.shape == (200, 40)
        stream = run_ptsbe_stream(circ, sampler, seed=7)
        assert stream.engine == "tensornet"
        assert stream.routing.startswith("auto->tensornet")
        chunks = [c.shot_table() for c in stream if c.num_shots]
        auto = stream.finalize()
        ids = [t.trajectory_ids[0] for t in chunks]
        assert ids == sorted(ids)
        np.testing.assert_array_equal(
            auto.shot_table().bits, explicit.shot_table().bits
        )


def _frame_and_replayed(n=6, p=0.05):
    """Both kinds of site on one chain: the first CX layer's noise is
    followed by ``rz`` (replayed), the second layer's by Clifford gates
    only (frames), except on qubit 0, which ends on a ``t``."""
    circ = Circuit(n)
    for q in range(n):
        circ.ry(0.3 + 0.2 * q, q)
    for q in range(n - 1):
        circ.cx(q, q + 1)
    for q in range(n):
        circ.rz(0.5 + 0.1 * q, q)
    for q in range(0, n - 1, 2):
        circ.cx(q, q + 1)
    for q in range(1, n - 1, 2):
        circ.cx(q, q + 1)
    circ.h(n - 1).t(0).measure_all()
    return NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(p)).apply(circ).freeze()


def _frame_only_ids(result, frames):
    return [
        t.record.trajectory_id for t in result.trajectories
        if all(frames.frame[e.site_id] for e in t.record.events)
    ]


class TestFrameSites:
    """A Pauli-mixture site whose forward light cone meets only Clifford
    gates and Pauli channels is carried as end-of-circuit bit flips and a
    weight ratio; a row with nothing else to replay samples the run's
    ideal row, replayed once at ``B = 1``."""

    def test_every_msd_prep_site_is_a_frame_site(self):
        # Per site, not a Clifford suffix of the whole circuit: each block's
        # ry / rz come before its noise and the blocks never couple, while
        # the last non-Clifford gate is op 153 of 191, with 22 sites after it.
        from repro.circuits.operations import GateOp
        from repro.execution.router import CLIFFORD_GATES

        circ = _msd_prep_35q()
        frames = compile_schedule(circ).frames
        assert frames.frame.shape == (110,) and frames.frame.all()
        ops = list(circ.operations)
        last = max(
            i for i, op in enumerate(ops)
            if isinstance(op, GateOp) and op.gate.name.lower() not in CLIFFORD_GATES
        )
        assert (last, len(ops)) == (153, 191)
        assert sum(isinstance(op, NoiseOp) for op in ops[last:]) == 22

    def test_a_later_nonclifford_gate_or_channel_on_the_support_replays(self):
        circ = Circuit(4)
        circ.attach(depolarizing(0.1), 0)  # site 0: its X reaches the t through the cx
        circ.cx(0, 1).t(1)
        circ.t(2)
        circ.attach(depolarizing(0.1), 2)  # site 1: the t came first
        circ.h(2).t(3)
        circ.attach(depolarizing(0.1), 3)  # site 2: amplitude damping on its support
        circ.attach(amplitude_damping(0.1), 3)  # site 3: not a Pauli mixture
        circ.attach(depolarizing(0.1), 1)  # site 4: nothing after it
        circ.measure_all().freeze()
        frames = compile_schedule(circ).frames
        assert frames.frame.tolist() == [False, True, False, False, True]

    def test_frames_and_replayed_sites_match_the_density_matrix(self):
        # Site 0 (rx, then a bit flip, then t) must be replayed: an X there
        # is not a frame through the t, and reading it as one moves qubit
        # 0's marginal by 0.3 x 0.55.  The CX noise is carried as frames.
        circ = Circuit(4)
        circ.rx(0.9, 0)
        circ.attach(bit_flip(0.3), 0)
        circ.t(0).h(0)
        circ.h(1).cx(1, 2).ry(0.7, 3).cx(2, 3)
        circ.measure_all()
        circuit = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.1)).apply(circ)
        circuit.freeze()
        frames = compile_schedule(circuit).frames
        assert frames.frame.tolist() == [False, True, True, True, True]
        sampler = ExhaustivePTS(cutoff=1e-6, nshots=None, total_shots=40_000)
        result = run_ptsbe(circuit, sampler, seed=11, strategy="tensornet")
        finding = check_distribution(circuit, result, OracleSpec(tvd_tolerance=0.03), True)
        assert finding.status == PASS, finding.detail

    def test_frame_only_weights_equal_the_replayed_weights(self):
        # What the engine carries as a ratio is what a replay of the row
        # realizes as its norm.
        circ = _frame_and_replayed()
        schedule = compile_schedule(circ)
        frames = schedule.frames
        ids = _site_ids(circ)
        chosen = [s for s in ids if frames.frame[s]]
        choices_list = [{}, {chosen[0]: 1}, {chosen[1]: 3, chosen[-1]: 2}, {chosen[2]: 1}]
        result = run_ptsbe(circ, _FixedSpecs(choices_list), seed=3, strategy="tensornet")
        stack = BatchedMPSStack(circ.num_qubits, len(choices_list))
        replay_schedule(stack, schedule, choices_list)
        np.testing.assert_allclose(
            [t.actual_weight for t in result.trajectories], stack.norms_squared(), rtol=1e-12
        )

    @pytest.mark.parametrize("build, nsamples, nshots", [
        (_frame_and_replayed, 300, 40),
        # Every site a frame: with every row replayed, max_batch 7 and 64
        # move 7 315 and 8 987 of these 9 000 shots at this bond (seed 9).
        (_msd_prep_35q, 100, 200),
    ])
    def test_frame_only_bits_ignore_max_batch_and_halving(self, build, nsamples, nshots):
        from repro.faults import FaultPlan, FaultSpec

        circ = build()
        frames = compile_schedule(circ).frames
        sampler = ProbabilisticPTS(nsamples=nsamples, nshots=nshots)

        def run(max_batch, config=None):
            options = {"max_bond": 2} if config is None else {"max_bond": 2, "config": config}
            return run_ptsbe(
                circ, sampler, BackendSpec.mps(**options), seed=9, strategy="tensornet",
                executor_kwargs={"max_batch": max_batch},
            )

        halving = Config(
            fault_plan=FaultPlan(rules=(FaultSpec("capacity", "tensornet/stack:0:7"),))
        )
        runs = [run(1), run(7), run(64), run(7, halving)]
        assert [e.kind for e in runs[-1].recovery] == ["batch-halved"]
        only = _frame_only_ids(runs[0], frames)
        assert len(only) > 1
        assert frames.frame.all() or len(only) < runs[0].num_trajectories
        reference = runs[0].shot_table()
        keep = np.isin(reference.trajectory_ids, only)
        weights = {t.record.trajectory_id: t.actual_weight for t in runs[0].trajectories}
        for other in runs[1:]:
            table = other.shot_table()
            np.testing.assert_array_equal(table.trajectory_ids, reference.trajectory_ids)
            np.testing.assert_array_equal(table.bits[keep], reference.bits[keep])
            for t in other.trajectories:
                if t.record.trajectory_id in only:
                    assert t.actual_weight == weights[t.record.trajectory_id]

    def test_a_mixed_unit_samples_once_per_source_in_request_order(self, monkeypatch):
        # Every trajectory of this circuit has one outcome (X errors on
        # basis states, phases elsewhere), so request order is checked
        # bit for bit against the dense engine.
        from repro.execution import tensornet

        circ = Circuit(5).x(0).cx(0, 1).cx(1, 2).x(3).cx(3, 4).t(2)
        circ.measure_all()
        circuit = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.2)).apply(circ)
        circuit.freeze()
        frames = compile_schedule(circuit).frames
        assert frames.frame.any() and not frames.frame.all()
        calls = []

        def spy(tensors, envs, num_shots, requests, **kwargs):
            calls.append(tensors[0].shape[0])
            return sample(tensors, envs, num_shots, requests, **kwargs)

        sample = tensornet.sample_cached
        monkeypatch.setattr(tensornet, "sample_cached", spy)
        sampler = ProbabilisticPTS(nsamples=200, nshots=7)
        tn = run_ptsbe(circuit, sampler, seed=4, strategy="tensornet")
        dense = run_ptsbe(circuit, sampler, seed=4, strategy="serial")
        assert tn.num_trajectories > 64
        only = _frame_only_ids(tn, frames)
        assert 1 < len(only) < tn.num_trajectories
        # Per unit: the ideal row (one row) and the unit's replayed stack.
        units = -(-tn.unique_preparations // 64)
        assert len(calls) == 2 * units and calls[::2] == [1] * units
        a, b = tn.shot_table(), dense.shot_table()
        np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_the_benchmark_repetition_replays_one_row(self, svd_batches):
        # Every trajectory of ``tensornet_shots_35q`` (seed 7) is
        # frame-only: the run replays its ideal row once, alone.
        result = run_ptsbe(
            _msd_prep_35q(), ProbabilisticPTS(nsamples=250, nshots=1000), seed=7
        )
        assert result.engine == "tensornet" and result.num_trajectories == 102
        assert len(svd_batches) == len(_svd_sites(compile_schedule(_msd_prep_35q()))) == 150
        assert set(svd_batches) == {1}
