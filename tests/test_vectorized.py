"""Vectorized trajectory-stacked execution: backend, dedup, equivalence."""

import itertools
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro.backends.batched_statevector as stacked_module
import repro.linalg.apply as apply_module
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro import NoiseModel
from repro.backends.statevector import StatevectorBackend
from repro.channels.kraus import KrausChannel
from repro.channels.standard import (
    amplitude_damping,
    bit_flip,
    depolarizing,
    phase_damping,
    two_qubit_depolarizing,
)
from repro.circuits import Circuit
from repro.circuits.library import ghz
from repro.config import Config
from repro.errors import BackendError, CapacityError, ExecutionError
from repro.execution import (
    BackendSpec,
    BatchedExecutor,
    VectorizedExecutor,
    get_fused_plan,
    run_ptsbe,
)
from repro.execution import batched
from repro.execution.batched import build_executor
from repro.execution.plan import VariantTable, build_fused_plan
from repro.faults.plan import FaultPlan, FaultSpec
from repro.linalg.sampling import bits_from_indices
from repro.prescriptions import as_prescriptions, site_table
from repro.pts import ProbabilisticPTS, PTSResult, TrajectorySpec, deduplicate_specs
from repro.rng import StreamFactory, make_rng
from repro.trajectory.events import KrausEvent, TrajectoryRecord


def _spec(tid, shots, events=(), p=0.5):
    return TrajectorySpec(
        record=TrajectoryRecord(trajectory_id=tid, events=tuple(events), nominal_probability=p),
        num_shots=shots,
    )


def _event(site, kraus, qubits=(0,), p=0.05):
    return KrausEvent(
        site_id=site, kraus_index=kraus, qubits=qubits, channel_name="ch", probability=p
    )


def _groups(circuit, specs):
    """``specs``' dedup groups, as ``drive()`` forms them."""
    trajectories = PTSResult.from_specs(circuit, specs)
    return deduplicate_specs(trajectories.table, trajectories.shots)


def _members(groups):
    """Each group's trajectory rows."""
    bounds = groups.offsets.tolist()
    return [groups.members[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def _pts_specs(circuit, pts_seed, nsamples=300, nshots=400):
    """Real trajectory specs (with events/choices) from Algorithm 2."""
    return ProbabilisticPTS(nsamples=nsamples, nshots=nshots).sample(
        circuit, make_rng(pts_seed)
    ).specs


def _amp_damp_circuit():
    """One amplitude-damping site on |0>: Kraus 1 annihilates the state."""
    return Circuit(1).attach(amplitude_damping(0.1), 0).measure_all().freeze()


class TestBatchedStatevectorBackend:
    def test_stack_rows_match_serial_run_fixed(self, noisy_ghz3):
        """Each stacked row is bitwise identical to a serial preparation."""
        choices_list = [{}, {0: 1}, {1: 2}, {0: 1, 2: 3}]
        stacked = BatchedStatevectorBackend(3, batch_size=1)
        weights, alive = stacked.run_fixed_stack(noisy_ghz3, choices_list)
        serial = StatevectorBackend(3)
        for row, choices in enumerate(choices_list):
            w = serial.run_fixed(noisy_ghz3, choices)
            assert alive[row]
            assert weights[row] == pytest.approx(w)
            np.testing.assert_array_equal(stacked.statevector(row), serial.statevector)

    def test_sampling_matches_serial_stream_for_stream(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}])
        serial = StatevectorBackend(3)
        serial.run_fixed(noisy_ghz3, {0: 1})
        a = serial.sample(500, (0, 1, 2), make_rng(77))
        b = stacked.sample([(1, 500, make_rng(77))], (0, 1, 2))
        np.testing.assert_array_equal(a, b)

    def test_sample_rows_in_bulk(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}, {1: 1}])
        rngs = StreamFactory(1).rngs_for([0, 1, 2])
        block = stacked.sample(list(zip(range(3), [10, 20, 30], rngs)), (0, 1, 2))
        assert block.shape == (60, 3)

    def test_dead_row_draws_no_shots(self):
        stacked = BatchedStatevectorBackend(1)
        _, alive = stacked.run_fixed_stack(_amp_damp_circuit(), [{0: 1}, {}])
        assert alive.tolist() == [False, True]
        with pytest.raises(BackendError, match="dead trajectory"):
            stacked.sample([(0, 10, make_rng(0))], (0,))
        with pytest.raises(BackendError, match="dead trajectory"):
            stacked.probabilities(0)
        assert stacked.sample([(0, 0, make_rng(0))], (0,)).shape == (0, 1)
        assert stacked.sample([(1, 10, make_rng(0))], (0,)).shape == (10, 1)
        np.testing.assert_allclose(stacked.probabilities(1).sum(), 1.0)

    def test_probabilities_shape_and_norm_per_row(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}])
        probs = np.array([stacked.probabilities(row) for row in range(2)])
        assert probs.shape == (2, 8)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("row", [-1, 2])
    def test_sample_row_out_of_range_is_a_typed_error(self, noisy_ghz3, row):
        """Row -1 used to sample the last row, row B raised IndexError."""
        stacked = BatchedStatevectorBackend(3)
        stacked.run_fixed_stack(noisy_ghz3, [{}, {0: 1}])
        with pytest.raises(BackendError, match=f"row {row} is outside a 2-row stack"):
            stacked.sample([(row, 10, make_rng(0))], (0, 1, 2))
        with pytest.raises(BackendError, match=f"row {row} is outside a 2-row stack"):
            stacked.sample_indices(row, 10, make_rng(0))

    def test_annihilated_branch_kills_row_only(self):
        circ = _amp_damp_circuit()
        stacked = BatchedStatevectorBackend(1)
        weights, alive = stacked.run_fixed_stack(circ, [{0: 1}, {}])
        assert not alive[0] and weights[0] == 0.0
        assert alive[1] and weights[1] == pytest.approx(1.0)
        np.testing.assert_array_equal(stacked.statevector(0), np.zeros(2))
        with pytest.raises(BackendError):
            stacked.probabilities(0)

    def test_apply_matrix_row_subset(self):
        stacked = BatchedStatevectorBackend(1, batch_size=3)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        stacked.apply_matrix(x, [0], rows=[1])
        assert stacked.statevector(0)[0] == 1.0
        assert stacked.statevector(1)[1] == 1.0
        assert stacked.statevector(2)[0] == 1.0

    def test_duplicate_rows_touch_each_row_once(self):
        stacked = BatchedStatevectorBackend(1, batch_size=2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        stacked.apply_matrix(x, [0], rows=[1, 1])
        assert stacked.statevector(0)[0] == 1.0  # row 0 untouched
        assert stacked.statevector(1)[1] == 1.0

    def test_validations(self):
        stacked = BatchedStatevectorBackend(2, batch_size=2)
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(2), [5])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(2), [0], rows=[-2, 0])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(2), [0], rows=[2])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(4), [0])
        with pytest.raises(BackendError):
            stacked.apply_matrix(np.eye(4), [0, 0])
        with pytest.raises(BackendError):
            BatchedStatevectorBackend(0)

    def test_capacity_budget_counts_the_stack(self):
        cfg = Config(max_dense_qubits=4)
        backend = BatchedStatevectorBackend(3, config=cfg)
        assert backend.max_batch_rows == 2
        with pytest.raises(CapacityError):
            backend.reset(3)
        with pytest.raises(CapacityError):
            BatchedStatevectorBackend(5, config=cfg)

    def test_out_of_range_kraus_index(self, noisy_ghz3):
        stacked = BatchedStatevectorBackend(3)
        with pytest.raises(
            ExecutionError,
            match="spec 0 prescribes Kraus index 99 at noise site 0, whose channel has 4 operators",
        ):
            stacked.run_fixed_stack(noisy_ghz3, [{0: 99}])

    @pytest.mark.parametrize("where", ["walked", "tail"])
    def test_out_of_range_kraus_index_on_a_row_not_yet_deviated(self, where):
        """The bad row would first leave the ideal prefix at its bad
        choice, in the walk or in the recorded tail: the table the entry
        point builds rejects it before either."""
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        step = plan.steps[plan.tail - 1 if where == "walked" else plan.tail]
        choices_list = [{0: 1}, {step.site_ids[0]: 99}, {}]
        with pytest.raises(ExecutionError, match="spec 1 prescribes Kraus index 99 at noise site"):
            BatchedStatevectorBackend(6).run_fixed_stack(circuit, choices_list)

    def test_a_site_the_circuit_lacks_is_a_typed_error(self, noisy_ghz3):
        with pytest.raises(
            ExecutionError,
            match=r"spec 1 prescribes noise site 999, but the circuit has 4 noise sites \(ids 0\.\.3\)",
        ):
            BatchedStatevectorBackend(3).run_fixed_stack(noisy_ghz3, [{}, {999: 1}])


def _noisy_brickwork(n, p):
    """H/T/CX brickwork with depolarizing noise on every gate (``p`` on CX,
    ``p / 5`` on H and T): every plan step is a noise window, and the plan
    ends in a measurement tail."""
    circ = Circuit(n)
    for layer in range(4):
        for q in range(n):
            circ.h(q) if layer % 2 == 0 else circ.t(q)
        for q in range(layer % 2, n - 1, 2):
            circ.cx(q, q + 1)
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("cx", two_qubit_depolarizing(p))
        .add_all_qubit_gate_noise("h", depolarizing(p / 5))
        .add_all_qubit_gate_noise("t", depolarizing(p / 5))
    )
    return model.apply(circ.measure_all()).freeze()


def _damped_register():
    """A 4-qubit basis-state circuit under amplitude and phase damping: six
    general-Kraus windows.  Site 4 (phase damping on qubit 0, step 0) is a
    survivable error; site 13 (amplitude damping on qubit 1, step 2) decays
    a qubit that is exactly |0>, which kills the row."""
    circ = Circuit(4)
    for q in range(4):
        circ.x(q)
    circ.cx(0, 1).cx(2, 3).cx(1, 2).cx(3, 0)
    for q in range(4):
        circ.z(q)
    circ.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    model = (
        NoiseModel()
        .add_all_qubit_gate_noise("x", amplitude_damping(0.3))
        .add_all_qubit_gate_noise("z", amplitude_damping(0.3))
        .add_all_qubit_gate_noise("cx", phase_damping(0.2))
        .add_all_qubit_gate_noise("h", depolarizing(0.1))
    )
    return model.apply(circ.measure_all()).freeze()


def _key(step, choices):
    """``step``'s variant key under ``{site_id: kraus_index}`` choices, read
    off the step's own sites (a site the choices do not name is dominant)."""
    sites = getattr(step, "site_ids", ())
    return tuple(choices.get(site, dominant) for site, dominant in zip(sites, step.dominant_key))


def _first_deviation(plan, choices):
    """The first step whose variant key is not the dominant one (the plan's
    length if none), read off the steps' own keys."""
    return next(
        (
            index
            for index, step in enumerate(plan.steps)
            if _key(step, choices) != step.dominant_key
        ),
        plan.num_steps,
    )


def _unit_12q():
    """A fixed 64-row unit on 12-qubit brickwork, first deviations spread
    over every step, in the tail, and never."""
    circuit = _noisy_brickwork(12, 0.01)
    specs = _pts_specs(circuit, 7, nsamples=3000, nshots=4)
    return circuit, [spec.choices for spec in specs[:64]]


def _assert_rows_are_one_row_preparations(circuit, choices_list):
    """Every row of a stacked preparation, read through every row-facing
    call, is bitwise the one-row preparation of the same choices."""
    n = circuit.num_qubits
    stacked = BatchedStatevectorBackend(n)
    weights, alive = stacked.run_fixed_stack(circuit, choices_list)
    singles = []
    for choices in choices_list:
        single = BatchedStatevectorBackend(n)
        weight, live = single.run_fixed_stack(circuit, [choices])
        singles.append((single, weight[0], live[0]))
    assert weights.tolist() == [weight for _, weight, _ in singles]
    assert alive.tolist() == stacked.alive.tolist() == [live for _, _, live in singles]
    cum = stacked.cumulative_stack()
    qubits = tuple(range(n))
    for row, (single, _, live) in enumerate(singles):
        np.testing.assert_array_equal(cum[row], single.cumulative_stack()[0])
        if live:
            np.testing.assert_array_equal(stacked.probabilities(row), single.probabilities(0))
            np.testing.assert_array_equal(
                stacked.sample([(row, 50, make_rng(row))], qubits),
                single.sample([(0, 50, make_rng(row))], qubits),
            )
    # Amplitude reads: the recorded tail runs on the amplitudes first.
    np.testing.assert_array_equal(
        stacked.norms_squared(), [single.norms_squared()[0] for single, _, _ in singles]
    )
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    stacked.apply_matrix(hadamard, [0], rows=[0, 2])
    for row, (single, _, _) in enumerate(singles):
        if row in (0, 2):
            single.apply_matrix(hadamard, [0])
        np.testing.assert_array_equal(stacked.statevector(row), single.statevector(0))
    return alive


def _walked_rows(circuit, choices_list, monkeypatch):
    """``{step index: rows}`` of every kernel call one stacked preparation
    of ``choices_list`` makes, and the calls per step."""
    plan = get_fused_plan(circuit)
    seen = []
    original = stacked_module.apply_compiled_stack

    def counting(stack, op, num_qubits, *args, **kwargs):
        seen.append((stack.shape[0], op))
        return original(stack, op, num_qubits, *args, **kwargs)

    monkeypatch.setattr(stacked_module, "apply_compiled_stack", counting)
    BatchedStatevectorBackend(circuit.num_qubits).run_fixed_stack(circuit, choices_list)
    monkeypatch.undo()
    # A call passes one of a step's variants, or for a per-row call the
    # step's variant table itself.
    step_of = {id(step.table): index for index, step in enumerate(plan.steps)}
    step_of.update(
        (id(step.variant(_key(step, choices))), index)
        for index, step in enumerate(plan.steps)
        for choices in choices_list
    )
    calls, rows_at = {}, {}
    for rows, op in seen:
        index = step_of[id(op)]
        calls[index] = calls.get(index, 0) + 1
        rows_at[index] = rows
    return rows_at, calls, seen


def _trie_rows(plan, choices_list):
    """Per walked step ``s``, the distinct variant-key sequences over steps
    ``0..s`` among the rows: the nodes of their trie at depth ``s``."""
    keys = [[_key(step, choices) for step in plan.steps[: plan.tail]] for choices in choices_list]
    return {index: len({tuple(k[: index + 1]) for k in keys}) for index in range(plan.tail)}


class TestPrefixSharing:
    """A stacked preparation walks each row only from its join step, the
    first step where its variant sequence differs from its predecessor's in
    sorted order: until then it copies the state of the nearest earlier
    row that joined before it, which took the same variants.  Rows stay
    bitwise what a one-row preparation gives, whatever order they come in."""

    def test_rows_deviating_at_every_step_in_the_tail_and_never(self):
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        assert 0 < plan.tail < plan.num_steps
        choices_list = [{}]
        for step in plan.steps:
            site, dominant = step.site_ids[-1], step.dominant_key[-1]
            choices_list.append({site: dominant + 1})
        first, last = plan.steps[0], plan.steps[plan.tail - 1]
        choices_list += [
            {first.site_ids[0]: 2, last.site_ids[0]: 3},
            # A choice naming the dominant index is no deviation ...
            {first.site_ids[0]: first.dominant_key[0]},
            # ... and leaves the row ideal until its real one.
            {first.site_ids[1]: first.dominant_key[1], last.site_ids[-1]: 1},
            {},
        ]
        random.Random(5).shuffle(choices_list)
        deviations = {_first_deviation(plan, choices) for choices in choices_list}
        assert deviations == set(range(plan.num_steps + 1))
        assert all(_assert_rows_are_one_row_preparations(circuit, choices_list))

    def test_a_row_with_no_entries_between_two_deviating_rows_never_deviates(self):
        """An empty CSR slice takes the dominant key at every step: it does
        not read the next row's first entry."""
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        assert plan.tail > 1
        late, early = plan.steps[plan.tail - 1], plan.steps[0]
        choices_list = [
            {late.site_ids[0]: late.dominant_key[0] + 1},
            {early.site_ids[0]: early.dominant_key[0]},  # dropped: no entries left
            {},
            {early.site_ids[0]: early.dominant_key[0] + 1},
        ]
        table = as_prescriptions(site_table(circuit), choices_list)
        assert np.diff(table.offsets).tolist() == [1, 0, 0, 1]
        variants = plan.prescribed_steps(table)
        assert variants.shape == (plan.num_steps, 4) and variants.dtype == np.intp
        assert all(step.table.keys[0] == step.dominant_key for step in plan.steps)
        deviating = {index: np.flatnonzero(of).tolist() for index, of in enumerate(variants)}
        assert {index: rows for index, rows in deviating.items() if rows} == {
            0: [3],
            plan.tail - 1: [0],
        }
        assert all(_assert_rows_are_one_row_preparations(circuit, choices_list))

    def test_general_kraus_rows_renormalize_and_die_after_joining(self):
        circuit = _damped_register()
        plan = get_fused_plan(circuit)
        assert plan.tail == plan.num_steps and not any(s.unitary for s in plan.steps)
        dies_later = {4: 1, 13: 1}
        assert _first_deviation(plan, dies_later) < _first_deviation(plan, {13: 1})
        choices_list = [{}, {13: 1}, {0: 0}, {9: 1}, dies_later, {12: 1}, {21: 1}, {1: 1, 22: 1}]
        random.Random(3).shuffle(choices_list)
        alive = _assert_rows_are_one_row_preparations(circuit, choices_list)
        dead = [choices for choices, live in zip(choices_list, alive) if not live]
        assert sorted(dead, key=len) == [{13: 1}, dies_later]

    def test_step_s_walks_the_rows_joined_by_s(self, monkeypatch):
        circuit, choices_list = _unit_12q()
        plan = get_fused_plan(circuit)
        rows_at, calls, seen = _walked_rows(circuit, choices_list, monkeypatch)
        assert rows_at == _trie_rows(plan, choices_list)
        # Every walked step is one kernel call, however many variants its rows take.
        assert calls == dict.fromkeys(range(plan.tail), 1)
        assert any(isinstance(op, VariantTable) for _, op in seen)
        # The unit shares: its rows deviate all through the walk.
        assert sum(rows_at.values()) < 0.6 * len(choices_list) * plan.tail

    def test_rows_sharing_a_deviation_walk_it_once(self, monkeypatch):
        """The walked row-steps are the trie's node count, read off the
        steps' own keys, and fewer than sharing the ideal prefix alone
        walks (each row from its first deviation, plus the ideal row)."""
        circuit, choices_list = _unit_12q()
        plan = get_fused_plan(circuit)
        rows_at, _, _ = _walked_rows(circuit, choices_list, monkeypatch)
        first = [_first_deviation(plan, choices) for choices in choices_list]
        ideal = sum(
            min(len(choices_list), 1 + sum(f <= index for f in first)) for index in range(plan.tail)
        )
        walked = sum(rows_at.values())
        assert walked == sum(_trie_rows(plan, choices_list).values()) < ideal

    def test_siblings_join_their_sorted_predecessor_at_every_depth(self, monkeypatch):
        """Rows sharing a non-ideal prefix, rows joining at step 0, a row
        whose walked prefix is its sibling's (it joins at the tail) and the
        ideal row, shuffled: each walks only below its branch point and is
        its one-row preparation."""
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        assert plan.tail >= 3
        early, middle, late = plan.steps[0], plan.steps[plan.tail // 2], plan.steps[plan.tail]
        base = {early.site_ids[0]: early.dominant_key[0] + 1}
        choices_list = [
            {},
            base,
            {early.site_ids[0]: early.dominant_key[0] + 2},  # joins at step 0
            {**base, middle.site_ids[0]: 1},  # shares step 0's error with base
            {**base, middle.site_ids[0]: 2},
            {**base, middle.site_ids[0]: 2, late.site_ids[0]: 1},  # joins at the tail
            {**base, middle.site_ids[-1]: 3},
        ]
        random.Random(2).shuffle(choices_list)
        rows_at, _, _ = _walked_rows(circuit, choices_list, monkeypatch)
        assert rows_at == _trie_rows(plan, choices_list)
        assert rows_at[0] == 3 and rows_at[plan.tail - 1] == 6
        assert all(_assert_rows_are_one_row_preparations(circuit, choices_list))

    def test_a_row_joining_a_source_its_prefix_killed_is_dead(self):
        """Site 13 kills its row at step 2; the rows that share that prefix
        and deviate later copy the dead source, and are dead exactly as
        their one-row preparations are."""
        circuit = _damped_register()
        plan = get_fused_plan(circuit)
        late = plan.site_step[21]
        assert plan.site_step[13] < late < plan.tail
        choices_list = [{}, {13: 1}, {13: 1, 21: 1}, {4: 1, 13: 1}, {4: 1, 13: 1, 22: 1}, {21: 1}]
        random.Random(4).shuffle(choices_list)
        alive = _assert_rows_are_one_row_preparations(circuit, choices_list)
        assert [13 not in choices for choices in choices_list] == alive.tolist()

    def test_a_plan_that_is_all_tail_walks_nothing(self, monkeypatch):
        """Every step of a Pauli-noise X / CX / S circuit is a permutation
        with phases: the walk is empty, every row copies ``|0...0>`` and
        the recorded tail does the rest."""
        circuit = Circuit(3).x(0).cx(0, 1).s(1).cx(1, 2)
        model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.1))
        circuit = model.apply(circuit.measure_all()).freeze()
        plan = get_fused_plan(circuit)
        assert plan.tail == 0 < plan.num_steps
        sites = range(circuit.num_noise_sites())
        choices_list = [{}] + [{site: 1 + site % 3} for site in sites] + [{0: 2, 1: 3}]
        random.Random(6).shuffle(choices_list)
        rows_at, _, _ = _walked_rows(circuit, choices_list, monkeypatch)
        assert rows_at == {}
        assert all(_assert_rows_are_one_row_preparations(circuit, choices_list))

    def test_rows_differing_only_in_the_tail_share_one_walked_table_row(self):
        """Three walked prefixes, each under four tail choices: the walked-order
        table has one row per walked state, a row joined at the tail reads
        its source's, and every row still draws its one-row preparation's
        shots, through tables built for the unit's sizes and on demand."""
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        assert 0 < plan.tail < plan.num_steps
        early, late = plan.steps[0], plan.steps[plan.tail - 1]
        prefixes = [{}, {early.site_ids[0]: 1}, {late.site_ids[-1]: 2}]
        tail = _tail_sites(circuit)
        tails = [{}, {tail[0]: 1}, {tail[-1]: 3}, {tail[0]: 2, tail[-1]: 1}]
        choices_list = [{**prefix, **end} for end in tails for prefix in prefixes]
        random.Random(8).shuffle(choices_list)
        walked = [
            tuple(_key(step, choices) for step in plan.steps[: plan.tail])
            for choices in choices_list
        ]
        rows = len(choices_list)
        stack = BatchedStatevectorBackend(circuit.num_qubits)
        stack.run_fixed_stack(circuit, choices_list)
        stack.cumulative_stack([[50]] * rows)
        at, cum, _, _ = stack._tables[True]
        assert cum.shape[0] == len(set(walked)) == len(prefixes) < rows
        assert sorted(set(at.tolist())) == list(range(len(prefixes)))
        for i in range(rows):
            for j in range(rows):
                assert (at[i] == at[j]) == (walked[i] == walked[j]), (i, j)
        qubits = tuple(range(circuit.num_qubits))
        for row, choices in enumerate(choices_list):
            single = BatchedStatevectorBackend(circuit.num_qubits)
            single.run_fixed_stack(circuit, [choices])
            np.testing.assert_array_equal(
                stack.sample([(row, 50, make_rng(row))], qubits),
                single.sample([(0, 50, make_rng(row))], qubits),
            )
        assert all(_assert_rows_are_one_row_preparations(circuit, choices_list))

    @pytest.mark.parametrize("read", ["final_draw", "statevector"])
    def test_a_row_joined_at_the_tail_copies_its_state_only_when_read(self, read):
        """A row the trie joins at the tail takes its source's weight but not
        its amplitudes: its final-order draw reads the source's state
        through the tail, and an amplitude read copies it first.  Either
        read, first or second, is the row's one-row preparation."""
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        assert 0 < plan.tail < plan.num_steps
        early = plan.steps[0]
        tail = _tail_sites(circuit)
        choices_list = [
            {early.site_ids[0]: 1},
            {},
            {early.site_ids[0]: 1, tail[0]: 2},  # joins row 0 at the tail
            {tail[-1]: 3},  # joins row 1 at the tail
            {early.site_ids[0]: 1},  # row 0 again: joins it at the tail
        ]
        n = circuit.num_qubits
        stack = BatchedStatevectorBackend(n)
        stack.run_fixed_stack(circuit, choices_list)
        held = stack._holder
        deferred = np.flatnonzero(held != np.arange(len(held)))
        assert len(deferred) == 3
        joined = sorted(np.flatnonzero(np.isin(stack._row, deferred)).tolist())
        assert joined == [2, 3, 4]
        qubits = tuple(range(n))
        for first in (read, {"final_draw": "statevector", "statevector": "final_draw"}[read]):
            for row in joined:
                single = BatchedStatevectorBackend(n)
                single.run_fixed_stack(circuit, [choices_list[row]])
                if first == "final_draw":
                    np.testing.assert_array_equal(
                        stack.sample([(row, 2**n, make_rng(row))], qubits),
                        single.sample([(0, 2**n, make_rng(row))], qubits),
                    )
                else:
                    np.testing.assert_array_equal(stack.statevector(row), single.statevector(0))
        assert (stack._holder == np.arange(len(held))).all() and stack._tail == []

    def test_identical_rows_with_no_tail_share_one_walk(self):
        """With no measurement tail, a repeated row joins at the end of the
        walk all the same: its amplitudes are its source's when read."""
        circuit = _damped_register()
        plan = get_fused_plan(circuit)
        assert plan.tail == plan.num_steps
        choices_list = [{21: 1}, {}, {21: 1}, {}, {13: 1}, {13: 1}]
        stack = BatchedStatevectorBackend(circuit.num_qubits)
        weights, alive = stack.run_fixed_stack(circuit, choices_list)
        assert np.flatnonzero(stack._holder != np.arange(6)).tolist() == [3, 4, 5]
        assert weights[0] == weights[2] and weights[1] == weights[3]
        np.testing.assert_array_equal(stack.statevector(2), stack.statevector(0))
        np.testing.assert_array_equal(stack.norms_squared()[[2, 3]], stack.norms_squared()[[0, 1]])
        assert alive.tolist() == [True] * 4 + [False] * 2  # site 13 kills its rows
        alive = _assert_rows_are_one_row_preparations(circuit, choices_list)
        assert alive.tolist() == [True] * 4 + [False] * 2

    def test_walk_peaks_at_two_stacks_plus_the_per_row_operators(self, monkeypatch):
        circuit, choices_list = _unit_12q()
        operators = []
        original = apply_module._per_row

        def recording(*args, **kwargs):
            matrices = original(*args, **kwargs)
            operators.append(matrices.nbytes)
            return matrices

        monkeypatch.setattr(apply_module, "_per_row", recording)
        BatchedStatevectorBackend(12).run_fixed_stack(circuit, choices_list)  # compile variants
        monkeypatch.undo()
        row_bytes = 2**12 * np.dtype(np.complex128).itemsize
        stack_bytes = len(choices_list) * row_bytes
        backend = BatchedStatevectorBackend(12)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backend.run_fixed_stack(circuit, choices_list)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # No snapshot of any row: the largest per-row operator array, and
        # one row of slack for the bookkeeping arrays.
        assert operators and max(operators) < row_bytes * 4
        assert peak <= 2 * stack_bytes + max(operators) + row_bytes, peak / row_bytes

    def test_steps_mixing_tiers_keep_every_row_its_one_row_preparation(self, monkeypatch):
        """Dense windows take one per-row call; a diagonal window under bit
        flips (its flipped variants are permutation-like), a gapped CX
        window (slice accumulation) and a window whose amplitude-damping
        variants are sparser than its dominant one take the grouped path."""
        circuit = Circuit(6)
        for q in range(3):
            circuit.ry(0.3 + 0.2 * q, q)
        circuit.cx(0, 1).cx(1, 2)  # dense on (0, 1, 2)
        circuit.h(3).h(4).h(5).cx(3, 4).cx(4, 5)  # dense on (3, 4, 5)
        circuit.cx(1, 3)  # gapped CX
        circuit.t(4).t(5).cz(4, 5)  # diagonal
        circuit.cx(3, 4)
        for q in range(6):
            circuit.ry(0.4 + 0.1 * q, q)
        noisy = (
            NoiseModel()
            .add_all_qubit_gate_noise("t", bit_flip(0.1))
            .add_all_qubit_gate_noise("cz", bit_flip(0.1))
            .add_all_qubit_gate_noise("cx", depolarizing(0.1))
            .add_all_qubit_gate_noise("ry", amplitude_damping(0.2))
            .apply(circuit.measure_all())
            .freeze()
        )
        plan = get_fused_plan(noisy)
        tiers = {step.targets: step.variant(step.dominant_key) for step in plan.steps}
        assert tiers[(1, 3)].tier == "dense" and not tiers[(1, 3)].gemm
        assert tiers[(4, 5)].tier == "diagonal"
        assert tiers[(0, 1, 2)].gemm and tiers[(3, 4, 5)].gemm
        grouped, per_row = [], []
        original = stacked_module._apply_grouped

        def recording(stack, of, *args, **kwargs):
            grouped.append(len(np.unique(of)))
            return original(stack, of, *args, **kwargs)

        kernel = stacked_module.apply_compiled_stack

        def counting(stack, op, num_qubits, out=None, variant=None):
            if variant is not None:
                per_row.append(len(np.unique(variant)))
            return kernel(stack, op, num_qubits, out, variant)

        monkeypatch.setattr(stacked_module, "_apply_grouped", recording)
        monkeypatch.setattr(stacked_module, "apply_compiled_stack", counting)
        sites = [site for step in plan.steps for site in step.site_ids]
        choices_list = [{}] + [{site: 1} for site in sites]
        choices_list += [{site: 1 for site in sites[::3]}, {site: 1 for site in sites[1::4]}]
        random.Random(11).shuffle(choices_list)
        _assert_rows_are_one_row_preparations(noisy, choices_list)
        # Only the stack has more than one group at a step: every step of
        # its walk is one per-row call (both dense windows) or one grouped
        # pass (the other seven), each over several variants.
        assert len(per_row) == 2 and len(grouped) == plan.num_steps - 2
        assert min(per_row + grouped) > 1, (per_row, grouped)


class TestVariantTables:
    """Each plan step keeps one variant table for the whole run, and a
    unit's rows index it: the walk, the weights and the relabel gather
    from the tables instead of rebuilding per-unit key lists."""

    def test_a_unit_on_one_non_dominant_key_makes_the_one_variant_call(self, monkeypatch):
        """Every row takes the same deviating key at step 0: the step's table
        holds the dominant key too, but the call passes one operator."""
        circuit = _noisy_brickwork(6, 0.05)
        plan = get_fused_plan(circuit)
        first, later = plan.steps[0], plan.steps[plan.tail - 1]
        assert plan.tail > 1 and len(first.site_ids) > 1
        deviation = {first.site_ids[0]: first.dominant_key[0] + 1}
        choices_list = [
            deviation,
            {**deviation, later.site_ids[0]: 2},
            {**deviation, first.site_ids[1]: first.dominant_key[1]},  # not a deviation
        ]
        calls = []
        kernel = stacked_module.apply_compiled_stack

        def counting(stack, op, num_qubits, out=None, variant=None):
            calls.append((stack.shape[0], op, variant))
            return kernel(stack, op, num_qubits, out, variant)

        monkeypatch.setattr(stacked_module, "apply_compiled_stack", counting)
        BatchedStatevectorBackend(6).run_fixed_stack(circuit, choices_list)
        monkeypatch.undo()
        key = _key(first, deviation)
        (index,) = first.table.indices([key])
        assert index > 0 and first.table.keys[0] == first.dominant_key
        rows, op, variant = calls[0]
        assert rows == 1 and variant is None and op is first.table.ops[index]
        # One call per walked step; the last walked one splits the two
        # distinct prefixes over two variants.
        assert len(calls) == plan.tail and all(v is None for _, _, v in calls[:-1])
        rows, op, variant = calls[-1]
        assert rows == 2 and op is later.table and len(set(variant.tolist())) == 2
        _assert_rows_are_one_row_preparations(circuit, choices_list)

    def test_tables_keep_keys_across_units_in_order_of_first_use(self):
        circuit = _noisy_brickwork(6, 0.05)
        plan = build_fused_plan(circuit)
        specs = _pts_specs(circuit, 3, nsamples=400, nshots=1)
        choices = [spec.choices for spec in specs]
        site_ids = site_table(circuit)
        first = plan.prescribed_steps(as_prescriptions(site_ids, choices[:40]))
        sizes = [len(step.table.keys) for step in plan.steps]
        built = [len(step.table.permutations()[0]) for step in plan.steps[plan.tail :]]
        assert built == sizes[plan.tail :]
        both = plan.prescribed_steps(as_prescriptions(site_ids, choices))
        # The first unit's rows keep their indices; the tables only grew.
        np.testing.assert_array_equal(both[:, :40], first)
        grown = [len(s.table.keys) - n for s, n in zip(plan.steps, sizes)]
        assert min(grown) >= 0 and max(grown[plan.tail :]) > 0
        for step, of in zip(plan.steps, both):
            table = step.table
            assert len(table.probabilities) == len(table.keys) == len(set(table.keys))
            want = [_key(step, row) for row in choices]
            assert [table.keys[i] for i in of] == want
            if hasattr(step, "unitary"):
                np.testing.assert_array_equal(
                    table.probabilities, [step.probability(key) for key in table.keys]
                )
        fresh = build_fused_plan(circuit)
        for index in range(plan.tail, plan.num_steps):
            # Grown over two units, the maps are the one-pass maps of every key.
            step = plan.steps[index]
            maps, flips = step.table.permutations()
            assert maps.shape == flips.shape == (len(step.table.keys), 2 ** len(step.support))
            np.testing.assert_array_equal(maps, fresh.steps[index].index_maps(step.table.keys))
        plan.prescribed_steps(as_prescriptions(site_ids, choices[::-1]))  # no new key
        for step in plan.steps[plan.tail :]:
            assert len(step.table.permutations()[0]) == len(step.table.keys)

    def test_two_threads_against_one_fresh_plan_assign_the_same_indices(self, monkeypatch):
        """Backends prepare the same units at once on three threads (more
        than the host's cores, switching every microsecond) against one
        fresh plan, as the serial look-ahead does on two: each unit's
        indices agree, the tables hold each key once at one index, and
        every thread draws the bits and weights a one-thread run draws on a
        plan of its own."""
        units = 6

        def run(circuit, thread_count):
            specs = _pts_specs(circuit, 5, nsamples=600, nshots=1)
            choices = [spec.choices for spec in specs]
            chunks = [choices[i::units] for i in range(units)]
            seen = {}
            prescribe = type(get_fused_plan(circuit)).prescribed_steps

            def recording(plan, table):
                of = prescribe(plan, table)
                seen.setdefault(threading.current_thread().name, []).append(of)
                return of

            monkeypatch.setattr(type(get_fused_plan(circuit)), "prescribed_steps", recording)
            barrier = threading.Barrier(thread_count)
            results = {}

            def prepare(name):
                backend = BatchedStatevectorBackend(circuit.num_qubits)
                barrier.wait()
                out = []
                for unit, rows in enumerate(chunks):
                    weights, _ = backend.run_fixed_stack(circuit, rows)
                    bits = backend.sample(
                        [(row, 64, make_rng(1000 * unit + row)) for row in range(len(rows))],
                        tuple(range(circuit.num_qubits)),
                    )
                    out.append((weights.tolist(), np.concatenate(bits).tobytes()))
                results[name] = out

            threads = [
                threading.Thread(target=prepare, args=(f"t{i}",), name=f"t{i}")
                for i in range(thread_count)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            monkeypatch.undo()
            return results, seen

        circuit = _noisy_brickwork(8, 0.05)
        results, seen = run(circuit, 3)
        alone, _ = run(_noisy_brickwork(8, 0.05), 1)
        assert set(results) == set(seen) == {"t0", "t1", "t2"}
        for name in ("t1", "t2"):
            assert all(np.array_equal(a, b) for a, b in zip(seen["t0"], seen[name]))
            assert results[name] == results["t0"]
        assert results["t0"] == alone["t0"]
        for step in get_fused_plan(circuit).steps:
            table = step.table
            assert len(set(table.keys)) == len(table.keys) == len(table.probabilities)
            assert table.indices(table.keys) == list(range(len(table.keys)))
            assert len(table.operators()) == len(table.keys) == len(table.gemm)


def _ladder_rows(circuit, choices_list):
    """The run's prescription table, and each row's one-row table."""
    table = as_prescriptions(site_table(circuit), choices_list)
    return table, [table[i : i + 1] for i in range(len(table))]


def _walk(circuit, row, ladder=None):
    """A one-row walk of ``row``: its state, weight and alive flag."""
    backend = BatchedStatevectorBackend(circuit.num_qubits)
    weights, alive = backend._prepare(circuit, row, ladder)
    return backend.statevector(0).copy(), weights[0], alive[0]


def _every_rung_choice(plan):
    """Every set of at most ``MAX_RUNGS`` rung steps, the empty one included."""
    steps = range(1, plan.tail + 1)
    return [
        rungs
        for k in range(stacked_module.MAX_RUNGS + 1)
        for rungs in itertools.combinations(steps, k)
    ]


class TestLadder:
    """The serial walk's checkpoint ladder: a row restores the deepest held
    ideal-prefix state at or before its first deviation, and comes out
    bitwise as its own walk from ``|0...0>``."""

    @pytest.mark.parametrize("kind", ["brickwork", "damped"])
    def test_every_row_is_its_walk_from_zero_for_every_rung_choice(self, kind):
        if kind == "brickwork":
            circuit = _noisy_brickwork(6, 0.05)
            choices_list = [s.choices for s in _pts_specs(circuit, 3, nsamples=60, nshots=1)]
        else:
            circuit = _damped_register()
            choices_list = [
                {}, {13: 1}, {13: 1, 21: 1}, {4: 1}, {4: 1, 13: 1}, {9: 1}, {21: 1},
                {12: 1}, {1: 1, 22: 1}, {22: 1}, {},
            ]
        plan = get_fused_plan(circuit)
        table, rows = _ladder_rows(circuit, choices_list)
        alone = [_walk(circuit, row) for row in rows]
        if kind == "damped":
            assert not all(live for _, _, live in alone)  # dead rows restore too
        for rungs in _every_rung_choice(plan):
            ladder = stacked_module.Ladder(plan, table)
            ladder.steps = rungs
            # Twice over: the second pass restores from rungs the first filled.
            for row, (state, weight, live) in zip(rows + rows, alone + alone):
                got_state, got_weight, got_live = _walk(circuit, row, ladder)
                np.testing.assert_array_equal(got_state, state)
                assert (got_weight, got_live) == (weight, live)
            assert sorted(ladder.held) == [
                r for r in rungs if any(_first_deviation(plan, c) >= r for c in choices_list)
            ]

    def test_kernel_calls_are_the_predicted_row_steps(self, monkeypatch):
        """In run order or reversed, the rows walk what ``row_steps``
        predicts; fewer than from ``|0...0>`` each."""
        circuit = _noisy_brickwork(8, 0.05)
        plan = get_fused_plan(circuit)
        choices_list = [s.choices for s in _pts_specs(circuit, 5, nsamples=80, nshots=1)]
        unique = list({tuple(sorted(c.items())): c for c in choices_list}.values())
        table, rows = _ladder_rows(circuit, unique)
        calls = []
        kernel = stacked_module.apply_compiled_stack
        monkeypatch.setattr(
            stacked_module, "apply_compiled_stack", lambda *a: calls.append(1) or kernel(*a)
        )
        for order in (rows, rows[::-1]):
            ladder = stacked_module.Ladder(plan, table)
            calls.clear()
            for row in order:  # no amplitude read: that would run the tail
                BatchedStatevectorBackend(circuit.num_qubits)._prepare(circuit, row, ladder)
            assert ladder.steps
            assert len(calls) == ladder.row_steps < plan.tail * len(rows)

    def test_a_serial_run_walks_the_head_then_the_predicted_row_steps(self, monkeypatch):
        circuit = _noisy_brickwork(8, 0.05)
        specs = _pts_specs(circuit, 5, nsamples=80, nshots=3)
        plan = get_fused_plan(circuit)
        calls, ladders = [], []
        kernel = stacked_module.apply_compiled_stack
        monkeypatch.setattr(
            stacked_module, "apply_compiled_stack", lambda *a: calls.append(1) or kernel(*a)
        )
        share = batched._SerialEngine.share

        def recording(self, table, peer):
            share(self, table, peer)
            ladders.append(self.ladder)

        monkeypatch.setattr(batched._SerialEngine, "share", recording)
        result = BatchedExecutor().execute(circuit, specs, seed=3)
        monkeypatch.undo()
        (ladder,) = ladders
        assert len(calls) == plan.tail + ladder.row_steps
        assert len(calls) < plan.tail * result.unique_preparations
        reference = VectorizedExecutor(max_batch=1).execute(circuit, specs, seed=3)
        np.testing.assert_array_equal(result.shot_table().bits, reference.shot_table().bits)

    def test_a_dead_ideal_prefix_stays_dead(self):
        """The dominant operator of a projector channel annihilates ``|0>``
        at step 0, so the ideal prefix is dead: every row that keeps it is
        dead however late it deviates, restored or walked, and a row that
        deviates there lives."""
        kill = KrausChannel("kill", [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        assert kill.dominant_index() == 0
        circuit = Circuit(6).attach(kill, 0)
        for layer in range(4):
            for q in range(6):
                circuit.h(q) if layer % 2 == 0 else circuit.t(q)
            for q in range(layer % 2, 5, 2):
                circuit.cx(q, q + 1)
        model = NoiseModel().add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.05))
        circuit = model.apply(circuit.measure_all()).freeze()
        plan = get_fused_plan(circuit)
        assert plan.site_step[0] == 0 and plan.site_step[3] == 2 and plan.site_step[9] == plan.tail
        choices_list = [{}, {3: 1}, {9: 2}, {0: 1}, {0: 1, 3: 5}, {}]
        table, rows = _ladder_rows(circuit, choices_list)
        ladder = stacked_module.Ladder(plan, table)
        ladder.steps = (2, plan.tail)
        got = [_walk(circuit, row, ladder) for row in rows]
        assert sorted(ladder.held) == [2, plan.tail]
        assert [live for _, _, live in got] == [0 in c for c in choices_list]
        for (state, weight, live), row in zip(got, rows):
            alone_state, alone_weight, alone_live = _walk(circuit, row)
            np.testing.assert_array_equal(state, alone_state)
            assert (weight, live) == (alone_weight, alone_live)
            if not live:
                assert weight == 0.0 and not state.any()

    @pytest.mark.parametrize("failure", ["retried unit", "raising helper"])
    def test_a_retried_look_ahead_unit_restores_from_the_same_rungs(
        self, failure, lookahead, monkeypatch
    ):
        """A look-ahead unit whose task faults once claims the helper's
        preparation on its retry; one whose helper raised is prepared again
        in line.  Either way the adapters share one ladder, and the run
        walks exactly the fault-free run's row-steps and draws its bits."""
        circuit = _noisy_brickwork(8, 0.05)
        specs = _pts_specs(circuit, 5, nsamples=40, nshots=3)
        calls, ladders = [], []
        kernel = stacked_module.apply_compiled_stack
        monkeypatch.setattr(
            stacked_module, "apply_compiled_stack", lambda *a: calls.append(1) or kernel(*a)
        )
        share = batched._SerialEngine.share

        def recording(self, table, peer):
            share(self, table, peer)
            ladders.append(self.ladder)

        monkeypatch.setattr(batched._SerialEngine, "share", recording)

        def run(config=None):
            calls.clear()
            ladders.clear()
            backend = BackendSpec.statevector(**({"config": config} if config else {}))
            return BatchedExecutor(backend).execute(circuit, specs, seed=3)

        threads = lookahead(True)
        clean = run()
        clean_calls = len(calls)
        assert "repro-lookahead_0" in threads
        if failure == "retried unit":
            plan = FaultPlan(rules=(FaultSpec("transient-backend", "serial/stack:2:3"),))
            faulty = run(Config(fault_plan=plan))
            assert [(e.kind, e.unit) for e in faulty.recovery] == [("retry", "serial/stack:2:3")]
        else:
            prepare = batched._SerialEngine.prepare

            def helper_fails(self, table, sizes):
                if threading.current_thread() is not threading.main_thread():
                    raise BackendError("the helper's preparation failed")
                return prepare(self, table, sizes)

            monkeypatch.setattr(batched._SerialEngine, "prepare", helper_fails)
            faulty = run()
        assert len(ladders) == 2 and ladders[0] is ladders[1]
        assert len(calls) == clean_calls
        np.testing.assert_array_equal(faulty.shot_table().bits, clean.shot_table().bits)

    def test_the_look_ahead_shares_the_ladder_under_a_short_switch_interval(
        self, lookahead, monkeypatch
    ):
        """The main thread draws while the helper restores and fills rungs,
        switching every microsecond: the run walks the in-line run's
        row-steps and draws its bits (a rung filled twice, or read half
        written, would break one or the other)."""
        circuit = _noisy_brickwork(8, 0.05)
        specs = _pts_specs(circuit, 7, nsamples=60, nshots=50)
        calls = []
        kernel = stacked_module.apply_compiled_stack
        monkeypatch.setattr(
            stacked_module, "apply_compiled_stack", lambda *a: calls.append(1) or kernel(*a)
        )
        lookahead(False)
        inline = BatchedExecutor().execute(circuit, specs, seed=4)
        inline_calls, calls[:] = len(calls), []
        threads = lookahead(True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = BatchedExecutor().execute(circuit, specs, seed=4)
        finally:
            sys.setswitchinterval(interval)
        assert "repro-lookahead_0" in threads
        assert len(calls) == inline_calls
        np.testing.assert_array_equal(ahead.shot_table().bits, inline.shot_table().bits)
        assert [t.actual_weight for t in ahead.trajectories] == [
            t.actual_weight for t in inline.trajectories
        ]

    @pytest.mark.parametrize("lookahead_on", [False, True], ids=["in-line", "look-ahead"])
    def test_no_rung_outlives_close_or_a_consumer_that_stops_pulling(
        self, lookahead_on, lookahead
    ):
        """Rungs are held while units still run, and none is held once the
        stream closes: after a consumer stops pulling and closes, and after
        a run drains."""
        lookahead(lookahead_on)
        circuit = _noisy_brickwork(8, 0.05)
        specs = _pts_specs(circuit, 5, nsamples=60, nshots=3)
        ladders = []
        share = batched._SerialEngine.share

        def recording(self, table, peer):
            share(self, table, peer)
            ladders.append(self.ladder)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batched._SerialEngine, "share", recording)
            stream = BatchedExecutor().execute_stream(circuit, specs, seed=21)
            for _ in stream:
                if ladders and ladders[0].held:
                    break
            assert ladders[0].held
            stream.close()
            assert all(not ladder.held for ladder in ladders)
            ladders.clear()
            list(BatchedExecutor().execute_stream(circuit, specs, seed=21, retain=False))
            assert ladders and all(not ladder.held for ladder in ladders)


class TestLazyZeroState:
    def test_the_constructor_allocates_no_state(self):
        """A backend built to prepare never fills a ``|0...0>`` stack: at 20
        qubits (a 16 MiB state) construction allocates no ``2**n`` buffer."""
        tracemalloc.start()
        try:
            stack = BatchedStatevectorBackend(20)
            view = StatevectorBackend(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert stack.batch_size == view.stack.batch_size == 1

    @pytest.mark.parametrize("read", ["statevector", "probabilities", "cumulative", "sample"])
    def test_a_never_prepared_backend_reads_the_zero_state(self, read):
        backend = StatevectorBackend(3)
        zero = np.zeros(8)
        zero[0] = 1.0
        if read == "statevector":
            np.testing.assert_array_equal(backend.statevector, zero)
        elif read == "probabilities":
            np.testing.assert_array_equal(backend.probabilities(), zero)
        elif read == "cumulative":
            np.testing.assert_array_equal(backend.cumulative(), np.ones(8))
        else:
            assert not backend.sample(50, [0, 1, 2], make_rng(1)).any()
        stack = BatchedStatevectorBackend(3, 2)
        stack.reset(4)
        assert stack.batch_size == 4 and stack.norms_squared().tolist() == [1.0] * 4


def test_the_one_row_view_reads_one_row_tables():
    """``cumulative()`` on the serial view is the ``(2**n,)`` row that
    ``probabilities()`` is, not the stack's one-row ``(1, 2**n)`` table."""
    circuit = ghz(3).measure_all().freeze()
    backend = StatevectorBackend(3)
    backend.run_fixed(circuit)
    probabilities, cumulative = backend.probabilities(), backend.cumulative()
    assert cumulative.shape == probabilities.shape == (8,)
    np.testing.assert_allclose(cumulative, np.cumsum(probabilities))


class TestDedup:
    def test_groups_ignore_trajectory_id_and_shots(self, noisy_ghz3):
        a = _spec(0, 100, [_event(0, 1)])
        b = _spec(9, 250, [_event(0, 1)])
        groups = _groups(noisy_ghz3, [a, b])
        assert _members(groups) == [[0, 1]] and groups.total_shots.tolist() == [350]

    def test_groups_distinguish_choices(self, noisy_ghz3):
        groups = _groups(noisy_ghz3, [_spec(0, 1, [_event(0, 1)]), _spec(0, 1, [_event(0, 2)])])
        assert _members(groups) == [[0], [1]]

    def test_groups_merge_shot_budgets_in_order(self, noisy_ghz3):
        specs = [
            _spec(0, 100, [_event(0, 1)]),
            _spec(1, 50),
            _spec(2, 40, [_event(0, 1)]),
        ]
        groups = _groups(noisy_ghz3, specs)
        assert _members(groups) == [[0, 2], [1]]
        assert groups.total_shots.tolist() == [140, 50]

    def test_total_shots_per_key_invariant_under_shuffle(self, noisy_ghz3):
        rng = random.Random(99)
        signatures = [(), ((0, 1),), ((0, 2),), ((0, 1), (1, 1)), ((1, 2),)]
        specs = []
        for tid in range(40):
            sig = signatures[rng.randrange(len(signatures))]
            events = [_event(site, kraus) for site, kraus in sig]
            specs.append(_spec(tid, rng.randrange(1, 500), events))

        def budgets(specs):
            groups = _groups(noisy_ghz3, specs)
            keys = [tuple(sorted(groups.table[g].items())) for g in range(len(groups))]
            return dict(zip(keys, groups.total_shots.tolist()))

        expected = budgets(specs)
        assert set(expected) == set(signatures)
        for _ in range(5):
            shuffled = specs[:]
            rng.shuffle(shuffled)
            assert budgets(shuffled) == expected

    def test_groups_preserve_first_occurrence_order(self, noisy_ghz3):
        specs = [
            _spec(0, 5, [_event(0, 2)]),
            _spec(1, 5),
            _spec(2, 5, [_event(0, 2)]),
            _spec(3, 5, [_event(1, 1)]),
        ]
        groups = _groups(noisy_ghz3, specs)
        # Members within a group ascend; groups go by their first member.
        assert _members(groups) == [[0, 2], [1], [3]]
        assert groups.members[groups.offsets[:-1]].tolist() == [0, 1, 3]  # first rows
        assert [groups.table[g] for g in range(3)] == [{0: 2}, {}, {1: 1}]

    @pytest.mark.parametrize("seed", range(4))
    def test_groups_match_a_dict_of_row_keys(self, noisy_ghz3, seed):
        """``deduplicate_specs`` against the dict dedup it replaced: rows
        keyed by their sorted ``(site, kraus)`` pairs, in first-occurrence
        order, shots merged."""
        rng = random.Random(seed)
        rows = [
            {site: rng.randrange(4) for site in rng.sample(range(4), rng.randrange(4))}
            for _ in range(rng.randrange(1, 60))
        ]
        specs = [
            _spec(tid, rng.randrange(0, 9), [_event(s, k) for s, k in sorted(row.items())])
            for tid, row in enumerate(rows)
        ]
        grouped = {}
        for index, spec in enumerate(specs):
            key = tuple(sorted((s, k) for s, k in spec.choices.items() if k != 0))  # 0 dominates
            grouped.setdefault(key, []).append(index)
        groups = _groups(noisy_ghz3, specs)
        assert _members(groups) == list(grouped.values())
        assert groups.total_shots.tolist() == [
            sum(specs[i].num_shots for i in members) for members in grouped.values()
        ]
        assert [tuple(sorted(groups.table[g].items())) for g in range(len(groups))] == list(grouped)

    def test_a_dominant_entry_groups_with_the_omitted_site(self, noisy_ghz3):
        """The checked table drops an entry naming its site's dominant
        index, so that spec prescribes the state of one omitting it."""
        specs = [_spec(0, 5), _spec(1, 5, [_event(2, 0)]), _spec(2, 5, [_event(2, 1)])]
        groups = _groups(noisy_ghz3, specs)
        assert _members(groups) == [[0, 1], [2]]
        assert groups.total_shots.tolist() == [10, 5]

    def test_take_permutes_groups_and_table_together(self, noisy_ghz3):
        specs = [_spec(t, t + 1, [_event(t % 4, 1 + t % 3)]) for t in range(7)]
        groups = _groups(noisy_ghz3, specs)
        rank = np.array([4, 0, 6, 1, 5, 3, 2])
        taken = groups.take(rank)
        assert _members(taken) == [_members(groups)[g] for g in rank]
        assert [taken.table[g] for g in range(7)] == [groups.table[g] for g in rank]
        assert taken.total_shots.tolist() == groups.total_shots[rank].tolist()

    def test_executor_prepares_duplicates_once(self, noisy_ghz3):
        specs = [
            _spec(0, 30, [_event(0, 1, qubits=(0,))]),
            _spec(1, 20, [_event(0, 1, qubits=(0,))]),
            _spec(2, 10),
        ]
        result = VectorizedExecutor().execute(noisy_ghz3, specs, seed=3)
        assert result.unique_preparations == 2
        assert result.num_trajectories == 3
        assert [t.num_shots for t in result.trajectories] == [30, 20, 10]
        # Duplicate members keep their own provenance records and streams.
        assert [t.record.trajectory_id for t in result.trajectories] == [0, 1, 2]
        assert not np.array_equal(result.trajectories[0].bits[:20], result.trajectories[1].bits)

    def test_serial_executor_reports_no_dedup(self, noisy_ghz3):
        result = BatchedExecutor().execute(noisy_ghz3, [_spec(0, 10)], seed=0)
        assert result.unique_preparations == 1


class TestVectorizedEquivalence:
    """The acceptance contract: seed-fixed shot tables + provenance match."""

    def _assert_equivalent(self, circuit, specs, seed):
        serial = BatchedExecutor().execute(circuit, specs, seed=seed)
        vectorized = VectorizedExecutor().execute(circuit, specs, seed=seed)
        a, b = serial.shot_table(), vectorized.shot_table()
        np.testing.assert_array_equal(a.bits, b.bits)
        np.testing.assert_array_equal(a.trajectory_ids, b.trajectory_ids)
        assert serial.records == vectorized.records
        np.testing.assert_allclose(
            [t.actual_weight for t in serial.trajectories],
            [t.actual_weight for t in vectorized.trajectories],
        )

    def test_unitary_mixture_channels(self, noisy_ghz3):
        self._assert_equivalent(noisy_ghz3, _pts_specs(noisy_ghz3, 3), seed=11)

    def test_general_channels(self, noisy_ghz3_general):
        self._assert_equivalent(noisy_ghz3_general, _pts_specs(noisy_ghz3_general, 5), seed=2)

    def test_mixed_noise_workload(self, mixed_noise_circuit):
        self._assert_equivalent(mixed_noise_circuit, _pts_specs(mixed_noise_circuit, 8), seed=6)

    def test_chunking_changes_nothing(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 4)
        assert len(specs) > 3
        full = VectorizedExecutor().execute(noisy_ghz3, specs, seed=5)
        chunked = VectorizedExecutor(max_batch=2).execute(noisy_ghz3, specs, seed=5)
        np.testing.assert_array_equal(full.shot_table().bits, chunked.shot_table().bits)

    def test_annihilated_trajectory_matches_serial(self):
        circ = _amp_damp_circuit()
        specs = [
            _spec(0, 100, [_event(0, 1)]),  # K1 on |0> annihilates
            _spec(1, 100),
        ]
        serial = BatchedExecutor().execute(circ, specs, seed=4)
        vectorized = VectorizedExecutor().execute(circ, specs, seed=4)
        for s, v in zip(serial.trajectories, vectorized.trajectories):
            assert s.num_shots == v.num_shots
            assert s.actual_weight == pytest.approx(v.actual_weight)
            np.testing.assert_array_equal(s.bits, v.bits)

    def test_pooled_distribution_matches_exact(self, noisy_ghz3):
        from repro.backends.density_matrix import DensityMatrixBackend
        from repro.data.stats import total_variation_distance

        specs = _pts_specs(noisy_ghz3, 2, nsamples=400, nshots=4000)
        result = VectorizedExecutor().execute(noisy_ghz3, specs, seed=1)
        exact = DensityMatrixBackend(3).run(noisy_ghz3).probabilities()
        assert total_variation_distance(result.pooled_distribution(), exact) < 0.05

    def test_plain_statevector_spec_is_upgraded(self, noisy_ghz3):
        specs = _pts_specs(noisy_ghz3, 3)
        a = VectorizedExecutor(BackendSpec.statevector()).execute(noisy_ghz3, specs, seed=7)
        b = VectorizedExecutor(BackendSpec.batched_statevector()).execute(noisy_ghz3, specs, seed=7)
        np.testing.assert_array_equal(a.shot_table().bits, b.shot_table().bits)


class TestStrategyKnob:
    def test_auto_picks_vectorized_for_batched_kind(self, mixed_noise_circuit):
        # A non-Clifford circuit (t gate): the engine router declines
        # frames, so auto must resolve to the pre-router dense dispatch.
        sampler = ProbabilisticPTS(nsamples=100, nshots=200)
        serial = run_ptsbe(mixed_noise_circuit, sampler, seed=9, strategy="serial")
        auto = run_ptsbe(
            mixed_noise_circuit, sampler, BackendSpec.batched_statevector(), seed=9
        )
        explicit = run_ptsbe(mixed_noise_circuit, sampler, seed=9, strategy="vectorized")
        np.testing.assert_array_equal(serial.shot_table().bits, auto.shot_table().bits)
        np.testing.assert_array_equal(serial.shot_table().bits, explicit.shot_table().bits)
        assert auto.engine == "vectorized"
        assert auto.unique_preparations is not None
        assert serial.unique_preparations == auto.unique_preparations

    def test_parallel_strategy(self, noisy_ghz3):
        sampler = ProbabilisticPTS(nsamples=100, nshots=100)
        serial = run_ptsbe(noisy_ghz3, sampler, seed=9, strategy="serial")
        parallel = run_ptsbe(noisy_ghz3, sampler, seed=9, strategy="parallel")
        np.testing.assert_array_equal(serial.shot_table().bits, parallel.shot_table().bits)

    def test_unknown_strategy_rejected(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            run_ptsbe(noisy_ghz3, ProbabilisticPTS(nsamples=10, nshots=10), strategy="gpu")

    def test_executor_kwargs_forwarded(self, noisy_ghz3):
        result = run_ptsbe(
            noisy_ghz3, ProbabilisticPTS(nsamples=100, nshots=100), seed=3,
            strategy="vectorized", executor_kwargs={"max_batch": 1},
        )
        assert result.unique_preparations == result.num_trajectories


class TestGuards:
    def test_batched_executor_rejects_stacked_backend(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            BatchedExecutor(BackendSpec.batched_statevector()).execute(
                noisy_ghz3, [_spec(0, 10)], seed=0
            )

    def test_parallel_executor_rejects_stacked_backend(self):
        with pytest.raises(ExecutionError):
            build_executor("parallel", BackendSpec.batched_statevector())

    def test_vectorized_rejects_mps(self):
        with pytest.raises(ExecutionError):
            VectorizedExecutor(BackendSpec.mps(max_bond=8))

    def test_vectorized_requires_specs_and_measurements(self, noisy_ghz3):
        with pytest.raises(ExecutionError):
            VectorizedExecutor().execute(noisy_ghz3, [], seed=0)
        with pytest.raises(ExecutionError):
            VectorizedExecutor().execute(Circuit(1).h(0).freeze(), [_spec(0, 1)], seed=0)
        with pytest.raises(ExecutionError):
            VectorizedExecutor(max_batch=0)

    def test_rngs_for_matches_rng_for(self):
        factory = StreamFactory(42)
        batch = factory.rngs_for([0, 3])
        assert batch[0].random(4).tolist() == factory.rng_for(0).random(4).tolist()
        assert batch[1].random(4).tolist() == factory.rng_for(3).random(4).tolist()


def _tail_engaging(kind):
    """Circuits whose plans end in a measurement tail: brickwork (T + CX +
    depolarizing windows, two singleton T steps), noisy GHZ (a CX ladder),
    and CX fans onto gapped qubits (gapped tail windows)."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", depolarizing(0.05))
    if kind == "ghz":
        return model.apply(ghz(6, measure=True)).freeze()
    circ = Circuit(6)
    if kind == "brickwork":
        for layer in range(4):
            for q in range(6):
                circ.h(q) if layer % 2 == 0 else circ.t(q)
            for q in range(layer % 2, 5, 2):
                circ.cx(q, q + 1)
    else:
        for q in range(3):
            circ.h(q)
        circ.cx(0, 1).cx(1, 2)
        circ.cx(0, 3).cx(2, 5).s(5).cx(1, 4).swap(0, 5).cx(3, 5)
    return model.apply(circ.measure_all()).freeze()


class TestMeasurementTailStrategies:
    """Every strategy samples through the one tail path: serial, vectorized
    and sharded shot tables are bitwise equal on tail-engaging circuits,
    and a pure-permutation tail draws what the full walk draws."""

    @pytest.mark.parametrize("kind", ["brickwork", "ghz", "gapped"])
    def test_serial_vectorized_sharded_bitwise(self, kind):
        circuit = _tail_engaging(kind)
        plan = get_fused_plan(circuit)
        assert plan.tail < plan.num_steps
        tail = [
            site for step in plan.steps[plan.tail :] for site in getattr(step, "site_ids", ())
        ]
        specs = list(_pts_specs(circuit, 9, nsamples=200, nshots=300))
        # A trajectory whose only error is an X inside the tail.
        specs.append(_spec(len(specs), 500, [_event(tail[0], 1)]))
        runs = [
            BatchedExecutor().execute(circuit, specs, seed=3),
            VectorizedExecutor(max_batch=7).execute(circuit, specs, seed=3),
            build_executor("sharded").execute(circuit, specs, seed=3),
        ]
        first = runs[0].shot_table()
        for run in runs[1:]:
            table = run.shot_table()
            np.testing.assert_array_equal(table.bits, first.bits)
            np.testing.assert_array_equal(table.trajectory_ids, first.trajectory_ids)
            assert [t.actual_weight for t in run.trajectories] == [
                t.actual_weight for t in runs[0].trajectories
            ]

    def test_a_permutation_tail_draws_what_the_full_walk_draws(self, monkeypatch):
        model = NoiseModel().add_all_qubit_gate_noise("cx", bit_flip(0.1))
        circuit = model.apply(ghz(6, measure=True)).freeze()
        specs = _pts_specs(circuit, 4, nsamples=300, nshots=200)
        lazy = VectorizedExecutor().execute(circuit, specs, seed=8).shot_table().bits
        plan = get_fused_plan(circuit)
        assert plan.tail < plan.num_steps
        monkeypatch.setattr(plan, "tail", plan.num_steps)
        walked = VectorizedExecutor().execute(circuit, specs, seed=8).shot_table().bits
        np.testing.assert_array_equal(lazy, walked)


def _tail_sites(circuit):
    plan = get_fused_plan(circuit)
    return [site for step in plan.steps[plan.tail :] for site in getattr(step, "site_ids", ())]


def _tail_prescriptions(circuit):
    """The ideal row, one row per tail site taking its first non-identity
    branch (a bit flip: X, or IX on a pair), a row deviating at the first
    and last tail sites, and one row deviating before the tail."""
    plan = get_fused_plan(circuit)
    tail = _tail_sites(circuit)
    before = next(
        site
        for step in plan.steps[: plan.tail]
        for site in getattr(step, "site_ids", ())
    )
    return [{}] + [{site: 1} for site in tail] + [{tail[0]: 2, tail[-1]: 1}, {before: 1}]


class TestRelabelledDraws:
    """A request under ``2**n`` shots draws from its row's walked-order table
    and is relabelled through the measurement tail with the unit's other
    such requests; one of ``2**n`` or more reads the final-order table."""

    #: Total-variation bound on 64k pooled shots of a 6- or 7-qubit row.
    #: Correct draws read at most 0.013 here; skipping the relabel reads
    #: 0.28-1.0 on every row, and relabelling the tail-deviating rows by the
    #: ideal row's key reads 0.70-1.0 on those rows.
    TVD = 0.04

    @pytest.mark.parametrize("kind", ["brickwork6", "brickwork7", "gapped"])
    def test_relabelled_draws_follow_each_rows_distribution(self, kind, layered_brickwork):
        circuit = {
            "brickwork6": lambda: layered_brickwork(6),
            "brickwork7": lambda: layered_brickwork(7),
            "gapped": lambda: _tail_engaging("gapped"),
        }[kind]()
        n = circuit.num_qubits
        dim = 2**n
        plan = get_fused_plan(circuit)
        assert plan.num_steps - plan.tail >= 4
        choices_list = _tail_prescriptions(circuit)
        rows = len(choices_list)
        per_row = 64_000 // (dim - 1) + 1
        owners = np.tile(np.arange(rows), per_row)  # requests interleave the rows
        requests = [
            (int(row), dim - 1, rng)
            for row, rng in zip(owners, StreamFactory(17).rngs_for(range(owners.size)))
        ]
        stack = BatchedStatevectorBackend(n)
        stack.run_fixed_stack(circuit, choices_list)
        stack.cumulative_stack([[dim - 1]] * rows)
        assert set(stack._tables) == {True}  # no final-order table: no tail gather
        block = stack.sample(requests, range(n))
        keys = block.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
        counts = np.zeros((rows, dim))
        np.add.at(counts, (np.repeat(owners, dim - 1), keys), 1)
        for row in range(rows):
            tvd = 0.5 * np.abs(counts[row] / counts[row].sum() - stack.probabilities(row)).sum()
            assert tvd < self.TVD, (kind, row, choices_list[row], tvd)

    def test_one_view_draw_is_the_stacked_draw(self, layered_brickwork):
        circuit = layered_brickwork(6)
        choices = _tail_prescriptions(circuit)[3]
        view = StatevectorBackend(6)
        view.run_fixed(circuit, choices)
        stack = BatchedStatevectorBackend(6)
        stack.run_fixed_stack(circuit, [{}, choices])
        for shots in (1, 63, 64, 65):
            bits = view.sample(shots, range(6), make_rng(shots))
            stacked = stack.sample([(1, shots, make_rng(shots))], range(6))
            np.testing.assert_array_equal(bits, stacked)
            indices = view.sample_indices(shots, make_rng(shots))
            np.testing.assert_array_equal(bits, bits_from_indices(indices, range(6), 6))

    @pytest.mark.parametrize("on", [False, True], ids=["inline", "look-ahead"])
    def test_serial_equals_vectorized_around_2_to_the_n(self, on, layered_brickwork, lookahead):
        circuit = layered_brickwork(6)
        dim = 2**6
        specs = [
            TrajectorySpec(record=spec.record, num_shots=dim - 1 + i % 3)
            for i, spec in enumerate(_pts_specs(circuit, 11, nsamples=150, nshots=1))
        ]
        # One dedup group whose two specs sit on opposite sides of 2**n.
        events = [_event(_tail_sites(circuit)[1], 1)]
        specs += [_spec(len(specs), dim - 1, events), _spec(len(specs) + 1, dim + 1, events)]
        groups = _groups(circuit, specs)
        assert any(
            {specs[i].num_shots for i in group} == {dim - 1, dim + 1} for group in _members(groups)
        )
        lookahead(on)
        serial = BatchedExecutor().execute(circuit, specs, seed=5)
        first = serial.shot_table()
        assert {len(t.bits) for t in serial.trajectories} == {dim - 1, dim, dim + 1}
        for run in (
            VectorizedExecutor(max_batch=7).execute(circuit, specs, seed=5),
            build_executor("sharded").execute(circuit, specs, seed=5),
        ):
            table = run.shot_table()
            np.testing.assert_array_equal(table.bits, first.bits)
            np.testing.assert_array_equal(table.trajectory_ids, first.trajectory_ids)
