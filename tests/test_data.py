"""Data layer: stats, labeled datasets, serialization round-trips."""

import numpy as np
import pytest

from repro.data.stats import (
    chi_square_statistic,
    empirical_distribution,
    total_variation_distance,
)
from repro.errors import DataError
from repro.rng import make_rng


class TestStats:
    def test_empirical_distribution(self):
        bits = np.array([[0, 0], [1, 1], [1, 1], [0, 1]], dtype=np.uint8)
        dist = empirical_distribution(bits)
        assert np.allclose(dist, [0.25, 0.25, 0, 0.5])

    def test_tvd_bounds(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert total_variation_distance(p, p) == 0.0
        assert total_variation_distance(p, q) == 1.0

    def test_tvd_symmetry(self, rng):
        p = rng.random(8)
        p /= p.sum()
        q = rng.random(8)
        q /= q.sum()
        assert total_variation_distance(p, q) == pytest.approx(
            total_variation_distance(q, p)
        )

    def test_chi_square_small_for_matching(self, rng):
        expected = np.array([0.4, 0.35, 0.25])
        counts = rng.multinomial(10_000, expected)
        stat, dof = chi_square_statistic(counts, expected)
        assert stat < 15  # chi2(dof=2) 99.9th percentile ~ 13.8

    def test_chi_square_large_for_mismatched(self):
        stat, _ = chi_square_statistic(
            np.array([9000, 500, 500]), np.array([1 / 3, 1 / 3, 1 / 3])
        )
        assert stat > 100

    def test_chi_square_pools_sparse_cells(self):
        expected = np.array([0.999, 0.0005, 0.0005])
        stat, dof = chi_square_statistic(np.array([999, 1, 0]), expected)
        assert dof == 1  # 1 big cell + 1 pooled tail - 1

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            empirical_distribution(np.empty((0, 2), dtype=np.uint8))


class TestLabeledDataset:
    def _dataset(self):
        from repro.data.dataset import LabeledShotDataset

        rng = make_rng(0)
        return LabeledShotDataset(
            features=rng.integers(0, 2, size=(100, 6)),
            labels=rng.integers(0, 2, size=100),
            trajectory_ids=np.arange(100) % 10,
        )

    def test_alignment_enforced(self):
        from repro.data.dataset import LabeledShotDataset

        with pytest.raises(DataError):
            LabeledShotDataset(
                features=np.zeros((5, 2), dtype=np.uint8),
                labels=np.zeros(4),
                trajectory_ids=np.zeros(5),
            )

    def test_class_balance(self):
        ds = self._dataset()
        balance = ds.class_balance()
        assert abs(sum(balance.values()) - 1.0) < 1e-12

    def test_split_preserves_total(self):
        ds = self._dataset()
        train, test = ds.split(0.8, make_rng(1))
        assert train.num_samples + test.num_samples == ds.num_samples
        assert train.num_samples == 80

    def test_split_bad_fraction(self):
        with pytest.raises(DataError):
            self._dataset().split(1.5, make_rng(0))


def small_run():
    """A sampled table with a two-qubit channel, and a dataset of it."""
    from repro.channels.standard import two_qubit_depolarizing
    from repro.circuits import Circuit
    from repro.data.dataset import LabeledShotDataset
    from repro.pts import ExhaustivePTS

    circuit = Circuit(2).h(0).cx(0, 1)
    circuit.attach(two_qubit_depolarizing(0.03), 0, 1).measure_all().freeze()
    run = ExhaustivePTS(cutoff=1e-4, nshots=2).sample(circuit, make_rng(0))
    ids = np.repeat(run.trajectory_ids, run.shots)
    features = make_rng(1).integers(0, 2, size=(len(ids), 2))
    labels = np.arange(len(ids)) % 2
    return run, LabeledShotDataset(features, labels, ids, run, {"code": "steane"})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        from repro.data.io import load_dataset, save_dataset

        run, ds = small_run()
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.trajectory_ids, ds.trajectory_ids)
        assert loaded.metadata == {"code": "steane"}
        assert loaded.run.circuit is None and loaded.run.algorithm == run.algorithm
        for name in ("offsets", "site_ids", "branches", "sites"):
            np.testing.assert_array_equal(getattr(loaded.run.table, name), getattr(run.table, name))
        for name in ("trajectory_ids", "shots", "probabilities"):
            np.testing.assert_array_equal(getattr(loaded.run, name), getattr(run, name))
        rec = loaded.records[3]
        assert rec.events[0].channel_name == "depolarizing2(0.03)"
        assert rec.events[0].qubits == (0, 1)
        assert rec.nominal_probability == run.probabilities[3]
        assert rec == run.record(3)
        assert loaded.records == ds.records and len(loaded.records) == run.num_trajectories

    def test_an_unsplit_dataset_stores_its_labels_per_row(self, tmp_path):
        """An unsplit dataset's labels and trajectory ids are its rows'
        repeated over their shots: the file holds one label per row and no
        other per-shot column than the features, and loading repeats them
        back bitwise.  A split, or labels that differ within a row, keep
        the per-shot columns."""
        from repro.data.dataset import build_decoder_dataset
        from repro.data.io import load_dataset, save_dataset
        from repro.execution import run_ptsbe
        from repro.pts import ProbabilisticPTS

        code, circuit, layout = data_noise_experiment(0.1)
        result = run_ptsbe(circuit, ProbabilisticPTS(nsamples=400, nshots=3), seed=5)
        ds = build_decoder_dataset(result, circuit, code, layout)
        assert len(set(ds.labels.tolist())) == 2
        train, test = ds.split(0.5, make_rng(0))
        for dataset, per_row in ((ds, True), (train, False), (test, False), (small_run()[1], False)):
            path = save_dataset(dataset, tmp_path / "ds.npz")
            with np.load(path) as data:
                assert ("row_labels" in data.files) == per_row
                assert ("labels" in data.files) == ("trajectory_ids" in data.files) != per_row
            loaded = load_dataset(path)
            for name in ("features", "labels", "trajectory_ids"):
                got, want = getattr(loaded, name), getattr(dataset, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert loaded.records == dataset.records

    @pytest.mark.parametrize("width", [1, 7, 8, 18, 35])
    def test_bit_features_are_stored_packed_and_load_bitwise(self, tmp_path, width):
        """0/1 features (a dataset holds ``uint8``) go to the file eight to
        a byte and come back bitwise, dtype and shape included; features
        with any other value keep the plain column."""
        from repro.data.dataset import LabeledShotDataset
        from repro.data.io import load_dataset, save_dataset

        bits = make_rng(width).integers(0, 2, size=(1001, width)).astype(np.uint8)
        ids, labels = np.arange(1001) % 5, np.arange(1001) % 2
        counts = bits.copy()
        counts[3, 0] = 2
        for features, packed in ((bits, True), (counts, False)):
            path = save_dataset(LabeledShotDataset(features, labels, ids), tmp_path / "f.npz")
            with np.load(path) as data:
                assert ("packed_features" in data.files) == packed != ("features" in data.files)
                if packed:
                    assert data["packed_features"].shape == (1001, -(-width // 8))
            loaded = load_dataset(path).features
            assert loaded.dtype == features.dtype and np.array_equal(loaded, features)

    def test_a_dataset_without_a_run_round_trips(self, tmp_path):
        from repro.data.dataset import LabeledShotDataset
        from repro.data.io import load_dataset, save_dataset

        ds = LabeledShotDataset(np.ones((2, 3)), np.array([0, 1]), np.array([4, 4]))
        loaded = load_dataset(save_dataset(ds, tmp_path / "bare.npz"))
        assert loaded.run is None and loaded.records == {}
        assert np.array_equal(loaded.features, ds.features)

    def test_provenance_claims_no_weight(self, tmp_path):
        """A record holds no realized weight (that is
        ``TrajectoryResult.actual_weight``), so none is written; a file
        written with the old per-record JSON and its ``"weight"`` key
        still loads."""
        import json

        from repro.data.io import load_dataset, save_dataset
        from repro.trajectory.events import TrajectoryRecord

        _, ds = small_run()
        path = save_dataset(ds, tmp_path / "ds.npz")
        with np.load(path) as data:
            assert "weight" not in bytes(data["meta"]).decode("utf-8")
            assert not any("weight" in name for name in data.files)
            arrays = {name: data[name][:1] for name in ("labels", "trajectory_ids")}
        arrays["features"] = ds.features[:1]
        record = TrajectoryRecord(trajectory_id=0, events=(), nominal_probability=0.9)
        assert not hasattr(record, "weight")
        old = {"trajectory_id": 0, "nominal_probability": 0.9, "events": [], "weight": 1.0}
        provenance = {"records": {"0": old}, "metadata": {}}
        blob = np.frombuffer(json.dumps(provenance).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(tmp_path / "old.npz", provenance=blob, **arrays)
        assert load_dataset(tmp_path / "old.npz").records == {0: record}

    def test_a_file_with_per_record_json_loads_as_its_table(self):
        """``tests/fixtures/steane_dataset_records_json.npz`` was written by
        ``save_dataset`` when a file held one JSON record per trajectory
        (:func:`data_noise_experiment` at p = 0.1, ``ProbabilisticPTS(400,
        2)``, seed 5: 82 trajectories, 164 shots).  It loads as the same
        arrays and records the run builds today."""
        from pathlib import Path

        from repro.data.dataset import build_decoder_dataset
        from repro.data.io import load_dataset
        from repro.execution import run_ptsbe
        from repro.pts import ProbabilisticPTS

        loaded = load_dataset(Path(__file__).parent / "fixtures" / "steane_dataset_records_json.npz")
        code, circuit, layout = data_noise_experiment(0.1)
        result = run_ptsbe(circuit, ProbabilisticPTS(nsamples=400, nshots=2), seed=5)
        fresh = build_decoder_dataset(result, circuit, code, layout)
        assert loaded.num_samples == 164 and len(loaded.records) == 82
        for name in ("features", "labels", "trajectory_ids"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(fresh, name))
        assert loaded.metadata == fresh.metadata
        assert loaded.records == fresh.records
        np.testing.assert_array_equal(loaded.run.shots, fresh.run.shots)
        np.testing.assert_array_equal(loaded.run.table.offsets, fresh.run.table.offsets)

    def test_missing_file(self, tmp_path):
        from repro.data.io import load_dataset

        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope.npz")


def data_noise_experiment(p, channel=None, gate=None):
    """``examples/decoder_training.py``'s circuit: encode, depolarize each
    data qubit at ``p`` (or apply ``channel``), one round of syndrome
    extraction; ``gate`` (a name and its parameters) goes on data qubit 0
    before the noise."""
    from repro.channels import depolarizing
    from repro.circuits import Circuit
    from repro.circuits.operations import GateOp
    from repro.qec import steane_code, syndrome_extraction_circuit

    code = steane_code()
    circ, layout = syndrome_extraction_circuit(code, rounds=1)
    noisy = Circuit(circ.num_qubits)
    injected = False
    for op in circ:
        if not injected and isinstance(op, GateOp) and op.qubits[0] >= code.n:
            if gate is not None:
                getattr(noisy, gate[0])(*gate[1:], 0)
            for q in range(code.n):
                noisy.attach(channel or depolarizing(p), q)
            injected = True
        noisy.append(op)
    return code, noisy.freeze(), layout


def gate_noise_experiment(rounds=1):
    """Steane syndrome extraction with ``two_qubit_depolarizing(0.01)`` on
    every ``cx`` and ``depolarizing(0.005)`` on every ``h``: errors that
    later gates carry between qubits."""
    from repro.channels import NoiseModel, depolarizing
    from repro.channels.standard import two_qubit_depolarizing
    from repro.qec import steane_code, syndrome_extraction_circuit

    code = steane_code()
    circ, layout = syndrome_extraction_circuit(code, rounds=rounds)
    model = NoiseModel().add_all_qubit_gate_noise("cx", two_qubit_depolarizing(0.01))
    model.add_all_qubit_gate_noise("h", depolarizing(0.005))
    return code, model.apply(circ).freeze(), layout


def walked_label(record, circuit, code):
    """The reference label: one X/Z frame walked through ``circuit`` op by
    op — each event's Pauli XOR-ed in at its site, every gate conjugating
    the frame — then its X part on the data qubits against logical Z."""
    from repro.circuits.operations import GateOp, NoiseOp

    fx = np.zeros(circuit.num_qubits, dtype=np.uint8)
    fz = np.zeros(circuit.num_qubits, dtype=np.uint8)
    chosen = record.choices
    for op in circuit:
        if isinstance(op, GateOp):
            name, q = op.gate.name, op.qubits
            if name == "h":
                fx[q[0]], fz[q[0]] = fz[q[0]], fx[q[0]]
            elif name == "cx":
                fx[q[1]] ^= fx[q[0]]
                fz[q[0]] ^= fz[q[1]]
            else:
                raise AssertionError(f"no reference rule for {name!r}")
        elif isinstance(op, NoiseOp):
            pauli = op.channel.mixture.paulis[chosen.get(op.site_id, op.channel.dominant_index())]
            fx[list(op.qubits)] ^= pauli.x
            fz[list(op.qubits)] ^= pauli.z
    return int(fx[: code.n] @ code.logical_z_support(0) % 2)


def local_label(record, circuit, code):
    """The propagation-free rule: each event's own X support on the data
    qubits, with no conjugation through later gates."""
    x = np.zeros(code.n, dtype=np.uint8)
    for event in record.events:
        pauli = circuit.noise_sites[event.site_id].channel.mixture.paulis[event.kraus_index]
        for pos, q in enumerate(event.qubits):
            if q < code.n:
                x[q] ^= pauli.x[pos]
    return int(x @ code.logical_z_support(0) % 2)


def labels_by_trajectory(ds):
    """Each trajectory's one label (every shot of it carries the same)."""
    labels = {}
    for tid, label in zip(ds.trajectory_ids.tolist(), ds.labels.tolist()):
        assert labels.setdefault(tid, label) == label
    return labels


class TestExactLabels:
    def test_labels_are_the_end_propagated_frame(self):
        """On gate noise, every trajectory's label is its frame walked to
        the end of the circuit — where the propagation-free rule is wrong
        on some (24 of the 591 here)."""
        from repro.data.dataset import build_decoder_dataset
        from repro.execution import run_ptsbe
        from repro.pts import ProbabilisticPTS

        code, circuit, layout = gate_noise_experiment()
        result = run_ptsbe(circuit, ProbabilisticPTS(3000, 1), seed=3)
        ds = build_decoder_dataset(result, circuit, code, layout)
        labels = labels_by_trajectory(ds)
        records = [ds.records[tid] for tid in labels]
        assert len(records) == 591
        walked = [walked_label(r, circuit, code) for r in records]
        assert [labels[r.trajectory_id] for r in records] == walked
        assert sum(local_label(r, circuit, code) != w for r, w in zip(records, walked)) == 24

    def test_noise_after_the_encoder_keeps_the_propagation_free_labels(self):
        """Where noise sits on the data qubits after the encoder, no later
        gate moves an X error off the data, so the labels are the
        propagation-free rule's, bit for bit."""
        from repro.data.dataset import build_decoder_dataset
        from repro.execution import run_ptsbe
        from repro.pts import ProportionalPTS

        code, circuit, layout = data_noise_experiment(0.08)
        result = run_ptsbe(circuit, ProportionalPTS(total_shots=4000, nsamples=600), seed=3)
        ds = build_decoder_dataset(result, circuit, code, layout)
        labels = labels_by_trajectory(ds)
        assert 0 < sum(labels.values()) < len(labels)
        assert all(labels[tid] == local_label(ds.records[tid], circuit, code) for tid in labels)


class TestRefusals:
    """A circuit the frame cannot propagate through has no exact label:
    both dataset builders refuse it, naming the channel or the gate."""

    @pytest.fixture(params=["channel", "gate"])
    def unlabellable(self, request):
        from repro.channels.standard import amplitude_damping

        if request.param == "channel":
            return data_noise_experiment(0, channel=amplitude_damping(0.1)), "'amp_damp\\(0.1\\)'"
        return data_noise_experiment(0.01, gate=("ry", 0.3)), "'ry'"

    def test_build_decoder_dataset_refuses(self, unlabellable):
        from repro.data.dataset import build_decoder_dataset
        from repro.execution import run_ptsbe
        from repro.pts import ProbabilisticPTS

        (code, circuit, layout), name = unlabellable
        result = run_ptsbe(circuit, ProbabilisticPTS(nsamples=20, nshots=5), seed=1)
        with pytest.raises(DataError, match=name):
            build_decoder_dataset(result, circuit, code, layout)

    def test_iter_decoder_batches_refuses_before_the_first_chunk(self, unlabellable):
        from repro.data.dataset import iter_decoder_batches
        from repro.execution import run_ptsbe_stream
        from repro.pts import ProbabilisticPTS

        (code, circuit, layout), name = unlabellable
        stream = run_ptsbe_stream(circuit, ProbabilisticPTS(nsamples=20, nshots=5), seed=1)
        with pytest.raises(DataError, match=name):
            next(iter_decoder_batches(stream, circuit, code, layout))
        assert stream.delivered_trajectories == 0
        stream.close()


def test_dataset_stages_build_no_record(monkeypatch, tmp_path):
    """Building, saving and loading a dataset are array passes: no
    ``TrajectoryRecord`` is constructed; reading ``records[tid]`` builds one."""
    from repro.data.dataset import build_decoder_dataset, iter_decoder_batches
    from repro.data.io import load_dataset, save_dataset
    from repro.execution import run_ptsbe, run_ptsbe_stream
    from repro.pts import ProbabilisticPTS
    from repro.trajectory.events import TrajectoryRecord

    built = []
    original = TrajectoryRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryRecord, "__init__", counting)
    code, circuit, layout = gate_noise_experiment()
    sampler = ProbabilisticPTS(400, 3)
    ds = build_decoder_dataset(run_ptsbe(circuit, sampler, seed=2), circuit, code, layout)
    batches = list(iter_decoder_batches(run_ptsbe_stream(circuit, sampler, seed=2), circuit, code, layout))
    loaded = load_dataset(save_dataset(ds, tmp_path / "ds.npz"))
    assert len(batches) > 1 and loaded.num_samples == ds.num_samples > 0 and built == []
    tid = int(ds.trajectory_ids[-1])
    assert loaded.records[tid] == ds.records[tid] and len(built) == 2


class TestEvents:
    def test_signature_sorted(self):
        from repro.trajectory.events import KrausEvent, TrajectoryRecord

        rec = TrajectoryRecord(
            trajectory_id=0,
            events=(
                KrausEvent(site_id=5, kraus_index=1),
                KrausEvent(site_id=2, kraus_index=3),
            ),
        )
        assert rec.signature() == ((2, 3), (5, 1))

    def test_choices_map(self):
        from repro.trajectory.events import KrausEvent, TrajectoryRecord

        rec = TrajectoryRecord(
            trajectory_id=0, events=(KrausEvent(site_id=4, kraus_index=2),)
        )
        assert rec.choices == {4: 2}

    def test_labels(self):
        from repro.trajectory.events import KrausEvent, TrajectoryRecord

        rec = TrajectoryRecord(trajectory_id=0, events=())
        assert rec.label() == "ideal"
        rec2 = TrajectoryRecord(
            trajectory_id=0,
            events=(KrausEvent(site_id=1, kraus_index=2, qubits=(0,)),),
        )
        assert "site1:k2" in rec2.label()

    def test_is_error(self):
        from repro.trajectory.events import KrausEvent

        assert KrausEvent(site_id=0, kraus_index=1).is_error()
        assert not KrausEvent(site_id=0, kraus_index=0).is_error()
