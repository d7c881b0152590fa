"""Data layer: stats, labeled datasets, serialization round-trips."""

import numpy as np
import pytest

from repro.data.stats import (
    chi_square_statistic,
    empirical_distribution,
    total_variation_distance,
    unique_fraction,
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

    def test_unique_fraction(self):
        bits = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
        assert unique_fraction(bits) == pytest.approx(2 / 3)

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


class TestSerialization:
    def test_round_trip(self, tmp_path):
        from repro.data.dataset import LabeledShotDataset
        from repro.data.io import load_dataset, save_dataset
        from repro.trajectory.events import KrausEvent, TrajectoryRecord

        record = TrajectoryRecord(
            trajectory_id=3,
            events=(
                KrausEvent(site_id=1, kraus_index=2, qubits=(0, 1),
                           channel_name="depolarizing2(0.03)", probability=0.002),
            ),
            nominal_probability=0.002,
        )
        ds = LabeledShotDataset(
            features=np.array([[1, 0], [0, 1]], dtype=np.uint8),
            labels=np.array([1, 0]),
            trajectory_ids=np.array([3, 3]),
            records={3: record},
            metadata={"code": "steane"},
        )
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.metadata == {"code": "steane"}
        rec = loaded.records[3]
        assert rec.events[0].channel_name == "depolarizing2(0.03)"
        assert rec.events[0].qubits == (0, 1)
        assert rec.nominal_probability == pytest.approx(0.002)
        assert rec == record

    def test_provenance_claims_no_weight(self, tmp_path):
        """A record holds no realized weight (that is
        ``TrajectoryResult.actual_weight``), so none is written; a file
        written with the old ``"weight"`` key still loads."""
        import json

        from repro.data.dataset import LabeledShotDataset
        from repro.data.io import load_dataset, save_dataset
        from repro.trajectory.events import TrajectoryRecord

        record = TrajectoryRecord(trajectory_id=0, events=(), nominal_probability=0.9)
        ds = LabeledShotDataset(
            features=np.zeros((1, 2), dtype=np.uint8),
            labels=np.array([0]),
            trajectory_ids=np.array([0]),
            records={0: record},
        )
        path = save_dataset(ds, tmp_path / "ds.npz")
        with np.load(path) as data:
            provenance = json.loads(bytes(data["provenance"].tobytes()).decode("utf-8"))
            arrays = {name: data[name] for name in ("features", "labels", "trajectory_ids")}
        assert "weight" not in provenance["records"]["0"]
        assert not hasattr(record, "weight")
        provenance["records"]["0"]["weight"] = 1.0
        blob = np.frombuffer(json.dumps(provenance).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(tmp_path / "old.npz", provenance=blob, **arrays)
        assert load_dataset(tmp_path / "old.npz").records == {0: record}

    def test_missing_file(self, tmp_path):
        from repro.data.io import load_dataset

        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope.npz")


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
