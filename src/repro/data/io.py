"""Dataset persistence: one .npz of columns plus a small metadata JSON.

The paper's datasets are massive (10**12 shots); ours are laptop-scale
but keep the same separation: the shots' bit arrays and the run's
trajectory table (its CSR arrays, trajectory ids, shot counts and nominal
probabilities) are stored as binary columns, and the JSON holds only the
experiment metadata and, per noise site, what a provenance record reads
of the circuit — qubits, channel name, nominal branch probabilities
(:class:`~repro.trajectory.events.NoiseSites`).  Nothing is written or
read per record: records are built from the table when read.  The shots
of an unsplit dataset are its trajectories' rows repeated over their shot
counts, so its labels are stored once per row (``row_labels``) and its
labels and trajectory ids are repeated again on load; any other dataset
(a split, or shot counts that differ from the table's) stores them per
shot.  Features that are all 0/1 bytes (measured bits) are stored packed
eight to a byte along each shot (``packed_features``); any other features
are stored as they are.

Files written before datasets kept the table (one JSON record per
trajectory, under ``provenance``) still load, converted once into the
same columns.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.data.dataset import LabeledShotDataset
from repro.errors import DataError
from repro.prescriptions import Prescriptions
from repro.pts.base import PTSResult
from repro.trajectory.events import NoiseSites

__all__ = ["save_dataset", "load_dataset"]

#: The trajectory table's columns in a file, beside the shots' three.
_RUN = ("sites", "offsets", "site_ids", "branches", "run_ids", "shots", "probabilities")


def save_dataset(dataset: LabeledShotDataset, path: Union[str, Path]) -> Path:
    """Write a labeled dataset to ``path`` (.npz)."""
    path = Path(path)
    meta: Dict = {"metadata": dataset.metadata}
    columns = {"labels": dataset.labels, "trajectory_ids": dataset.trajectory_ids}
    run = dataset.run
    if run is not None:
        meta.update(algorithm=run.algorithm, sites=run.noise_sites().facts)
        table = run.table
        row_labels = _row_labels(dataset, run)
        if row_labels is not None:
            columns = {"row_labels": row_labels}
        columns.update(zip(_RUN, (table.sites, table.offsets, table.site_ids, table.branches,
                                  run.trajectory_ids, run.shots, run.probabilities)))
    features = dataset.features
    if features.dtype == np.uint8 and features.ndim == 2 and not (features > 1).any():
        # Bits: eight to a byte before zlib sees them (~6x faster a save).
        meta["packed_features"] = features.shape[1]
        columns["packed_features"] = np.packbits(features, axis=1)
    else:
        columns["features"] = features
    np.savez_compressed(
        path, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **columns
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_dataset(path: Union[str, Path]) -> LabeledShotDataset:
    """Read a dataset written by :func:`save_dataset`."""
    path = Path(path)
    if not path.exists():
        npz = path.with_suffix(path.suffix + ".npz")
        if npz.exists():
            path = npz
        else:
            raise DataError(f"no dataset at {path}")
    with np.load(path) as data:
        if "provenance" in data:
            shots = [data[name] for name in ("features", "labels", "trajectory_ids")]
            prov = json.loads(bytes(data["provenance"]).decode("utf-8"))
            run = _legacy_run(prov["records"], shots[2])
            return LabeledShotDataset(*shots, run, dict(prov["metadata"]))
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        run = None
        if "sites" in meta:
            columns, sites = [data[name] for name in _RUN], NoiseSites(meta["sites"])
            table = Prescriptions(*columns[:4])
            run = PTSResult(table, *columns[4:], None, meta["algorithm"], sites=sites)
        if "row_labels" in data:
            labels = np.repeat(data["row_labels"], run.shots)
            ids = np.repeat(run.trajectory_ids, run.shots)
        else:
            labels, ids = data["labels"], data["trajectory_ids"]
        if "packed_features" in data:
            features = np.unpackbits(data["packed_features"], axis=1, count=meta["packed_features"])
        else:
            features = data["features"]
        return LabeledShotDataset(features, labels, ids, run, dict(meta["metadata"]))


def _row_labels(dataset: LabeledShotDataset, run: PTSResult) -> Optional[np.ndarray]:
    """The dataset's labels per row of ``run``, when its labels and
    trajectory ids are the rows' repeated over ``run.shots`` (``None``
    otherwise)."""
    if not np.array_equal(dataset.trajectory_ids, np.repeat(run.trajectory_ids, run.shots)):
        return None
    labels = np.zeros_like(dataset.labels, shape=len(run.shots))
    drawn = run.shots > 0
    labels[drawn] = dataset.labels[(np.cumsum(run.shots) - run.shots)[drawn]]
    return labels if np.array_equal(np.repeat(labels, run.shots), dataset.labels) else None


def _legacy_run(records: Dict[str, Dict], trajectory_ids: np.ndarray) -> PTSResult:
    """The table of a file's per-record JSON: one row per record, its
    events in the file's order and its shot count that of its id among
    ``trajectory_ids``.  Its sites are what the events name; a branch no
    event names has probability NaN, and no site a dominant branch
    (``-1``)."""
    rows = list(records.values())
    events = [event for row in rows for event in row["events"]]
    facts = [[(), "", []] for _ in range(1 + max((e["site_id"] for e in events), default=-1))]
    for e in events:
        fact, index = facts[e["site_id"]], e["kraus_index"]
        fact[:2] = e["qubits"], e["channel_name"]
        fact[2] += [math.nan] * (index + 1 - len(fact[2]))
        fact[2][index] = e["probability"]
    sites = np.array([[len(fact[2]), -1] for fact in facts], dtype=np.intp).reshape(-1, 2)
    offsets = np.cumsum([0] + [len(row["events"]) for row in rows])
    entries = np.array([(e["site_id"], e["kraus_index"]) for e in events], dtype=np.intp)
    ids = np.array([row["trajectory_id"] for row in rows], dtype=np.int64)
    present, counts = np.unique(trajectory_ids, return_counts=True)
    counted = dict(zip(present.tolist(), counts.tolist()))
    shots = np.array([counted.get(tid, 0) for tid in ids.tolist()], dtype=np.int64)
    probabilities = np.array([row["nominal_probability"] for row in rows], dtype=np.float64)
    table = Prescriptions(sites, offsets, *entries.reshape(-1, 2).T)
    return PTSResult(table, ids, shots, probabilities, None, "legacy", sites=NoiseSites(facts))
