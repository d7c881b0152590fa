"""Dataset persistence: one .npz for arrays + embedded JSON for provenance.

The paper's datasets are massive (10**12 shots); ours are laptop-scale
but keep the same separation: dense bit arrays stored in binary, and the
lightweight provenance metadata — the whole point of PTS — serialized
losslessly alongside.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.data.dataset import LabeledShotDataset
from repro.errors import DataError
from repro.trajectory.events import KrausEvent, TrajectoryRecord

__all__ = ["save_dataset", "load_dataset"]


def _record_to_dict(record: TrajectoryRecord) -> Dict:
    return {
        "trajectory_id": record.trajectory_id,
        "nominal_probability": record.nominal_probability,
        "events": [
            {
                "site_id": e.site_id,
                "kraus_index": e.kraus_index,
                "qubits": list(e.qubits),
                "channel_name": e.channel_name,
                "probability": e.probability,
            }
            for e in record.events
        ],
    }


def _record_from_dict(data: Dict) -> TrajectoryRecord:
    return TrajectoryRecord(
        trajectory_id=int(data["trajectory_id"]),
        events=tuple(
            KrausEvent(
                site_id=int(e["site_id"]),
                kraus_index=int(e["kraus_index"]),
                qubits=tuple(e["qubits"]),
                channel_name=e["channel_name"],
                probability=float(e["probability"]),
            )
            for e in data["events"]
        ),
        nominal_probability=float(data["nominal_probability"]),
    )


def save_dataset(dataset: LabeledShotDataset, path: Union[str, Path]) -> Path:
    """Write a labeled dataset to ``path`` (.npz)."""
    path = Path(path)
    provenance = json.dumps(
        {
            "records": {str(k): _record_to_dict(v) for k, v in dataset.records.items()},
            "metadata": dataset.metadata,
        }
    )
    np.savez_compressed(
        path,
        features=dataset.features,
        labels=dataset.labels,
        trajectory_ids=dataset.trajectory_ids,
        provenance=np.frombuffer(provenance.encode("utf-8"), dtype=np.uint8),
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
        blob = bytes(data["provenance"].tobytes()).decode("utf-8")
        prov = json.loads(blob)
        return LabeledShotDataset(
            features=data["features"],
            labels=data["labels"],
            trajectory_ids=data["trajectory_ids"],
            records={int(k): _record_from_dict(v) for k, v in prov["records"].items()},
            metadata=dict(prov["metadata"]),
        )
