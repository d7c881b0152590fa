"""Shared benchmark harness: machine-readable result emission.

Every standalone benchmark script accepts ``--json PATH`` and, when it is
given, writes its report rows as a ``BENCH_*.json`` document so the
project's performance trajectory can be tracked across commits instead of
scrolling by as stdout.  One schema for every benchmark:

.. code-block:: json

    {
      "schema_version": 1,
      "benchmark": "vectorized_executor",
      "created_unix": 1753500000.0,
      "python": "3.12.3",
      "numpy": "1.26.4",
      "array_module": "numpy",
      "workload": {"num_qubits": 12, "shots_per_trajectory": 256},
      "rows": [{"trajectories": 8, "strategy": "vectorized",
                "shots_per_second": 1.1e6, "seconds": 0.0019}]
    }

``rows`` is a non-empty list of flat dicts with scalar values; everything
else is provenance.  :func:`validate_payload` is the schema contract —
CI writes one benchmark JSON and validates it through this module's CLI:

.. code-block:: bash

    PYTHONPATH=src python benchmarks/bench_vectorized_executor.py \
        --json BENCH_vectorized_executor.json
    PYTHONPATH=src python benchmarks/_harness.py BENCH_vectorized_executor.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

SCHEMA_VERSION = 1

#: Keys every payload must carry (see module docstring for semantics).
REQUIRED_KEYS = (
    "schema_version",
    "benchmark",
    "created_unix",
    "python",
    "numpy",
    "array_module",
    "workload",
    "rows",
)

_SCALAR_TYPES = (str, int, float, bool, type(None))


def make_parser(description: str) -> argparse.ArgumentParser:
    """Argument parser shared by the standalone benchmark mains."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report rows as a machine-readable BENCH_*.json",
    )
    return parser


def result_payload(
    benchmark: str,
    rows: Sequence[Dict[str, Any]],
    workload: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble (and validate) one benchmark result document."""
    import numpy as np

    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Host NumPy is the library's one array module; the key stays so
        # committed baselines and bench_compare.py keep reading it.
        "array_module": "numpy",
        "workload": dict(workload or {}),
        "rows": [dict(row) for row in rows],
    }
    validate_payload(payload)
    return payload


def write_json(
    path: str,
    benchmark: str,
    rows: Sequence[Dict[str, Any]],
    workload: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write one validated benchmark document to ``path``."""
    payload = result_payload(benchmark, rows, workload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(payload['rows'])} rows to {path}")
    return payload


def validate_payload(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the schema."""
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be a dict, got {type(payload).__name__}")
    missing = [key for key in REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"payload missing required keys: {missing}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {payload['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(payload["benchmark"], str) or not payload["benchmark"]:
        raise ValueError("benchmark must be a non-empty string")
    if not isinstance(payload["created_unix"], (int, float)):
        raise ValueError("created_unix must be a number")
    if not isinstance(payload["workload"], dict):
        raise ValueError("workload must be a dict")
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("rows must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            raise ValueError(f"rows[{i}] must be a non-empty dict")
        for key, value in row.items():
            if not isinstance(key, str):
                raise ValueError(f"rows[{i}] has a non-string key {key!r}")
            if not isinstance(value, _SCALAR_TYPES):
                raise ValueError(
                    f"rows[{i}][{key!r}] must be a scalar, got {type(value).__name__}"
                )


def validate_file(path: str) -> Dict[str, Any]:
    """Load ``path`` and validate it; returns the payload."""
    with open(path) as fh:
        payload = json.load(fh)
    validate_payload(payload)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate BENCH_*.json files against the benchmark schema."
    )
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args(argv)
    for path in args.paths:
        payload = validate_file(path)
        print(
            f"{path}: ok — benchmark {payload['benchmark']!r}, "
            f"{len(payload['rows'])} rows"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
