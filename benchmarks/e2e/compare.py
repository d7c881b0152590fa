"""Compare two benchmark result files, one row per workload x metric.

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py --aa [--seed 7]

A is the base (the parent commit), B the change.  Each row gives both
medians with their quartiles, the ratio B/A with its base, the bound, and
a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``REGRESSION`` — it is worse by more than the bound, or
  ``failed_share`` rose;
* ``unresolved`` — the spread between a side's own samples (quartile
  distance over median) exceeds the bound, so the medians cannot settle
  it.  A difference still counts when the sides do not overlap at all:
  every B sample better than every A sample is ``ok``, the reverse is a
  ``REGRESSION``.

A workload the result file marks ``"gated": false`` (one this sandbox
cannot time steadily, see README.md) gets the same row with ``ungated:``
before the verdict on its timing metrics, which then does not count.

Exit status is 1 on any ``REGRESSION``.  ``--aa`` runs the end-to-end
benchmark twice on the current tree and applies the same rule: it is the
benchmark's own steadiness check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

# Runnable as a plain script: make the `benchmarks` package importable.
_ROOT = str(Path(__file__).resolve().parents[2])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"])
    if bound == 0.0:  # failed_share: any rise is a regression
        return "REGRESSION" if worse > 0 else "ok"
    worse /= abs(a["median"])
    if all(sign * (y - x) < 0 for x in a["values"] for y in b["values"]):
        return "ok"
    if all(sign * (y - x) > 0 for x in a["values"] for y in b["values"]) and worse > bound:
        return "REGRESSION"
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[List[str]]:
    """Rows of the comparison table; the last cell of each is the verdict."""
    rows = []
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            rows.append([name, "-", "-", "-", "-", "-", "REGRESSION (workload missing in B)"])
            continue
        for metric, a in entry_a["end_to_end"].items():
            b = entry_b["end_to_end"][metric]
            spec = doc_a["metrics"][metric]
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            counts = entry_a.get("gated", True) or metric == "failed_share"
            rows.append([
                name, metric,
                f"{a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] n={a['n']}",
                f"{b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] n={b['n']}",
                f"{ratio:.3f}x of {a['median']:.5g} {a['unit']}",
                f"{spec['bound']:g}",
                ("" if counts else "ungated: ") + verdict(a, b, spec["better"], spec["bound"]),
            ])
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    from benchmarks.e2e import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, metavar="A.json B.json")
    parser.add_argument("--aa", action="store_true",
                        help="run the benchmark twice on this tree and compare the two")
    parser.add_argument("--seed", type=int, default=7, help="seed of both --aa runs")
    parser.add_argument("--out", type=Path, default=run.HERE / "results",
                        help="--aa writes aa-a/ and aa-b/ under this directory")
    args = parser.parse_args(argv)

    if args.aa:
        docs = []
        for side in ("aa-a", "aa-b"):
            doc = run.run_benchmark(list(run.WORKLOADS), args.seed, run.DEFAULT_SECONDS,
                                    False, [0], args.out / side)
            run.write_document(doc, args.out / side)
            docs.append(doc)
    elif len(args.files) == 2:
        docs = [json.loads(path.read_text()) for path in args.files]
    else:
        parser.error("give A.json and B.json, or --aa")

    rows = compare(docs[0], docs[1])
    run.print_rows(
        "A vs B (median [q1, q3] n; ratio is B/A)",
        [["workload", "metric", "A", "B", "ratio", "bound", "verdict"]] + rows,
    )
    return 1 if any(row[-1].startswith("REGRESSION") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
