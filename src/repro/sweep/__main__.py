"""``python -m repro.sweep``: run a scenario sweep with the conformance oracle.

Loads a YAML/JSON spec, runs every (family × width × profile) cell
through every listed strategy, checks the oracle tiers (bitwise strategy
equivalence, streamed-chunk concatenation, density-matrix distribution
at small widths), and writes ``sweep_report.md`` (the human
coverage/perf matrix) and ``sweep_report.json`` (the machine summary:
spec, matrix, findings) to ``--out-dir``.

.. code-block:: bash

    PYTHONPATH=src python -m repro.sweep \\
        --spec benchmarks/sweeps/smoke.yaml --out-dir sweep-out

Exit status: 0 every executed cell passed its oracle, 1 at least one
cell failed (or, under ``--strict``, exceeded its wall-clock budget),
2 usage/spec error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main"]


def _print_cell(cell) -> None:
    marks = ", ".join(
        f"{o.strategy}={o.shots_per_second:.2e}/s" for o in cell.outcomes
    )
    detail = f" ({cell.skip_reason})" if cell.status == "skip" else f" [{marks}]"
    print(f"  {cell.status:>4}  {cell.cell_id}{detail}", flush=True)


def _list_registries() -> None:
    from repro.channels.standard import device_profile, profile_names
    from repro.circuits.library import get_workload, workload_names

    print("workload families:")
    for name in workload_names():
        fam = get_workload(name)
        print(f"  {name:<20} widths [{fam.min_width}, {fam.max_width}]  {fam.description}")
    print("device noise profiles:")
    for name in profile_names():
        prof = device_profile(name)
        kind = "unitary mixture" if prof.unitary_mixture_only else "non-unitary"
        print(f"  {name:<24} p1={prof.p1:g} p2={prof.p2:g} ({kind})  {prof.description}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a scenario sweep with the differential conformance oracle.",
    )
    parser.add_argument(
        "--spec", metavar="PATH", default=None,
        help="YAML or JSON sweep specification (see repro/sweep/spec.py)",
    )
    parser.add_argument(
        "--out-dir", metavar="DIR", default=".",
        help="directory for sweep_report.{md,json} (default: %(default)s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also exit nonzero when a cell exceeds its wall-clock budget",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered workload families and noise profiles, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        _list_registries()
        return 0
    if args.spec is None:
        parser.error("--spec is required (or use --list)")

    from repro.errors import SweepError
    from repro.sweep import load_spec, render_markdown, run_sweep, write_report

    try:
        spec = load_spec(args.spec)
    except (OSError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cells = spec.expand()
    print(
        f"sweep {spec.name!r}: {len(cells)} cells × "
        f"{len(spec.strategies)} strategies ({', '.join(spec.strategies)})"
    )
    try:
        result = run_sweep(spec, progress=_print_cell)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    md_path = os.path.join(args.out_dir, "sweep_report.md")
    json_path = os.path.join(args.out_dir, "sweep_report.json")
    write_report(result, markdown_path=md_path, json_path=json_path)
    print(f"wrote {md_path} and {json_path}")

    counts = result.counts()
    combos = result.verified_combos()
    print(
        f"cells: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skip']} skip, {counts['timeout']} timeout; "
        f"verified combos: {len(combos)}"
    )
    if result.failed or (args.strict and result.timed_out):
        print(render_markdown(result), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
