"""Coverage/perf matrix rendering: markdown for humans, JSON for CI.

The product of a sweep is not one number but a *matrix*: which
(family × width × strategy) combos are verified by the conformance
oracle, at what throughput, and where the holes are (skipped widths,
skipped oracle tiers, outright failures).  ``render_markdown`` draws it
as one table per noise profile; ``summary_dict`` emits the same content
as JSON so CI can diff coverage across commits and upload the matrix as
an artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.sweep.oracle import FAIL, PASS, SKIP
from repro.sweep.runner import TIMEOUT, CellResult, SweepResult

__all__ = [
    "combo_status",
    "coverage_matrix",
    "render_markdown",
    "summary_dict",
    "write_report",
]

_STATUS_MARK = {PASS: "✓", FAIL: "✗", SKIP: "–", TIMEOUT: "⏱"}


def _format_rate(rate: float) -> str:
    return f"{rate:.2e}" if rate == rate and rate != float("inf") else "-"


def combo_status(cell: CellResult, strategy: str) -> Optional[str]:
    """One (cell, strategy) combo's verdict; ``None`` if the cell has no such run.

    A skipped cell skips every combo; a combo whose own equivalence or
    streaming verdict failed is ``fail``; otherwise the combo takes the
    cell's status (``pass``, ``fail`` or — checks passed, budget blown —
    ``timeout``).
    """
    if cell.status == SKIP:
        return SKIP
    outcome = cell.outcome(strategy)
    if outcome is None:
        return None
    return cell.status if outcome.verified else FAIL


def _strategies(cells: Iterable[CellResult]) -> List[str]:
    """The strategies the cells declare, in the order they first appear."""
    return list(dict.fromkeys(s for cell in cells for s in cell.spec.strategies))


def coverage_matrix(result: SweepResult) -> List[Dict[str, Any]]:
    """One flat record per (family, width, profile, strategy) combo."""
    records: List[Dict[str, Any]] = []
    for cell in result.cells:
        for strategy in cell.spec.strategies:
            outcome = cell.outcome(strategy)
            records.append(
                {
                    "family": cell.spec.family,
                    "width": cell.spec.width,
                    "profile": cell.spec.profile,
                    "strategy": strategy,
                    "status": combo_status(cell, strategy),
                    "detail": cell.skip_reason,
                    "shots_per_second": outcome.shots_per_second if outcome else None,
                    "recovery": outcome.recovery if outcome else 0,
                }
            )
    return records


def _cell_label(cell: CellResult, strategy: str) -> str:
    status = combo_status(cell, strategy)
    if status in (None, SKIP):
        return _STATUS_MARK[SKIP]
    rate = cell.outcome(strategy).shots_per_second
    return f"{_STATUS_MARK[status]} {_format_rate(rate)}"


def render_markdown(result: SweepResult) -> str:
    """The human-facing coverage/perf matrix.

    One table per profile: rows are family × width, one column per
    strategy the table's cells declare (mark + shots/s), one column for
    the distribution-oracle tier.  A summary header counts verified
    combos, and failed cells get their oracle details listed below the
    tables.
    """
    spec = result.spec
    counts = result.counts()
    combos = result.verified_combos()
    lines = [
        f"# Sweep coverage matrix — `{spec.name}`",
        "",
        f"- cells: {len(result.cells)} "
        f"(pass {counts[PASS]}, fail {counts[FAIL]}, skip {counts[SKIP]}, "
        f"timeout {counts[TIMEOUT]})",
        f"- verified (family × width × strategy) combos: {len(combos)}",
        f"- strategies: {', '.join(_strategies(result.cells))} · sampler: {spec.sampler} "
        f"· shots/cell: {spec.shots} · seed: {spec.seed}",
        "",
        "Cell entries: `✓ shots/s` verified, `✗` oracle failure, `–` skipped, "
        "`⏱` over wall-clock budget. "
        "`dm oracle` is the density-matrix distribution tier "
        "(pass/fail/skip + TVD).",
        "",
    ]
    for profile in dict.fromkeys(c.spec.profile for c in result.cells):
        cells = [c for c in result.cells if c.spec.profile == profile]
        lines.append(f"## profile: `{profile}`")
        lines.append("")
        strategies = _strategies(cells)
        header = ["family", "width"] + strategies + ["dm oracle"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for cell in cells:
            dist = cell.finding("distribution")
            if dist is None:
                dm = _STATUS_MARK[SKIP]
            elif dist.metric("tvd") is not None:
                dm = f"{_STATUS_MARK[dist.status]} tvd={dist.metric('tvd'):.3f}"
            else:
                dm = _STATUS_MARK[dist.status]
            row = [cell.spec.family, str(cell.spec.width)]
            row += [_cell_label(cell, s) for s in strategies]
            row.append(dm)
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    failed = [c for c in result.cells if c.status == FAIL]
    if failed:
        lines.append("## Failures")
        lines.append("")
        for cell in failed:
            for finding in cell.findings:
                if finding.status == FAIL:
                    lines.append(f"- `{cell.cell_id}` {finding.check}: {finding.detail}")
        lines.append("")
    timeouts = [c for c in result.cells if c.status == TIMEOUT]
    if timeouts:
        lines.append("## Timeouts")
        lines.append("")
        for cell in timeouts:
            lines.append(
                f"- `{cell.cell_id}`: {cell.elapsed_seconds:.1f}s over budget "
                f"{cell.spec.budget_seconds:.1f}s"
            )
        lines.append("")
    skipped = [c for c in result.cells if c.status == SKIP]
    if skipped:
        lines.append("## Skipped cells")
        lines.append("")
        for cell in skipped:
            lines.append(f"- `{cell.cell_id}`: {cell.skip_reason}")
        lines.append("")
    return "\n".join(lines)


def summary_dict(result: SweepResult) -> Dict[str, Any]:
    """Machine-readable sweep summary (spec + matrix + per-cell findings)."""
    counts = result.counts()
    return {
        "spec": result.spec.to_dict(),
        "cells": {
            "total": len(result.cells),
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "skip": counts[SKIP],
            "timeout": counts[TIMEOUT],
        },
        "verified_combos": [
            {"family": f, "width": w, "strategy": s}
            for f, w, s in result.verified_combos()
        ],
        "matrix": coverage_matrix(result),
        "findings": [
            {
                "cell": cell.cell_id,
                "status": cell.status,
                "skip_reason": cell.skip_reason,
                "coverage": cell.coverage,
                "resolved_seed": cell.resolved_seed,
                "elapsed_seconds": cell.elapsed_seconds,
                "budget_seconds": cell.spec.budget_seconds,
                "strategies": [
                    {
                        "strategy": o.strategy,
                        "recovery": o.recovery,
                        "shots_per_second": o.shots_per_second,
                    }
                    for o in cell.outcomes
                ],
                "checks": [
                    {
                        "check": f.check,
                        "status": f.status,
                        "detail": f.detail,
                        "metrics": dict(f.metrics),
                    }
                    for f in cell.findings
                ],
            }
            for cell in result.cells
        ],
    }


def write_report(
    result: SweepResult,
    markdown_path: Optional[str] = None,
    json_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Write the markdown and/or JSON reports; returns the summary dict."""
    summary = summary_dict(result)
    if markdown_path:
        with open(markdown_path, "w") as fh:
            fh.write(render_markdown(result))
            fh.write("\n")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary
