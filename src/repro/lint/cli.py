"""The ``python -m repro.lint`` command line.

Default invocation lints the installed ``repro`` package source against
the committed baseline (``src/repro/lint/baseline.json``) and exits

* ``0`` — no findings beyond the baseline;
* ``1`` — new findings (always), or — under ``--strict`` — stale
  baseline entries (debt was paid: shrink the baseline) as well;
* ``2`` — usage or environment errors (bad root, broken baseline).

``--json`` emits the full machine-readable report on stdout (CI uploads
it as an artifact); ``--write-baseline`` regenerates the baseline from
the current findings, preserving justifications by path prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint import baseline as baseline_mod
from repro.lint.findings import Finding
from repro.lint.framework import LintError, all_rules, run_lint

__all__ = ["main", "default_root", "default_baseline_path"]


def default_root() -> Path:
    """The source tree the linter guards: the ``repro`` package itself."""
    return Path(__file__).resolve().parents[1]


def default_baseline_path() -> Path:
    """The committed baseline shipped inside the lint package."""
    return Path(__file__).resolve().parent / "baseline.json"


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter for the repro codebase: RNG "
            "discipline (RNG001), replay determinism (DET001), failure "
            "handling (ERR001), and the executor strategy contract "
            "(STRAT001)."
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="source root to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON (default: the committed src/repro/lint/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current findings and exit 0",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (paid-off debt must be removed)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable report on stdout",
    )
    parser.add_argument(
        "--rules",
        type=str,
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _print_findings(header: str, findings: Sequence[Finding]) -> None:
    if not findings:
        return
    print(f"{header} ({len(findings)}):")
    for finding in findings:
        print(f"  {finding.render()}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.title}")
            print(f"    {rule.rationale}")
        return 0

    root = (args.root or default_root()).resolve()
    rule_ids: Optional[List[str]] = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]

    try:
        findings = run_lint(root, rule_ids)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = args.baseline or default_baseline_path()
    if args.write_baseline:
        notes = (
            "Grandfathered repro.lint findings. Every entry needs a "
            "justification; pay the debt down, never grow it."
        )
        baseline_mod.write_baseline(findings, baseline_path, notes=notes)
        print(f"wrote {len(findings)} baseline entries to {baseline_path}")
        return 0

    entries: List[baseline_mod.BaselineEntry] = []
    if not args.no_baseline:
        try:
            entries = baseline_mod.load_baseline(baseline_path)
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    new, baselined, stale = baseline_mod.partition(findings, entries)

    failed = bool(new) or (args.strict and bool(stale))
    if args.as_json:
        report = {
            "root": str(root),
            "strict": bool(args.strict),
            "rules": [
                {"id": rule.id, "title": rule.title}
                for rule in all_rules()
                if rule_ids is None or rule.id in rule_ids
            ],
            "new": [finding.to_json() for finding in new],
            "baselined": [finding.to_json() for finding in baselined],
            "stale": [entry.to_json() for entry in stale],
            "summary": {
                "files_scanned": len(list(Path(root).rglob("*.py"))),
                "new": len(new),
                "baselined": len(baselined),
                "stale": len(stale),
                "exit": 1 if failed else 0,
            },
        }
        print(json.dumps(report, indent=2))
    else:
        _print_findings("new findings", new)
        if stale:
            print(f"stale baseline entries ({len(stale)}):")
            for entry in stale:
                print(f"  {entry.rule} {entry.path} [{entry.scope}] {entry.text!r}")
        print(
            f"repro.lint: {len(new)} new, {len(baselined)} baselined, "
            f"{len(stale)} stale (root: {root})"
        )

    return 1 if failed else 0
