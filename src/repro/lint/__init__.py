"""``repro.lint`` — AST-based invariant linter for the repro codebase.

Runtime equivalence tests prove the invariants held *on the inputs they
ran*; this package enforces them *mechanically* at review time, over
every line of ``src/repro``:

* **RNG001** — RNG discipline: every random draw derives from the
  ``repro.rng`` spawn machinery keyed by ``(seed, trajectory_id)``
  (the bitwise-replay contract);
* **DET001** — no wall clocks / OS entropy / hash-ordered set iteration
  in seeded replay paths;
* **ERR001** — no swallowed or over-broad ``except`` on an execution
  path;
* **STRAT001** — the dispatch attaches the routing trail, and only
  ``execution/driver.py`` builds a ``StreamedResult`` (the rest of the
  strategy contract is a runtime conformance test over the strategy
  table, ``tests/test_driver.py``).

Run it with ``python -m repro.lint [--strict] [--json]``; grandfathered
findings live in the committed ``baseline.json`` next to this file, each
with a justification.  Suppress a single intentional exception inline
with ``# replint: disable=RULE -- reason``.  See
``docs/architecture.md`` ("Static analysis") for the catalogue and the
policy on suppressions vs. baseline entries.
"""

from __future__ import annotations

from repro.lint.baseline import BaselineEntry, load_baseline, partition, write_baseline
from repro.lint.cli import default_baseline_path, default_root, main
from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.framework import (
    REGISTRY,
    FileRule,
    LintError,
    Project,
    ProjectRule,
    Rule,
    all_rules,
    register,
    run_lint,
)

__all__ = [
    "BaselineEntry",
    "FileContext",
    "FileRule",
    "Finding",
    "LintError",
    "Project",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "all_rules",
    "default_baseline_path",
    "default_root",
    "load_baseline",
    "main",
    "partition",
    "register",
    "run_lint",
    "write_baseline",
]
