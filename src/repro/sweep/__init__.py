"""Scenario sweep harness: declarative coverage with a conformance oracle.

The paper's throughput claims are validated on single circuits; the
ROADMAP's north star demands coverage across "as many scenarios as you
can imagine".  This package turns that into a measured artifact, the way
qsimbench sweeps algorithm families × sizes × device noise profiles:

* :mod:`repro.sweep.spec` — a declarative sweep specification (dataclass
  plus YAML/JSON loader) naming circuit families from the workload
  registry (:mod:`repro.circuits.library`), width ranges, device noise
  profiles (:mod:`repro.channels.standard`), a shot budget, and the
  execution strategies to cross-check;
* :mod:`repro.sweep.oracle` — the differential conformance oracle every
  cell runs through: all strategies bitwise-identical to serial, streamed
  chunks concatenating to the materialized table, and (at small widths,
  for unitary-mixture profiles) the empirical shot distribution agreeing
  with the exact density-matrix reference within TVD/chi-square bounds;
* :mod:`repro.sweep.runner` — expands the spec into cells and drives each
  through :func:`~repro.execution.batched.run_ptsbe_stream`;
* :mod:`repro.sweep.report` — renders the coverage/perf matrix
  (families × widths × strategies: pass/fail/skip + shots/s) to markdown
  and JSON.

The command line is ``python -m repro.sweep`` (:mod:`repro.sweep.__main__`),
which writes the report to ``sweep_report.{md,json}``.
"""

from repro.sweep.spec import (
    CellSpec,
    FamilySweep,
    OracleSpec,
    SweepSpec,
    SweepSpecError,
    load_spec,
    spec_from_dict,
)
from repro.sweep.oracle import (
    OracleFinding,
    check_distribution,
    check_strategy_equivalence,
    check_streaming_concat,
)
from repro.sweep.runner import (
    CellResult,
    StrategyOutcome,
    SweepResult,
    make_sampler,
    run_cell,
    run_sweep,
)
from repro.sweep.report import coverage_matrix, render_markdown, summary_dict, write_report

__all__ = [
    "CellSpec",
    "FamilySweep",
    "OracleSpec",
    "SweepSpec",
    "SweepSpecError",
    "load_spec",
    "spec_from_dict",
    "OracleFinding",
    "check_distribution",
    "check_strategy_equivalence",
    "check_streaming_concat",
    "CellResult",
    "StrategyOutcome",
    "SweepResult",
    "make_sampler",
    "run_cell",
    "run_sweep",
    "coverage_matrix",
    "render_markdown",
    "summary_dict",
    "write_report",
]
