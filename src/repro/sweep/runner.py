"""Sweep runner: expand a spec into cells, drive each through PTSBE.

One cell = (family, width, profile) under the spec's global axes.  For
each cell the runner:

1. builds the measured ideal circuit from the workload registry and
   interleaves the named device noise profile;
2. constructs the PTS sampler (``exhaustive`` enumerates every trajectory
   above a cutoff and apportions the cell's shot budget proportionally —
   the mode whose weighted estimate the distribution oracle can check;
   ``probabilistic`` is paper Algorithm 2 with uniform shots);
3. runs :func:`~repro.execution.batched.run_ptsbe_stream` once per
   strategy of the cell with the *same* resolved seed, collecting
   streamed chunks and the finalized table from the same run (streaming
   is delivery-only, so one run serves both the streaming-concat and the
   cross-strategy checks);
4. attaches the differential conformance oracle
   (:mod:`repro.sweep.oracle`) and per-strategy timings.  The cell's
   coverage is the reference run's summed realized weight
   (``1 - result.uncovered_mass``): the sampler is not run again.

Widths outside a family's registered range produce ``skip`` cells — the
coverage matrix shows the hole instead of the run dying.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.channels.standard import device_profile
from repro.circuits.library import get_workload, noisy
from repro.errors import SweepError
from repro.execution.batched import DENSE_STRATEGIES, run_ptsbe_stream
from repro.pts.base import PTSAlgorithm
from repro.pts.exhaustive import ExhaustivePTS
from repro.pts.probabilistic import ProbabilisticPTS
from repro.sweep.oracle import (
    FAIL,
    PASS,
    SKIP,
    OracleFinding,
    check_distribution,
    check_strategy_equivalence,
    check_streaming_concat,
    check_wide_engines,
    tables_identical,
)
from repro.sweep.spec import CellSpec, OracleSpec, SweepSpec

__all__ = [
    "TIMEOUT",
    "StrategyOutcome",
    "CellResult",
    "SweepResult",
    "make_sampler",
    "run_cell",
    "run_sweep",
]

#: Cell status for a run that finished but blew its wall-clock budget.
TIMEOUT = "timeout"


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's run of one cell: timing + its oracle verdicts."""

    strategy: str
    seconds: float
    shots: int
    trajectories: int
    chunks: int
    #: Bitwise equal to the reference; ``None`` for the reference itself
    #: and for the distributional engines (``clifford``, ``tensornet``).
    equivalent: Optional[bool]
    stream_ok: bool
    #: Recovery actions (retries, batch halvings) the run took;
    #: 0 for fault-free runs.  Under an injected REPRO_FAULTS plan a
    #: passing cell with ``recovery > 0`` is the chaos-smoke evidence:
    #: faults fired *and* the oracle still held.
    recovery: int = 0

    @property
    def shots_per_second(self) -> float:
        return self.shots / self.seconds if self.seconds > 0 else float("inf")

    @property
    def verified(self) -> bool:
        """No tier this strategy participates in failed."""
        return self.equivalent is not False and self.stream_ok


@dataclass
class CellResult:
    """Everything one sweep cell produced: outcomes, findings, provenance."""

    spec: CellSpec
    status: str  # "pass" | "fail" | "skip" | "timeout"
    skip_reason: str = ""
    outcomes: List[StrategyOutcome] = field(default_factory=list)
    findings: List[OracleFinding] = field(default_factory=list)
    #: The reference run's realized trajectory weight, summed over its
    #: distinct trajectories (``1 - PTSBEResult.uncovered_mass``).
    coverage: float = 0.0
    resolved_seed: Optional[int] = None
    #: Wall-clock seconds the whole cell took (all strategies + oracle).
    elapsed_seconds: float = 0.0

    @property
    def cell_id(self) -> str:
        return self.spec.cell_id

    def finding(self, check: str) -> Optional[OracleFinding]:
        return next((f for f in self.findings if f.check == check), None)

    def outcome(self, strategy: str) -> Optional[StrategyOutcome]:
        return next((o for o in self.outcomes if o.strategy == strategy), None)

    def verified_strategies(self) -> List[str]:
        """Strategies whose (family, width, strategy) combo counts as verified.

        A combo is verified when the cell passed (no finding failed, no
        budget overrun) and the strategy's own verdicts passed.
        """
        if self.status != PASS:
            return []
        return [o.strategy for o in self.outcomes if o.verified]


@dataclass
class SweepResult:
    """All cell results of one sweep run, plus the spec that produced them."""

    spec: SweepSpec
    cells: List[CellResult] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIP: 0, TIMEOUT: 0}
        for cell in self.cells:
            out[cell.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(cell.status == FAIL for cell in self.cells)

    @property
    def timed_out(self) -> bool:
        return any(cell.status == TIMEOUT for cell in self.cells)

    def verified_combos(self) -> List[Tuple[str, int, str]]:
        """All verified (family, width, strategy) combos across cells."""
        return [
            (cell.spec.family, cell.spec.width, strategy)
            for cell in self.cells
            for strategy in cell.verified_strategies()
        ]


def make_sampler(cell: CellSpec) -> PTSAlgorithm:
    """Construct the PTS sampler a cell prescribes.

    ``exhaustive``: branch-and-bound enumeration above ``cutoff``
    (default 1e-5), the cell's whole shot budget apportioned by relative
    joint probability — deterministic and distribution-oracle-friendly.
    ``probabilistic``: Algorithm 2 with ``nsamples`` draws (default 200)
    and the budget split uniformly across them.
    """
    options = dict(cell.sampler_options)
    if cell.sampler == "exhaustive":
        cutoff = float(options.pop("cutoff", 1e-5))
        max_errors = options.pop("max_errors", None)
        if options:
            raise SweepError(f"unknown exhaustive sampler options: {sorted(options)}")
        return ExhaustivePTS(
            cutoff=cutoff,
            nshots=None,
            total_shots=cell.shots,
            max_errors=None if max_errors is None else int(max_errors),
        )
    if cell.sampler == "probabilistic":
        nsamples = int(options.pop("nsamples", 200))
        if options:
            raise SweepError(
                f"unknown probabilistic sampler options: {sorted(options)}"
            )
        return ProbabilisticPTS(
            nsamples=nsamples, nshots=max(1, cell.shots // nsamples)
        )
    raise SweepError(f"unknown sampler {cell.sampler!r}")


def run_cell(cell: CellSpec, oracle: OracleSpec) -> CellResult:
    """Run one sweep cell through each of ``cell.strategies`` and the oracle.

    The first listed dense strategy (:data:`DENSE_STRATEGIES`; ``serial``
    is forced to the front when present) is the differential reference,
    and only the dense strategies take part in the bitwise equivalence
    tier.  ``clifford`` draws its per-shot randomness through a different
    mechanism and ``tensornet`` also truncates amplitudes, so their tables
    are seeded-reproducible but not bitwise equal to the dense ones: each
    gets its own distribution finding against the exact density-matrix
    reference instead (subject to the same width/sampler gates).  A cell
    that runs both of them is also checked one against the other
    (:func:`~repro.sweep.oracle.check_wide_engines`), at any width.

    When the cell carries a ``budget_seconds`` and its total wall clock
    exceeds it, a cell that would have passed is reported ``timeout``
    instead (an oracle *failure* still wins — a budget overrun must not
    mask a conformance bug).
    """
    family = get_workload(cell.family)
    if not family.supports(cell.width):
        return CellResult(
            spec=cell,
            status=SKIP,
            skip_reason=f"width {cell.width} outside {cell.family!r} range "
            f"[{family.min_width}, {family.max_width}]",
        )
    cell_t0 = time.perf_counter()
    profile = device_profile(cell.profile)
    circuit = noisy(family.build(cell.width, seed=cell.seed), profile.noise_model())
    sampler = make_sampler(cell)

    ordered = sorted(cell.strategies, key=lambda s: s != "serial")
    dense = [s for s in ordered if s in DENSE_STRATEGIES]
    reference = (dense or ordered)[0]
    runs = {}
    for strategy in ordered:
        t0 = time.perf_counter()
        stream = run_ptsbe_stream(circuit, sampler, seed=cell.seed, strategy=strategy)
        chunks = tuple(chunk.shot_table() for chunk in stream if chunk.num_shots)
        result = stream.finalize()
        runs[strategy] = (result, chunks, time.perf_counter() - t0)
    tables = {s: result.shot_table() for s, (result, _, _) in runs.items()}

    streamed = {s: check_streaming_concat(s, runs[s][1], tables[s]) for s in ordered}
    findings = list(streamed.values())
    others = {s: tables[s] for s in dense if s != reference}
    if others:
        findings.append(check_strategy_equivalence(reference, tables[reference], others))
    # The reference's finding speaks for every table bitwise tied to it;
    # each distributional table is checked on its own.
    for strategy in [reference] + [s for s in ordered if s not in dense and s != reference]:
        finding = check_distribution(
            circuit, runs[strategy][0], oracle, exhaustive=cell.sampler == "exhaustive"
        )
        if strategy != reference:
            finding = replace(finding, detail=f"{strategy}: {finding.detail}")
        findings.append(finding)

    if "clifford" in runs and "tensornet" in runs:
        findings.append(check_wide_engines(circuit, runs["clifford"][0], runs["tensornet"][0]))

    outcomes = [
        StrategyOutcome(
            strategy=s,
            seconds=seconds,
            shots=tables[s].num_shots,
            trajectories=result.num_trajectories,
            chunks=len(chunks),
            equivalent=tables_identical(tables[reference], tables[s]) if s in others else None,
            stream_ok=streamed[s].status == PASS,
            recovery=len(result.recovery),
        )
        for s, (result, chunks, seconds) in runs.items()
    ]
    elapsed = time.perf_counter() - cell_t0
    status = FAIL if any(f.status == FAIL for f in findings) else PASS
    if status == PASS and cell.budget_seconds is not None and elapsed > cell.budget_seconds:
        status = TIMEOUT
    return CellResult(
        spec=cell,
        status=status,
        outcomes=outcomes,
        findings=findings,
        coverage=1.0 - runs[reference][0].uncovered_mass,
        resolved_seed=runs[ordered[0]][0].seed,
        elapsed_seconds=elapsed,
    )


def run_sweep(
    spec: SweepSpec,
    progress: Optional[Callable[[CellResult], None]] = None,
) -> SweepResult:
    """Run every cell of a validated spec; never raises on oracle failure.

    ``progress`` (if given) is called with each finished
    :class:`CellResult` — the CLI uses it to print the matrix as it
    fills in.
    """
    spec.validate()
    result = SweepResult(spec=spec)
    for cell in spec.expand():
        cell_result = run_cell(cell, spec.oracle)
        result.cells.append(cell_result)
        if progress is not None:
            progress(cell_result)
    return result
