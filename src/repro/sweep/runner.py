"""Sweep runner: expand a spec into cells, drive each through PTSBE.

One cell = (family, width, profile) under the spec's global axes.  For
each cell the runner:

1. builds the measured ideal circuit from the workload registry and
   interleaves the named device noise profile;
2. constructs the PTS sampler (``exhaustive`` enumerates every trajectory
   above a cutoff and apportions the cell's shot budget proportionally —
   the mode whose pooled histogram the distribution oracle can check;
   ``probabilistic`` is paper Algorithm 2 with uniform shots);
3. runs :func:`~repro.execution.batched.run_ptsbe_stream` once per listed
   strategy with the *same* resolved seed, collecting streamed chunks and
   the finalized table from the same run (streaming is delivery-only, so
   one run serves both the streaming-concat and the cross-strategy
   checks);
4. attaches the differential conformance oracle
   (:mod:`repro.sweep.oracle`) and per-strategy timings.

Widths outside a family's registered range produce ``skip`` cells — the
coverage matrix shows the hole instead of the run dying.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.channels.standard import DeviceNoiseProfile, device_profile
from repro.circuits.library import get_workload, noisy
from repro.errors import SweepError
from repro.execution.batched import run_ptsbe_stream
from repro.execution.results import ShotTable
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
)
from repro.sweep.spec import CellSpec, OracleSpec, SweepSpec

__all__ = [
    "DISTRIBUTIONAL_STRATEGIES",
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

#: Strategies whose conformance contract is distributional rather than
#: bitwise: ``clifford`` draws shots through a different stochastic
#: mechanism, and ``tensornet`` additionally truncates amplitudes (SVD
#: cutoff / bond cap), so both are excluded from the bitwise equivalence
#: tier and each gets its own density-matrix distribution finding.
DISTRIBUTIONAL_STRATEGIES = ("clifford", "tensornet")


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's run of one cell: timing + its oracle verdicts."""

    strategy: str
    seconds: float
    shots: int
    trajectories: int
    chunks: int
    equivalent: Optional[bool]  # None for the reference strategy itself
    stream_ok: Optional[bool]  # None when the streaming tier is disabled
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
        return self.equivalent is not False and self.stream_ok is not False


@dataclass
class CellResult:
    """Everything one sweep cell produced: outcomes, findings, provenance."""

    spec: CellSpec
    status: str  # "pass" | "fail" | "skip" | "timeout"
    skip_reason: str = ""
    outcomes: List[StrategyOutcome] = field(default_factory=list)
    findings: List[OracleFinding] = field(default_factory=list)
    coverage: float = 0.0
    resolved_seed: Optional[int] = None
    #: Wall-clock seconds the whole cell took (all strategies + oracle).
    elapsed_seconds: float = 0.0

    @property
    def cell_id(self) -> str:
        return self.spec.cell_id

    def finding(self, check: str) -> Optional[OracleFinding]:
        for f in self.findings:
            if f.check == check:
                return f
        return None

    def outcome(self, strategy: str) -> Optional[StrategyOutcome]:
        for o in self.outcomes:
            if o.strategy == strategy:
                return o
        return None

    def verified_strategies(self) -> List[str]:
        """Strategies whose (family, width, strategy) combo counts as verified.

        A combo is verified when the cell ran, no cell-level finding
        failed, and the strategy's own equivalence/streaming verdicts
        passed.
        """
        if self.status != PASS:
            return []
        return [o.strategy for o in self.outcomes if o.verified]

    def workload_dict(self) -> Dict[str, Any]:
        """Provenance block for the cell's ``BENCH_*.json`` document."""
        return {
            "family": self.spec.family,
            "num_qubits": self.spec.width,
            "profile": self.spec.profile,
            "shots": self.spec.shots,
            "sampler": self.spec.sampler,
            "seed": self.spec.seed,
            "coverage": self.coverage,
            "status": self.status,
        }

    def bench_rows(self) -> List[Dict[str, Any]]:
        """Flat scalar rows (one per strategy) for the benchmark harness."""
        dist = self.finding("distribution")
        rows = []
        for o in self.outcomes:
            row: Dict[str, Any] = {
                "family": self.spec.family,
                "width": self.spec.width,
                "profile": self.spec.profile,
                "strategy": o.strategy,
                "trajectories": o.trajectories,
                "shots": o.shots,
                "shots_per_second": o.shots_per_second,
                "seconds": o.seconds,
                "equivalence": "reference" if o.equivalent is None else (
                    "pass" if o.equivalent else "fail"
                ),
                "streaming": "skip" if o.stream_ok is None else (
                    "pass" if o.stream_ok else "fail"
                ),
                "distribution": dist.status if dist is not None else "skip",
            }
            if dist is not None and dist.metric("tvd") is not None:
                row["tvd"] = dist.metric("tvd")
                row["tvd_bound"] = dist.metric("tvd_bound")
            rows.append(row)
        return rows


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
        combos = []
        for cell in self.cells:
            for strategy in cell.verified_strategies():
                combos.append((cell.spec.family, cell.spec.width, strategy))
        return combos


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


def _run_strategy(
    circuit,
    sampler: PTSAlgorithm,
    strategy: str,
    seed: int,
    executor_kwargs: Optional[Dict[str, Any]],
) -> Tuple[ShotTable, Tuple[ShotTable, ...], StrategyOutcome, int]:
    """One strategy's streamed run: chunk tables + finalized table + timing."""
    t0 = time.perf_counter()
    stream = run_ptsbe_stream(
        circuit,
        sampler,
        seed=seed,
        strategy=strategy,
        executor_kwargs=executor_kwargs,
    )
    chunk_tables = tuple(chunk.shot_table() for chunk in stream if chunk.num_shots)
    result = stream.finalize()
    seconds = time.perf_counter() - t0
    table = result.shot_table()
    outcome = StrategyOutcome(
        strategy=strategy,
        seconds=seconds,
        shots=table.num_shots,
        trajectories=result.num_trajectories,
        chunks=len(chunk_tables),
        equivalent=None,
        stream_ok=None,
        recovery=len(result.recovery),
    )
    return table, chunk_tables, outcome, result.seed


def run_cell(
    cell: CellSpec,
    strategies: Tuple[str, ...],
    oracle: OracleSpec,
    executor_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
) -> CellResult:
    """Run one sweep cell through every strategy and the full oracle.

    ``executor_kwargs`` optionally maps strategy name to extra executor
    constructor arguments (e.g. ``{"sharded": {"devices": 2}}``).  The
    first listed *bitwise* strategy — ``serial`` is forced to the front
    when present — is the differential reference.

    The :data:`DISTRIBUTIONAL_STRATEGIES` (``clifford``, ``tensornet``)
    are excluded from the bitwise equivalence tier: the frame engine
    draws its per-shot randomness through a different stochastic
    mechanism, and the tensornet engine additionally truncates amplitudes
    — so their tables are seeded-reproducible but not bitwise equal to
    the dense ones.  Their conformance contract is distributional — each
    such table gets its own distribution finding against the exact
    density-matrix reference (subject to the same width/mixture gates).

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
    profile: DeviceNoiseProfile = device_profile(cell.profile)
    circuit = noisy(family.build(cell.width, seed=cell.seed), profile.noise_model())
    sampler = make_sampler(cell)

    ordered = sorted(strategies, key=lambda s: s != "serial")
    dense = [s for s in ordered if s not in DISTRIBUTIONAL_STRATEGIES]
    distributional = [s for s in ordered if s in DISTRIBUTIONAL_STRATEGIES]
    reference_strategy = (dense or ordered)[0]
    tables: Dict[str, ShotTable] = {}
    outcomes: List[StrategyOutcome] = []
    findings: List[OracleFinding] = []
    resolved_seed: Optional[int] = None
    for strategy in ordered:
        kwargs = (executor_kwargs or {}).get(strategy)
        table, chunk_tables, outcome, seed = _run_strategy(
            circuit, sampler, strategy, cell.seed, kwargs
        )
        resolved_seed = seed if resolved_seed is None else resolved_seed
        stream_ok: Optional[bool] = None
        if oracle.streaming:
            finding = check_streaming_concat(strategy, chunk_tables, table)
            findings.append(finding)
            stream_ok = finding.status == PASS
        tables[strategy] = table
        outcomes.append(
            StrategyOutcome(
                strategy=outcome.strategy,
                seconds=outcome.seconds,
                shots=outcome.shots,
                trajectories=outcome.trajectories,
                chunks=outcome.chunks,
                equivalent=None,
                stream_ok=stream_ok,
                recovery=outcome.recovery,
            )
        )

    # Coverage comes from re-running the sampler once against the same
    # stream the executors derived theirs from (deterministic for
    # exhaustive, seed-fixed for probabilistic) — cheap relative to state
    # preparation.
    from repro.rng import StreamFactory

    pts_result = sampler.sample(circuit, StreamFactory(cell.seed).sampler_rng())
    coverage = pts_result.coverage()

    if oracle.strategy_equivalence and len(dense) > 1:
        reference = tables[reference_strategy]
        others = {s: tables[s] for s in dense if s != reference_strategy}
        findings.append(
            check_strategy_equivalence(reference_strategy, reference, others)
        )
        from repro.sweep.oracle import _tables_identical

        for i, outcome in enumerate(outcomes):
            if outcome.strategy == reference_strategy or outcome.strategy not in others:
                continue
            outcomes[i] = StrategyOutcome(
                strategy=outcome.strategy,
                seconds=outcome.seconds,
                shots=outcome.shots,
                trajectories=outcome.trajectories,
                chunks=outcome.chunks,
                equivalent=_tables_identical(reference, tables[outcome.strategy]),
                stream_ok=outcome.stream_ok,
                recovery=outcome.recovery,
            )

    findings.append(
        check_distribution(
            circuit,
            tables[reference_strategy],
            coverage,
            oracle,
            unitary_mixture=profile.unitary_mixture_only,
            proportional_shots=(cell.sampler == "exhaustive"),
        )
    )
    # Each distributional-contract table (clifford / tensornet) is
    # verified on its own — it cannot ride on the reference's finding
    # because it is not bitwise tied to the reference table.
    for strategy in distributional:
        if strategy == reference_strategy:
            continue
        f = check_distribution(
            circuit,
            tables[strategy],
            coverage,
            oracle,
            unitary_mixture=profile.unitary_mixture_only,
            proportional_shots=(cell.sampler == "exhaustive"),
        )
        findings.append(
            OracleFinding(
                check="distribution",
                status=f.status,
                detail=f"{strategy}: {f.detail}",
                metrics=f.metrics,
            )
        )

    elapsed = time.perf_counter() - cell_t0
    status = FAIL if any(f.status == FAIL for f in findings) else PASS
    if (
        status == PASS
        and cell.budget_seconds is not None
        and elapsed > cell.budget_seconds
    ):
        status = TIMEOUT
    return CellResult(
        spec=cell,
        status=status,
        outcomes=outcomes,
        findings=findings,
        coverage=coverage,
        resolved_seed=resolved_seed,
        elapsed_seconds=elapsed,
    )


def run_sweep(
    spec: SweepSpec,
    executor_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
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
        cell_result = run_cell(cell, cell.strategies, spec.oracle, executor_kwargs)
        result.cells.append(cell_result)
        if progress is not None:
            progress(cell_result)
    return result
