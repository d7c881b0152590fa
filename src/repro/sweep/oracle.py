"""The differential conformance oracle: what "verified" means per cell.

Three tiers, cheapest first; the two exact ones always run:

1. **Strategy equivalence** — every dense strategy's shot table
   (``execution.batched.DENSE_STRATEGIES``) must be bitwise identical to
   the serial reference (same bits, same per-shot trajectory ids).
   This is the repo's strongest standing invariant
   (one Philox stream per ``(seed, trajectory_id)``), so any drift is a
   real bug, not tolerance noise.
2. **Streaming concatenation** — the chunks yielded by
   ``execute_stream`` must concatenate to the same strategy's
   materialized table bitwise.  Verifies the delivery layer never
   reorders, drops, or duplicates trajectories.
3. **Distribution** (small widths only) — the run's trajectory-weighted
   estimate (:meth:`~repro.execution.results.PTSBEResult.pooled_distribution`:
   one stratum per distinct trajectory, weighted by its realized weight)
   must agree with the exact density-matrix reference.  Realized weights
   make it exact for general-Kraus profiles too.  This tier is
   *statistical*, so it is gated on the conditions that make it sound:

   * shots were apportioned proportionally to trajectory probability
     (the ``exhaustive`` sampler's ``total_shots`` mode), so the estimate's
     effective sample size is the cell's shot count, which
     ``tvd_tolerance`` is sized for;
   * width ≤ ``distribution_max_qubits`` (4**n density-matrix cost).

   The TVD bound is ``tvd_tolerance + uncovered``: sampling allowance
   plus the realized weight the sampled trajectories provably leave out
   (:attr:`~repro.execution.results.PTSBEResult.uncovered_mass`).  A
   chi-square test at :data:`CHI_SQUARE_ALPHA` additionally runs when
   coverage is near-complete (uncovered mass below half the per-cell
   standard error), where the restricted and full distributions are
   statistically indistinguishable.  At any width, a result whose
   distinct trajectories weigh more than 1 (past
   :data:`WEIGHT_SUM_ATOL`) fails: it has counted a trajectory twice.

Past the density-matrix widths a cell that runs both wide engines,
``clifford`` and ``tensornet``, gets a fourth finding instead
(:func:`check_wide_engines`): the two must draw the same trajectory set
with the same weights, and agree on every per-qubit marginal and on the
parities the ideal circuit fixes within a shot-noise bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.convergence import exact_distribution
from repro.circuits.circuit import Circuit
from repro.data.stats import chi_square_statistic, total_variation_distance
from repro.errors import SweepError
from repro.execution.results import PTSBEResult, ShotTable
from repro.sweep.spec import OracleSpec

__all__ = [
    "OracleFinding",
    "check_strategy_equivalence",
    "check_streaming_concat",
    "check_distribution",
    "check_wide_engines",
    "chi_square_critical_value",
    "tables_identical",
    "CHI_SQUARE_ALPHA",
    "WIDE_SIGMAS",
    "WEIGHT_SUM_ATOL",
    "WIDE_WEIGHT_RTOL",
]

PASS, FAIL, SKIP = "pass", "fail", "skip"

#: False-positive rate of the distribution tier's chi-square test.
CHI_SQUARE_ALPHA = 1e-4

#: How far the summed realized weight of a run's distinct trajectories may
#: pass 1 by rounding: their Kraus products resolve the identity, so the
#: sum of all of them is 1.
WEIGHT_SUM_ATOL = 1e-9

#: Relative tolerance on a trajectory's weight across the wide engines:
#: each realizes a Pauli-mixture trajectory's weight as the product of its
#: branch probabilities, one exactly and one through an untruncated MPS
#: norm, so anything past rounding is a retained-norm loss.
WIDE_WEIGHT_RTOL = 1e-12

#: Shot-noise bound of the wide-engine tier, in standard errors of the
#: difference of two engines' shot means.
WIDE_SIGMAS = 5.0


@dataclass(frozen=True)
class OracleFinding:
    """Outcome of one oracle tier on one cell (or one strategy)."""

    check: str  # "strategy_equivalence" | "streaming_concat" | "distribution" | "wide_engines"
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    metrics: Tuple[Tuple[str, float], ...] = ()

    @property
    def ok(self) -> bool:
        """Skips do not fail a cell; only an explicit mismatch does."""
        return self.status != FAIL

    def metric(self, name: str) -> Optional[float]:
        return dict(self.metrics).get(name)

    def __repr__(self) -> str:
        extra = f", {self.detail}" if self.detail else ""
        return f"OracleFinding({self.check}: {self.status}{extra})"


def tables_identical(a: ShotTable, b: ShotTable) -> bool:
    """Same measured qubits, bits and per-shot trajectory ids."""
    return (
        a.measured_qubits == b.measured_qubits
        and a.bits.shape == b.bits.shape
        and np.array_equal(a.bits, b.bits)
        and np.array_equal(a.trajectory_ids, b.trajectory_ids)
    )


def check_strategy_equivalence(
    reference_strategy: str,
    reference: ShotTable,
    others: Dict[str, ShotTable],
) -> OracleFinding:
    """Every strategy's table must equal the reference bitwise."""
    mismatched = [
        name for name, table in others.items() if not tables_identical(reference, table)
    ]
    if mismatched:
        return OracleFinding(
            check="strategy_equivalence",
            status=FAIL,
            detail=(
                f"{', '.join(sorted(mismatched))} diverge from "
                f"{reference_strategy} reference"
            ),
        )
    return OracleFinding(
        check="strategy_equivalence",
        status=PASS,
        detail=f"{len(others)} strategies bitwise-equal to {reference_strategy}",
    )


def check_streaming_concat(
    strategy: str, chunks: Tuple[ShotTable, ...], materialized: ShotTable
) -> OracleFinding:
    """Concatenated streamed chunks must reproduce the materialized table."""
    if not chunks:
        return OracleFinding(
            check="streaming_concat",
            status=FAIL,
            detail=f"{strategy}: stream yielded no chunks",
        )
    concatenated = ShotTable.concatenate(list(chunks))
    if not tables_identical(concatenated, materialized):
        return OracleFinding(
            check="streaming_concat",
            status=FAIL,
            detail=f"{strategy}: streamed chunks do not concatenate to table",
        )
    return OracleFinding(
        check="streaming_concat",
        status=PASS,
        detail=f"{strategy}: {len(chunks)} chunks concatenate bitwise",
    )


def chi_square_critical_value(dof: int, alpha: float) -> float:
    """Upper critical value of chi-square at significance ``alpha``.

    Uses scipy when importable; otherwise the Wilson–Hilferty cube
    approximation (accurate to a few percent for dof >= 3, conservative
    enough for an oracle threshold).
    """
    if dof < 1:
        raise SweepError(f"dof must be >= 1, got {dof}")
    try:
        from scipy.stats import chi2

        return float(chi2.ppf(1.0 - alpha, dof))
    except ImportError:
        # Wilson–Hilferty: chi2 ~ dof * (1 - 2/(9 dof) + z sqrt(2/(9 dof)))^3
        # with z the standard-normal quantile, itself approximated by
        # Acklam-style rational fit via the error-function inverse.
        z = math.sqrt(2.0) * _erfinv(1.0 - 2.0 * alpha)
        h = 2.0 / (9.0 * dof)
        return float(dof * (1.0 - h + z * math.sqrt(h)) ** 3)


def _erfinv(y: float) -> float:
    """Inverse error function (Winitzki approximation, |err| < 6e-3)."""
    a = 0.147
    ln_term = math.log(max(1.0 - y * y, 1e-300))
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    return math.copysign(
        math.sqrt(math.sqrt(first**2 - ln_term / a) - first), y
    )


def check_distribution(
    circuit: Circuit, result: PTSBEResult, oracle: OracleSpec, exhaustive: bool
) -> OracleFinding:
    """``result``'s trajectory-weighted distribution vs. the exact
    density-matrix reference of ``circuit``.

    The weight its distinct trajectories leave out
    (:attr:`~repro.execution.results.PTSBEResult.uncovered_mass`) is an
    honest bias term, so it widens the TVD bound instead of being silently
    absorbed by a loose tolerance.  ``exhaustive``: the shots were
    apportioned proportionally (the ``exhaustive`` sampler).
    """
    uncovered = result.uncovered_mass
    if uncovered < -WEIGHT_SUM_ATOL:
        return OracleFinding(
            check="distribution",
            status=FAIL,
            detail=f"distinct trajectories weigh {1.0 - uncovered:.6f} > 1: "
            "a trajectory is counted more than once",
            metrics=(("coverage", 1.0 - uncovered),),
        )
    width = circuit.num_qubits
    if width > oracle.distribution_max_qubits:
        # The sum rule is the only distribution check left: state its gap.
        return OracleFinding(
            check="distribution",
            status=SKIP,
            detail=f"width {width} > distribution_max_qubits "
            f"{oracle.distribution_max_qubits}; distinct trajectories weigh "
            f"{1.0 - uncovered:.6f} <= 1",
            metrics=(("coverage", 1.0 - uncovered),),
        )
    if not exhaustive:
        return OracleFinding(
            check="distribution",
            status=SKIP,
            detail="shots not apportioned proportionally to trajectory "
            "probability: the estimate's sample size is not the cell's shots",
        )
    exact = exact_distribution(circuit)
    estimate = result.pooled_distribution()
    tvd = total_variation_distance(estimate, exact)
    uncovered = max(0.0, uncovered)
    bound = oracle.tvd_tolerance + uncovered
    metrics = [("tvd", tvd), ("tvd_bound", bound), ("coverage", 1.0 - uncovered)]
    if tvd > bound:
        return OracleFinding(
            check="distribution",
            status=FAIL,
            detail=f"TVD {tvd:.4f} exceeds bound {bound:.4f} "
            f"(tolerance {oracle.tvd_tolerance} + uncovered {uncovered:.4f})",
            metrics=tuple(metrics),
        )
    # Chi-square only where the coverage restriction is statistically
    # invisible: uncovered mass below half of one standard error of the
    # pooled histogram.
    shots = result.num_shots
    if uncovered <= 0.5 / math.sqrt(max(shots, 1)):
        counts = estimate * shots
        stat, dof = chi_square_statistic(counts, exact)
        critical = chi_square_critical_value(dof, CHI_SQUARE_ALPHA)
        metrics += [("chi_square", stat), ("chi_square_critical", critical)]
        if stat > critical:
            return OracleFinding(
                check="distribution",
                status=FAIL,
                detail=f"chi-square {stat:.1f} exceeds critical {critical:.1f} "
                f"at alpha={CHI_SQUARE_ALPHA:g} (dof={dof})",
                metrics=tuple(metrics),
            )
    return OracleFinding(
        check="distribution",
        status=PASS,
        detail=f"TVD {tvd:.4f} within bound {bound:.4f}",
        metrics=tuple(metrics),
    )


def check_wide_engines(circuit: Circuit, clifford, tensornet) -> OracleFinding:
    """The two wide engines' results on one Clifford + Pauli-noise cell.

    ``clifford`` and ``tensornet`` are the two strategies'
    :class:`~repro.execution.results.PTSBEResult` under one seed.  They
    must hold the same trajectories in the same order with the same shot
    counts, and weights equal to :data:`WIDE_WEIGHT_RTOL`.  Then every
    per-qubit marginal and every measured-bit parity the ideal circuit
    fixes is compared.  The ideal outcomes are uniform over ``reference
    XOR span(generators)`` (:class:`~repro.backends.pauli_frame.FrameSampler`),
    so the fixed parities are the null space of the generators.  The two
    shot means may differ by at most :data:`WIDE_SIGMAS` standard errors
    of their difference, ``sqrt(p (1 - p) (1/n_a + 1/n_b))`` with ``p`` the
    pooled mean (plus one pseudo-count each way).  A trajectory set's
    shots are stratified, which only lowers the variance below that
    binomial one.
    """
    from repro.backends.pauli_frame import FrameSampler
    from repro.qec.gf2 import nullspace

    runs = (clifford, tensornet)
    records = [[(r.trajectory_id, r.signature()) for r in run.records] for run in runs]
    if records[0] != records[1] or not np.array_equal(
        clifford.columns.specs["count"], tensornet.columns.specs["count"]
    ):
        return OracleFinding(
            check="wide_engines",
            status=FAIL,
            detail=f"trajectory sets differ ({len(records[0])} clifford vs "
            f"{len(records[1])} tensornet specs)",
        )
    weights = [run.columns.specs["weight"] for run in runs]
    weight_error = float(np.max(np.abs(weights[1] / weights[0] - 1.0), initial=0.0))
    metrics = [("weight_rel_error", weight_error)]
    if weight_error > WIDE_WEIGHT_RTOL:
        return OracleFinding(
            check="wide_engines",
            status=FAIL,
            detail=f"weights differ by {weight_error:.3g} relative (> {WIDE_WEIGHT_RTOL:g})",
            metrics=tuple(metrics),
        )
    frames = FrameSampler(circuit)
    width = len(frames.measured_qubits)
    parities = nullspace(frames.generators)
    stats = np.concatenate([np.eye(width, dtype=np.int64), parities]).T
    bits = [run.shot_table().bits.astype(np.int64) for run in runs]
    ones = [((b @ stats) & 1).sum(axis=0) for b in bits]
    shots = [len(b) for b in bits]
    pooled = (ones[0] + ones[1] + 1) / (shots[0] + shots[1] + 2)
    error = np.sqrt(pooled * (1 - pooled) * (1 / shots[0] + 1 / shots[1]))
    z = np.abs(ones[0] / shots[0] - ones[1] / shots[1]) / error
    worst = int(np.argmax(z))
    metrics += [("max_z", float(z[worst])), ("statistics", float(len(z)))]
    what = f"marginal {worst}" if worst < width else f"fixed parity {worst - width}"
    status = FAIL if z[worst] > WIDE_SIGMAS else PASS
    return OracleFinding(
        check="wide_engines",
        status=status,
        detail=f"{len(records[0])} trajectories, equal weights; {what} at "
        f"{z[worst]:.2f} sigma, bound {WIDE_SIGMAS:g} "
        f"({width} marginals, {len(parities)} fixed parities)",
        metrics=tuple(metrics),
    )
