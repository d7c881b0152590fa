"""Seed-exact retry: policies, recovery events, and the retry rule.

The retry layer exists because PR 4's seed threading made it *correct*:
every trajectory draws from the Philox stream derived from
``(seed, trajectory_id)``, so re-running a failed work unit re-emits
bitwise-identical shots — retry is exactly-once-equivalent, no
deduplication or fencing needed.  What this module adds on top:

* :class:`RetryPolicy` — how many attempts a unit gets, which exception
  classes are worth retrying, and an exponential backoff whose jitter is
  drawn from the seed-derived fault stream (:func:`repro.rng.fault_rng`)
  instead of wall-clock entropy, so even the *pauses* of a recovered run
  replay deterministically.
* :class:`RecoveryEvent` — the structured record of one recovery action
  (``retry`` / ``batch-halved``), surfaced on
  ``StreamedResult.recovery`` and ``PTSBEResult.recovery``.
* :class:`FaultContext` — the (plan, policy, seed) triple of one run, and
  the retry rule itself (:meth:`FaultContext.next_attempt`: classify,
  check the budget, record the event, back off).
  :func:`repro.execution.driver.drive` applies it to a failed task whether
  the task ran in-process or came back from a pool worker.

``CapacityError`` is deliberately *not* retryable even though it
subclasses ``BackendError``: repeating the identical allocation would
fail identically.  It escalates to the caller's degradation ladder
(batch halving) instead.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a
    # cycle: config.py imports this module for its default retry policy)
    from repro.config import Config

from repro.errors import (
    BackendError,
    CapacityError,
    ExecutionError,
    FaultError,
    WorkerCrashError,
)
from repro.faults.plan import FaultPlan
from repro.rng import FAULT_NS_JITTER, fault_rng

__all__ = [
    "RetryPolicy",
    "RecoveryEvent",
    "FaultContext",
    "describe_exception",
]

#: Exception classes a failed work unit is retried on by default: backend
#: hiccups, emulated or real worker deaths.  A dead pool is classified by
#: ``BrokenExecutor``, the base of ``BrokenProcessPool``: naming the
#: subclass would import ``multiprocessing`` with ``repro``, for a pool
#: most runs never build.  ``CancelledError`` is absent on purpose —
#: cancellation means the *consumer* abandoned the run.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    BackendError,
    WorkerCrashError,
    BrokenExecutor,
)


def describe_exception(exc: BaseException) -> str:
    """Compact one-line description for :class:`RecoveryEvent` records."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-work-unit retry budget and backoff schedule.

    Attributes
    ----------
    max_attempts:
        Total tries a unit gets (first run included); ``1`` disables
        retry.  Exhaustion raises :class:`~repro.errors.FaultError`
        naming the unit, the attempt count, and chaining the last cause.
    backoff_base / backoff_max:
        Exponential backoff: attempt ``k`` (1-based) sleeps
        ``min(backoff_max, backoff_base * 2**(k-1))`` seconds before
        re-running.  The defaults are deliberately tiny — test suites and
        in-process faults recover in microseconds; a deployment whose
        workers fail on real resources raises them via ``Config.retry``.
    jitter:
        When ``True`` (default) the delay is scaled by a factor in
        ``[0.5, 1.5)`` drawn from the seed-derived fault stream — the
        thundering-herd cure without sacrificing replay determinism.
    retryable:
        Exception classes worth re-running the unit for.
        ``CapacityError`` is excluded structurally (see module docs) even
        if a listed class covers it.
    """

    max_attempts: int = 3
    backoff_base: float = 0.002
    backoff_max: float = 0.1
    jitter: bool = True
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self):
        object.__setattr__(self, "retryable", tuple(self.retryable))
        if self.max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ExecutionError("backoff durations must be >= 0")

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` warrants re-running the unit (never capacity)."""
        return isinstance(exc, self.retryable) and not isinstance(exc, CapacityError)

    def backoff_seconds(self, seed: int, unit: str, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` (1-based) of ``unit``."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        if self.jitter and delay > 0.0:
            rng = fault_rng(seed, FAULT_NS_JITTER, unit, attempt)
            delay *= 0.5 + rng.random()
        return delay


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action taken by the fault-tolerance layer.

    Attributes
    ----------
    kind:
        ``"retry"`` (unit re-run after a retryable failure) or
        ``"batch-halved"`` (a unit split in two after a
        ``CapacityError``).
    strategy:
        Executor that recovered (``"parallel"``, ``"sharded"``, ...).
    unit:
        The instrumented unit name, ``<strategy>/stack:<a>:<b>`` on every
        strategy (``serial/stack:3:4``, ``sharded/stack:1:65``, ...).
    attempt:
        The retry attempt this event initiated (1-based); ``0`` for
        ``batch-halved``.
    error:
        Compact description of the triggering exception.
    detail:
        The two group ranges a halved unit was split into.
    """

    kind: str
    strategy: str
    unit: str
    attempt: int
    error: str
    detail: str = ""


@dataclass(frozen=True)
class FaultContext:
    """The (plan, policy, seed) triple threaded through one run."""

    plan: Optional[FaultPlan]
    policy: RetryPolicy
    seed: int
    strategy: str = ""

    @classmethod
    def from_config(cls, config: Config, seed: int, strategy: str = "") -> "FaultContext":
        """The context an executor runs under: ``config``'s fault plan and
        retry policy."""
        return cls(
            plan=config.fault_plan, policy=config.retry, seed=int(seed), strategy=strategy
        )

    def next_attempt(
        self,
        unit: str,
        attempt: int,
        exc: BaseException,
        recovery: List[RecoveryEvent],
    ) -> int:
        """The retry rule: ``unit`` failed ``attempt`` with ``exc`` — what now?

        Re-raises ``exc`` when the policy does not retry its class (never
        ``CapacityError``), raises :class:`~repro.errors.FaultError`
        naming the unit once the budget is spent, and otherwise records a
        ``"retry"`` event, sleeps the deterministic backoff and returns
        the attempt number to run next.
        """
        if not self.policy.is_retryable(exc):
            raise exc
        attempt += 1
        if attempt >= self.policy.max_attempts:
            raise FaultError(
                f"work unit {unit!r} failed after {attempt} attempt(s): "
                f"{describe_exception(exc)}",
                unit=unit,
                attempts=attempt,
            ) from exc
        recovery.append(
            RecoveryEvent(
                kind="retry",
                strategy=self.strategy,
                unit=unit,
                attempt=attempt,
                error=describe_exception(exc),
            )
        )
        delay = self.policy.backoff_seconds(self.seed, unit, attempt)
        if delay > 0.0:
            time.sleep(delay)
        return attempt
