"""Fault tolerance for the execution layer.

Deterministic fault injection (:mod:`repro.faults.plan`), seed-exact
retry with deterministic backoff jitter, and structured recovery
reporting (:mod:`repro.faults.retry`).  Configured through
``Config.fault_plan`` / ``Config.retry`` (env hook ``REPRO_FAULTS``);
zero overhead when disabled.  See the "Fault tolerance" section of
``docs/architecture.md`` for the site map and the degradation ladder.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    maybe_inject,
    parse_fault_plan,
)
from repro.faults.retry import (
    DEFAULT_RETRYABLE,
    FaultContext,
    RecoveryEvent,
    RetryPolicy,
    describe_exception,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "maybe_inject",
    "parse_fault_plan",
    "DEFAULT_RETRYABLE",
    "FaultContext",
    "RecoveryEvent",
    "RetryPolicy",
    "describe_exception",
]
