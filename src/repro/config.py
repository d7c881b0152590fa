"""Global configuration for the PTSBE reproduction library.

The paper's statevector backend stores ``2**(n+1)`` float32 values per
state (i.e. ``2**n`` complex64 amplitudes); we default to complex128 for
test-grade numerics but expose the paper's precision as an option.

Configuration is intentionally a tiny, explicit object (no hidden global
mutation by library code).  A module-level default instance is provided for
convenience, and :func:`configure` mutates it in a controlled way.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Tolerance used for unitarity / CPTP / normalization verification.
ATOL = 1e-9


def _default_fault_plan():
    """Fault-injection default: parsed ``REPRO_FAULTS`` env, else ``None``.

    The library's one environment hook: the chaos-smoke CI leg runs a
    whole sweep under an injected plan via the environment; library code
    should set ``Config.fault_plan`` explicitly instead.  The import is
    deferred because :mod:`repro.faults` imports back into the error and
    rng layers at module load.
    """
    raw = os.environ.get("REPRO_FAULTS", "")
    if not raw:
        return None
    from repro.faults.plan import parse_fault_plan

    return parse_fault_plan(raw)


def _default_retry():
    """Default per-work-unit retry policy (see ``repro.faults.retry``)."""
    from repro.faults.retry import RetryPolicy

    return RetryPolicy()


@dataclass
class Config:
    """A run's policy: the dense state's storage and width cap, and how
    faults are injected and retried.

    Engine-specific settings live with their engine: the MPS truncation
    is the ``BackendSpec.mps(max_bond=..., cutoff=...)`` options (defaults
    on :class:`~repro.backends.mps.BatchedMPSStack`), and the tensornet
    and density-matrix width caps are module constants
    (:data:`repro.execution.router.MAX_TENSORNET_QUBITS`,
    :data:`repro.backends.density_matrix.MAX_DENSITY_QUBITS`).

    Attributes
    ----------
    dtype:
        Complex dtype of dense state storage. ``complex128`` (default) or
        ``complex64`` (the paper's choice on GPU).
    max_dense_qubits:
        Hard cap for dense statevector widths, protecting against an
        accidental 2**35 allocation (the paper needed 4x H100 for that).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injecting
        deterministic faults at the instrumented execution sites (chaos
        testing).  ``None`` (default) disables injection entirely — the
        hook is a single branch.  Overridable via the ``REPRO_FAULTS``
        environment variable (read at :class:`Config` construction; see
        :func:`repro.faults.plan.parse_fault_plan` for the syntax).
    retry:
        The :class:`~repro.faults.retry.RetryPolicy` applied per work
        unit (one ``<strategy>/stack:a:b`` range of dedup groups).  Seed
        threading makes a retried unit re-emit bitwise-identical shots, so
        the default policy (3 attempts, tiny exponential backoff) is always
        safe to leave on.
    """

    dtype: np.dtype = np.dtype(np.complex128)
    max_dense_qubits: int = 26
    fault_plan: Optional["FaultPlan"] = field(default_factory=_default_fault_plan)  # noqa: F821
    retry: "RetryPolicy" = field(default_factory=_default_retry)  # noqa: F821

    def replace(self, **kwargs) -> "Config":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Library-wide default configuration.  The dense backends take an optional
#: ``config`` argument and fall back to this instance.
DEFAULT_CONFIG = Config()


def configure(**kwargs) -> Config:
    """Update fields of :data:`DEFAULT_CONFIG` in place and return it.

    >>> configure(dtype=np.dtype(np.complex64))  # doctest: +ELLIPSIS
    Config(...)
    """
    for key, value in kwargs.items():
        if not hasattr(DEFAULT_CONFIG, key):
            raise AttributeError(f"unknown config field {key!r}")
        setattr(DEFAULT_CONFIG, key, value)
    return DEFAULT_CONFIG
