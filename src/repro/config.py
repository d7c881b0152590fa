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

#: Looser tolerance for accumulated floating-point drift across deep circuits.
RTOL = 1e-7

#: Width-aware fusion auto-cap constants: circuits narrower than
#: :data:`FUSION_AUTO_WIDE_QUBITS` resolve ``fusion_max_qubits=None`` to
#: the narrow cap, wider ones to the wide cap.  The split point comes from
#: the brickwork measurements in the ROADMAP: at >= ~12 qubits a cap of 4
#: wins (fewer windows, hence fewer renormalization sweeps) despite the
#: ``2**k x 2**k`` variant matrices, while narrow circuits cannot amortize
#: the wider windows.
FUSION_AUTO_WIDE_QUBITS = 12
FUSION_AUTO_CAP_NARROW = 3
FUSION_AUTO_CAP_WIDE = 4


def _default_fusion() -> str:
    """Fusion default: the ``REPRO_FUSION`` env var, else ``"auto"``.

    The environment hook exists for CI matrix legs (a full test run with
    ``REPRO_FUSION=off`` asserts the unfused paths stay healthy) — library
    code should set ``Config.fusion`` explicitly instead.
    """
    return os.environ.get("REPRO_FUSION", "auto")


def _default_fault_plan():
    """Fault-injection default: parsed ``REPRO_FAULTS`` env, else ``None``.

    Same CI-hook pattern as fusion: the chaos-smoke CI leg runs a
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
    """Runtime knobs shared across the library.

    Attributes
    ----------
    dtype:
        Complex dtype of dense state storage. ``complex128`` (default) or
        ``complex64`` (the paper's choice on GPU).
    fusion:
        Gate/noise kernel fusion for the dense statevector strategies:
        ``"auto"`` (default — fuse adjacent operations into per-window
        matrices, see :mod:`repro.execution.plan`) or ``"off"`` (one
        kernel pass per circuit operation, the pre-fusion behavior).
        Both modes keep serial/vectorized/sharded execution bitwise
        identical to each other; fused and unfused runs agree on
        probabilities to floating-point accuracy but not bit for bit.
        Overridable via the ``REPRO_FUSION`` environment variable (read
        at :class:`Config` construction; used by the CI fusion-off leg).
    fusion_max_qubits:
        Largest qubit support of one fused window.  ``None`` (default)
        resolves width-aware per circuit via
        :meth:`resolved_fusion_max_qubits`: 3 for circuits narrower than
        12 qubits, 4 at 12 and above (per the brickwork measurements —
        fewer windows, hence fewer renormalization sweeps, at the price
        of ``2**k x 2**k`` fused matrices per Kraus variant).  An explicit
        integer always overrides the auto-resolution.  Windows of up to 3
        qubits run on the reshape-view fast paths of the gate kernel;
        wider ones use the generic batched-GEMM path (which also needs 3x
        instead of 2x workspace headroom per stacked row — see
        :class:`repro.execution.vectorized.VectorizedExecutor`).
    routing:
        Engine routing for ``run_ptsbe(strategy="auto")``: ``"auto"``
        (default — pure-Clifford circuits with Pauli-mixture noise go to
        the batched Pauli-frame engine, everything else to the dense
        dispatch; see :mod:`repro.execution.router`) or ``"dense"``
        (always the pre-router dense resolution, for bitwise back-compat
        of Clifford workloads previously served dense).  Explicit
        strategy names are never rerouted.
    atol:
        Absolute tolerance for verification checks.
    max_dense_qubits:
        Hard cap for dense statevector widths, protecting against an
        accidental 2**35 allocation (the paper needed 4x H100 for that).
    max_density_qubits:
        Hard cap for density-matrix widths (4**n scaling).
    default_bond_dim:
        Default maximum bond dimension of the MPS backend and of the
        trajectory-stacked tensornet strategy.
    svd_cutoff:
        Singular values below this (relative to the largest) are truncated
        by the MPS backend and the tensornet strategy.
    max_tensornet_qubits:
        Width cap for the batched tensor-network strategy — the router
        only auto-routes past-dense-cap circuits up to this width, and
        explicit ``strategy="tensornet"`` requests beyond it are refused
        at dispatch.  Linear in memory per site, so the cap is generous;
        it exists to keep a typo'd width from compiling a million-site
        schedule.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injecting
        deterministic faults at the instrumented execution sites (chaos
        testing).  ``None`` (default) disables injection entirely — the
        hook is a single branch.  Overridable via the ``REPRO_FAULTS``
        environment variable (read at :class:`Config` construction; see
        :func:`repro.faults.plan.parse_fault_plan` for the syntax).
    retry:
        The :class:`~repro.faults.retry.RetryPolicy` applied per work
        unit (one ``<strategy>/stack:a:b`` range of dedup groups).  Seed threading makes a retried unit
        re-emit bitwise-identical shots, so the default policy (3
        attempts, tiny exponential backoff with deterministic jitter) is
        always safe to leave on.
    """

    dtype: np.dtype = np.dtype(np.complex128)
    fusion: str = field(default_factory=_default_fusion)
    fusion_max_qubits: Optional[int] = None
    routing: str = "auto"
    atol: float = ATOL
    max_dense_qubits: int = 26
    max_density_qubits: int = 12
    default_bond_dim: int = 64
    svd_cutoff: float = 1e-12
    max_tensornet_qubits: int = 128
    fault_plan: Optional["FaultPlan"] = field(default_factory=_default_fault_plan)  # noqa: F821
    retry: "RetryPolicy" = field(default_factory=_default_retry)  # noqa: F821

    def real_dtype(self) -> np.dtype:
        """Matching real dtype for probability vectors."""
        return np.dtype(np.float32) if self.dtype == np.complex64 else np.dtype(np.float64)

    def resolved_fusion_max_qubits(self, num_qubits: int) -> int:
        """The fusion window cap in effect for a circuit of ``num_qubits``.

        An explicitly set :attr:`fusion_max_qubits` wins unconditionally;
        the ``None`` default resolves width-aware —
        :data:`FUSION_AUTO_CAP_WIDE` (4) for circuits of
        :data:`FUSION_AUTO_WIDE_QUBITS` (12) qubits or more,
        :data:`FUSION_AUTO_CAP_NARROW` (3) below.  The plan compiler and
        the stacked executor's workspace sizing both read the cap through
        here, so the two can never disagree about which kernel tier a run
        can reach.
        """
        if self.fusion_max_qubits is not None:
            return int(self.fusion_max_qubits)
        if num_qubits >= FUSION_AUTO_WIDE_QUBITS:
            return FUSION_AUTO_CAP_WIDE
        return FUSION_AUTO_CAP_NARROW

    def replace(self, **kwargs) -> "Config":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Library-wide default configuration.  Backends take an optional ``config``
#: argument and fall back to this instance.
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
