"""Exception hierarchy for the PTSBE reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subclasses are grouped per subsystem: circuit
construction, channel/CPTP validation, backend simulation, PTS sampling
and execution/scheduling.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class CircuitError(ReproError):
    """Invalid circuit construction (bad qubit index, arity mismatch, ...)."""


class GateError(CircuitError):
    """Invalid gate definition (non-unitary matrix, wrong shape, ...)."""


class ChannelError(ReproError):
    """Invalid quantum channel (not CPTP, wrong Kraus shapes, ...)."""


class NoiseModelError(ReproError):
    """Invalid noise-model binding (unknown gate, arity mismatch, ...)."""


class BackendError(ReproError):
    """Simulation backend failure (capacity exceeded, bad state, ...)."""


class CapacityError(BackendError):
    """The requested simulation does not fit in the configured memory."""


class ZeroProbabilityTrajectory(BackendError):
    """A prescribed Kraus combination annihilates the state.

    Pre-trajectory sampling works from *nominal* probabilities; for general
    (state-dependent) channels a sampled combination can turn out to have
    zero actual probability (e.g. two successive amplitude-damping decays
    on the same qubit).  Batched execution treats such trajectories as
    zero-weight, zero-shot results rather than failures.
    """


class SamplingError(ReproError):
    """Pre-trajectory sampling failure (empty support, bad band, ...)."""


class ExecutionError(ReproError):
    """Batched-execution failure (no trajectories, no measurements, ...)."""


class FaultError(ExecutionError):
    """A work unit exhausted its recovery options.

    Carries the failing unit's name and the attempt count; the triggering
    exception rides on ``__cause__`` so callers see the full chain
    (e.g. ``FaultError <- BackendError``).
    """

    def __init__(self, message: str, unit: str = "", attempts: int = 0):
        super().__init__(message)
        self.unit = unit
        self.attempts = attempts


class QECError(ReproError):
    """Quantum error-correction failure (bad code, undecodable syndrome)."""


class DataError(ReproError):
    """Dataset construction / serialization failure."""


class SweepError(ReproError):
    """Scenario sweep failure (bad spec, oracle machinery misuse)."""
