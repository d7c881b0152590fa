"""Dense statevector backend (the CUDA-Q ``nvidia`` backend stand-in).

:class:`StatevectorBackend` is the one-row view of
:class:`~repro.backends.batched_statevector.BatchedStatevectorBackend`,
held as ``self.stack``, the way :class:`~repro.backends.mps.MPSBackend`
is the one-row view of a ``BatchedMPSStack``.  There is one dense
engine: a serial preparation *is* the stack's plan walk at ``B = 1``
(fused kernels, the unitary-window early-out, renormalization), and a
serial draw *is* the stack's sampler on row 0 — one cumulative table,
then the shared inverse-CDF kernel of :mod:`repro.linalg.sampling` over
all shot uniforms at once.  Its cost is ``O(2**n + m)`` — *polynomial in the
state, trivial per shot* — which is exactly the asymmetry batched
execution exploits (paper §3: "sampling all m_alpha desired quantum
bitstrings at once, a task of mere polynomial complexity").  The
sampling tables are cached until the state moves, so repeated ``sample``
calls on a prepared trajectory pay the ``O(2**n)`` reduction once.

What the view adds is the single-state API the stack has no use for:
loading and copying a state, projective collapse, marginals,
expectations and fidelities.  The view reaches the stack only through
its private helpers (``_prepare``, ``_cumulative``, ``_draw_tables``,
``_draw``), never through a public stacked entry point.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.base import PureStateBackend
from repro.backends.batched_statevector import BatchedStatevectorBackend
from repro.backends.mps_sampler import check_inside
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, ZeroProbabilityTrajectory
from repro.linalg.reductions import scale_rows_inverse_sqrt
from repro.linalg.sampling import bits_from_indices
from repro.prescriptions import Prescriptions

__all__ = ["StatevectorBackend", "bits_from_indices"]


class StatevectorBackend(PureStateBackend):
    """Pure-state simulator storing all ``2**n`` amplitudes densely: row 0
    of a one-row :class:`BatchedStatevectorBackend`."""

    def __init__(self, num_qubits: int, config: Optional[Config] = None):
        self._config = config or DEFAULT_CONFIG
        self.stack = BatchedStatevectorBackend(num_qubits, 1, self._config)
        self.num_qubits = self.stack.num_qubits

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    @property
    def statevector(self) -> np.ndarray:
        """The amplitude array (a direct view of row 0 — do not mutate)."""
        return self.stack.statevector(0)

    @property
    def renorm_seconds(self) -> float:
        """Wall time the stack has spent renormalizing after noise windows."""
        return self.stack.renorm_seconds

    def set_statevector(self, state: np.ndarray, normalize: bool = False) -> None:
        """Load an externally prepared state (e.g. from a QEC encoder)."""
        state = np.asarray(state, dtype=self._config.dtype).reshape(-1)
        if state.shape[0] != 2**self.num_qubits:
            raise BackendError(
                f"state has dimension {state.shape[0]}, expected {2**self.num_qubits}"
            )
        if normalize:
            nrm = float(np.linalg.norm(state))
            if nrm == 0:
                raise BackendError("cannot normalize the zero vector")
            state = state / nrm
        self.reset()
        self.stack._stack[0] = state

    def reset(self) -> None:
        self.stack.reset(1)

    def release(self) -> None:
        """Drop the state and its sampling tables; :meth:`run_fixed` (or
        :meth:`reset`) allocates the next one.  Idempotent."""
        self.stack.release()

    def copy(self) -> "StatevectorBackend":
        out = StatevectorBackend(self.num_qubits, self._config)
        out.set_statevector(self.statevector)
        return out

    # ------------------------------------------------------------------ #
    # core primitives
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        self.stack.apply_matrix(matrix, targets)

    def run_fixed(self, circuit, kraus_choices=None) -> float:
        """The stack's plan walk on one row.

        Overrides :meth:`PureStateBackend.run_fixed`: the circuit's
        :class:`~repro.execution.plan.FusedPlan` is walked as one fused
        kernel pass per window, a unitary-mixture window multiplies its
        state-independent branch probability into the weight, and a window
        with a general-Kraus site renormalizes and multiplies in the
        window's squared norm — the same telescoping product of branch
        probabilities the per-site base loop accumulates.
        ``kraus_choices`` is one ``site_id -> kraus_index`` map or a
        one-row :class:`~repro.prescriptions.Prescriptions` table.  A
        prescription that annihilates the state raises
        :class:`~repro.errors.ZeroProbabilityTrajectory`.
        """
        rows = kraus_choices if isinstance(kraus_choices, Prescriptions) else [kraus_choices]
        if len(rows) != 1:
            raise BackendError(f"run_fixed prepares one row, got a {len(rows)}-row table")
        weights, alive = self.stack._prepare(circuit, rows)
        if not alive[0]:
            raise ZeroProbabilityTrajectory("the prescribed Kraus choices annihilate the state")
        return float(weights[0])

    def norm_squared(self) -> float:
        return float(self.stack.norms_squared()[0])

    def renormalize(self) -> float:
        n2 = self.norm_squared()
        if n2 <= 0:
            raise BackendError("cannot renormalize a zero state")
        # The stack's own scale helper: the divisor arithmetic of its
        # per-window renormalization at any state dtype.
        scale_rows_inverse_sqrt(self.stack._stack, np.array([n2]))
        self.stack._invalidate()
        return n2

    def _axes_first(self, qubits: Sequence[int]) -> np.ndarray:
        """Row 0 as a ``(2,) * n`` view with ``qubits`` moved to the front."""
        qubits = list(qubits)
        check_inside(qubits, self.num_qubits, "qubit", "register")
        psi = self.statevector.reshape((2,) * self.num_qubits)
        return np.moveaxis(psi, qubits, range(len(qubits)))

    def expectation_local(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """<psi|M|psi> without copying the full state twice."""
        psi = np.ascontiguousarray(self._axes_first(qubits)).reshape(2 ** len(qubits), -1)
        phi = np.asarray(matrix) @ psi
        return complex(np.sum(psi.conj() * phi))

    def expectation_pauli(self, pauli) -> float:
        """Expectation of a :class:`~repro.channels.pauli.PauliString`."""
        work = self.copy()
        for q in pauli.support():
            xi, zi = int(pauli.x[q]), int(pauli.z[q])
            if xi and zi:
                mat = np.array([[0, -1j], [1j, 0]])
            elif xi:
                mat = np.array([[0.0, 1.0], [1.0, 0.0]])
            else:
                mat = np.array([[1.0, 0.0], [0.0, -1.0]])
            work.apply_matrix(mat, [q])
        val = complex(np.vdot(self.statevector, work.statevector)) * pauli.phase_factor()
        return float(np.real(val))

    # ------------------------------------------------------------------ #
    # probabilities and sampling
    # ------------------------------------------------------------------ #
    def probabilities(self) -> np.ndarray:
        """|amplitude|**2 over all basis states (cached until mutation)."""
        return self.stack.probabilities(0)

    def cumulative(self, sizes: Optional[Sequence[int]] = None) -> Optional[np.ndarray]:
        """The cumulative distribution over final basis indices, built once
        per prepared state (the measurement tail runs here).  With
        ``sizes``, the shot counts :meth:`sample` will draw, it builds only
        the tables those draws read instead and returns ``None``: a draw
        under ``2**n`` shots reads the walked-order table and is relabelled
        through the tail (see :mod:`repro.backends.batched_statevector`)."""
        if sizes is None:
            return self.stack._cumulative()
        self.stack._draw_tables([sizes])
        return None

    def sample_indices(self, num_shots: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized bulk sampling of basis-state indices: all
        ``num_shots`` uniforms from ``rng`` in one draw, one inverse-CDF
        lookup."""
        return self.stack._draw([(0, num_shots, rng)])

    def sample(
        self, num_shots: int, qubits: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        return self.stack._draw([(0, num_shots, rng)], qubits)

    def measure_probability_one(self, qubit: int) -> float:
        """Marginal P(qubit = 1) of the current state."""
        check_inside([qubit], self.num_qubits, "qubit", "register")
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        return float(probs.sum(axis=tuple(a for a in range(self.num_qubits) if a != qubit))[1])

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project ``qubit`` onto ``outcome`` and renormalize.

        Returns the probability of that outcome.  Used by the QEC layer for
        explicit post-selection (e.g. magic-state distillation accepts only
        trivial syndromes).
        """
        psi = self._axes_first([qubit])
        p1 = float(np.sum(np.abs(psi[1]) ** 2))
        prob = p1 if outcome == 1 else 1.0 - p1
        if prob <= 0:
            raise BackendError(f"outcome {outcome} on qubit {qubit} has zero probability")
        psi[1 - outcome] = 0.0  # a view: writes row 0 in place
        self.renormalize()
        return prob

    def __repr__(self) -> str:
        return (
            f"StatevectorBackend(qubits={self.num_qubits}, dtype={self._config.dtype})"
        )
