"""Dense statevector backend (the CUDA-Q ``nvidia`` backend stand-in).

Implementation notes (following the HPC guides):

* Gate application never materializes a ``2**n x 2**n`` operator.  The
  state lives as a flat ``2**n`` array; ``apply_matrix`` delegates to the
  shared :func:`~repro.linalg.apply.apply_matrix_stack` kernel, which
  exposes the target axes with pure reshape views and updates them in one
  ``einsum`` pass — the same kernel the trajectory-stacked backend runs,
  which keeps serial and vectorized execution bitwise identical.
* Bulk sampling is fully vectorized: one cumulative sum of the probability
  vector, then the shared inverse-CDF kernel
  (:func:`repro.linalg.sampling.inverse_cdf_indices`) over all shot uniforms
  at once — Chen & Asau's cutpoint (guide-table) method, a ``2 * 2**n``-cell
  guide built once per call and ``O(1)`` expected work per shot.  Its cost is
  ``O(2**n + m)`` — *polynomial in the state, trivial per shot* — which is
  exactly the asymmetry batched execution exploits (paper §3: "sampling all
  m_alpha desired quantum bitstrings at once, a task of mere polynomial
  complexity").
* A probability-vector cache is kept between samples and invalidated on any
  state mutation, so repeated ``sample`` calls on a prepared trajectory pay
  the ``O(2**n)`` reduction once (the paper's prepare-once/sample-many).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.backends.base import PureStateBackend, validate_deferred_measurement
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import (
    BackendError,
    CapacityError,
    ExecutionError,
    ZeroProbabilityTrajectory,
)
from repro.linalg.apply import apply_compiled_stack, apply_matrix_stack
from repro.linalg.reductions import row_norms_squared, scale_rows_inverse_sqrt
from repro.linalg.sampling import bits_from_indices, inverse_cdf_indices

__all__ = ["StatevectorBackend", "bits_from_indices"]


class StatevectorBackend(PureStateBackend):
    """Pure-state simulator storing all ``2**n`` amplitudes densely."""

    def __init__(self, num_qubits: int, config: Optional[Config] = None):
        config = config or DEFAULT_CONFIG
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        if num_qubits > config.max_dense_qubits:
            raise CapacityError(
                f"{num_qubits} qubits exceeds the dense cap of {config.max_dense_qubits} "
                f"(a 2**{num_qubits} statevector; the paper needed multiple H100s past ~33)"
            )
        self.num_qubits = int(num_qubits)
        self._config = config
        self._dim = 2**self.num_qubits
        self._state = np.zeros(self._dim, dtype=config.dtype)
        self._state[0] = 1.0
        self._probs_cache: Optional[np.ndarray] = None
        self._cumsum_cache: Optional[np.ndarray] = None
        #: Cumulative wall time spent in post-noise-window renormalization
        #: (norm reduction + scale) across run_fixed calls — the benchmark
        #: counter behind the strategy table's renorm column.
        self.renorm_seconds = 0.0

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    @property
    def statevector(self) -> np.ndarray:
        """The amplitude array (a direct reference — do not mutate)."""
        return self._state

    def set_statevector(self, state: np.ndarray, normalize: bool = False) -> None:
        """Load an externally prepared state (e.g. from a QEC encoder)."""
        state = np.asarray(state, dtype=self._config.dtype).reshape(-1)
        if state.shape[0] != self._dim:
            raise BackendError(
                f"state has dimension {state.shape[0]}, expected {self._dim}"
            )
        if normalize:
            nrm = float(np.linalg.norm(state))
            if nrm == 0:
                raise BackendError("cannot normalize the zero vector")
            state = state / nrm
        self._state = state.copy()
        self._invalidate()

    def reset(self) -> None:
        self._state.fill(0)
        self._state[0] = 1.0
        self._invalidate()

    def copy(self) -> "StatevectorBackend":
        out = StatevectorBackend.__new__(StatevectorBackend)
        out.num_qubits = self.num_qubits
        out._config = self._config
        out._dim = self._dim
        out._state = self._state.copy()
        out._probs_cache = None
        out._cumsum_cache = None
        out.renorm_seconds = 0.0
        return out

    def _invalidate(self) -> None:
        self._probs_cache = None
        self._cumsum_cache = None

    # ------------------------------------------------------------------ #
    # core primitives
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        targets = list(targets)
        k = len(targets)
        dim_k = 2**k
        matrix = np.asarray(matrix)
        if matrix.shape != (dim_k, dim_k):
            raise BackendError(
                f"matrix shape {matrix.shape} incompatible with targets {targets}"
            )
        if any(t < 0 or t >= self.num_qubits for t in targets):
            raise BackendError(f"targets {targets} out of range")
        if len(set(targets)) != k:
            raise BackendError(f"duplicate targets {targets}")

        out = apply_matrix_stack(
            self._state.reshape(1, -1),
            matrix,
            targets,
            self.num_qubits,
            self._config.dtype,
        )
        self._state = out.reshape(-1)
        self._invalidate()

    def _apply_compiled(self, op) -> None:
        """Apply a pre-compiled operator, skipping per-call validation."""
        out = apply_compiled_stack(self._state.reshape(1, -1), op, self.num_qubits)
        self._state = out.reshape(-1)
        self._invalidate()

    def run_fixed(self, circuit, kraus_choices=None) -> float:
        """Plan-compiled trajectory preparation (fused when enabled).

        Overrides :meth:`PureStateBackend.run_fixed` to walk the circuit's
        :class:`~repro.execution.plan.FusedPlan` instead of its raw
        operation list: gate windows are single fused kernel passes, and
        each noise window applies the variant realizing this trajectory's
        Kraus choices.  A unitary-mixture window multiplies its
        state-independent branch probability into the weight; a window
        with a general-Kraus site renormalizes and multiplies the window's
        squared norm into the weight — the same telescoping product of
        branch probabilities the per-site base loop accumulates.  With
        ``Config.fusion="off"`` the plan is one step per operation, and a
        general-Kraus site's arithmetic is identical to the base
        implementation.
        """
        # Imported lazily: repro.execution imports this module at package
        # init, so a top-level import would be circular.
        from repro.execution.plan import GateStep, get_fused_plan

        if not circuit.frozen:
            raise ExecutionError("run_fixed requires a frozen circuit")
        if circuit.num_qubits > self.num_qubits:
            raise BackendError(
                f"circuit has {circuit.num_qubits} qubits, backend has {self.num_qubits}"
            )
        validate_deferred_measurement(circuit)
        plan = get_fused_plan(circuit, self._config)
        choices = kraus_choices or {}
        self.reset()
        weight = 1.0
        for step in plan.steps:
            if isinstance(step, GateStep):
                self._apply_compiled(step.op)
            else:
                key = step.key_for(choices)
                self._apply_compiled(step.variant(key))
                if step.unitary:
                    # Unitary-mixture window: the variant is unitary and
                    # the branch probability state-independent — no
                    # reduction, no rescale.
                    weight *= step.probability(key)
                    continue
                t0 = time.perf_counter()
                norm2 = self.norm_squared()
                if norm2 <= 1e-300:
                    raise ZeroProbabilityTrajectory(
                        f"Kraus window at sites {step.site_ids} annihilates the state"
                    )
                # Scale by the norm already in hand instead of renormalize()
                # (which would recompute the same reduction on the unchanged
                # state) — one reduction per window, through the shared
                # scale helper so the divisor arithmetic matches the
                # stacked backend bitwise at any state dtype.
                scale_rows_inverse_sqrt(self._state.reshape(1, -1), np.array([norm2]))
                self._invalidate()
                self.renorm_seconds += time.perf_counter() - t0
                weight *= norm2
        return weight

    def norm_squared(self) -> float:
        """<psi|psi> via the shared stack reduction (state as a 1-row stack).

        Routing through :func:`repro.linalg.reductions.row_norms_squared`
        is what makes serial and stacked renormalization bitwise identical
        *by construction*: the batched backend runs the very same
        row-independent reduction over its whole ``(B, 2**n)`` stack.
        """
        return float(row_norms_squared(self._state.reshape(1, -1))[0])

    def renormalize(self) -> float:
        n2 = self.norm_squared()
        if n2 <= 0:
            raise BackendError("cannot renormalize a zero state")
        # Shared scale helper (1-row stack): same divisor arithmetic as the
        # batched backend's per-window renormalization at any state dtype.
        scale_rows_inverse_sqrt(self._state.reshape(1, -1), np.array([n2]))
        self._invalidate()
        return n2

    def expectation_local(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """<psi|M|psi> without copying the full state twice."""
        qubits = list(qubits)
        k = len(qubits)
        psi = self._state.reshape((2,) * self.num_qubits)
        psi = np.moveaxis(psi, qubits, range(k))
        psi = np.ascontiguousarray(psi).reshape(2**k, -1)
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
        val = complex(np.vdot(self._state, work._state)) * pauli.phase_factor()
        return float(np.real(val))

    # ------------------------------------------------------------------ #
    # probabilities and sampling
    # ------------------------------------------------------------------ #
    def probabilities(self) -> np.ndarray:
        """|amplitude|**2 over all basis states (cached until mutation)."""
        if self._probs_cache is None:
            probs = np.abs(self._state) ** 2
            total = probs.sum()
            if float(total) <= 0:
                raise BackendError("state has zero norm")
            self._probs_cache = (probs / total).astype(np.float64, copy=False)
        return self._probs_cache

    def _cumulative(self) -> np.ndarray:
        """Cached cumulative distribution.

        The arithmetic (element-wise square/divide, cumulative sum, tail
        clamp) deliberately mirrors
        :meth:`BatchedStatevectorBackend.cumulative_stack` row for row, so
        serial and stacked sampling stay bitwise identical.
        """
        if self._cumsum_cache is None:
            probs = np.abs(self._state) ** 2
            total = probs.sum()
            if float(total) <= 0:
                raise BackendError("state has zero norm")
            cum = np.cumsum((probs / total).astype(np.float64, copy=False))
            # Clamp the tail so no uniform falls off the end.
            cum[-1] = 1.0
            self._cumsum_cache = cum
        return self._cumsum_cache

    def sample_indices(self, num_shots: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized bulk sampling of basis-state indices.

        All ``num_shots`` uniforms come from ``rng`` in one draw (the
        ``(seed, trajectory_id)`` determinism contract) and go through one
        inverse-CDF lookup.
        """
        if num_shots < 0:
            raise BackendError("num_shots must be >= 0")
        if num_shots == 0:
            return np.empty(0, dtype=np.int64)
        cum = self._cumulative()
        r = rng.random(num_shots)
        return inverse_cdf_indices(cum, r).astype(np.int64, copy=False)

    def sample(
        self, num_shots: int, qubits: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        indices = self.sample_indices(num_shots, rng)
        return bits_from_indices(indices, qubits, self.num_qubits)

    def measure_probability_one(self, qubit: int) -> float:
        """Marginal P(qubit = 1) of the current state."""
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        return float(probs.sum(axis=tuple(a for a in range(self.num_qubits) if a != qubit))[1])

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project ``qubit`` onto ``outcome`` and renormalize.

        Returns the probability of that outcome.  Used by the QEC layer for
        explicit post-selection (e.g. magic-state distillation accepts only
        trivial syndromes).
        """
        psi = self._state.reshape((2,) * self.num_qubits)
        psi = np.moveaxis(psi, [qubit], [0])
        p1 = float(np.sum(np.abs(psi[1]) ** 2))
        prob = p1 if outcome == 1 else 1.0 - p1
        if prob <= 0:
            raise BackendError(f"outcome {outcome} on qubit {qubit} has zero probability")
        psi[1 - outcome] = 0.0
        self._state = np.ascontiguousarray(np.moveaxis(psi, [0], [qubit])).reshape(-1)
        self.renormalize()
        return prob

    def fidelity_with(self, other: "StatevectorBackend") -> float:
        """|<psi|phi>|**2 against another backend of equal width."""
        if other.num_qubits != self.num_qubits:
            raise BackendError("fidelity requires equal qubit counts")
        return float(abs(complex(np.vdot(self._state, other._state))) ** 2)

    def __repr__(self) -> str:
        return (
            f"StatevectorBackend(qubits={self.num_qubits}, dtype={self._config.dtype})"
        )
