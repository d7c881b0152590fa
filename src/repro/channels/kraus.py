"""General quantum channels as Kraus-operator sets.

A :class:`KrausChannel` is the library's representation of the "noisy
operations" of paper Fig. 2: a set ``{K_i}`` satisfying the completely
positive trace-preserving condition ``sum_i K_i^dag K_i = I``.  Each Kraus
operator carries a *nominal probability* — exact for unitary-mixture
channels (state-independent), and the identity-state prior
``tr(K_i^dag K_i)/2^k`` otherwise — which is what Pre-Trajectory Sampling
uses to weight its strategic choices before any state exists.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.channels.unitary_mixture as unitary_mixture
from repro.config import ATOL
from repro.errors import ChannelError

__all__ = ["KrausChannel"]


class KrausChannel:
    """A CPTP map given by Kraus operators.

    Parameters
    ----------
    name:
        Identifier used in provenance metadata and noise-model binding.
    kraus_ops:
        Sequence of equal-shape square matrices ``(2**k, 2**k)``.
    check:
        Verify the CPTP condition on construction.
    """

    __slots__ = ("name", "kraus_ops", "num_qubits", "_nominal", "_dominant", "_mixture")

    def __init__(self, name: str, kraus_ops: Sequence[np.ndarray], check: bool = True):
        ops = [np.asarray(k, dtype=np.complex128) for k in kraus_ops]
        if not ops:
            raise ChannelError(f"channel {name!r}: needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (dim, dim):
                raise ChannelError(
                    f"channel {name!r}: all Kraus operators must be square of equal size"
                )
        nq = int(round(math.log2(dim)))
        if 2**nq != dim:
            raise ChannelError(f"channel {name!r}: dimension {dim} is not a power of two")
        if check:
            total = sum(k.conj().T @ k for k in ops)
            if not np.allclose(total, np.eye(dim), atol=1e-7):
                raise ChannelError(f"channel {name!r}: Kraus operators violate CPTP")
        self.name = name
        self.kraus_ops = tuple(ops)
        self.num_qubits = nq
        # Nominal probabilities: tr(K^dag K) / dim.  These sum to exactly 1
        # by the CPTP condition and equal the true application probability
        # for any input state when the channel is a unitary mixture.
        self._nominal = tuple(
            float(np.real(np.trace(k.conj().T @ k)) / dim) for k in ops
        )
        self._dominant = int(np.argmax(self._nominal))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.kraus_ops)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.kraus_ops[idx]

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    @property
    def nominal_probs(self) -> Tuple[float, ...]:
        """State-independent prior probability of each Kraus operator."""
        return self._nominal

    def dominant_index(self) -> int:
        """Index of the highest-nominal-probability ("no error") operator."""
        return self._dominant

    @property
    def mixture(self) -> Optional[unitary_mixture.UnitaryMixture]:
        """The channel as a unitary mixture, or ``None`` for general Kraus.

        :func:`~repro.channels.unitary_mixture.as_unitary_mixture` runs on
        first use and its result stays in the channel (a pickled channel
        carries it), so each channel object is analysed once.
        """
        try:
            return self._mixture
        except AttributeError:
            self._mixture = unitary_mixture.as_unitary_mixture(self)
            return self._mixture

    def is_trivial(self) -> bool:
        """True when the channel is the identity channel."""
        ident = np.eye(self.dim)
        return len(self.kraus_ops) == 1 and np.allclose(
            self.kraus_ops[0].conj().T @ self.kraus_ops[0], ident, atol=ATOL
        )

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def compose_unitary(self, unitary: np.ndarray, before: bool = True) -> "KrausChannel":
        """Absorb a unitary into the channel (``K_i U`` or ``U K_i``)."""
        u = np.asarray(unitary, dtype=np.complex128)
        ops = [k @ u if before else u @ k for k in self.kraus_ops]
        return KrausChannel(f"{self.name}*u", ops, check=False)

    def choi_matrix(self) -> np.ndarray:
        """Choi matrix ``sum_i |K_i>> <<K_i|`` (column-stacking convention)."""
        d = self.dim
        choi = np.zeros((d * d, d * d), dtype=np.complex128)
        for k in self.kraus_ops:
            vec = k.reshape(-1, order="F")
            choi += np.outer(vec, vec.conj())
        return choi

    def apply_to_density_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Exact action ``rho -> sum_i K_i rho K_i^dag`` (matching dims)."""
        rho = np.asarray(rho)
        out = np.zeros_like(rho, dtype=np.complex128)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out

    def pauli_twirl(self) -> "KrausChannel":
        """Pauli-twirled version of a single-qubit channel.

        Twirling conjugates the channel by uniformly random Paulis, which
        projects it onto a Pauli channel with the same Pauli-error rates —
        the "tailored error injection (Pauli twirling)" scenario of the
        paper's contribution list.
        """
        if self.num_qubits != 1:
            raise ChannelError("pauli_twirl implemented for single-qubit channels")
        from repro.channels.pauli import pauli_string_matrix

        paulis = [pauli_string_matrix(c) for c in "IXYZ"]
        # Pauli error rates from the Choi/chi diagonal: p_a = sum_i |tr(P_a K_i)|^2 / d^2
        rates = np.zeros(4)
        for a, p in enumerate(paulis):
            for k in self.kraus_ops:
                rates[a] += abs(np.trace(p.conj().T @ k)) ** 2 / 4.0
        rates = rates / rates.sum()
        ops = [math.sqrt(float(r)) * p for r, p in zip(rates, paulis) if r > 1e-15]
        return KrausChannel(f"{self.name}_twirled", ops, check=False)

    def __repr__(self) -> str:
        return (
            f"KrausChannel({self.name!r}, qubits={self.num_qubits}, "
            f"ops={len(self.kraus_ops)})"
        )
