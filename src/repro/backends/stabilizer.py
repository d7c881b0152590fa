"""Aaronson-Gottesman CHP stabilizer tableau simulator.

The Clifford-only comparator the paper positions PTSBE against (§2.3: Stim
and friends).  Tracks n stabilizer + n destabilizer generators as binary
symplectic rows with sign bits; Clifford gates are O(n) column updates and
measurements are O(n^2) row sums.

Supported gates: h, s, sdg, x, y, z, cx, cz, swap, sx, sxdg, sy, sydg
(the square-root Paulis are Clifford, which is what makes the MSD circuit's
*structure* Clifford even though magic-state inputs are not).  Non-Clifford
gates raise :class:`BackendError` — by design; that limitation is the gap
PTSBE fills.

Noise: unitary-mixture channels whose unitaries are Pauli strings can be
sampled per-trajectory (:meth:`StabilizerBackend.apply_pauli_mixture`),
matching the Clifford+Pauli-noise restriction of Stim-style tools.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channels.kraus import KrausChannel
from repro.channels.pauli import PauliString
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, MeasureOp, NoiseOp
from repro.errors import BackendError

__all__ = ["StabilizerBackend"]


class StabilizerBackend:
    """CHP tableau over ``num_qubits`` qubits.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers.  ``x``/``z``
    are (2n, n) uint8 bit matrices, ``r`` the (2n,) sign bits.
    """

    def __init__(self, num_qubits: int):
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.reset()

    def reset(self) -> None:
        n = self.num_qubits
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[:n] = np.eye(n, dtype=np.uint8)  # destabilizer i = X_i
        self.z[n:] = np.eye(n, dtype=np.uint8)  # stabilizer i = Z_i

    def copy(self) -> "StabilizerBackend":
        out = StabilizerBackend.__new__(StabilizerBackend)
        out.num_qubits = self.num_qubits
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        return out

    # ------------------------------------------------------------------ #
    # primitive gates (vectorized over all 2n rows)
    # ------------------------------------------------------------------ #
    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self.s(q)
        self.zgate(q)

    def xgate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def ygate(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def zgate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def cx(self, control: int, target: int) -> None:
        self.r ^= self.x[:, control] & self.z[:, target] & (
            self.x[:, target] ^ self.z[:, control] ^ 1
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)

    def sx(self, q: int) -> None:  # sqrt(X) = H S H (exactly)
        self.h(q)
        self.s(q)
        self.h(q)

    def sxdg(self, q: int) -> None:
        self.h(q)
        self.sdg(q)
        self.h(q)

    def sy(self, q: int) -> None:  # sqrt(Y) ~ X . H as a conjugation
        self.h(q)
        self.xgate(q)

    def sydg(self, q: int) -> None:
        self.xgate(q)
        self.h(q)

    _GATE_DISPATCH = {
        "h": "h",
        "s": "s",
        "sdg": "sdg",
        "x": "xgate",
        "y": "ygate",
        "z": "zgate",
        "i": None,
        "cx": "cx",
        "cz": "cz",
        "swap": "swap",
        "sx": "sx",
        "sxdg": "sxdg",
        "sy": "sy",
        "sydg": "sydg",
    }

    def apply_gate_by_name(self, name: str, qubits: Sequence[int]) -> None:
        method = self._GATE_DISPATCH.get(name.lower(), "missing")
        if method == "missing":
            raise BackendError(
                f"gate {name!r} is not Clifford (or not supported by the tableau backend)"
            )
        if method is None:
            return
        getattr(self, method)(*qubits)

    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply a Pauli string (e.g. a sampled noise operator)."""
        for q in pauli.support():
            xi, zi = int(pauli.x[q]), int(pauli.z[q])
            if xi and zi:
                self.ygate(q)
            elif xi:
                self.xgate(q)
            else:
                self.zgate(q)

    # ------------------------------------------------------------------ #
    # row arithmetic (Aaronson-Gottesman "rowsum")
    # ------------------------------------------------------------------ #
    @staticmethod
    def _g_vector(x1, z1, x2, z2) -> np.ndarray:
        """Phase exponent contribution of multiplying single-qubit Paulis."""
        x1 = x1.astype(np.int8)
        z1 = z1.astype(np.int8)
        x2 = x2.astype(np.int8)
        z2 = z2.astype(np.int8)
        # Cases per Aaronson-Gottesman:
        #   (0,0): 0; (1,1): z2 - x2; (1,0): z2*(2*x2 - 1); (0,1): x2*(1 - 2*z2)
        out = np.zeros_like(x1, dtype=np.int64)
        both = (x1 == 1) & (z1 == 1)
        out = np.where(both, z2 - x2, out)
        xonly = (x1 == 1) & (z1 == 0)
        out = np.where(xonly, z2 * (2 * x2 - 1), out)
        zonly = (x1 == 0) & (z1 == 1)
        out = np.where(zonly, x2 * (1 - 2 * z2), out)
        return out

    def _product_sign(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(x, z, sign bit)`` of the product of tableau ``rows`` in order.

        The rows must commute pairwise (any set of stabilizer rows does),
        so every partial product commutes with the next row and each
        sequential Aaronson-Gottesman rowsum has an even phase: the sign is
        the XOR of the rows' signs and of one bit per row, ``g == 2 (mod
        4)`` against the prefix product before it.  All prefixes come from
        one ``bitwise_xor.accumulate`` and all ``g`` from one call.
        """
        if not len(rows):
            identity = np.zeros(self.num_qubits, dtype=np.uint8)
            return identity, identity.copy(), 0
        x, z = self.x[rows], self.z[rows]
        px = np.bitwise_xor.accumulate(x, axis=0)
        pz = np.bitwise_xor.accumulate(z, axis=0)
        g = int(self._g_vector(x[1:], z[1:], px[:-1], pz[:-1]).sum())
        phase = (2 * int(self.r[rows].sum()) + g) % 4
        return px[-1], pz[-1], phase // 2

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def _collapse(self, qubit: int, p: int, signs: Optional[np.ndarray] = None) -> None:
        """Random-outcome update with stabilizer ``p`` as the pivot: rowsum
        ``p`` into every other row that anticommutes with ``Z_qubit``, move
        it to destabilizer ``p - n`` and make row ``p`` ``+Z_qubit`` (the
        caller sets its sign).  ``signs`` (``(2n, symbols)`` bits), when
        given, is each row's sign as a function of earlier random outcomes,
        and follows the rows."""
        n = self.num_qubits
        # rowsum(i, p) for every other row i that anticommutes with
        # Z_qubit; row p itself does not change, so all at once.
        rows = np.flatnonzero(self.x[:, qubit])
        rows = rows[rows != p]
        g = self._g_vector(self.x[p], self.z[p], self.x[rows], self.z[rows]).sum(axis=1)
        phase = (2 * self.r[rows].astype(np.int64) + 2 * int(self.r[p]) + g) % 4
        self.x[rows] ^= self.x[p]
        self.z[rows] ^= self.z[p]
        self.r[rows] = phase == 2
        self.x[p - n] = self.x[p]
        self.z[p - n] = self.z[p]
        self.r[p - n] = self.r[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, qubit] = 1
        self.r[p] = 0
        if signs is not None:
            signs[rows] ^= signs[p]
            signs[p - n] = signs[p]
            signs[p] = 0

    def measure(
        self,
        qubit: int,
        rng: Optional[np.random.Generator] = None,
        force: Optional[int] = None,
    ) -> Tuple[int, bool]:
        """Measure ``qubit`` in the Z basis; return ``(outcome, was_random)``.

        ``force`` pins the outcome to 0/1 *when the measurement is random*;
        deterministic measurements ignore it, since their outcome is fixed
        by the state.
        """
        n = self.num_qubits
        stab_rows = np.flatnonzero(self.x[n:, qubit])
        if stab_rows.size > 0:
            if force is not None:
                outcome = int(force)
            else:
                if rng is None:
                    raise BackendError("random measurement requires an rng")
                outcome = int(rng.integers(0, 2))
            p = int(stab_rows[0]) + n
            self._collapse(qubit, p)
            self.r[p] = outcome
            return outcome, True
        # Deterministic outcome: the product of the stabilizer rows indexed
        # by the destabilizers that anticommute with Z_qubit.
        return self._product_sign(np.flatnonzero(self.x[:n, qubit]) + n)[2], False

    def affine_outcomes(
        self, qubits: Sequence[int]
    ) -> Tuple[np.ndarray, List[int], np.ndarray]:
        """The outcome space of measuring ``qubits`` in order, in one pass.

        Returns ``(reference, random_positions, generators)``: the outcomes
        are uniform over ``reference XOR span(generators)``, with one
        ``(k,)`` generator per random measurement.  Each row's sign is
        carried as an affine function of the random outcomes so far — its
        constant in ``r``, its coefficients in a bit matrix — so a random
        measurement opens a fresh symbol and a deterministic one reads its
        outcome as a function of the earlier symbols.  Which measurements
        are random depends on the x/z bits alone, so ``reference`` is the
        run that forces every random outcome to 0 and generator ``j`` the
        change when outcome ``j`` alone is forced to 1.  Collapses the
        tableau.
        """
        n, k = self.num_qubits, len(qubits)
        signs = np.zeros((2 * n, k), dtype=np.uint8)
        reference = np.zeros(k, dtype=np.uint8)
        coefficients = np.zeros((k, k), dtype=np.uint8)
        random_positions: List[int] = []
        for pos, qubit in enumerate(qubits):
            stab_rows = np.flatnonzero(self.x[n:, qubit])
            if stab_rows.size > 0:
                p = int(stab_rows[0]) + n
                self._collapse(qubit, p, signs)
                signs[p, len(random_positions)] = 1
                coefficients[pos, len(random_positions)] = 1
                random_positions.append(pos)
            else:
                rows = np.flatnonzero(self.x[:n, qubit]) + n
                reference[pos] = self._product_sign(rows)[2]
                coefficients[pos] = np.bitwise_xor.reduce(signs[rows], axis=0)
        generators = np.ascontiguousarray(coefficients[:, : len(random_positions)].T)
        return reference, random_positions, generators

    def measure_many(
        self,
        qubits: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        forces: Optional[Dict[int, int]] = None,
    ) -> Tuple[List[int], List[bool]]:
        """Measure qubits in order; returns outcomes and was-random flags."""
        outcomes: List[int] = []
        random_flags: List[bool] = []
        forces = forces or {}
        for pos, q in enumerate(qubits):
            out, was_random = self.measure(q, rng=rng, force=forces.get(pos))
            outcomes.append(out)
            random_flags.append(was_random)
        return outcomes, random_flags

    # ------------------------------------------------------------------ #
    # expectation / stabilizer queries
    # ------------------------------------------------------------------ #
    def expectation_pauli(self, pauli: PauliString) -> int:
        """<P> for a Pauli string: +1/-1 if stabilized, else 0."""
        n = self.num_qubits
        target_x = pauli.x.astype(np.uint8)
        target_z = pauli.z.astype(np.uint8)
        # P is in the stabilizer group (up to sign) iff it is the product of
        # the stabilizers S_i whose destabilizer anticommutes with P.
        anti = ((self.x[:n] & target_z) ^ (self.z[:n] & target_x)).sum(axis=1) % 2
        hx, hz, hr = self._product_sign(np.flatnonzero(anti) + n)
        if not (np.array_equal(hx, target_x) and np.array_equal(hz, target_z)):
            return 0
        # Compare signs: hr gives the sign of the product as an X-Z ordered
        # phase-free word; account for pauli's own phase convention.
        sign_target = pauli.phase_factor()
        if abs(sign_target.imag) > 1e-12:
            raise BackendError("expectation of a non-Hermitian Pauli is undefined")
        # Tableau rows represent Hermitian Paulis (Y where x=z=1) with sign
        # (-1)^r, so the comparison is a pure +/-1 sign match.
        product_sign = -1.0 if hr else 1.0
        return int(round(product_sign * np.real(sign_target)))

    # ------------------------------------------------------------------ #
    # circuit execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        circuit: Circuit,
        rng: Optional[np.random.Generator] = None,
        kraus_choices: Optional[Dict[int, int]] = None,
    ) -> None:
        """Execute gates + (Pauli-mixture) noise; measurements are deferred.

        With ``kraus_choices`` the noise sites are pinned (PTS semantics);
        otherwise each site is sampled from its nominal probabilities using
        ``rng`` (conventional trajectory semantics).
        """
        self.reset()
        for op in circuit:
            if isinstance(op, GateOp):
                self.apply_gate_by_name(op.gate.name, op.qubits)
            elif isinstance(op, NoiseOp):
                idx = None
                if kraus_choices is not None:
                    # PTS semantics: unpinned sites take the dominant branch.
                    idx = kraus_choices.get(op.site_id, op.channel.dominant_index())
                self.apply_pauli_mixture(op.channel, op.qubits, rng=rng, index=idx)

    def apply_pauli_mixture(
        self,
        channel: KrausChannel,
        qubits: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        index: Optional[int] = None,
    ) -> int:
        """Apply one branch of a Pauli-mixture channel; returns the index."""
        mixture = channel.mixture
        if mixture is None:
            raise BackendError(
                f"channel {channel.name!r} is not a unitary mixture; the tableau "
                "backend requires Pauli-mixture noise (the Stim-style restriction)"
            )
        if index is None:
            if rng is None:
                raise BackendError("sampling a noise branch requires an rng")
            index = int(rng.choice(len(mixture.probs), p=np.asarray(mixture.probs)))
        local = mixture.paulis[index]
        if local is None:
            raise BackendError(
                f"branch {index} of {channel.name!r} is not a Pauli string; "
                "the tableau backend requires Pauli noise"
            )
        # Embed the local Pauli into the full register.
        full = PauliString.identity(self.num_qubits)
        for pos, q in enumerate(qubits):
            full.x[q] = local.x[pos]
            full.z[q] = local.z[pos]
        self.apply_pauli(full)
        return index

    def sample(
        self,
        num_shots: int,
        qubits: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Shot sampling by measuring fresh tableau copies (O(m n^2)).

        This is deliberately the slow single-shot path; bulk Clifford
        sampling lives in :mod:`repro.backends.pauli_frame`.
        """
        out = np.empty((num_shots, len(qubits)), dtype=np.uint8)
        for shot in range(num_shots):
            work = self.copy()
            outcomes, _ = work.measure_many(qubits, rng=rng)
            out[shot] = outcomes
        return out

    def stabilizer_generators(self) -> List[PauliString]:
        """Current stabilizer generators as phase-tracked Pauli strings."""
        n = self.num_qubits
        gens = []
        for i in range(n, 2 * n):
            # Row operator = (-1)^r (x) sigma(x,z) with sigma(1,1) = Y = iXZ,
            # so in the X-Z word convention the phase is 2r + (#Y).
            ys = int(np.count_nonzero(self.x[i] & self.z[i]))
            phase = (2 * int(self.r[i]) + ys) % 4
            gens.append(PauliString(self.x[i].copy(), self.z[i].copy(), phase))
        return gens

    def __repr__(self) -> str:
        return f"StabilizerBackend(qubits={self.num_qubits})"
