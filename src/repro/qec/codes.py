"""Stabilizer / CSS code machinery with machine-verified properties.

:class:`CSSCode` takes X- and Z-check matrices, verifies commutation,
computes ``k`` from ranks, derives logical operators from nullspaces, and
can brute-force its distance — every concrete code in the library is
verified by these routines in the test suite rather than trusted from a
transcription.

Concrete codes here: the [[7,1,3]] Steane code (the paper's 35-qubit MSD
building block), classical repetition codes (pedagogical), and rotated
surface codes of odd distance (a verified d=5 alternative).  The
triangular color-code family lives in :mod:`repro.qec.color_codes`; the
non-CSS [[5,1,3]] perfect code in :mod:`repro.qec.five_qubit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channels.pauli import PauliString
from repro.errors import QECError
from repro.qec import gf2

__all__ = ["CSSCode", "steane_code", "repetition_code", "rotated_surface_code"]


class CSSCode:
    """A Calderbank-Shor-Steane code defined by its X/Z check matrices.

    Parameters
    ----------
    hx:
        (r_x, n) GF(2) matrix; row i is the support of X-stabilizer i.
    hz:
        (r_z, n) matrix of Z-stabilizer supports.
    name:
        Cosmetic identifier.

    Raises :class:`QECError` unless every X-check commutes with every
    Z-check (``hx @ hz.T == 0 (mod 2)``).
    """

    def __init__(self, hx: np.ndarray, hz: np.ndarray, name: str = "css"):
        self.hx = np.asarray(hx, dtype=np.uint8) % 2
        self.hz = np.asarray(hz, dtype=np.uint8) % 2
        if self.hx.ndim != 2 or self.hz.ndim != 2 or self.hx.shape[1] != self.hz.shape[1]:
            raise QECError("hx and hz must be 2-D with equal column counts")
        self.n = int(self.hx.shape[1])
        self.name = name
        if np.any((self.hx @ self.hz.T) % 2):
            raise QECError(f"{name}: X and Z checks do not commute")
        self.rank_x = gf2.rank(self.hx)
        self.rank_z = gf2.rank(self.hz)
        self.k = self.n - self.rank_x - self.rank_z
        if self.k <= 0:
            raise QECError(f"{name}: no logical qubits (k={self.k})")
        self._logical_x, self._logical_z = self._derive_logicals()

    # ------------------------------------------------------------------ #
    # logical operators
    # ------------------------------------------------------------------ #
    def _derive_logicals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Symplectically paired logical X/Z supports, one row per logical.

        Logical X candidates live in ``ker(hz) \\ rowspace(hx)``;
        logical Z in ``ker(hx) \\ rowspace(hz)``.  Rows are then paired so
        ``Lx_i . Lz_j = delta_ij (mod 2)``.
        """
        def quotient_basis(kernel: np.ndarray, modulo: np.ndarray) -> np.ndarray:
            rows: List[np.ndarray] = []
            acc = modulo.copy()
            base_rank = gf2.rank(acc)
            for v in kernel:
                cand = np.vstack([acc, v[None, :]])
                r = gf2.rank(cand)
                if r > base_rank:
                    rows.append(v)
                    acc = cand
                    base_rank = r
                if len(rows) == self.k:
                    break
            return np.array(rows, dtype=np.uint8)

        lx = quotient_basis(gf2.nullspace(self.hz), self.hx)
        lz = quotient_basis(gf2.nullspace(self.hx), self.hz)
        if lx.shape[0] != self.k or lz.shape[0] != self.k:
            raise QECError(f"{self.name}: failed to derive {self.k} logical pairs")
        # Pair: make the symplectic Gram matrix M = lx lz^T the identity.
        gram = (lx @ lz.T) % 2
        # Gaussian-eliminate gram by transforming lz (row ops on lz mirror
        # column ops on gram^T).
        m = gram.copy()
        lz = lz.copy()
        for i in range(self.k):
            pivot = np.nonzero(m[i, i:])[0]
            if pivot.size == 0:
                raise QECError(f"{self.name}: degenerate logical pairing")
            j = i + int(pivot[0])
            if j != i:
                lz[[i, j]] = lz[[j, i]]
                m[:, [i, j]] = m[:, [j, i]]
            for j2 in range(self.k):
                if j2 != i and m[i, j2]:
                    lz[j2] ^= lz[i]
                    m[:, j2] ^= m[:, i]
        if not np.array_equal((lx @ lz.T) % 2, np.eye(self.k, dtype=np.uint8)):
            raise QECError(f"{self.name}: logical pairing failed")
        return lx, lz

    def logical_x_support(self, i: int = 0) -> np.ndarray:
        return self._logical_x[i]

    def logical_z_support(self, i: int = 0) -> np.ndarray:
        return self._logical_z[i]

    def logical_x(self, i: int = 0) -> PauliString:
        x = self._logical_x[i]
        return PauliString(x, np.zeros(self.n, dtype=np.uint8))

    def logical_z(self, i: int = 0) -> PauliString:
        z = self._logical_z[i]
        return PauliString(np.zeros(self.n, dtype=np.uint8), z)

    # ------------------------------------------------------------------ #
    # stabilizers as Pauli strings
    # ------------------------------------------------------------------ #
    def x_stabilizers(self) -> List[PauliString]:
        return [PauliString(row, np.zeros(self.n, dtype=np.uint8)) for row in self.hx]

    def z_stabilizers(self) -> List[PauliString]:
        return [PauliString(np.zeros(self.n, dtype=np.uint8), row) for row in self.hz]

    def stabilizers(self) -> List[PauliString]:
        return self.x_stabilizers() + self.z_stabilizers()

    # ------------------------------------------------------------------ #
    # distance (brute force, CSS shortcut)
    # ------------------------------------------------------------------ #
    def distance(self, max_weight: Optional[int] = None) -> int:
        """Exact code distance by exhaustive search up to ``max_weight``.

        For CSS codes the distance is achieved by a pure-X or pure-Z
        logical, so the search is over binary vectors only:
        ``d = min weight over (ker hz \\ rs hx) union (ker hx \\ rs hz)``.
        Raises if no logical is found within ``max_weight``.
        """
        cap = max_weight if max_weight is not None else self.n
        for w in range(1, cap + 1):
            for support in combinations(range(self.n), w):
                v = np.zeros(self.n, dtype=np.uint8)
                v[list(support)] = 1
                if not np.any((self.hz @ v) % 2) and not gf2.row_space_contains(self.hx, v):
                    return w
                if not np.any((self.hx @ v) % 2) and not gf2.row_space_contains(self.hz, v):
                    return w
        raise QECError(f"{self.name}: no logical operator of weight <= {cap}")

    def verify_distance_at_least(self, d: int) -> bool:
        """True when no logical operator has weight < d."""
        for w in range(1, d):
            for support in combinations(range(self.n), w):
                v = np.zeros(self.n, dtype=np.uint8)
                v[list(support)] = 1
                if not np.any((self.hz @ v) % 2) and not gf2.row_space_contains(self.hx, v):
                    return False
                if not np.any((self.hx @ v) % 2) and not gf2.row_space_contains(self.hz, v):
                    return False
        return True

    # ------------------------------------------------------------------ #
    # syndromes
    # ------------------------------------------------------------------ #
    def syndrome_of(self, error: PauliString) -> np.ndarray:
        """Syndrome bits: X-checks (detect Z components), then Z-checks.

        Bit ``i`` is 1 when the error anticommutes with stabilizer ``i``.
        """
        if error.num_qubits != self.n:
            raise QECError("error acts on wrong number of qubits")
        sx = (self.hx @ error.z) % 2  # X-stabilizers anticommute with Z parts
        sz = (self.hz @ error.x) % 2  # Z-stabilizers anticommute with X parts
        return np.concatenate([sx, sz]).astype(np.uint8)

    def __repr__(self) -> str:
        return f"CSSCode({self.name!r}, [[{self.n},{self.k}]])"


# ---------------------------------------------------------------------- #
# concrete codes
# ---------------------------------------------------------------------- #
def steane_code() -> CSSCode:
    """The [[7,1,3]] Steane code (Hamming-code CSS construction).

    This is the distance-3 triangular color code — the code whose 5-block
    encoding gives the paper's 35-qubit MSD circuit.
    """
    h = np.array(
        [
            [0, 0, 0, 1, 1, 1, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [1, 0, 1, 0, 1, 0, 1],
        ],
        dtype=np.uint8,
    )
    return CSSCode(h, h, name="steane")


def repetition_code(n: int) -> CSSCode:
    """The [[n,1,1]] bit-flip repetition code (Z-checks only, d_x = 1).

    Pedagogical: corrects X errors up to weight (n-1)/2, none of the Z
    errors — a minimal decoder-training workload.
    """
    if n < 2:
        raise QECError("repetition code needs n >= 2")
    hz = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        hz[i, i] = 1
        hz[i, i + 1] = 1
    # No X checks: hx is the empty matrix with n columns.
    hx = np.zeros((0, n), dtype=np.uint8)
    return CSSCode(hx, hz, name=f"repetition_{n}")


def rotated_surface_code(d: int) -> CSSCode:
    """The rotated surface code [[d*d, 1, d]] for odd ``d``.

    Qubits on a d x d grid (row-major).  Bulk plaquettes checkerboard
    between X and Z type; boundary half-plaquettes follow the standard
    rotated layout (X halves on top/bottom rows, Z halves on left/right
    columns).  Distance is verified in tests for d = 3, 5.
    """
    if d < 3 or d % 2 == 0:
        raise QECError("rotated surface code requires odd d >= 3")

    def q(r: int, c: int) -> int:
        return r * d + c

    x_checks: List[List[int]] = []
    z_checks: List[List[int]] = []
    # Bulk + boundary plaquettes are indexed by corner (r, c) of each 2x2
    # cell of the (d+1) x (d+1) dual grid.
    for r in range(-1, d):
        for c in range(-1, d):
            cells = [
                (r, c),
                (r, c + 1),
                (r + 1, c),
                (r + 1, c + 1),
            ]
            members = [q(rr, cc) for rr, cc in cells if 0 <= rr < d and 0 <= cc < d]
            if len(members) < 2:
                continue
            # Checkerboard: X-type when (r + c) is even.
            is_x = (r + c) % 2 == 0
            if len(members) == 4:
                (x_checks if is_x else z_checks).append(members)
            else:
                # Boundary halves: X halves live on top/bottom edges,
                # Z halves on left/right edges, alternating to keep the
                # checkerboard consistent.
                on_top_bottom = r == -1 or r == d - 1
                if on_top_bottom and is_x:
                    x_checks.append(members)
                elif not on_top_bottom and not is_x:
                    z_checks.append(members)

    hx = np.zeros((len(x_checks), d * d), dtype=np.uint8)
    for i, members in enumerate(x_checks):
        hx[i, members] = 1
    hz = np.zeros((len(z_checks), d * d), dtype=np.uint8)
    for i, members in enumerate(z_checks):
        hz[i, members] = 1
    return CSSCode(hx, hz, name=f"surface_{d}")
