"""Matrix-product-state backend (the CUDA-Q ``tensornet`` stand-in).

State representation: a list of rank-3 tensors ``A[k]`` of shape
``(D_left, 2, D_right)``; the amplitude of bitstring ``b`` is
``prod_k A[k][:, b_k, :]`` contracted along the bonds.  Two-qubit gates on
non-adjacent qubits are swap-routed.  Every two-qubit application performs
a truncated SVD governed by ``max_bond`` and ``cutoff``; the cumulative
discarded probability weight is tracked in :attr:`truncation_error`.

Sampling supports two modes (see :mod:`repro.backends.mps_sampler`):

* ``mode="cached"`` — right environments computed once per prepared state,
  then batched vectorized conditional sampling (the PTSBE-enabling path);
* ``mode="naive"`` — the contraction chain is rebuilt per shot (the
  baseline whose cost Fig. 5's speedup is measured against).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import PureStateBackend
from repro.backends.mps_sampler import (
    check_inside,
    compute_right_environments,
    sample_cached,
    sample_naive,
)
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError
from repro.linalg.decompositions import truncated_svd, truncated_svd_batched
from repro.linalg.kron import permute_operator_qubits

__all__ = ["MPSBackend", "BatchedMPSStack"]

_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=np.complex128,
)


class MPSBackend(PureStateBackend):
    """Truncated MPS simulator with naive / cached batched sampling.

    The single-state public API: callers read ``tensors[q]`` by *qubit*,
    so a non-adjacent two-qubit gate is swap-routed down **and back**.
    :class:`BatchedMPSStack` under the tensornet schedule compiler does
    not route back (``GateSchedule.site_of`` says where each qubit ends
    up); this class converges on that routing when it becomes the stack's
    ``B = 1`` view (ROADMAP direction 5).
    """

    def __init__(
        self,
        num_qubits: int,
        max_bond: Optional[int] = None,
        cutoff: Optional[float] = None,
        config: Optional[Config] = None,
    ):
        config = config or DEFAULT_CONFIG
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self._config = config
        self.max_bond = int(max_bond if max_bond is not None else config.default_bond_dim)
        self.cutoff = float(cutoff if cutoff is not None else config.svd_cutoff)
        if self.max_bond < 1:
            raise BackendError("max_bond must be >= 1")
        self.tensors: List[np.ndarray] = []
        self.truncation_error = 0.0
        self._envs_cache: Optional[List[np.ndarray]] = None
        self.reset()

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        zero = np.zeros((1, 2, 1), dtype=np.complex128)
        zero[0, 0, 0] = 1.0
        self.tensors = [zero.copy() for _ in range(self.num_qubits)]
        self.truncation_error = 0.0
        self._invalidate()

    def _invalidate(self) -> None:
        self._envs_cache = None

    def bond_dimensions(self) -> List[int]:
        """Current bond dimensions (n-1 internal bonds)."""
        return [self.tensors[k].shape[2] for k in range(self.num_qubits - 1)]

    def copy(self) -> "MPSBackend":
        out = MPSBackend.__new__(MPSBackend)
        out.num_qubits = self.num_qubits
        out._config = self._config
        out.max_bond = self.max_bond
        out.cutoff = self.cutoff
        out.tensors = [t.copy() for t in self.tensors]
        out.truncation_error = self.truncation_error
        out._envs_cache = None
        return out

    # ------------------------------------------------------------------ #
    # gate application
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        targets = list(targets)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if any(t < 0 or t >= self.num_qubits for t in targets):
            raise BackendError(f"targets {targets} out of range")
        if len(targets) == 1:
            self._apply_1q(matrix, targets[0])
        elif len(targets) == 2:
            self._apply_2q(matrix, targets[0], targets[1])
        else:
            raise BackendError(
                f"MPS backend applies 1- and 2-qubit matrices natively; got "
                f"{len(targets)} targets (transpile with decompose_to_2q first)"
            )
        self._invalidate()

    def _apply_1q(self, matrix: np.ndarray, q: int) -> None:
        if matrix.shape != (2, 2):
            raise BackendError(f"expected 2x2 matrix, got {matrix.shape}")
        self.tensors[q] = np.einsum("oi,aib->aob", matrix, self.tensors[q], optimize=True)

    def _apply_2q(self, matrix: np.ndarray, qa: int, qb: int) -> None:
        if matrix.shape != (4, 4):
            raise BackendError(f"expected 4x4 matrix, got {matrix.shape}")
        if qa == qb:
            raise BackendError("two-qubit gate targets must differ")
        if qb < qa:
            # Reorder the operator so its first wire is the lower qubit.
            matrix = permute_operator_qubits(matrix, [1, 0])
            qa, qb = qb, qa
        # Swap-route qb down to qa+1.
        moved = []
        while qb > qa + 1:
            self._apply_adjacent(_SWAP, qb - 1)
            moved.append(qb - 1)
            qb -= 1
        self._apply_adjacent(matrix, qa)
        for pos in reversed(moved):
            self._apply_adjacent(_SWAP, pos)

    def _apply_adjacent(self, matrix: np.ndarray, q: int) -> None:
        """Apply a 4x4 matrix to adjacent sites (q, q+1) with truncation."""
        a, b = self.tensors[q], self.tensors[q + 1]
        dl, dr = a.shape[0], b.shape[2]
        theta = np.tensordot(a, b, axes=([2], [0]))  # (dl, i, j, dr)
        gate = matrix.reshape(2, 2, 2, 2)  # (o1, o2, i1, i2)
        theta = np.einsum("abij,lijr->labr", gate, theta, optimize=True)
        mat = theta.reshape(dl * 2, 2 * dr)
        u, s, vh, info = truncated_svd(mat, max_rank=self.max_bond, cutoff=self.cutoff)
        self.truncation_error += info.discarded_weight
        self.tensors[q] = u.reshape(dl, 2, info.kept)
        self.tensors[q + 1] = (s[:, None] * vh).reshape(info.kept, 2, dr)

    # ------------------------------------------------------------------ #
    # norms / expectations
    # ------------------------------------------------------------------ #
    def norm_squared(self) -> float:
        env = np.ones((1, 1), dtype=np.complex128)
        for a in self.tensors:
            # env (c a), a (a i b), conj(a) (c i d) -> (d b)
            tmp = np.tensordot(env, a, axes=([1], [0]))  # (c, i, b)
            env = np.tensordot(a.conj(), tmp, axes=([0, 1], [0, 1]))  # (d, b)
        return float(np.real(env[0, 0]))

    def renormalize(self) -> float:
        n2 = self.norm_squared()
        if n2 <= 0:
            raise BackendError("cannot renormalize a zero MPS")
        self.tensors[0] = self.tensors[0] / np.sqrt(n2)
        self._invalidate()
        return n2

    def inner(self, other: "MPSBackend") -> complex:
        """<self|other> via the mixed transfer-matrix contraction."""
        if other.num_qubits != self.num_qubits:
            raise BackendError("inner product requires equal qubit counts")
        env = np.ones((1, 1), dtype=np.complex128)
        for a_bra, a_ket in zip(self.tensors, other.tensors):
            tmp = np.tensordot(env, a_ket, axes=([1], [0]))  # (c, i, b)
            env = np.tensordot(a_bra.conj(), tmp, axes=([0, 1], [0, 1]))
        return complex(env[0, 0])

    def expectation_local(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """<psi|M|psi> by applying M to an *untruncated* copy.

        The copy uses an unbounded bond so the expectation is exact for the
        current state (one gate application at most doubles the bond).
        """
        work = self.copy()
        work.max_bond = max(4 * self.max_bond, 1 << 12)
        work.cutoff = 0.0
        work.apply_matrix(matrix, qubits)
        return self.inner(work)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _environments(self) -> List[np.ndarray]:
        if self._envs_cache is None:
            self._envs_cache = compute_right_environments(self.tensors)
        return self._envs_cache

    def sample(
        self,
        num_shots: int,
        qubits: Sequence[int],
        rng: np.random.Generator,
        mode: str = "cached",
    ) -> np.ndarray:
        """Draw shots; ``mode`` selects cached-batched or naive per-shot."""
        if num_shots < 0:
            raise BackendError("num_shots must be >= 0")
        cols = list(qubits)
        if mode == "cached":
            return sample_cached(
                self.tensors, self._environments(), num_shots, rng, columns=cols
            )
        if mode != "naive":
            raise BackendError(f"unknown sampling mode {mode!r}")
        check_inside(cols, self.num_qubits, "qubit", "register")
        return sample_naive(self.tensors, num_shots, rng)[:, cols]

    # ------------------------------------------------------------------ #
    # conversion (small n, for tests)
    # ------------------------------------------------------------------ #
    def to_statevector(self) -> np.ndarray:
        """Contract to a dense statevector (<= ~20 qubits)."""
        if self.num_qubits > 20:
            raise BackendError("to_statevector limited to <= 20 qubits")
        acc = self.tensors[0]  # (1, 2, D)
        for a in self.tensors[1:]:
            acc = np.tensordot(acc, a, axes=([acc.ndim - 1], [0]))
        # acc shape (1, 2, 2, ..., 2, 1)
        return np.ascontiguousarray(acc).reshape(-1)

    @classmethod
    def from_statevector(
        cls,
        state: np.ndarray,
        max_bond: Optional[int] = None,
        cutoff: float = 0.0,
        config: Optional[Config] = None,
    ) -> "MPSBackend":
        """Exact (or truncated) MPS decomposition of a dense state."""
        state = np.asarray(state, dtype=np.complex128).reshape(-1)
        n = int(round(np.log2(state.shape[0])))
        if 2**n != state.shape[0]:
            raise BackendError("state dimension is not a power of two")
        out = cls(n, max_bond=max_bond or (1 << 30), cutoff=cutoff, config=config)
        tensors: List[np.ndarray] = []
        rest = state.reshape(1, -1)
        dl = 1
        for k in range(n - 1):
            mat = rest.reshape(dl * 2, -1)
            u, s, vh, info = truncated_svd(mat, max_rank=out.max_bond, cutoff=cutoff)
            out.truncation_error += info.discarded_weight
            tensors.append(u.reshape(dl, 2, info.kept))
            rest = s[:, None] * vh
            dl = info.kept
        tensors.append(rest.reshape(dl, 2, 1))
        out.tensors = tensors
        out._invalidate()
        return out

    def __repr__(self) -> str:
        chi = max(self.bond_dimensions(), default=1)
        return (
            f"MPSBackend(qubits={self.num_qubits}, max_bond={self.max_bond}, "
            f"chi={chi}, trunc_err={self.truncation_error:.2e})"
        )


class BatchedMPSStack:
    """``B`` MPS states that replay one schedule, stored by what differs.

    A PTS trajectory is the ideal circuit except where one of its own
    Kraus choices has had an effect, so beside the ``B`` rows the stack
    carries the *ideal row* — every step's shared matrix, nothing else —
    and holds a tensor of a row's own only where that row has left it:
    ``tensors[k]`` is ``(1 + own_k, D_l, 2, D_r)``, slot 0 the ideal row's,
    and ``slot[k, m]`` is the slot of row ``m`` at site ``k`` — 0 until an
    operator of row ``m``'s own (:meth:`apply` with ``rows``) has reached
    the site, directly or through a multi-site step that merged the site
    with one it had reached.  A step on some sites is one batched GEMM /
    truncated SVD over the ideal row and the rows that own a tensor at any
    of them, and leaves those rows owning all of them; a step nobody owns
    a tensor at runs at ``B = 1``.  :meth:`dense` gathers the ``(B, D_l, 2,
    D_r)`` tensors the environment pass and the sampler read.

    Reading slot 0 for a row that owns nothing at a site is exact, by
    induction over the steps: a bond's basis changes only in a step on
    that bond, every row owning a tensor at either end takes part in it
    beside the ideal row, and a row owning neither end has the ideal
    row's two tensors there before the step and so after it.  Bond
    dimensions are *common* across a site's slots because slot 0 is in
    every batched SVD (which retains the widest row's rank — see
    :func:`repro.linalg.decompositions.truncated_svd_batched`): the rank
    kept at a step is the largest any row *taking part in it* needs, the
    ideal row included.

    Every contraction is an explicit ``matmul`` on reshaped operands (the
    contraction order is fixed here, no path search runs per call), and
    every step *replaces* the site tensors it touches instead of writing
    into them.  The chain is indexed by *site*; which qubit a site holds
    is the schedule compiler's business (``GateSchedule.site_of``).

    The stack is deliberately **never renormalized mid-run**: each Kraus
    operator application scales a row's norm by its branch probability, so
    the final unnormalized squared norm per row telescopes to exactly the
    trajectory weight (times any truncation losses).  The executor reads
    both the weights and the sampling cache from one
    :func:`~repro.backends.mps_sampler.compute_right_environments_batched`
    pass at the end.  SVD cutoffs are relative to each row's largest
    singular value, so the unnormalized scale never distorts truncation.
    """

    def __init__(
        self,
        num_qubits: int,
        batch_size: int,
        max_bond: Optional[int] = None,
        cutoff: Optional[float] = None,
        config: Optional[Config] = None,
    ):
        config = config or DEFAULT_CONFIG
        if num_qubits <= 0:
            raise BackendError(f"num_qubits must be positive, got {num_qubits}")
        if batch_size <= 0:
            raise BackendError(f"batch_size must be positive, got {batch_size}")
        self.num_qubits = int(num_qubits)
        self.batch_size = int(batch_size)
        self._config = config
        self.max_bond = int(
            max_bond if max_bond is not None else config.default_bond_dim
        )
        self.cutoff = float(
            cutoff if cutoff is not None else config.svd_cutoff
        )
        if self.max_bond < 1:
            raise BackendError("max_bond must be >= 1")
        self.reset()

    def reset(self) -> None:
        """Every row, the ideal one included, back to ``|0...0>``."""
        zero = np.zeros((1, 1, 2, 1), dtype=np.complex128)
        zero[0, 0, 0, 0] = 1.0
        self.tensors: List[np.ndarray] = [zero] * self.num_qubits
        self.slot = np.zeros((self.num_qubits, self.batch_size), dtype=np.intp)
        self.truncation_error = np.zeros(self.batch_size)

    def bond_dimensions(self) -> List[int]:
        return [self.tensors[k].shape[3] for k in range(self.num_qubits - 1)]

    def dense(self) -> List[np.ndarray]:
        """The rows' ``(B, D_l, 2, D_r)`` site tensors, in chain (site)
        order: one gather per site, a row the site's own or the ideal's."""
        return [t[s] for t, s in zip(self.tensors, self.slot)]

    def row_tensors(self, m: int) -> List[np.ndarray]:
        """Zero-copy ``(D_l, 2, D_r)`` views of row ``m``'s site tensors,
        in chain (site) order."""
        return [t[s[m]] for t, s in zip(self.tensors, self.slot)]

    # ------------------------------------------------------------------ #
    # batched gate application (adjacency is the compiler's job)
    # ------------------------------------------------------------------ #
    def apply(
        self,
        matrix: np.ndarray,
        q: int,
        rows: Sequence[int] = (),
        mats: Optional[np.ndarray] = None,
    ) -> None:
        """``matrix`` on the contiguous sites from ``q`` up (one, two or
        three, by its dimension) of every row — except that row
        ``rows[i]`` takes ``mats[i]`` in its place and from here on owns
        its tensors at those sites.

        Three sites is the fused k<=3 window primitive: merged, the
        operator applied once, split back with two batched truncated SVDs.
        """
        span = matrix.shape[0].bit_length() - 1
        if span == 1 and not len(rows):
            self.tensors[q] = np.matmul(matrix, self.tensors[q])
            return
        part, theta = self._merge(q, span, rows)
        if len(rows):
            ops = np.empty((len(part) + 1,) + matrix.shape, dtype=np.complex128)
            ops[:] = matrix
            ops[1 + np.searchsorted(part, rows)] = mats
            matrix = ops[:, None]
        self._split(np.matmul(matrix, theta), q, part)

    def swap_adjacent(self, q: int) -> None:
        """Exchange sites ``(q, q+1)``: an axis transpose of the merged
        pair, then the same truncated split as any two-site step."""
        part, theta = self._merge(q, 2)
        batch, dl, _, dr = theta.shape
        swapped = theta.reshape(batch, dl, 2, 2, dr).swapaxes(2, 3)
        self._split(swapped.reshape(batch, dl, 4, dr), q, part)

    def _merge(
        self, q: int, span: int, rows: Sequence[int] = ()
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sites ``q .. q+span-1`` of the rows taking part in a step there
        — those owning a tensor at any of them, and ``rows`` — contracted
        over their shared bonds, the ideal row first: ``(1 + P, D_l,
        2**span, D_r)``, physical index most-significant first.  Returns
        the ``P`` rows (ascending) beside it and gives them the sites'
        slots ``1 .. P``, which is how :meth:`_split` stores them.
        """
        own = self.slot[q : q + span].any(axis=0)
        if len(rows):
            own[rows] = True
        part = np.flatnonzero(own)
        batch = len(part) + 1
        gather = np.zeros((span, batch), dtype=np.intp)
        gather[:, 1:] = self.slot[q : q + span, part]
        self.slot[q : q + span] = 0
        self.slot[q : q + span, part] = np.arange(1, batch)
        # Slots ascend with the rows, so a site all of ``part`` owns is
        # already in order.
        theta, *rest = (
            site if site.shape[0] == batch else site[take]
            for site, take in zip(self.tensors[q : q + span], gather)
        )
        dl = theta.shape[1]
        for right in rest:
            bond, dr = right.shape[1], right.shape[3]
            theta = np.matmul(
                theta.reshape(batch, -1, bond), right.reshape(batch, bond, 2 * dr)
            )
        return part, theta.reshape(batch, dl, 1 << span, -1)

    def _split(self, theta: np.ndarray, q: int, part: np.ndarray) -> None:
        """Factor a merged ``(1 + P, D_l, 2**span, D_r)`` blob back into
        sites ``q ..``, one batched truncated SVD per bond, left to right.
        A row in ``part`` is charged its own discarded weight, every other
        row the ideal row's."""
        batch, dl, phys, dr = theta.shape
        while phys > 2:
            phys //= 2
            u, s, vh, kept, disc = truncated_svd_batched(
                theta.reshape(batch, dl * 2, phys * dr),
                max_rank=self.max_bond,
                cutoff=self.cutoff,
            )
            charged = np.full(self.batch_size, disc[0])
            charged[part] = disc[1:]
            self.truncation_error += charged
            self.tensors[q] = u.reshape(batch, dl, 2, kept)
            theta = s[:, :, None] * vh
            q, dl = q + 1, kept
        self.tensors[q] = theta.reshape(batch, dl, 2, dr)

    # ------------------------------------------------------------------ #
    # norms (mostly for tests; the executor reads weights from the
    # batched environment pass instead)
    # ------------------------------------------------------------------ #
    def norms_squared(self) -> np.ndarray:
        """Per-row unnormalized squared norm (= running trajectory weight)."""
        batch = self.batch_size
        env = np.ones((batch, 1, 1), dtype=np.complex128)
        for a in self.dense():
            dl, dr = a.shape[1], a.shape[3]
            # env (c a) . a (a, i b) -> (c i, b); conj(a) (c i, d)^T . that -> (d b)
            tmp = np.matmul(env, a.reshape(batch, dl, 2 * dr)).reshape(batch, -1, dr)
            ket = a.reshape(batch, -1, dr)
            env = np.matmul(ket.conj().transpose(0, 2, 1), tmp)
        return env[:, 0, 0].real.copy()

    def row_statevector(
        self, m: int, site_of: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Contract row ``m`` to a dense statevector (<= ~20 qubits).

        Axes are chain sites unless ``site_of`` (qubit -> site, a
        schedule's final routing map) is given, in which case the vector
        is indexed by qubit like every dense backend's.
        """
        if self.num_qubits > 20:
            raise BackendError("row_statevector limited to <= 20 qubits")
        acc, *rest = self.row_tensors(m)
        for a in rest:
            acc = np.tensordot(acc, a, axes=([acc.ndim - 1], [0]))
        acc = acc.reshape((2,) * self.num_qubits)
        if site_of is not None:
            acc = acc.transpose(list(site_of))
        return np.ascontiguousarray(acc).reshape(-1)

    def __repr__(self) -> str:
        chi = max(self.bond_dimensions(), default=1)
        return (
            f"BatchedMPSStack(qubits={self.num_qubits}, B={self.batch_size}, "
            f"max_bond={self.max_bond}, chi={chi})"
        )
