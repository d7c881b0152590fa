"""Matrix-product-state simulation (the CUDA-Q ``tensornet`` stand-in).

One implementation: :class:`BatchedMPSStack` holds ``B`` truncated MPS
rows that replay one schedule, and :class:`MPSBackend` is its ``B = 1``
view for the single-state API.  A state is a chain of site tensors
``(D_left, 2, D_right)``; every multi-site step is a truncated SVD governed
by ``max_bond`` and ``cutoff``, and the discarded probability weight is
tracked per row in ``truncation_error``.

The chain is indexed by *site*, not qubit: routing pulls qubits together
and leaves them there (``site_of`` says where each qubit ends up).
Sampling is :func:`~repro.backends.mps_sampler.sample_cached` — right
environments once per prepared state, then shot counts split down the
tree of sampled prefixes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import PureStateBackend
from repro.backends.mps_sampler import check_inside, sample_cached
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, ZeroProbabilityTrajectory
from repro.linalg.decompositions import truncated_svd_batched

__all__ = ["MPSBackend", "BatchedMPSStack"]


def _tensornet():
    # Imported lazily: repro.execution imports this module at package
    # init, so a top-level import would be circular.
    from repro.execution import tensornet

    return tensornet


class MPSBackend(PureStateBackend):
    """One truncated MPS: row 0 of a one-row :class:`BatchedMPSStack`.

    The view holds its state as the stack's ideal row (it never hands the
    stack rows of their own, so ``stack.tensors[k]`` is ``(1, D_l, 2,
    D_r)``) plus the qubit -> site map ``site_of``.  A gate on
    non-adjacent qubits routes the way the tensornet schedule compiler
    does (:class:`~repro.execution.tensornet.SiteMap`): the upper qubits
    are swapped down next to the lowest and stay there.

    :meth:`run_fixed` is the tensornet replay of one trajectory —
    :func:`~repro.execution.tensornet.compile_schedule`,
    :func:`~repro.execution.tensornet.replay_schedule` and
    :func:`~repro.execution.tensornet.read_stack` — so it prepares and
    samples the state ``strategy="tensornet"`` does at ``max_batch=1``
    (which is what ``strategy="serial"`` on ``BackendSpec.mps`` runs: the
    tensornet adapter at one row).  :meth:`inner`, :meth:`expectation_local`,
    :meth:`branch_probabilities` and :meth:`to_statevector` are exact
    whatever order the chains hold their qubits in.
    """

    def __init__(
        self,
        num_qubits: int,
        max_bond: Optional[int] = None,
        cutoff: Optional[float] = None,
        config: Optional[Config] = None,
    ):
        self._config = config or DEFAULT_CONFIG
        self.stack = BatchedMPSStack(num_qubits, 1, max_bond, cutoff, self._config)
        self.num_qubits = self.stack.num_qubits
        self.reset()

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self.stack.reset()
        self._sites = _tensornet().SiteMap(range(self.num_qubits))
        # (tensors, envs) that sample() reads; None once the state moves.
        self._prepared: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None

    @property
    def site_of(self) -> List[int]:
        """Qubit -> site: where routing has left each qubit on the chain."""
        return self._sites.site_of

    @property
    def truncation_error(self) -> float:
        return float(self.stack.truncation_error[0])

    def bond_dimensions(self) -> List[int]:
        """Current bond dimensions (n-1 internal bonds, in site order)."""
        return self.stack.bond_dimensions()

    def copy(self) -> "MPSBackend":
        out = MPSBackend(self.num_qubits, self.stack.max_bond, self.stack.cutoff, self._config)
        out.stack.tensors = [t.copy() for t in self.stack.tensors]
        out.stack.truncation_error = self.stack.truncation_error.copy()
        out._sites = _tensornet().SiteMap(self.site_of)
        out._prepared = self._prepared  # never written in place
        return out

    def _exact_copy(self) -> "MPSBackend":
        """A copy that truncates nothing: unbounded bond, no cutoff."""
        work = self.copy()
        work.stack.max_bond, work.stack.cutoff = 1 << 30, 0.0
        return work

    # ------------------------------------------------------------------ #
    # gate application
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        targets = list(targets)
        matrix = np.asarray(matrix, dtype=np.complex128)
        k = len(targets)
        check_inside(targets, self.num_qubits, "qubit", "register")
        if len(set(targets)) != k:
            raise BackendError(f"targets {targets} repeat a qubit")
        if not 1 <= k <= 3:
            raise BackendError(
                f"MPS backend applies 1- to 3-qubit matrices natively; got "
                f"{k} targets (transpile with decompose_to_2q first)"
            )
        if matrix.shape != (1 << k, 1 << k):
            raise BackendError(f"expected a {1 << k}x{1 << k} matrix, got {matrix.shape}")
        site, (matrix,) = self._sites.place(targets, [matrix], self.stack.swap_adjacent)
        self.stack.apply(matrix, site)
        self._prepared = None

    def run_fixed(self, circuit, kraus_choices=None) -> float:
        """Replay one trajectory the way the tensornet engine replays a row.

        The returned weight is the unnormalized squared norm (the product
        of the realized branch probabilities, less truncation losses).
        :meth:`sample` keeps the unnormalized tensors and environments the
        engine samples from; only the state this view exposes is
        renormalized.  A prescription that annihilates the state raises
        :class:`~repro.errors.ZeroProbabilityTrajectory`.
        """
        tensornet = _tensornet()
        if circuit.num_qubits > self.num_qubits:
            raise BackendError(
                f"circuit has {circuit.num_qubits} qubits, backend has {self.num_qubits}"
            )
        schedule = tensornet.compile_schedule(circuit)
        tensornet.replay_schedule(self.stack, schedule, [kraus_choices or {}])
        tensors, envs, (weight,) = tensornet.read_stack(self.stack)
        # Row 0's tensors become the ideal row: how the view holds a state.
        self.stack.tensors = list(tensors)
        self.stack.slot[:] = 0
        self._sites = tensornet.SiteMap(
            list(schedule.site_of) + list(range(circuit.num_qubits, self.num_qubits))
        )
        if not weight:
            raise ZeroProbabilityTrajectory("the prescribed Kraus choices annihilate the state")
        self.renormalize()
        self._prepared = (tensors, envs)
        return weight

    # ------------------------------------------------------------------ #
    # norms / expectations
    # ------------------------------------------------------------------ #
    def norm_squared(self) -> float:
        return float(self.stack.norms_squared()[0])

    def renormalize(self) -> float:
        n2 = self.norm_squared()
        if n2 <= 0:
            raise BackendError("cannot renormalize a zero MPS")
        self.stack.tensors[0] = self.stack.tensors[0] / np.sqrt(n2)
        self._prepared = None
        return n2

    def inner(self, other: "MPSBackend") -> complex:
        """<self|other>, with ``other`` re-routed onto this chain's qubit
        order on an exact copy when the two orders differ."""
        if other.num_qubits != self.num_qubits:
            raise BackendError("inner product requires equal qubit counts")
        if other.site_of != self.site_of:
            other = other._exact_copy()
            for site, qubit in enumerate(self._sites.qubit_at):
                other._sites.route_down(qubit, site, other.stack.swap_adjacent)
        env = np.ones((1, 1), dtype=np.complex128)
        for (bra,), (ket,) in zip(self.stack.tensors, other.stack.tensors):
            # env (c, a) @ ket (a, i b) -> (c i, b); bra^dag (d, c i) @ that -> (d, b)
            tmp = (env @ ket.reshape(ket.shape[0], -1)).reshape(-1, ket.shape[2])
            env = bra.reshape(-1, bra.shape[2]).conj().T @ tmp
        return complex(env[0, 0])

    def expectation_local(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """<psi|M|psi> by applying M to an untruncated copy: exact for the
        current state, whatever routing ``qubits`` takes."""
        work = self._exact_copy()
        work.apply_matrix(matrix, qubits)
        return self.inner(work)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(
        self, num_shots: int, qubits: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw shots with the request form of :func:`sample_cached`: one
        request on row 0, ``qubits`` read at their sites."""
        qubits = list(qubits)
        # Checked before site_of is indexed: a negative qubit must not wrap.
        check_inside(qubits, self.num_qubits, "qubit", "register")
        if self._prepared is None:
            self._prepared = _tensornet().read_stack(self.stack)[:2]
        tensors, envs = self._prepared
        columns = [self.site_of[q] for q in qubits]
        return sample_cached(tensors, envs, num_shots, [(0, num_shots, rng)], columns=columns)

    # ------------------------------------------------------------------ #
    # conversion (small n, for tests)
    # ------------------------------------------------------------------ #
    def to_statevector(self) -> np.ndarray:
        """Contract to a dense statevector indexed by qubit (<= ~20 qubits)."""
        return self.stack.row_statevector(0, self.site_of)

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
        n = state.shape[0].bit_length() - 1
        if 1 << n != state.shape[0]:
            raise BackendError("state dimension is not a power of two")
        out = cls(n, max_bond=max_bond or (1 << 30), cutoff=cutoff, config=config)
        out.stack._split(state.reshape(1, 1, -1, 1), 0, np.empty(0, dtype=np.intp))
        return out

    def __repr__(self) -> str:
        chi = max(self.bond_dimensions(), default=1)
        return (
            f"MPSBackend(qubits={self.num_qubits}, max_bond={self.stack.max_bond}, "
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
    # norms (the single-state view's and the tests'; the executor reads
    # weights from the batched environment pass instead)
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
