"""Fused execution plans: compile a circuit once, run it on every strategy.

The paper's batched-execution speedups come from amortizing circuit work
across trajectories; this module amortizes it across *operations* as well.
A :class:`FusedPlan` pre-compiles a frozen noisy circuit into a short
sequence of steps — adjacent gates and noise sites whose qubit supports
overlap are merged into single window matrices (qsim-style gate fusion,
bounded by :func:`fusion_cap`) with the diagonal/identity fast
paths re-detected on the fused result (:func:`repro.linalg.apply
.compile_operator`), so a brickwork layer of H + depolarizing + CX +
two-qubit depolarizing collapses from six kernel passes and three
renormalizations into one pass and no renormalization at all.  Plans
always fuse; the window cap is :func:`fusion_cap` of the circuit's width.

Two step kinds:

* :class:`GateStep` — a fused window of purely coherent operations: one
  :class:`~repro.linalg.apply.CompiledOperator`, applied to every
  trajectory (or every stack row) identically, no renormalization;
* :class:`NoiseStep` — a window containing one or more noise sites.  The
  fused matrix depends on which Kraus branches a trajectory prescribes,
  so the step exposes *variants*: one compiled operator per realized
  Kraus-index combination, built lazily — as the product of factors
  embedded onto the window once per step, less those that are exactly
  the identity — and kept in the step's :class:`VariantTable` (B
  trajectories sharing a prescription, and every later stack, pay each
  fusion product once).  Each step is classified once at build time, from
  its channels' own cached analysis
  (:attr:`~repro.channels.kraus.KrausChannel.mixture`).  When every site's
  channel is a unitary mixture (``K_i = sqrt(p_i) U_i`` — paper Algorithm
  1's ``unitaryMixture`` branch) the variants are built from the ``U_i``:
  the window is a unitary, costs what a gate window costs, and the
  trajectory weight takes the state-independent
  :meth:`NoiseStep.probability` — no reduction, no rescale.  After a
  *general-Kraus* window (any site whose operators are not scaled
  unitaries) the state is renormalized and the pre-normalization squared
  norm multiplies the trajectory weight — the product over a
  trajectory's noise windows telescopes to exactly the same total weight
  the per-site serial loop accumulates.

A step is *classical* when every gate in its window and every branch
unitary of every site is monomial (one nonzero per row and per column: X,
CX, CCX, SWAP, Z, S, T, RZ, CZ, Pauli and depolarizing branches — not H,
RY, SX, nor any general-Kraus site).  Such a window only permutes basis
states and attaches unit-modulus phases, which a computational-basis
measurement cannot see: on ``|psi|**2`` it is the index map
:meth:`NoiseStep.permutation`.  :attr:`FusedPlan.tail` is where the plan's
maximal suffix of classical steps starts — the *measurement tail*, which
the dense engine samples through instead of simulating.

Each step owns one :class:`VariantTable` for the whole run: its variant
keys in order of first use (the dominant key first) and, per key, the
branch probability, the compiled operator and, on a tail step, the index
map and the relabel's bit flips.  :meth:`FusedPlan.prescribed_steps`
turns a unit's prescription table into one ``intp`` index per row and
step into those tables, and the walk only gathers from them.

Every dense strategy walks the plan in one place,
``BatchedStatevectorBackend``'s stacked preparation (the serial
``StatevectorBackend`` is its one-row view) — obtained from the
per-circuit cache :func:`get_fused_plan` — with the same matrices,
application order, and renormalization points, which is what keeps
serial/vectorized/sharded execution bitwise identical.  The unfused
reference is the per-operation loop
:meth:`~repro.backends.base.PureStateBackend.run_fixed` (both concrete
backends override it, so only tests call it): a fused plan agrees with it
on states and weights to floating-point accuracy, not bit for bit
(matrix products round differently than sequential application).
"""

from __future__ import annotations

import math
import weakref
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import NoiseOp, Operation
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import ExecutionError
from repro.linalg.apply import CompiledOperator, OperatorStack, compile_operator
from repro.linalg.fusion import (
    expand_to_support,
    fuse_window_matrix,
    multiply_window,
    window_support,
)
from repro.prescriptions import Prescriptions

__all__ = [
    "GateStep",
    "NoiseStep",
    "FusedPlan",
    "VariantTable",
    "build_fused_plan",
    "get_fused_plan",
    "clear_plan_cache",
    "fusion_cap",
]


def _monomial(matrices) -> bool:
    """Every matrix of a ``(..., d, d)`` stack has exactly one nonzero per
    row and per column."""
    nonzero = np.asarray(matrices) != 0
    return bool((nonzero.sum(axis=-2) == 1).all() and (nonzero.sum(axis=-1) == 1).all())


def _is_identity(matrix: np.ndarray) -> bool:
    """``matrix`` is exactly the identity: as many nonzeros as rows, and
    every diagonal entry 1."""
    return np.count_nonzero(matrix) == len(matrix) and bool((matrix.diagonal() == 1).all())


@lru_cache(maxsize=256)
def _map_layout(bits: Tuple[int, ...], k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arithmetic of an item whose matrix bit ``j-1-b`` is bit
    ``bits[b]`` of a ``k``-bit window index: per window index, its bits off
    the item and the matrix row its item bits spell; per matrix column, its
    bits placed on the window.  Built once per layout (read-only arrays
    every caller shares)."""
    j = len(bits)
    window, local = np.arange(1 << k), np.arange(1 << j)
    row, spread, mask = np.zeros_like(window), np.zeros_like(local), 0
    for b, bit in enumerate(bits):
        row |= ((window >> bit) & 1) << (j - 1 - b)
        spread |= ((local >> (j - 1 - b)) & 1) << bit
        mask |= 1 << bit
    layout = (window & ~mask, row, spread)
    for array in layout:
        array.flags.writeable = False
    return layout


def _index_maps(
    matrices: np.ndarray, qubits: Sequence[int], support: Tuple[int, ...]
) -> np.ndarray:
    """Per monomial matrix of a ``(..., 2**j, 2**j)`` stack on ``qubits``,
    the column of each row's nonzero once the matrix is embedded onto
    ``support`` (``|M psi|**2 [i] = |psi|**2 [map[i]]``), as a ``(...,
    2**k)`` array: window index ``i`` keeps its bits off ``qubits`` and
    takes, on them, the column of the nonzero in the matrix row they spell.
    """
    k = len(support)
    rest, row, spread = _map_layout(tuple(k - 1 - support.index(q) for q in qubits), k)
    columns = np.argmax(np.asarray(matrices) != 0, axis=-1)
    return rest | spread[columns[..., row]]


def fusion_cap(num_qubits: int) -> int:
    """Largest qubit support of one fused window in a circuit of
    ``num_qubits``: 3 below 12 qubits, 4 from 12.

    Per the brickwork measurements, wide circuits win with 4-qubit windows
    (fewer windows, hence fewer renormalization sweeps) despite the
    ``16 x 16`` variant matrices; narrow ones cannot amortize them.
    Windows of up to 3 qubits run on the reshape-view fast paths of the
    gate kernel, wider ones on the GEMM tiers of :mod:`repro.linalg.apply`.
    """
    return 4 if num_qubits >= 12 else 3


class GateStep:
    """A purely coherent fused window: one compiled operator, no renorm.

    It answers the :class:`NoiseStep` variant interface with the one key
    ``()``, so the dense walk treats both step kinds alike."""

    __slots__ = ("op", "num_ops", "support", "classical", "table", "_map", "__weakref__")
    dominant_key: Tuple[int, ...] = ()

    def __init__(self, op: CompiledOperator, num_ops: int):
        self.op = op
        self.num_ops = num_ops  # source operations fused into this step
        self.support = tuple(sorted(op.targets))
        self.classical = _monomial(op.matrix)
        self._map = _index_maps(op.matrix, op.targets, self.support) if self.classical else None
        self.table: Optional[VariantTable] = None  # set by the plan

    def variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        return self.op

    def probability(self, key: Tuple[int, ...]) -> float:
        return 1.0

    def permutation(self, key: Tuple[int, ...]) -> np.ndarray:
        """The index map of a classical step on :attr:`support`."""
        return self._map

    def compile_variants(self, keys: Sequence[Tuple[int, ...]]) -> List[CompiledOperator]:
        return [self.op] * len(keys)

    def index_maps(self, keys: Sequence[Tuple[int, ...]]) -> np.ndarray:
        return np.tile(self._map, (len(keys), 1))

    def __repr__(self) -> str:
        return f"GateStep(targets={self.op.targets}, ops={self.num_ops}, tier={self.op.tier!r})"


class NoiseStep:
    """A fused window containing noise sites: one compiled operator per
    realized Kraus-index combination.

    ``site_ids`` lists the window's noise sites in application order; a
    *variant key* is the tuple of Kraus indices chosen at those sites (in
    the same order; ``dominant_key`` where a trajectory takes every
    channel's dominant branch), and :meth:`variant` is the fused operator
    for a key, compiled once into the step's :attr:`table`.
    :meth:`FusedPlan.prescribed_steps` reads a trajectory's keys off its
    prescription table.

    ``unitary`` is true when every site's channel is a unitary mixture
    (``K_i = sqrt(p_i) U_i``).  Such a window's variants are built from
    the ``U_i`` — unitary, so the state keeps its norm and the backends
    skip the renormalization — and :meth:`probability` is the window's
    state-independent branch probability.  A window with any general-Kraus
    site compiles the ``K_i`` themselves and is a renormalization point.
    ``classical`` is true on a unitary window whose gates and branch
    unitaries are all monomial; its :meth:`permutation` is then the
    variant's index map on ``support`` (the ascending ``targets``).
    """

    __slots__ = (
        "site_ids",
        "channels",
        "dominant_key",
        "targets",
        "num_ops",
        "unitary",
        "support",
        "_classical",
        "_items",
        "table",
        "_site_items",
        "_prefix",
        "_operators",
        "_embedded",
        "_stages",
        "_dtype",
        "_shared",
        "__weakref__",
    )

    def __init__(
        self,
        ops: Sequence[Operation],
        targets: Tuple[int, ...],
        dtype: np.dtype,
        shared: Dict[Tuple[object, ...], Optional[np.ndarray]],
    ):
        site_ids: List[int] = []
        channels: List[object] = []
        items: List[Tuple[str, object, Tuple[int, ...]]] = []
        for op in ops:
            if isinstance(op, NoiseOp):
                items.append(("noise", len(site_ids), op.qubits))
                site_ids.append(op.site_id)
                channels.append(op.channel)
            else:
                items.append(("gate", op.gate.matrix, op.qubits))
        mixtures = [ch.mixture for ch in channels]
        self.site_ids = tuple(site_ids)
        self.channels = tuple(channels)
        self.dominant_key = tuple(ch.dominant_index() for ch in channels)
        self.targets = targets
        self.num_ops = len(items)
        self.unitary = all(mix is not None for mix in mixtures)
        self._items = tuple(items)
        # The item position of each site, and the dominant variant's
        # partial products (see _dominant_prefix).
        self._site_items = tuple(pos for pos, item in enumerate(items) if item[0] == "noise")
        self._prefix: List[Optional[np.ndarray]] = []
        # Per site, the operators a variant multiplies: U_i on a unitary
        # window, the Kraus operators themselves otherwise.
        self._operators = tuple(
            mix.unitaries if self.unitary else ch.kraus_ops
            for mix, ch in zip(mixtures, channels)
        )
        self.support = tuple(sorted(targets))
        self._classical: Optional[bool] = None
        # (item position, kraus index or None for a gate) -> the factor
        # embedded onto ``targets``, None for an identity, built on first
        # use; the index-map stages of a classical window (index_maps).
        self._embedded: Dict[Tuple[int, Optional[int]], Optional[np.ndarray]] = {}
        self._stages: Optional[Tuple[List[Tuple[int, np.ndarray]], Optional[np.ndarray]]] = None
        self._dtype = dtype
        # The plan's embedded factors by content (dtype, bytes, qubits on
        # the window, window width), shared by all of its steps: a window
        # embeds the factor another window of its width already has.
        self._shared = shared
        self.table: Optional[VariantTable] = None  # set by the plan

    @property
    def classical(self) -> bool:
        """Unitary, with monomial gates and branch unitaries (decided on
        first use: a plan asks only its suffix)."""
        if self._classical is None:
            # Each distinct gate matrix and channel once (sites of one
            # channel share its tuple of unitaries).
            parts = {id(m): m for kind, m, _ in self._items if kind == "gate"}
            parts.update((id(unitaries), unitaries) for unitaries in self._operators)
            self._classical = self.unitary and all(map(_monomial, parts.values()))
        return self._classical

    def probability(self, key: Tuple[int, ...]) -> float:
        """Branch probability of ``key`` on a ``unitary`` window: the
        product of the sites' nominal probabilities, in site order (the
        step's :attr:`table` keeps it per key)."""
        return math.prod(channel.nominal_probs[idx] for channel, idx in zip(self.channels, key))

    def variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        """Compiled fused operator realizing Kraus choices ``key`` (compiled
        once per key, into :attr:`table`)."""
        (index,) = self.table.indices([key])
        return self.table.operators()[index]

    def compile_variants(self, keys: Sequence[Tuple[int, ...]]) -> List[CompiledOperator]:
        """The fused operator of each of ``keys``, in order.

        Each is the product ``fuse_window_matrix`` forms, over factors
        embedded onto the window once per step instead of once per
        variant, continued from the dominant variant's product up to the
        key's first deviating item: the same matmuls in the same order, so
        a variant deviating at the window's last site multiplies only from
        there.  A factor that is exactly the identity (every Pauli
        channel's dominant branch) is skipped: multiplying by it changes no
        value (at most the sign of a zero).
        """
        if len(self._items) == 1:
            # Singleton window: compile the site's operator directly on
            # its own qubit order — the arithmetic of the per-op loop.
            _, pos, qubits = self._items[0]
            operators, dtype = self._operators[pos], self._dtype
            return [compile_operator(operators[key[pos]], qubits, dtype) for key in keys]
        compiled, count = [], len(self._items)
        for key in keys:
            # The key's first deviating item (sites are in item order).
            deviating = zip(self._site_items, key, self.dominant_key)
            start = next((item for item, idx, dom in deviating if idx != dom), count)
            prefix = self._dominant_prefix(start)
            factors = [
                factor
                for factor in (self._factor(pos, key) for pos in range(start, count))
                if factor is not None
            ]
            if prefix is None and not factors:
                fused = np.eye(2 ** len(self.targets), dtype=np.complex128)
            else:
                fused = multiply_window(factors, prefix)
            compiled.append(compile_operator(fused, self.targets, self._dtype))
        return compiled

    def _dominant_prefix(self, count: int) -> Optional[np.ndarray]:
        """The dominant variant's product of items ``[0, count)`` (``None``
        while it is the identity), memoized per item position as the walk
        to it forms it."""
        while len(self._prefix) < count:
            factor = self._factor(len(self._prefix), self.dominant_key)
            last = self._prefix[-1] if self._prefix else None
            if factor is not None:
                last = factor if last is None else factor @ last
            self._prefix.append(last)
        return self._prefix[count - 1] if count else None

    def permutation(self, key: Tuple[int, ...]) -> np.ndarray:
        """Index map of the variant ``key`` of a step in the plan's
        measurement tail, on ``support``: ``|U psi|**2 [i] = |psi|**2
        [map[i]]`` (its row of :attr:`table`'s ``maps``)."""
        (index,) = self.table.indices([key])
        return self.table.permutations()[0][index]

    def index_maps(self, keys: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """One row per key: the index map of a classical window's variant
        on ``support``, composed from the items' own maps (``2**k``
        integers each) with no complex product, in one array pass over
        the keys: one gather per noise site (see :meth:`_map_stages`)."""
        keys = np.array(keys, dtype=np.intp).reshape(len(keys), -1)
        stages, trailing = self._map_stages()
        size = 1 << len(self.support)
        # Row r of the flat (keys, size) array starts at r * size.
        starts = np.arange(0, len(keys) * size, size)[:, None]
        composed = None
        for site, maps in stages:
            # The first item acts first: (B A) maps i to map_A[map_B[i]].
            part = maps[keys[:, site]]
            composed = part if composed is None else composed.take(part + starts)
        return composed if trailing is None else composed[:, trailing]

    def _map_stages(self) -> Tuple[List[Tuple[int, np.ndarray]], Optional[np.ndarray]]:
        """The window's index maps as stages, built once: per noise site,
        ``(site, maps)`` with one row per Kraus index, the gates before it
        (since the previous site) composed in; then the gates after the
        last site as one map, or ``None``."""
        if self._stages is None:
            stages, gates = [], None
            for kind, payload, qubits in self._items:
                matrices = payload if kind == "gate" else self._operators[payload]
                maps = _index_maps(matrices, qubits, self.support)
                if gates is not None:
                    maps = gates[maps]
                if kind == "gate":
                    gates = maps
                else:
                    stages.append((payload, maps))
                    gates = None
            self._stages = (stages, gates)
        return self._stages

    def _factor(self, pos: int, key: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Item ``pos`` of the window under ``key``, embedded onto
        ``targets``, or ``None`` where its operator is exactly the identity."""
        kind, payload, qubits = self._items[pos]
        idx = key[payload] if kind == "noise" else None
        try:
            return self._embedded[(pos, idx)]
        except KeyError:
            matrix = payload if idx is None else self._operators[payload][idx]
            local = tuple(self.targets.index(q) for q in qubits)
            content = (matrix.dtype.str, matrix.tobytes(), local, len(self.targets))
            try:
                factor = self._shared[content]
            except KeyError:
                factor = None
                if not _is_identity(matrix):
                    factor = expand_to_support(matrix, qubits, self.targets)
                self._shared[content] = factor
            self._embedded[(pos, idx)] = factor
            return factor

    def __repr__(self) -> str:
        return (
            f"NoiseStep(sites={self.site_ids}, targets={self.targets}, "
            f"ops={self.num_ops}, unitary={self.unitary})"
        )


PlanStep = Union[GateStep, NoiseStep]


class VariantTable(OperatorStack):
    """One plan step's variants for the whole run, in order of first use.

    ``keys[i]`` is a variant key, ``keys[0]`` the step's dominant key, and
    every column is indexed alike: ``probabilities[i]`` is the key's
    :meth:`NoiseStep.probability` (1 on a gate step), ``ops[i]`` its
    compiled operator (:meth:`operators`, stacked for the per-row GEMM by
    :class:`~repro.linalg.apply.OperatorStack`), and, on a step of the
    measurement tail, :meth:`permutations` its index map on the step's
    support and the relabel's bit flips.  A unit's rows index these
    columns (:meth:`FusedPlan.prescribed_steps`), so the walk, the weights
    and the relabel are gathers.

    The table grows once per new key, under the lock, because the serial
    look-ahead prepares against the same plan on a helper thread; a key
    reaches the index only after ``probabilities`` covers it.  The other
    columns are built for every key added since they were last read, in
    one pass, where they are first needed: operators by the walk (a tail
    step's only when an amplitude read runs the tail), index maps and
    flips by the draws.
    """

    def __init__(self, step: PlanStep, width: Optional[int] = None):
        super().__init__()
        dominant = step.dominant_key
        self.keys: List[Tuple[int, ...]] = [dominant]
        self.probabilities = np.array([step.probability(dominant)])
        self._index: Dict[Tuple[int, ...], int] = {dominant: 0}
        # Weak: the step owns its table, and a plan must not outlive its
        # circuit waiting for the cycle collector.
        self._step = weakref.ref(step)
        self._permutations: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # A tail step's window bits, placed on a ``width``-qubit register.
        self._spread: Optional[np.ndarray] = None
        if width is not None:
            k = len(step.support)
            values = np.arange(1 << k)
            self._spread = np.zeros(1 << k, dtype=np.int64)
            for j, q in enumerate(step.support):
                self._spread |= ((values >> (k - 1 - j)) & 1) << (width - 1 - q)

    def indices(self, keys: Sequence[Tuple[int, ...]]) -> List[int]:
        """Each key's index, adding the keys the table does not hold yet."""
        index = self._index
        try:
            return [index[key] for key in keys]
        except KeyError:
            with self._lock:
                # Another thread may have added them while this one waited.
                new = [key for key in dict.fromkeys(keys) if key not in index]
                if new:
                    step = self._step()
                    probabilities = [step.probability(key) for key in new]
                    self.probabilities = np.concatenate([self.probabilities, probabilities])
                    start = len(self.keys)
                    self.keys = self.keys + new
                    index.update(zip(new, range(start, start + len(new))))
            return [index[key] for key in keys]

    def operators(self) -> List[CompiledOperator]:
        """``ops``, compiling the keys added since the last call."""
        if len(self.ops) < len(self.keys):
            with self._lock:
                self.extend(self._step().compile_variants(self.keys[len(self.ops) :]))
        return self.ops

    def permutations(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(maps, flips)`` of a tail step, one row per key: the key's index
        map on the step's support (:meth:`NoiseStep.index_maps`) and
        ``spread(w ^ map^-1[w])`` per window value ``w``, ``spread`` placing
        a window's bits on the plan's register.  The keys added since the
        last call get their rows in one array pass."""
        built = self._permutations
        if built is None or len(built[0]) < len(self.keys):
            with self._lock:
                built = self._permutations
                done = 0 if built is None else len(built[0])
                new = self.keys[done:]
                if new:
                    step = self._step()
                    maps = step.index_maps(new)
                    inverse = maps.argsort(axis=1)  # exact: each row is a permutation
                    flips = self._spread[np.arange(maps.shape[1]) ^ inverse]
                    if built is not None:
                        maps = np.concatenate([built[0], maps])
                        flips = np.concatenate([built[1], flips])
                    built = self._permutations = (maps, flips)
        return built


class FusedPlan:
    """The compiled form of one frozen circuit at one state dtype.

    ``tail`` is the index of the first step of the plan's maximal suffix of
    classical steps (``num_steps`` when the last step is not classical).
    Indexed by noise site id, ``site_step`` is the step holding each site
    and ``site_position`` the site's place in that step's variant key.
    Every step gets its :class:`VariantTable` here; a tail step's builds
    the relabel's flips on a ``num_qubits`` register.
    """

    def __init__(
        self,
        steps: List[PlanStep],
        num_qubits: int,
        num_source_ops: int,
        max_qubits: int,
    ):
        self.steps = steps
        self.tail = len(steps)
        while self.tail and steps[self.tail - 1].classical:
            self.tail -= 1
        self.num_qubits = num_qubits
        self.num_source_ops = num_source_ops
        self.max_qubits = max_qubits
        for index, step in enumerate(steps):
            step.table = VariantTable(step, num_qubits if index >= self.tail else None)
        located = sorted(
            (site, index, position)
            for index, step in enumerate(steps)
            if isinstance(step, NoiseStep)
            for position, site in enumerate(step.site_ids)
        )
        _, self.site_step, self.site_position = np.array(located, dtype=np.intp).reshape(-1, 3).T

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def prescribed_steps(self, table: Prescriptions) -> np.ndarray:
        """Each row's variant at every step of a prescription table (built
        against this plan's circuit): a ``(num_steps, rows)`` ``intp`` array
        whose entry ``[s, r]`` indexes step ``s``'s :class:`VariantTable`.
        A row that names none of a step's sites takes the dominant key,
        index 0; the tables add the keys they have not seen.
        """
        rows = table.rows()
        steps = self.site_step[table.site_ids]
        positions = self.site_position[table.site_ids]
        dominant = [step.dominant_key for step in self.steps]
        built: List[Dict[int, List[int]]] = [{} for _ in self.steps]
        for row, step, position, branch in zip(
            rows.tolist(), steps.tolist(), positions.tolist(), table.branches.tolist()
        ):
            deviating = built[step]
            key = deviating.get(row)
            if key is None:
                key = deviating[row] = list(dominant[step])
            key[position] = branch
        of = np.zeros((self.num_steps, len(table)), dtype=np.intp)
        for step, deviating, step_of in zip(self.steps, built, of):
            if deviating:
                step_of[list(deviating)] = step.table.indices(list(map(tuple, deviating.values())))
        return of

    @property
    def num_noise_steps(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, NoiseStep))

    def __repr__(self) -> str:
        return (
            f"FusedPlan(steps={self.num_steps} [{self.num_noise_steps} noise] "
            f"from {self.num_source_ops} ops, max_qubits={self.max_qubits}, "
            f"tail={self.tail})"
        )


def build_fused_plan(circuit: Circuit, config: Optional[Config] = None) -> FusedPlan:
    """Compile a frozen circuit into a :class:`FusedPlan`.

    Most callers want the memoized :func:`get_fused_plan` instead; this
    builder always compiles fresh.
    """
    config = config or DEFAULT_CONFIG
    if not circuit.frozen:
        raise ExecutionError("fused plans require a frozen circuit")
    max_qubits = fusion_cap(circuit.num_qubits)
    dtype = config.dtype
    steps: List[PlanStep] = []
    shared: Dict[Tuple[object, ...], Optional[np.ndarray]] = {}
    num_source_ops = 0
    for window in schedule_fusion_windows(circuit, max_qubits):
        num_source_ops += len(window)
        has_noise = any(isinstance(op, NoiseOp) for op in window)
        if has_noise:
            if len(window) == 1:
                targets = window[0].qubits
            else:
                targets = window_support([op.qubits for op in window])
            steps.append(NoiseStep(window, targets, dtype, shared))
        elif len(window) == 1:
            op = window[0]
            steps.append(
                GateStep(compile_operator(op.gate.matrix, op.qubits, dtype), 1)
            )
        else:
            targets = window_support([op.qubits for op in window])
            fused = fuse_window_matrix(
                [(op.gate.matrix, op.qubits) for op in window], targets
            )
            steps.append(
                GateStep(compile_operator(fused, targets, dtype), len(window))
            )
    return FusedPlan(steps, circuit.num_qubits, num_source_ops, max_qubits)


#: Per-circuit plan cache: weakly keyed on the circuit object, then on the
#: state dtype.  A circuit is compiled once per process per dtype — every
#: executor chunk, stack, and strategy after that reuses the same plan
#: object (and its steps' variants), the "compile once per dedup group"
#: amortization.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[str, FusedPlan]]" = (
    weakref.WeakKeyDictionary()
)


def get_fused_plan(circuit: Circuit, config: Optional[Config] = None) -> FusedPlan:
    """Memoized :func:`build_fused_plan` (per circuit, per state dtype)."""
    config = config or DEFAULT_CONFIG
    per_circuit = _PLAN_CACHE.setdefault(circuit, {})
    key = str(np.dtype(config.dtype))
    plan = per_circuit.get(key)
    if plan is None:
        plan = per_circuit[key] = build_fused_plan(circuit, config)
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan (tests and benchmarks)."""
    _PLAN_CACHE.clear()
