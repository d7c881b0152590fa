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
  embedded onto the window once per step — and memoized in a
  :class:`~repro.trajectory.unitary_cache.KernelVariantCache` (B
  trajectories sharing a prescription pay each fusion product once).
  Each step is classified once at build time.  When every site's channel
  is a unitary mixture (``K_i = sqrt(p_i) U_i`` — paper Algorithm 1's
  ``unitaryMixture`` branch) the variants are built from the ``U_i``:
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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import NoiseOp, Operation
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import BackendError, ExecutionError
from repro.linalg.apply import CompiledOperator, compile_operator
from repro.linalg.fusion import (
    expand_to_support,
    fuse_window_matrix,
    multiply_window,
    window_support,
)
from repro.trajectory.unitary_cache import ChannelAnalysisCache, KernelVariantCache

__all__ = [
    "GateStep",
    "NoiseStep",
    "FusedPlan",
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


def _index_map(
    matrix: np.ndarray, qubits: Sequence[int], support: Tuple[int, ...]
) -> np.ndarray:
    """Column of each row's nonzero once a monomial ``matrix`` on ``qubits``
    is embedded onto ``support``: ``|M psi|**2 [i] = |psi|**2 [map[i]]``."""
    pattern = (np.asarray(matrix) != 0).astype(np.float64)
    return np.argmax(expand_to_support(pattern, qubits, support) != 0, axis=1)


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

    __slots__ = ("op", "num_ops", "support", "classical", "_map")

    def __init__(self, op: CompiledOperator, num_ops: int):
        self.op = op
        self.num_ops = num_ops  # source operations fused into this step
        self.support = tuple(sorted(op.targets))
        self.classical = _monomial(op.matrix)
        self._map = _index_map(op.matrix, op.targets, self.support) if self.classical else None

    def key_for(self, choices: Optional[Mapping[int, int]]) -> Tuple[int, ...]:
        return ()

    def variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        return self.op

    def permutation(self, key: Tuple[int, ...]) -> np.ndarray:
        """The index map of a classical step on :attr:`support`."""
        return self._map

    def __repr__(self) -> str:
        return f"GateStep(targets={self.op.targets}, ops={self.num_ops}, tier={self.op.tier!r})"


class NoiseStep:
    """A fused window containing noise sites: one compiled operator per
    realized Kraus-index combination.

    ``site_ids`` lists the window's noise sites in application order; a
    *variant key* is the tuple of Kraus indices chosen at those sites (in
    the same order).  :meth:`key_for` maps a trajectory's sparse
    ``{site_id: kraus_index}`` choices to its key (absent sites take the
    channel's dominant branch), and :meth:`variant` compiles/memoizes the
    fused operator for a key.

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
        "_site_items",
        "_prefix",
        "_operators",
        "_embedded",
        "_maps",
        "_composed",
        "_probabilities",
        "_step_index",
        "_dtype",
        "_cache",
    )

    def __init__(
        self,
        ops: Sequence[Operation],
        targets: Tuple[int, ...],
        step_index: int,
        dtype: np.dtype,
        cache: KernelVariantCache,
        analysis: ChannelAnalysisCache,
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
        mixtures = [analysis.mixture(ch) for ch in channels]
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
        self._prefix: List[np.ndarray] = []
        # Per site, the operators a variant multiplies: U_i on a unitary
        # window, the Kraus operators themselves otherwise.
        self._operators = tuple(
            mix.unitaries if self.unitary else ch.kraus_ops
            for mix, ch in zip(mixtures, channels)
        )
        self.support = tuple(sorted(targets))
        self._classical: Optional[bool] = None
        # (item position, kraus index or None for a gate) -> the factor
        # embedded onto ``targets`` (its index map onto ``support`` in
        # ``_maps``), built on first use.
        self._embedded: Dict[Tuple[int, Optional[int]], np.ndarray] = {}
        self._maps: Dict[Tuple[int, Optional[int]], np.ndarray] = {}
        self._composed: Dict[Tuple[int, ...], np.ndarray] = {}
        self._probabilities: Dict[Tuple[int, ...], float] = {}
        self._step_index = step_index
        self._dtype = dtype
        self._cache = cache

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

    def key_for(self, choices: Optional[Mapping[int, int]]) -> Tuple[int, ...]:
        """Variant key for one trajectory's Kraus choices (validated)."""
        if not choices:
            return self.dominant_key
        key = list(self.dominant_key)
        for pos, site_id in enumerate(self.site_ids):
            idx = choices.get(site_id)
            if idx is None:
                continue
            channel = self.channels[pos]
            if not (0 <= idx < len(channel)):
                raise BackendError(
                    f"kraus_index {idx} out of range for {channel.name!r} "
                    f"({len(channel)} operators)"
                )
            key[pos] = idx
        return tuple(key)

    def probability(self, key: Tuple[int, ...]) -> float:
        """Branch probability of ``key`` on a ``unitary`` window: the
        product of the sites' nominal probabilities, in site order
        (memoized per key)."""
        probability = self._probabilities.get(key)
        if probability is None:
            probability = self._probabilities[key] = math.prod(
                channel.nominal_probs[idx] for channel, idx in zip(self.channels, key)
            )
        return probability

    def variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        """Compiled fused operator realizing Kraus choices ``key``."""
        return self._cache.get_or_build(
            (self._step_index, key), lambda: self._compile_variant(key)
        )

    def _compile_variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        if len(self._items) == 1:
            # Singleton window: compile the site's operator directly on
            # its own qubit order — the arithmetic of the per-op loop.
            _, pos, qubits = self._items[0]
            return compile_operator(
                self._operators[pos][key[pos]], qubits, self._dtype
            )
        # The product fuse_window_matrix forms, over factors embedded onto
        # the window once per step instead of once per variant, continued
        # from the dominant variant's product up to the key's first
        # deviating item: the same matmuls in the same order, so a variant
        # deviating at the window's last site multiplies only from there.
        deviating = zip(self._site_items, key, self.dominant_key)
        start = min((item for item, idx, dom in deviating if idx != dom), default=len(self._items))
        fused = multiply_window(
            (self._factor(pos, key) for pos in range(start, len(self._items))),
            self._dominant_prefix(start),
        )
        return compile_operator(fused, self.targets, self._dtype)

    def _dominant_prefix(self, count: int) -> Optional[np.ndarray]:
        """The dominant variant's product of items ``[0, count)`` (``None``
        for none), memoized per item position as the walk to it forms it."""
        while len(self._prefix) < count:
            factor = self._factor(len(self._prefix), self.dominant_key)
            self._prefix.append(factor @ self._prefix[-1] if self._prefix else factor)
        return self._prefix[count - 1] if count else None

    def permutation(self, key: Tuple[int, ...]) -> np.ndarray:
        """Index map of a classical window's variant ``key`` on ``support``:
        ``|U psi|**2 [i] = |psi|**2 [map[i]]``.  Composed from the items'
        own maps (``2**k`` integers each), with no complex product, once
        per key."""
        composed = self._composed.get(key)
        if composed is None:
            composed = self._composed[key] = self._compose(key)
        return composed

    def _compose(self, key: Tuple[int, ...]) -> np.ndarray:
        composed = np.arange(2 ** len(self.support))
        for pos, (kind, payload, qubits) in enumerate(self._items):
            idx = key[payload] if kind == "noise" else None
            part = self._maps.get((pos, idx))
            if part is None:
                matrix = payload if idx is None else self._operators[payload][idx]
                part = self._maps[(pos, idx)] = _index_map(matrix, qubits, self.support)
            # The first item acts first: (B A) maps i to map_A[map_B[i]].
            composed = composed[part]
        return composed

    def _factor(self, pos: int, key: Tuple[int, ...]) -> np.ndarray:
        """Item ``pos`` of the window under ``key``, embedded onto ``targets``."""
        kind, payload, qubits = self._items[pos]
        idx = key[payload] if kind == "noise" else None
        factor = self._embedded.get((pos, idx))
        if factor is None:
            matrix = payload if idx is None else self._operators[payload][idx]
            factor = expand_to_support(matrix, qubits, self.targets)
            self._embedded[(pos, idx)] = factor
        return factor

    def __repr__(self) -> str:
        return (
            f"NoiseStep(sites={self.site_ids}, targets={self.targets}, "
            f"ops={self.num_ops}, unitary={self.unitary})"
        )


PlanStep = Union[GateStep, NoiseStep]


class FusedPlan:
    """The compiled form of one frozen circuit at one state dtype.

    ``tail`` is the index of the first step of the plan's maximal suffix of
    classical steps (``num_steps`` when the last step is not classical).
    """

    def __init__(
        self,
        steps: List[PlanStep],
        num_qubits: int,
        num_source_ops: int,
        max_qubits: int,
        variant_cache: KernelVariantCache,
    ):
        self.steps = steps
        self.tail = len(steps)
        while self.tail and steps[self.tail - 1].classical:
            self.tail -= 1
        self.num_qubits = num_qubits
        self.num_source_ops = num_source_ops
        self.max_qubits = max_qubits
        self.variant_cache = variant_cache
        # Noise site id -> (its step's index, the site's dominant index).
        self._sites: Dict[int, Tuple[int, int]] = {
            site: (index, dominant)
            for index, step in enumerate(steps)
            if isinstance(step, NoiseStep)
            for site, dominant in zip(step.site_ids, step.dominant_key)
        }

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def prescribed_steps(
        self, choices_list: Sequence[Optional[Mapping[int, int]]]
    ) -> Tuple[List[int], List[List[int]]]:
        """Where each prescription in ``choices_list`` acts on the plan.

        Returns ``first`` — per prescription, the index of the first step
        at which it takes a branch other than the dominant one
        (``num_steps`` if it never does): every step before it runs the
        ideal circuit's variant — and ``touched`` — per step, the
        prescriptions (by position, ascending) that name one of its sites.
        A choice that names the dominant index touches its step but is no
        deviation; index ranges are checked where a step's
        :meth:`NoiseStep.key_for` reads them.
        """
        first = [len(self.steps)] * len(choices_list)
        touched: List[List[int]] = [[] for _ in self.steps]
        for row, choices in enumerate(choices_list):
            for site, index in (choices or {}).items():
                entry = self._sites.get(site)
                if entry is None:
                    raise BackendError(
                        f"noise site {site} is not in the circuit "
                        f"(it has {len(self._sites)} sites)"
                    )
                step, dominant = entry
                rows = touched[step]
                if not rows or rows[-1] != row:
                    rows.append(row)
                if index != dominant and step < first[row]:
                    first[row] = step
        return first, touched

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
    cache = KernelVariantCache()
    # One unitary-mixture analysis per distinct channel object per build.
    analysis = ChannelAnalysisCache()
    dtype = config.dtype
    steps: List[PlanStep] = []
    num_source_ops = 0
    for window in schedule_fusion_windows(circuit, max_qubits):
        num_source_ops += len(window)
        has_noise = any(isinstance(op, NoiseOp) for op in window)
        if has_noise:
            if len(window) == 1:
                targets = window[0].qubits
            else:
                targets = window_support([op.qubits for op in window])
            steps.append(
                NoiseStep(window, targets, len(steps), dtype, cache, analysis)
            )
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
    return FusedPlan(steps, circuit.num_qubits, num_source_ops, max_qubits, cache)


#: Per-circuit plan cache: weakly keyed on the circuit object, then on the
#: state dtype.  A circuit is compiled once per process per dtype — every
#: executor chunk, stack, and strategy after that reuses the same plan
#: object (and its variant cache), the "compile once per dedup group"
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
