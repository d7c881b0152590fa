"""Fused execution plans: compile a circuit once, run it on every strategy.

The paper's batched-execution speedups come from amortizing circuit work
across trajectories; this module amortizes it across *operations* as well.
A :class:`FusedPlan` pre-compiles a frozen noisy circuit into a short
sequence of steps — adjacent gates and noise sites whose qubit supports
overlap are merged into single window matrices (qsim-style gate fusion,
bounded by ``Config.fusion_max_qubits``) with the diagonal/identity fast
paths re-detected on the fused result (:func:`repro.linalg.apply
.compile_operator`), so a brickwork layer of H + depolarizing + CX +
two-qubit depolarizing collapses from six kernel passes and three
renormalizations into one pass and no renormalization at all.

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

Every dense strategy walks the plan in one place,
``BatchedStatevectorBackend``'s stacked preparation (the serial
``StatevectorBackend`` is its one-row view) — obtained from the
per-circuit cache :func:`get_fused_plan` — with the same matrices,
application order, and renormalization points, which is what keeps
serial/vectorized/sharded execution bitwise identical with fusion on or
off.  Fused and unfused runs
of the *same* trajectory agree on probabilities and weights to
floating-point accuracy, not bit for bit (matrix products round
differently than sequential application), which is why the fusion knob
lives on :class:`~repro.config.Config` rather than per call: one process,
one numerics story.

``Config.fusion="off"`` compiles a degenerate plan — one step per circuit
operation, each applied on its own qubit order as the per-site loop of
:meth:`~repro.backends.base.PureStateBackend.run_fixed` applies it; a
unitary-mixture site is still a unitary step with its nominal
probability, so the dominant depolarizing branch is the identity tier:
no pass, no reduction.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.moments import schedule_fusion_windows
from repro.circuits.operations import MeasureOp, NoiseOp, Operation
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
    "plan_cache_stats",
]

VALID_FUSION_MODES = ("auto", "off")


class GateStep:
    """A purely coherent fused window: one compiled operator, no renorm."""

    __slots__ = ("op", "num_ops")

    def __init__(self, op: CompiledOperator, num_ops: int):
        self.op = op
        self.num_ops = num_ops  # source operations fused into this step

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
    """

    __slots__ = (
        "site_ids",
        "channels",
        "dominant_key",
        "targets",
        "num_ops",
        "unitary",
        "_items",
        "_operators",
        "_embedded",
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
        # Per site, the operators a variant multiplies: U_i on a unitary
        # window, the Kraus operators themselves otherwise.
        self._operators = tuple(
            mix.unitaries if self.unitary else ch.kraus_ops
            for mix, ch in zip(mixtures, channels)
        )
        # (item position, kraus index or None for a gate) -> the factor
        # embedded onto ``targets``, built on first use.
        self._embedded: Dict[Tuple[int, Optional[int]], np.ndarray] = {}
        self._step_index = step_index
        self._dtype = dtype
        self._cache = cache

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
        product of the sites' nominal probabilities, in site order."""
        return math.prod(
            channel.nominal_probs[idx] for channel, idx in zip(self.channels, key)
        )

    def variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        """Compiled fused operator realizing Kraus choices ``key``."""
        return self._cache.get_or_build(
            (self._step_index, key), lambda: self._compile_variant(key)
        )

    def _compile_variant(self, key: Tuple[int, ...]) -> CompiledOperator:
        if len(self._items) == 1:
            # Singleton window: compile the site's operator directly on
            # its own qubit order — identical arithmetic to the unfused
            # per-op path.
            _, pos, qubits = self._items[0]
            return compile_operator(
                self._operators[pos][key[pos]], qubits, self._dtype
            )
        # The product fuse_window_matrix forms, over factors embedded onto
        # the window once per step instead of once per variant: a variant
        # of a 4-qubit window is ~22 16x16 products, not ~22 embeddings.
        fused = multiply_window(
            self._factor(pos, key) for pos in range(len(self._items))
        )
        return compile_operator(fused, self.targets, self._dtype)

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
    """The compiled form of one frozen circuit under one fusion config."""

    def __init__(
        self,
        steps: List[PlanStep],
        num_qubits: int,
        num_source_ops: int,
        fusion: str,
        fusion_max_qubits: int,
        variant_cache: KernelVariantCache,
    ):
        self.steps = steps
        self.num_qubits = num_qubits
        self.num_source_ops = num_source_ops
        self.fusion = fusion
        self.fusion_max_qubits = fusion_max_qubits
        self.variant_cache = variant_cache

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_noise_steps(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, NoiseStep))

    def __repr__(self) -> str:
        return (
            f"FusedPlan(steps={self.num_steps} [{self.num_noise_steps} noise] "
            f"from {self.num_source_ops} ops, fusion={self.fusion!r}, "
            f"max_qubits={self.fusion_max_qubits})"
        )


def build_fused_plan(circuit: Circuit, config: Optional[Config] = None) -> FusedPlan:
    """Compile a frozen circuit into a :class:`FusedPlan`.

    Most callers want the memoized :func:`get_fused_plan` instead; this
    builder always compiles fresh.
    """
    config = config or DEFAULT_CONFIG
    if not circuit.frozen:
        raise ExecutionError("fused plans require a frozen circuit")
    if config.fusion not in VALID_FUSION_MODES:
        valid = ", ".join(repr(m) for m in VALID_FUSION_MODES)
        raise ExecutionError(
            f"unknown fusion mode {config.fusion!r}; valid modes are: {valid}"
        )
    if config.fusion_max_qubits is not None and config.fusion_max_qubits < 1:
        raise ExecutionError(
            f"fusion_max_qubits must be >= 1, got {config.fusion_max_qubits}"
        )
    # An explicit fusion_max_qubits overrides; the None default resolves
    # width-aware (3 narrow / 4 at >= 12 qubits, see repro.config).
    max_qubits = config.resolved_fusion_max_qubits(circuit.num_qubits)
    if config.fusion == "off":
        windows = [
            [op] for op in circuit if not isinstance(op, MeasureOp)
        ]
    else:
        windows = schedule_fusion_windows(circuit, max_qubits)
    cache = KernelVariantCache()
    # One unitary-mixture analysis per distinct channel object per build.
    analysis = ChannelAnalysisCache()
    dtype = config.dtype
    steps: List[PlanStep] = []
    num_source_ops = 0
    for window in windows:
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
    return FusedPlan(
        steps,
        circuit.num_qubits,
        num_source_ops,
        config.fusion,
        max_qubits,
        cache,
    )


#: Per-circuit plan cache: weakly keyed on the circuit object, then on the
#: fusion-relevant config fields.  A circuit is compiled once per process
#: per (fusion, resolved window cap, dtype) — every executor chunk, stack,
#: and strategy after that reuses the same plan object (and its variant
#: cache), the "compile once per dedup group" amortization.  Keying on the
#: *resolved* cap means ``Config()`` and an explicit
#: ``Config(fusion_max_qubits=3)`` share one plan on a narrow circuit.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[tuple, FusedPlan]]" = (
    weakref.WeakKeyDictionary()
)
_CACHE_STATS = {"hits": 0, "misses": 0}


def _config_key(config: Config, num_qubits: int) -> tuple:
    return (
        config.fusion,
        config.resolved_fusion_max_qubits(num_qubits),
        str(np.dtype(config.dtype)),
    )


def get_fused_plan(circuit: Circuit, config: Optional[Config] = None) -> FusedPlan:
    """Memoized :func:`build_fused_plan` (per circuit, per fusion config)."""
    config = config or DEFAULT_CONFIG
    per_circuit = _PLAN_CACHE.get(circuit)
    if per_circuit is None:
        per_circuit = {}
        _PLAN_CACHE[circuit] = per_circuit
    key = _config_key(config, circuit.num_qubits)
    plan = per_circuit.get(key)
    if plan is None:
        _CACHE_STATS["misses"] += 1
        plan = build_fused_plan(circuit, config)
        per_circuit[key] = plan
    else:
        _CACHE_STATS["hits"] += 1
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan (tests and benchmarks)."""
    _PLAN_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def plan_cache_stats() -> Dict[str, int]:
    """Plan-cache hit/miss counters (copies, not live references)."""
    return dict(_CACHE_STATS)
