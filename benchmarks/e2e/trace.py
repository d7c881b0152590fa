"""Per-layer tracing from outside ``src/``: wrap the layers' entry points.

:data:`WRAPS` names every public entry point the benchmark times.
:func:`tracing` replaces each one — functions in every ``repro.*``
namespace that binds them, methods on their class — with a wrapper that
records an in-memory span (name, start, end, parent) while the context is
open, and restores the originals on exit.  A target that does not resolve,
or is bound nowhere, raises :class:`TraceError`; nothing is skipped.

A layer's time is its spans' *self* time: duration minus the direct child
spans.  Nothing overlaps in these single-process runs, so self times add
up to the traced wall and ``trace.coverage`` says how much of the timed
region the table accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["WRAPS", "PER_LAYER", "TraceError", "Tracer", "tracing", "layer_metrics"]


class TraceError(RuntimeError):
    """A wrap-table entry does not resolve or is bound nowhere."""


Counts = Callable[[tuple, Any], Dict[str, float]]


@dataclass(frozen=True)
class Wrap:
    target: str  # "module:function" or "module:Class.method"
    span: str
    #: Counts taken at the boundary from (positional args, return value).
    counts: Optional[Counts] = None
    #: Record the growth of ``self.renorm_seconds`` across the call (the
    #: dense backends' own public renormalization timer).
    renorm: bool = False


def _pts_counts(args, result):
    return {"attempts": result.attempted_samples, "specs": len(result.specs)}


def _apply_counts(args, result):
    # Computed, not measured: one read and one write of the stack.
    return {"bytes": 2 * args[0].nbytes}


def _table_counts(args, result):
    return {"bytes": result.bits.nbytes + result.trajectory_ids.nbytes}


def _shots(position):
    return lambda args, result: {"shots": args[position]}


WRAPS: Tuple[Wrap, ...] = (
    Wrap("repro.pts.probabilistic:ProbabilisticPTS.sample", "pts.sample", _pts_counts),
    Wrap(
        "repro.pts.base:deduplicate_specs",
        "dedup.group",
        lambda args, result: {"specs": len(args[0]), "groups": len(result)},
    ),
    Wrap("repro.rng:StreamFactory.rng_for", "rng.stream"),
    Wrap("repro.execution.router:resolve_strategy", "router.resolve"),
    Wrap("repro.execution.plan:get_fused_plan", "plan.compile"),
    Wrap("repro.linalg.apply:apply_compiled_stack", "linalg.apply", _apply_counts),
    Wrap(
        "repro.backends.statevector:StatevectorBackend.run_fixed",
        "sv.prepare",
        renorm=True,
    ),
    Wrap("repro.backends.statevector:StatevectorBackend.sample", "sv.sample", _shots(1)),
    Wrap(
        "repro.backends.batched_statevector:BatchedStatevectorBackend.run_fixed_stack",
        "stack.prepare",
        lambda args, result: {"rows": len(args[2])},
        renorm=True,
    ),
    Wrap(
        "repro.backends.batched_statevector:BatchedStatevectorBackend.cumulative_stack",
        "stack.cumulative",
    ),
    Wrap(
        "repro.backends.batched_statevector:BatchedStatevectorBackend.sample",
        "stack.sample",
    ),
    Wrap("repro.backends.pauli_frame:FrameSampler.__init__", "frame.compile"),
    Wrap("repro.backends.pauli_frame:FrameSampler.frame_for_choices", "frame.assemble"),
    Wrap("repro.backends.pauli_frame:FrameSampler.sample_fixed", "frame.sample", _shots(2)),
    Wrap("repro.execution.tensornet:compile_schedule", "tn.compile"),
    Wrap("repro.execution.tensornet:replay_schedule", "tn.replay"),
    Wrap("repro.backends.mps_sampler:compute_right_environments_batched", "mps.env"),
    Wrap("repro.backends.mps_sampler:sample_cached", "mps.sample", _shots(2)),
    # Counted only when a chunk is returned; the last call raises StopIteration.
    Wrap(
        "repro.execution.streaming:StreamedResult.__next__",
        "deliver.next",
        lambda args, result: {"chunks": 1},
    ),
    Wrap("repro.execution.streaming:StreamedResult.finalize", "deliver.finalize"),
    Wrap("repro.execution.streaming:OrderedDelivery.add", "deliver.reorder"),
    Wrap("repro.execution.results:PTSBEResult.shot_table", "results.assemble", _table_counts),
    Wrap("repro.execution.streaming:ShotChunk.shot_table", "results.assemble", _table_counts),
)

#: Every per-layer metric the traced run reports: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "pts.sample_s": ("s", "lower"),
    "pts.attempts": ("count", "lower"),
    "pts.specs": ("count", "higher"),
    "pts.unique_ratio": ("ratio", "higher"),
    "dedup.group_s": ("s", "lower"),
    "dedup.ratio": ("ratio", "lower"),
    "rng.stream_s": ("s", "lower"),
    "rng.stream_calls": ("count", "lower"),
    "router.resolve_s": ("s", "lower"),
    "plan.compile_s": ("s", "lower"),
    "linalg.apply_s": ("s", "lower"),
    "linalg.apply_calls": ("count", "lower"),
    "linalg.apply_bytes": ("bytes", "lower"),
    "sv.prepare_s": ("s", "lower"),
    "sv.prepare_calls": ("count", "lower"),
    "sv.renorm_s": ("s", "lower"),
    "sv.sample_s": ("s", "lower"),
    "sv.sample_shots": ("count", "higher"),
    "stack.prepare_s": ("s", "lower"),
    "stack.prepare_calls": ("count", "lower"),
    "stack.rows": ("count", "lower"),
    "stack.renorm_s": ("s", "lower"),
    "stack.cumulative_s": ("s", "lower"),
    "stack.sample_s": ("s", "lower"),
    "frame.compile_s": ("s", "lower"),
    "frame.assemble_s": ("s", "lower"),
    "frame.assemble_calls": ("count", "lower"),
    "frame.sample_s": ("s", "lower"),
    "frame.sample_shots": ("count", "higher"),
    "tn.compile_s": ("s", "lower"),
    "tn.replay_s": ("s", "lower"),
    "tn.replay_calls": ("count", "lower"),
    "mps.env_s": ("s", "lower"),
    "mps.sample_s": ("s", "lower"),
    "mps.sample_shots": ("count", "higher"),
    "deliver.next_s": ("s", "lower"),
    "deliver.finalize_s": ("s", "lower"),
    "deliver.reorder_s": ("s", "lower"),
    "deliver.chunks": ("count", "higher"),
    "results.assemble_s": ("s", "lower"),
    "results.assemble_bytes": ("bytes", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """In-memory span store for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: List[Optional[Dict[str, float]]] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.counts.append(None)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its direct children cover."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[index] - self.starts[index]
        return out

    def to_json(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in zip(
                    self.names, self.starts, self.ends, self.parents, self.counts
                )
            ],
        }


_ACTIVE: Optional[Tracer] = None


def _wrapper(original: Callable, wrap: Wrap) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return original(*args, **kwargs)
        renorm_before = args[0].renorm_seconds if wrap.renorm else 0.0
        index = tracer.begin(wrap.span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if wrap.counts or wrap.renorm:
            counts = wrap.counts(args, result) if wrap.counts else {}
            if wrap.renorm:
                counts["renorm_s"] = args[0].renorm_seconds - renorm_before
            tracer.counts[index] = counts
        return result

    return traced


def resolve(target: str) -> Tuple[Optional[type], str, Callable]:
    """``target`` -> (owning class or None, attribute, original)."""
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"{target}: cannot import {module_name}") from exc
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else None
    namespace = vars(owner) if owner_name and owner is not None else vars(module)
    if (owner_name and owner is None) or attr not in namespace:
        raise TraceError(f"{target}: {qualname} is not defined in {module_name}")
    original = namespace[attr]
    if not callable(original):
        raise TraceError(f"{target}: not a plain function or method")
    return owner, attr, original


@contextlib.contextmanager
def install() -> Iterator[None]:
    """Wrap every :data:`WRAPS` target; restore the originals on exit."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for wrap in WRAPS:
            owner, attr, original = resolve(wrap.target)
            traced = _wrapper(original, wrap)
            if owner is not None:
                holders = [owner]
            else:
                holders = [
                    module
                    for name, module in list(sys.modules.items())
                    if (name == "repro" or name.startswith("repro."))
                    and vars(module).get(attr) is original
                ]
                if not holders:
                    raise TraceError(f"{wrap.target}: bound in no repro namespace")
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, traced)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


@contextlib.contextmanager
def tracing(run_id: str) -> Iterator[Tracer]:
    """Record spans into a fresh :class:`Tracer` while the context is open.

    Must be entered inside :func:`install`; the wrappers are a plain call
    to the original whenever no tracer is active.
    """
    global _ACTIVE
    tracer = Tracer(run_id)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = None


def layer_metrics(tracer: Tracer, root: int, untraced_seconds: float) -> Dict[str, float]:
    """Fold one traced repetition's spans into the :data:`PER_LAYER` values.

    ``root`` is the span the harness opened around the timed region; its
    own self time is what the wrap table does not account for.
    """
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    for index, (name, own) in enumerate(zip(tracer.names, tracer.self_times())):
        if index == root:
            continue
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (tracer.counts[index] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0.0) + value
    wall = tracer.ends[root] - tracer.starts[root]

    out = {name: 0.0 for name in PER_LAYER}
    for span, value in seconds.items():
        out[f"{span}_s"] = value
    for span, number in calls.items():
        if f"{span}_calls" in out:
            out[f"{span}_calls"] = number
    # The dense backends time renormalization themselves; move that part
    # of the preparation span's self time into its own row.
    for layer in ("sv", "stack"):
        renorm = counts.get(f"{layer}.prepare.renorm_s", 0.0)
        out[f"{layer}.renorm_s"] = renorm
        out[f"{layer}.prepare_s"] -= renorm
    out["pts.attempts"] = counts.get("pts.sample.attempts", 0)
    out["pts.specs"] = specs = counts.get("pts.sample.specs", 0)
    out["pts.unique_ratio"] = specs / max(out["pts.attempts"], 1)
    out["dedup.ratio"] = counts.get("dedup.group.groups", 0) / max(
        counts.get("dedup.group.specs", 0), 1
    )
    out["linalg.apply_bytes"] = counts.get("linalg.apply.bytes", 0)
    out["sv.sample_shots"] = counts.get("sv.sample.shots", 0)
    out["stack.rows"] = counts.get("stack.prepare.rows", 0)
    out["frame.sample_shots"] = counts.get("frame.sample.shots", 0)
    out["mps.sample_shots"] = counts.get("mps.sample.shots", 0)
    out["deliver.chunks"] = counts.get("deliver.next.chunks", 0)
    out["results.assemble_bytes"] = counts.get("results.assemble.bytes", 0)
    out["trace.coverage"] = sum(seconds.values()) / wall
    out["trace.overhead"] = wall / untraced_seconds - 1.0
    return out
