"""Candidate selection criteria — paper §3.1's "Line 5" extensions.

"Separately, we could also add selection criteria to Line 5 of Algorithm 2
to specify gate type, parity, location, and so on."

Each factory returns a predicate ``ErrorCandidate -> bool``; predicates
compose with ``&``, ``|`` and ``~`` via the :class:`Filter` wrapper, and
plug into any sampler accepting ``candidate_filter``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.pts.base import ErrorCandidate

__all__ = [
    "Filter",
    "by_gate_context",
    "by_channel_name",
    "by_qubits",
    "by_qubit_parity",
    "by_min_probability",
    "by_max_probability",
]


class Filter:
    """Composable predicate over error candidates."""

    def __init__(self, fn: Callable[[ErrorCandidate], bool], label: str = "filter"):
        self.fn = fn
        self.label = label

    def __call__(self, candidate: ErrorCandidate) -> bool:
        return self.fn(candidate)

    def __and__(self, other: "Filter") -> "Filter":
        return Filter(lambda c: self(c) and other(c), f"({self.label} & {other.label})")

    def __or__(self, other: "Filter") -> "Filter":
        return Filter(lambda c: self(c) or other(c), f"({self.label} | {other.label})")

    def __invert__(self) -> "Filter":
        return Filter(lambda c: not self(c), f"~{self.label}")

    def __repr__(self) -> str:
        return f"Filter({self.label})"


def by_gate_context(*gate_names: str) -> Filter:
    """Keep errors decorating one of the named gates (e.g. only CX noise)."""
    names = {g.lower() for g in gate_names}
    return Filter(lambda c: c.gate_context.lower() in names, f"gate in {sorted(names)}")


def by_channel_name(*channel_names: str) -> Filter:
    """Keep errors from channels whose name starts with any given prefix."""
    prefixes = tuple(channel_names)
    return Filter(
        lambda c: c.channel_name.startswith(prefixes), f"channel in {list(prefixes)}"
    )


def by_qubits(qubits: Iterable[int]) -> Filter:
    """Keep errors touching only the given qubit set (spatial targeting)."""
    allowed = frozenset(qubits)
    return Filter(
        lambda c: set(c.qubits) <= allowed, f"qubits <= {sorted(allowed)}"
    )


def by_qubit_parity(parity: int) -> Filter:
    """Keep errors whose first target qubit has the given parity (0 or 1)."""
    parity = int(parity) % 2
    return Filter(lambda c: c.qubits[0] % 2 == parity, f"parity == {parity}")


def by_min_probability(p_min: float) -> Filter:
    """Keep error branches at least this likely."""
    return Filter(lambda c: c.probability >= p_min, f"p >= {p_min:g}")


def by_max_probability(p_max: float) -> Filter:
    """Keep error branches at most this likely (rare-error targeting)."""
    return Filter(lambda c: c.probability <= p_max, f"p <= {p_max:g}")
