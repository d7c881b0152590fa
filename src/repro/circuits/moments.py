"""Greedy scheduling of operations into parallel moments and fusion windows.

Moments are used by the compatibility checks of Pre-Trajectory Sampling
(two sampled Kraus operators are *incompatible* when they would act on the
same qubit at the same time — paper Algorithm 2's ``compatible`` function
keys on the moment structure) and by the device performance model (circuit
depth drives the prep-time estimate).

Fusion windows (:func:`schedule_fusion_windows`) are the scheduling half
of the gate/noise fusion pipeline: operations are greedily clustered into
bounded-support groups that the plan compiler
(:mod:`repro.execution.plan`) turns into single fused matrices via
:mod:`repro.linalg.fusion`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.operations import MeasureOp, Operation

__all__ = ["schedule_moments", "moment_index_of_ops", "schedule_fusion_windows"]


def schedule_moments(circuit: Circuit) -> List[List[Operation]]:
    """Pack operations into moments with the as-soon-as-possible heuristic.

    An operation lands in the earliest moment after every earlier operation
    that shares a qubit with it.  Program order is preserved within the
    returned structure.
    """
    frontier: Dict[int, int] = {}  # qubit -> first free moment index
    moments: List[List[Operation]] = []
    for op in circuit:
        at = max((frontier.get(q, 0) for q in op.qubits), default=0)
        while len(moments) <= at:
            moments.append([])
        moments[at].append(op)
        for q in op.qubits:
            frontier[q] = at + 1
    return moments


class _OpenWindow:
    """One growing fusion window: its qubit support and member operations."""

    __slots__ = ("support", "ops", "seq")

    def __init__(self, support: Set[int], ops: List[Operation], seq: int):
        self.support = support
        self.ops = ops
        self.seq = seq


def schedule_fusion_windows(
    circuit: Circuit, max_qubits: int
) -> List[List[Operation]]:
    """Greedily cluster gate/noise ops into windows of bounded support.

    Returns windows in a valid emission order; each window is a list of
    operations in program order whose combined qubit support has at most
    ``max_qubits`` qubits (an operation wider than the cap becomes its own
    window — it runs unfused).  The plan compiler passes
    :func:`repro.execution.plan.fusion_cap` of the circuit's width (3
    below 12 qubits, 4 from 12 — wider windows mean fewer windows, hence
    fewer renormalization sweeps, which wins on wide circuits).
    :class:`MeasureOp`s are omitted: the
    backends defer measurement to terminal bulk sampling.

    The invariant that makes the reordering sound: *concurrently open
    windows have pairwise disjoint supports*.  An operation lands in the
    open window(s) it shares qubits with — merging them when the combined
    support fits the cap, flushing them when it does not — so any two
    operations whose order is exchanged between program order and emission
    order act on disjoint qubits and therefore commute.  Per qubit,
    program order is preserved exactly.
    """
    if max_qubits < 1:
        raise ValueError(f"max_qubits must be >= 1, got {max_qubits}")
    emitted: List[List[Operation]] = []
    open_windows: List[_OpenWindow] = []
    seq = 0

    def flush(windows: List[_OpenWindow]) -> None:
        for w in sorted(windows, key=lambda w: w.seq):
            emitted.append(w.ops)
            open_windows.remove(w)

    for op in circuit:
        if isinstance(op, MeasureOp):
            continue
        qubits = set(op.qubits)
        overlapping = [w for w in open_windows if w.support & qubits]
        merged_support = set(qubits)
        for w in overlapping:
            merged_support |= w.support
        if len(merged_support) <= max_qubits:
            if overlapping:
                overlapping.sort(key=lambda w: w.seq)
                target = overlapping[0]
                for w in overlapping[1:]:
                    # Disjoint supports: concatenating in creation order is
                    # a valid interleaving of the merged windows' ops.
                    target.ops.extend(w.ops)
                    target.support |= w.support
                    open_windows.remove(w)
                target.ops.append(op)
                target.support = merged_support
            else:
                open_windows.append(_OpenWindow(qubits, [op], seq))
                seq += 1
        else:
            flush(overlapping)
            if len(qubits) <= max_qubits:
                open_windows.append(_OpenWindow(qubits, [op], seq))
                seq += 1
            else:
                emitted.append([op])  # wider than the cap: runs unfused
    flush(list(open_windows))
    return emitted


def moment_index_of_ops(circuit: Circuit) -> Dict[int, int]:
    """Map each operation's program-order index to its moment index."""
    frontier: Dict[int, int] = {}
    out: Dict[int, int] = {}
    for idx, op in enumerate(circuit):
        at = max((frontier.get(q, 0) for q in op.qubits), default=0)
        out[idx] = at
        for q in op.qubits:
            frontier[q] = at + 1
    return out
