"""PTS core abstractions: candidates, the trajectory table, algorithm base.

:class:`NoiseSiteView` flattens a frozen noisy circuit into the
``NoisyCircuit({K}, {p})`` iterable of paper Algorithm 2: one candidate
column per non-dominant Kraus branch per noise site — its site, branch,
nominal probability, target qubits, moment index (for the ``compatible``
check) and log-probability step against the site's dominant branch — and,
read on demand, the same candidates as :class:`ErrorCandidate` objects,
which also name the gate each channel decorates (for the
selection-criteria filters).

:class:`PTSResult` is PTS's output — "the prescribed sampled set of Kraus
operators {K_a0, ..., K_ai} along with their prescribed number of shots
m_a" (paper Fig. 1) — as one table: a
:class:`~repro.prescriptions.Prescriptions` row per trajectory, its
deviations from the dominant branches, beside its trajectory id, shot
count and nominal probability.  :meth:`NoiseSiteView.rows` builds it
from candidate columns in CSR form (:meth:`NoiseSiteView.result` from
lists of candidates).  A :class:`TrajectorySpec` and its
provenance :class:`~repro.trajectory.events.TrajectoryRecord` are views of
one row, built when read (``result.specs[i]``; the execution layer builds
a record where its unit is delivered).  :func:`deduplicate_specs` groups
equal rows.
"""

from __future__ import annotations

import abc
import functools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.moments import moment_index_of_ops
from repro.circuits.operations import GateOp, NoiseOp
from repro.errors import SamplingError
from repro.prescriptions import Prescriptions, gather, prescribe, site_table
from repro.trajectory.events import NoiseSites, TrajectoryRecord

__all__ = [
    "ErrorCandidate",
    "NoiseSiteView",
    "TrajectorySpec",
    "SpecGroups",
    "deduplicate_specs",
    "PTSResult",
    "PTSAlgorithm",
]


@dataclass(frozen=True)
class ErrorCandidate:
    """One selectable error branch: Kraus op ``kraus_index`` at ``site_id``."""

    site_id: int
    kraus_index: int
    probability: float
    qubits: Tuple[int, ...]
    channel_name: str
    moment: int
    gate_context: str  # name of the gate this channel decorates ("" if none)


class NoiseSiteView:
    """Flattened view of a frozen circuit's stochastic structure, as
    candidate columns built in one pass over the circuit: candidate ``j`` is
    branch ``branch[j]`` of noise site ``site[j]``, of nominal probability
    ``probability[j]``, acting on ``qubits[j]`` (padded with ``-1``) in
    moment ``moment[j]``; ``step[j]`` is ``log probability[j] - log p`` for
    the site's dominant branch probability ``p``, what selecting it adds to
    a trajectory's log-probability.  Columns go in circuit order, so in site
    order, and by branch within a site.

    :attr:`candidates` builds the same candidates as
    :class:`ErrorCandidate` objects (for selection filters and the
    samplers that walk them) on first read.
    """

    def __init__(self, circuit: Circuit):
        if not circuit.frozen:
            raise SamplingError("NoiseSiteView requires a frozen circuit")
        self.circuit = circuit
        moments = moment_index_of_ops(circuit)
        self.dominant_prob: Dict[int, float] = {}
        self.site_moment: Dict[int, int] = {}
        # Per site: the ErrorCandidate fields after the branch and probability.
        self._context: List[Tuple[Tuple[int, ...], str, int, str]] = []
        site: List[int] = []
        branch: List[int] = []
        probability: List[float] = []
        step: List[float] = []
        # A channel object is analysed once however many sites it decorates.
        branches: Dict[int, Tuple[List[int], List[float], List[float], float]] = {}
        last_gate_on_qubit: Dict[int, str] = {}
        for op_index, op in enumerate(circuit):
            if isinstance(op, GateOp):
                for q in op.qubits:
                    last_gate_on_qubit[q] = op.gate.name
                continue
            if not isinstance(op, NoiseOp):
                continue
            channel = op.channel
            analysed = branches.get(id(channel))
            if analysed is None:
                dom = channel.dominant_index()
                probs = channel.nominal_probs
                # math.log, not NumPy's: they differ in the last bit.  A
                # dominant branch of probability 0 makes its selections' 0.
                p_dom = float(probs[dom])
                log_dom = math.log(p_dom) if p_dom > 0.0 else math.inf
                ks = [k for k, p in enumerate(probs) if k != dom and p > 0.0]
                ps = [float(probs[k]) for k in ks]
                analysed = ks, ps, [math.log(p) - log_dom for p in ps], p_dom
                branches[id(channel)] = analysed
            ks, ps, steps, p_dom = analysed
            self.dominant_prob[op.site_id] = p_dom
            self.site_moment[op.site_id] = moments[op_index]
            context = last_gate_on_qubit.get(op.qubits[0], "")
            self._context.append((op.qubits, channel.name, moments[op_index], context))
            site.extend([op.site_id] * len(ks))
            branch.extend(ks)
            probability.extend(ps)
            step.extend(steps)
        self.site = np.array(site, dtype=np.intp)
        self.branch = np.array(branch, dtype=np.intp)
        self.probability = np.array(probability, dtype=np.float64)
        self.step = np.array(step, dtype=np.float64)
        width = max((len(c[0]) for c in self._context), default=0)
        site_qubits = np.full((len(self._context), width), -1, dtype=np.intp)
        for s, (qubits, _, _, _) in enumerate(self._context):
            site_qubits[s, : len(qubits)] = qubits
        self.qubits = site_qubits[self.site]
        self.moment = np.array([c[2] for c in self._context], dtype=np.intp)[self.site]

    @functools.cached_property
    def candidates(self) -> List[ErrorCandidate]:
        """The columns as :class:`ErrorCandidate` objects, in column order."""
        return [
            ErrorCandidate(s, k, p, *self._context[s])
            for s, k, p in zip(self.site.tolist(), self.branch.tolist(), self.probability.tolist())
        ]

    @property
    def num_sites(self) -> int:
        return len(self.dominant_prob)

    @property
    def num_candidates(self) -> int:
        return len(self.site)

    def columns(
        self, candidate_filter: Optional[Callable[[ErrorCandidate], bool]] = None
    ) -> np.ndarray:
        """The columns (ascending) of the candidates ``candidate_filter``
        accepts: every column without one."""
        if candidate_filter is None:
            return np.arange(self.num_candidates)
        return np.flatnonzero([candidate_filter(c) for c in self.candidates])

    def log_dominant_total(self) -> float:
        """log of the all-dominant ("ideal") trajectory probability: every
        trajectory's joint probability starts from it."""
        total = 0.0
        for p in self.dominant_prob.values():
            total += math.log(p) if p > 0.0 else -math.inf
        return total

    def result(
        self,
        selections: Sequence[Sequence[ErrorCandidate]],
        shots: Union[int, np.ndarray],
        algorithm: str,
        **counters: int,
    ) -> "PTSResult":
        """:meth:`rows` of ``selections`` — per trajectory, this view's
        candidates in site order, a site at most once (what ``compatible``
        keeps)."""
        column = {(s, k): j for j, (s, k) in enumerate(zip(self.site.tolist(), self.branch.tolist()))}
        lengths = np.array([len(selection) for selection in selections], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
        columns = [column[c.site_id, c.kraus_index] for c in chain.from_iterable(selections)]
        return self.rows(offsets, np.array(columns, dtype=np.intp), shots, algorithm, **counters)

    def rows(
        self,
        offsets: np.ndarray,
        columns: np.ndarray,
        shots: Union[int, np.ndarray],
        algorithm: str,
        **counters: int,
    ) -> "PTSResult":
        """The PTS output whose row ``i`` selects the candidates
        ``columns[offsets[i]:offsets[i + 1]]`` (in site order, a site at
        most once), numbered from 0, with ``shots`` each (one count, or one
        per row); ``counters`` are the result's rejection counts.

        The table is valid by construction: a candidate is a real site's
        non-dominant branch.  A nominal joint probability takes each
        selected site's branch probability and every other site's dominant
        one (exact for unitary mixtures, paper §2.2): the log of the ideal
        trajectory's, plus the candidates' ``step`` in selection order, then
        one ``math.exp``.
        """
        table = Prescriptions(
            site_table(self.circuit), offsets, self.site[columns], self.branch[columns]
        )
        steps = self.step[columns]
        log_p = np.full(len(table), self.log_dominant_total())
        rows = table.rows()
        position = np.arange(len(rows)) - offsets[rows]
        for j in range(int(np.diff(offsets).max(initial=0))):  # in selection order
            log_p[rows[position == j]] += steps[position == j]
        ids = np.arange(len(table), dtype=np.int64)
        shots = np.broadcast_to(np.asarray(shots, dtype=np.int64), len(table)).copy()
        probabilities = np.array([math.exp(x) for x in log_p.tolist()])
        return PTSResult(table, ids, shots, probabilities, self.circuit, algorithm, **counters)


@dataclass
class TrajectorySpec:
    """One prescribed trajectory: fixed Kraus choices + shot budget."""

    record: TrajectoryRecord
    num_shots: int

    @property
    def choices(self) -> Dict[int, int]:
        return self.record.choices

    @property
    def probability(self) -> float:
        return self.record.nominal_probability

    def with_shots(self, num_shots: int) -> "TrajectorySpec":
        return TrajectorySpec(record=self.record, num_shots=int(num_shots))

    def __repr__(self) -> str:
        return f"TrajectorySpec(errors={self.record.num_errors()}, shots={self.num_shots}, p={self.probability:.3e})"


@dataclass(eq=False)
class PTSResult:
    """Everything a PTS algorithm hands to batched execution: the run's
    trajectory table.

    Row ``i`` is trajectory ``trajectory_ids[i]``, sampled on ``circuit``:
    its deviations from the dominant branches (``table[i]``), ``shots[i]``
    shots and nominal probability ``probabilities[i]``.  ``specs`` is a
    sequence view of the rows, one :class:`TrajectorySpec` built per read.
    A table read back from a dataset file has no ``circuit``, only the
    ``sites`` its records read.
    """

    table: Prescriptions
    trajectory_ids: np.ndarray
    shots: np.ndarray
    probabilities: np.ndarray
    circuit: Optional[Circuit]
    algorithm: str
    attempted_samples: int = 0
    duplicates_rejected: int = 0
    incompatible_rejected: int = 0
    #: A hand-built spec list's own records (``None``: built from the rows).
    records: Optional[Sequence[TrajectoryRecord]] = None
    #: What the records read of ``circuit`` (``None``: read on first use).
    sites: Optional[NoiseSites] = None

    @classmethod
    def from_specs(cls, circuit: Circuit, specs: Sequence[TrajectorySpec]) -> "PTSResult":
        """``specs`` as a result on the frozen ``circuit``, the way
        :func:`~repro.prescriptions.as_prescriptions` takes dicts: a
        result's own ``specs`` view, sampled on a circuit of an equal site
        table, is that result; any other sequence keeps its records, and
        its table is built — so checked — by
        :func:`~repro.prescriptions.prescribe`, which names a bad spec by
        its position."""
        sites = site_table(circuit)
        if isinstance(specs, _Specs) and np.array_equal(specs.result.table.sites, sites):
            return specs.result
        records = [spec.record for spec in specs]
        keys = [sorted((e.site_id, e.kraus_index) for e in r.events) for r in records]
        table = prescribe(sites, keys)
        ids = np.array([r.trajectory_id for r in records], dtype=np.int64)
        shots = np.array([spec.num_shots for spec in specs], dtype=np.int64)
        probabilities = np.array([r.nominal_probability for r in records], dtype=np.float64)
        return cls(table, ids, shots, probabilities, circuit, "specs", records=records)

    @property
    def specs(self) -> Sequence[TrajectorySpec]:
        return _Specs(self)

    def record(self, row: int) -> TrajectoryRecord:
        """Row ``row``'s provenance: its deviations as events, in site order."""
        if self.records is not None:
            return self.records[row]
        table, events = self.table, ()
        lo, hi = table.offsets.item(row), table.offsets.item(row + 1)
        if hi > lo:
            sites, branches = table.site_ids[lo:hi].tolist(), table.branches[lo:hi].tolist()
            events = tuple(map(self.noise_sites().event, sites, branches))
        return TrajectoryRecord(
            self.trajectory_ids.item(row), events, self.probabilities.item(row)
        )

    def noise_sites(self) -> NoiseSites:
        """What the records read of the circuit, read once."""
        if self.sites is None:
            self.sites = NoiseSites.of(self.circuit)
        return self.sites

    def take(self, rows: np.ndarray, shots: np.ndarray, algorithm: str) -> "PTSResult":
        """Rows ``rows`` (an index array) with ``shots`` each, as
        ``algorithm``'s result: how a derived sampler reshapes its base's."""
        return replace(
            self,
            table=self.table.take(rows),
            trajectory_ids=self.trajectory_ids[rows],
            shots=np.asarray(shots, dtype=np.int64),
            probabilities=self.probabilities[rows],
            algorithm=algorithm,
            records=None if self.records is None else [self.records[i] for i in rows.tolist()],
        )

    @property
    def num_trajectories(self) -> int:
        return len(self.shots)

    @property
    def total_shots(self) -> int:
        return int(self.shots.sum())

    def coverage(self) -> float:
        """Sum of nominal probabilities of the distinct sampled sets.

        The fraction of the full trajectory distribution {p_alpha} (which
        has unit total probability, paper Fig. 2) that the sampled subsets
        account for.  Rows that prescribe one set count once: each dedup
        group's first row, in row order.
        """
        groups = deduplicate_specs(self.table, self.shots)
        first = np.sort(groups.members[groups.offsets[:-1]])
        return float(sum(self.probabilities[first].tolist()))

    def sorted_by_probability(self) -> List[TrajectorySpec]:
        specs = self.specs
        return [specs[i] for i in np.argsort(-self.probabilities, kind="stable").tolist()]

    def __repr__(self) -> str:
        return (
            f"PTSResult({self.algorithm}, trajectories={self.num_trajectories}, "
            f"shots={self.total_shots}, coverage={self.coverage():.4f})"
        )


class LazySequence(SequenceABC):
    """A sequence whose item ``i`` is ``build(i)``, built when read (a slice
    reads a list; the item last read is kept, so reading it again builds
    nothing); equal to any sequence of equal items."""

    def __init__(self, length: int, build: Callable[[int], Any]):
        self._length = length
        self._build = build
        self._last: Tuple[int, Any] = (-1, None)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self._length)[index]]
        i = range(self._length)[index]
        if self._last[0] != i:
            self._last = (i, self._build(i))
        return self._last[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, SequenceABC) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


class _Specs(LazySequence):
    """:attr:`PTSResult.specs`: row ``i`` as a :class:`TrajectorySpec`,
    built when read."""

    def __init__(self, result: PTSResult):
        super().__init__(len(result.shots), self._spec)
        self.result = result

    def _spec(self, row: int) -> TrajectorySpec:
        return TrajectorySpec(self.result.record(row), int(self.result.shots[row]))


@dataclass(frozen=True, eq=False)
class SpecGroups:
    """The distinct rows of a trajectory table, each prepared once.

    Group ``g`` is row ``g`` of ``table``: the prescription shared by the
    trajectory rows ``members[offsets[g]:offsets[g + 1]]`` (ascending, so
    the first is the first occurrence), whose merged shot budget is
    ``total_shots[g]``.
    """

    table: Prescriptions
    offsets: np.ndarray
    members: np.ndarray
    total_shots: np.ndarray

    def __len__(self) -> int:
        return len(self.total_shots)

    def take(self, groups: np.ndarray) -> "SpecGroups":
        """The groups ``groups`` (an index array), in that order."""
        offsets, entries = gather(self.offsets, groups)
        table, totals = self.table.take(groups), self.total_shots[groups]
        return SpecGroups(table, offsets, self.members[entries], totals)


def deduplicate_specs(table: Prescriptions, shots: np.ndarray) -> SpecGroups:
    """Group the rows of a trajectory ``table`` (``shots`` each) that
    prescribe the same state: equal CSR slices, which — dominant entries
    being dropped from a checked table — are equal Kraus choices.

    PTS algorithms already reject duplicate error combinations within one
    run (``uniqueKraus``), but specs merged across runs, algorithms, or
    hand-built workloads can repeat.  Groups go in the first-occurrence
    order of their rows, so batched preparation stays deterministic.  One
    ``lexsort``.
    """
    # The row lengths lead: a key for an empty table.
    order, starts = _runs(np.vstack((np.diff(table.offsets), table.keys())))
    rank = np.argsort(order[starts])  # the runs by first occurrence
    offsets, entries = gather(np.append(starts, len(order)), rank)
    members = order[entries]
    totals = np.add.reduceat(shots[members], offsets[:-1]) if len(members) else shots[:0]
    return SpecGroups(table.take(members[offsets[:-1]]), offsets, members, totals)


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The columns of ``keys`` (at least one row) in lexicographic order,
    first row first, and where each run of equal columns starts in that
    order.  The sort is stable, so a run's first column is its first
    occurrence."""
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return order, np.flatnonzero(new)


class PTSAlgorithm(abc.ABC):
    """Base class: turn a frozen noisy circuit into a trajectory table."""

    name = "pts"

    @abc.abstractmethod
    def sample(self, circuit: Circuit, rng: np.random.Generator) -> PTSResult:
        """Run the pre-sampling pass."""
