"""Kraus prescriptions as one validated table.

PTS fixes every trajectory's Kraus choices before any state exists (paper
Fig. 1, Algorithm 2), and a trajectory is the ideal circuit except at the
noise sites where it leaves the dominant branch.  A :class:`Prescriptions`
table holds exactly those deviations for a stack of rows in CSR form —
row offsets, site ids (ascending within a row) and branch indices — and is
checked once, when :func:`prescribe` builds it, against the circuit's
:func:`site_table`.  That is the one place a prescribed site id or Kraus
index is checked: every engine reads the arrays, and for every engine a
site a row does not list is one where the row takes the dominant branch
(an entry naming the dominant index is dropped at build).

:func:`as_prescriptions` is how an engine's public entry point takes its
input: a table built against the same circuit passes through, and
anything else — one ``{site_id: kraus_index}`` dict per row — is built,
and so checked, by :func:`prescribe`.
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import ExecutionError

__all__ = ["site_table", "Prescriptions", "Choices", "prescribe", "as_prescriptions"]


def site_table(circuit: Circuit) -> np.ndarray:
    """``(num_sites, 2)`` for a frozen ``circuit``: per noise site, by site
    id, its channel's operator count and dominant index (memoized per
    circuit object)."""
    table = _SITE_TABLES.get(circuit)
    if table is None:
        sites = circuit.noise_sites
        flat = chain.from_iterable((len(op.channel), op.channel.dominant_index()) for op in sites)
        table = np.fromiter(flat, np.intp, 2 * len(sites)).reshape(-1, 2)
        _SITE_TABLES[circuit] = table
    return table


_SITE_TABLES: "weakref.WeakKeyDictionary[Circuit, np.ndarray]" = weakref.WeakKeyDictionary()


class Prescriptions:
    """The deviations of a stack of rows from the ideal circuit: row ``r``
    takes branch ``branches[i]`` at site ``site_ids[i]`` for ``i`` in
    ``offsets[r]:offsets[r + 1]``, and the dominant branch everywhere else.

    Built by :func:`prescribe`, checked against ``sites`` (a
    :func:`site_table`).  ``len`` is the row count, ``table[a:b]`` the
    table of rows ``[a, b)`` and ``table[r]`` row ``r`` as a ``{site_id:
    kraus_index}`` dict.
    """

    def __init__(self, sites, offsets, site_ids, branches):
        self.sites, self.offsets, self.site_ids, self.branches = sites, offsets, site_ids, branches

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: Union[int, slice]) -> Union["Prescriptions", Dict[int, int]]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ExecutionError(f"a prescription table slice takes step 1, got {step}")
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            offsets = self.offsets[start : stop + 1] - lo
            return Prescriptions(self.sites, offsets, self.site_ids[lo:hi], self.branches[lo:hi])
        row = range(len(self))[index]
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return dict(zip(self.site_ids[lo:hi].tolist(), self.branches[lo:hi].tolist()))

    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))


#: What an engine's public entry point takes: a table, or one
#: ``{site_id: kraus_index}`` dict per row (``None`` for none).
Choices = Union[Prescriptions, Sequence[Optional[Mapping[int, int]]]]

def prescribe(
    sites: np.ndarray,
    keys: Sequence[Sequence[Tuple[int, int]]],
    owners: Optional[Sequence[int]] = None,
) -> Prescriptions:
    """The table of ``keys`` — per row, its ``(site_id, kraus_index)``
    pairs sorted by site (a :class:`~repro.pts.base.SpecGroup` key) —
    checked against ``sites`` (a :func:`site_table`) in one vectorized pass.

    Raises :class:`~repro.errors.ExecutionError` naming the row's owner
    (``owners[row]``, else the row) for a site the circuit does not have,
    a Kraus index outside its site's channel, or a site a row names twice.
    Entries naming their site's dominant index are dropped.
    """
    rows = np.repeat(np.arange(len(keys)), np.fromiter(map(len, keys), np.intp, len(keys)))
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(keys)), dtype=np.intp)
    site_ids, branches = pairs.reshape(-1, 2).T

    def check(bad: np.ndarray, problem: Callable[[int, int], str]) -> None:
        """Raise for the first entry ``bad`` marks: ``problem(site, index)``."""
        bad = np.flatnonzero(bad)
        if bad.size:
            at = bad[0]
            owner = rows[at] if owners is None else owners[rows[at]]
            raise ExecutionError(f"spec {owner} prescribes {problem(site_ids[at], branches[at])}")

    n, (arity, dominant) = len(sites), sites.T
    check(
        (site_ids < 0) | (site_ids >= n),
        lambda site, _: f"noise site {site}, but the circuit has {n} noise sites (ids 0..{n - 1})",
    )
    check(
        (branches < 0) | (branches >= arity[site_ids]),
        lambda site, index: f"Kraus index {index} at noise site {site}, "
        f"whose channel has {arity[site]} operators",
    )
    twice = (site_ids[1:] == site_ids[:-1]) & (rows[1:] == rows[:-1])
    check(twice, lambda site, _: f"noise site {site} twice")
    keep = branches != dominant[site_ids]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=len(keys)))))
    return Prescriptions(sites, offsets, site_ids[keep], branches[keep])


def as_prescriptions(sites: np.ndarray, choices: Choices) -> Prescriptions:
    """``choices`` as a table checked against ``sites`` (a
    :func:`site_table`): a table built against an equal site table passes
    through unchecked; another table, or one ``{site_id: kraus_index}``
    dict per row (``None`` for none), is built by :func:`prescribe`."""
    if isinstance(choices, Prescriptions) and np.array_equal(choices.sites, sites):
        return choices
    return prescribe(sites, [sorted((choices[r] or {}).items()) for r in range(len(choices))])
