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
(an entry naming the dominant index is dropped at build).  The one table
built without it is the one PTS emits
(:meth:`~repro.pts.base.NoiseSiteView.rows`), valid by construction:
each entry is a real site's non-dominant branch, a site at most once a row.

:func:`as_prescriptions` is how an engine's public entry point takes its
input: a table built against the same circuit passes through, and
anything else — one ``{site_id: kraus_index}`` dict per row — is built,
and so checked, by :func:`prescribe`.
"""

from __future__ import annotations

import weakref
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import ExecutionError

__all__ = [
    "site_table", "Prescriptions", "Choices", "gather", "prescribe", "as_prescriptions",
]


def site_table(circuit: Circuit) -> np.ndarray:
    """``(num_sites, 2)`` for a frozen ``circuit``: per noise site, by site
    id, its channel's operator count and dominant index (memoized per
    circuit object)."""
    table = _SITE_TABLES.get(circuit)
    if table is None:
        channels = [op.channel for op in circuit.noise_sites]
        table = np.array(
            [[len(ch) for ch in channels], [ch.dominant_index() for ch in channels]], np.intp
        ).T
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

    def take(self, rows: np.ndarray) -> "Prescriptions":
        """The table of ``rows`` (an index array), in that order."""
        offsets, entries = gather(self.offsets, rows)
        return Prescriptions(self.sites, offsets, self.site_ids[entries], self.branches[entries])

    def keys(self) -> np.ndarray:
        """``(2 * width, len(self))``: down each column, its row's entries'
        site id and branch in order, padded with a site id past every site
        (branch 0) to the longest row's width.  Rows are equal if and only
        if their columns are."""
        rows = self.rows()
        width = int(np.diff(self.offsets).max(initial=0))
        position = np.arange(len(rows)) - self.offsets[rows]
        keys = np.zeros((width, 2, len(self)), dtype=np.intp)
        keys[:, 0] = len(self.sites)
        keys[position, 0, rows] = self.site_ids
        keys[position, 1, rows] = self.branches
        return keys.reshape(2 * width, len(self))

    def trie_order(self, window: np.ndarray) -> np.ndarray:
        """The rows by ``window`` (one key per row), and inside a window in
        lexicographic order of their branch at every site, a deviation
        before the dominant branch: entry by entry, by site id, then
        branch, a row out of entries after one that deviates again.  Rows
        of a window that agree up to any site are adjacent.  One ``lexsort``."""
        # lexsort's last key is its first: window, site 0, branch 0, site 1, ...
        return np.lexsort(np.vstack((self.keys()[::-1], window)))


def gather(offsets: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``offsets`` taken at ``rows`` (an index array), in that order:
    the new offsets, and the old entry index of each new entry."""
    lengths = np.diff(offsets)[rows]
    taken = np.concatenate(([0], np.cumsum(lengths)))
    entries = np.arange(taken[-1]) + np.repeat(offsets[rows] - taken[:-1], lengths)
    return taken, entries


#: What an engine's public entry point takes: a table, or one
#: ``{site_id: kraus_index}`` dict per row (``None`` for none).
Choices = Union[Prescriptions, Sequence[Optional[Mapping[int, int]]]]


def prescribe(sites: np.ndarray, keys: Sequence[Sequence[Tuple[int, int]]]) -> Prescriptions:
    """The table of ``keys`` — per row, its ``(site_id, kraus_index)``
    pairs sorted by site — checked against ``sites`` (a :func:`site_table`).

    Raises :class:`~repro.errors.ExecutionError` naming the first row that
    prescribes a site the circuit does not have; failing that, the first
    with a Kraus index outside its site's channel; failing that, the first
    that names a site twice.  Entries naming their site's dominant index
    are dropped.
    """
    arity = sites[:, 0].tolist()
    entries = [(row, site, index) for row, key in enumerate(keys) for site, index in key]
    for row, site, _ in entries:
        if not 0 <= site < len(arity):
            raise ExecutionError(
                f"spec {row} prescribes noise site {site}, but the circuit has "
                f"{len(arity)} noise sites (ids 0..{len(arity) - 1})"
            )
    for row, site, index in entries:
        if not 0 <= index < arity[site]:
            raise ExecutionError(
                f"spec {row} prescribes Kraus index {index} at noise site {site}, "
                f"whose channel has {arity[site]} operators"
            )
    for (row, site, _), (again, same, _) in zip(entries, entries[1:]):
        if (row, site) == (again, same):
            raise ExecutionError(f"spec {row} prescribes noise site {site} twice")
    rows, site_ids, branches = np.array(entries, dtype=np.intp).reshape(-1, 3).T.copy()
    keep = branches != sites[site_ids, 1]
    offsets = np.searchsorted(rows[keep], np.arange(len(keys) + 1))
    return Prescriptions(sites, offsets, site_ids[keep], branches[keep])


def as_prescriptions(sites: np.ndarray, choices: Choices) -> Prescriptions:
    """``choices`` as a table checked against ``sites`` (a
    :func:`site_table`): a table built against an equal site table passes
    through unchecked; another table, or one ``{site_id: kraus_index}``
    dict per row (``None`` for none), is built by :func:`prescribe`."""
    if isinstance(choices, Prescriptions) and np.array_equal(choices.sites, sites):
        return choices
    return prescribe(sites, [sorted((choices[r] or {}).items()) for r in range(len(choices))])
