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
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple, Union

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
        lengths = np.diff(self.offsets)[rows]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        shift = np.repeat(self.offsets[rows] - offsets[:-1], lengths)
        entries = np.arange(offsets[-1]) + shift
        return Prescriptions(self.sites, offsets, self.site_ids[entries], self.branches[entries])

    def trie_order(self, window: np.ndarray) -> np.ndarray:
        """The rows by ``window`` (one key per row), and inside a window in
        lexicographic order of their branch at every site, a deviation
        before the dominant branch: entry by entry, by site id, then
        branch, a row out of entries after one that deviates again.  Rows
        of a window that agree up to any site are adjacent.  One ``lexsort``."""
        rows = self.rows()
        width = int(np.diff(self.offsets).max(initial=0))
        position = np.arange(len(rows)) - self.offsets[rows]
        keys = np.zeros((width, 2, len(self)), dtype=np.intp)
        keys[:, 0] = len(self.sites)  # past every site id
        keys[position, 0, rows] = self.site_ids
        keys[position, 1, rows] = self.branches
        # lexsort's last key is its first: window, site 0, branch 0, site 1, ...
        return np.lexsort(np.vstack((keys.reshape(2 * width, len(self))[::-1], window)))


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
    checked against ``sites`` (a :func:`site_table`): the site and index of
    each distinct pair once, a site named twice in one pass over the rows.

    Raises :class:`~repro.errors.ExecutionError` naming the row's owner
    (``owners[row]``, else the row) for a site the circuit does not have,
    then for a Kraus index outside its site's channel, then for a site a
    row names twice: the first such row.  Entries naming their site's
    dominant index are dropped.
    """
    arity, dominant = sites.T.tolist()
    n = len(arity)

    def refuse(row: int, problem: str) -> ExecutionError:
        return ExecutionError(f"spec {row if owners is None else owners[row]} prescribes {problem}")

    def first(bad: Set[Tuple[int, int]]) -> Tuple[int, Tuple[int, int]]:
        """The row and pair of the first entry, in row order, in ``bad``."""
        entries = ((row, pair) for row, key in enumerate(keys) for pair in key)
        return next((row, pair) for row, pair in entries if pair in bad)

    distinct = set(chain.from_iterable(keys))
    unknown = {pair for pair in distinct if not 0 <= pair[0] < n}
    if unknown:
        row, (site, _) = first(unknown)
        raise refuse(
            row, f"noise site {site}, but the circuit has {n} noise sites (ids 0..{n - 1})"
        )
    outside = {(site, index) for site, index in distinct if not 0 <= index < arity[site]}
    if outside:
        row, (site, index) = first(outside)
        raise refuse(
            row,
            f"Kraus index {index} at noise site {site}, "
            f"whose channel has {arity[site]} operators",
        )
    lengths = np.fromiter(map(len, keys), np.intp, len(keys))
    rows = np.arange(len(keys)).repeat(lengths)
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(keys)), np.intp)
    site_ids, branches = pairs.reshape(-1, 2).T.copy()
    named = rows * n + site_ids  # one number per (row, site)
    twice = named[1:] == named[:-1]
    if twice.any():
        at = twice.argmax()
        raise refuse(rows[at], f"noise site {site_ids[at]} twice")
    if any(index == dominant[site] for site, index in distinct):
        keep = branches != sites[site_ids, 1]
        site_ids, branches = site_ids[keep], branches[keep]
        lengths = np.bincount(rows[keep], minlength=len(keys))
    offsets = np.zeros(len(keys) + 1, np.intp)
    lengths.cumsum(out=offsets[1:])
    return Prescriptions(sites, offsets, site_ids, branches)


def as_prescriptions(sites: np.ndarray, choices: Choices) -> Prescriptions:
    """``choices`` as a table checked against ``sites`` (a
    :func:`site_table`): a table built against an equal site table passes
    through unchecked; another table, or one ``{site_id: kraus_index}``
    dict per row (``None`` for none), is built by :func:`prescribe`."""
    if isinstance(choices, Prescriptions) and np.array_equal(choices.sites, sites):
        return choices
    return prescribe(sites, [sorted((choices[r] or {}).items()) for r in range(len(choices))])
