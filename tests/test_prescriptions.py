"""The prescription table: one build, one check, every engine reads it.

``repro.prescriptions.prescribe`` is the only code that checks a
prescribed site id or Kraus index; these tests hold the table's layout
and the pass-through rule of ``as_prescriptions``.  Their effect on every
strategy (one error before any unit runs, a dominant entry changing
nothing) is in ``tests/test_driver.py``.
"""

import pickle

import numpy as np
import pytest

from repro.channels import NoiseModel, amplitude_damping, depolarizing
from repro.circuits import Circuit
from repro.errors import ExecutionError
from repro.prescriptions import Prescriptions, as_prescriptions, prescribe, site_table


def _chain(channel=None):
    """Four noise sites, each a depolarizing (4 operators, dominant 0)."""
    model = NoiseModel().add_all_qubit_gate_noise("cx", channel or depolarizing(0.1))
    return model.apply(Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()).freeze()


def test_the_site_table_is_per_site_arity_and_dominant_index_memoized_per_circuit():
    circuit = _chain()
    table = site_table(circuit)
    assert table.tolist() == [[4, 0]] * 4
    assert site_table(circuit) is table
    assert site_table(_chain(amplitude_damping(0.2))).tolist() == [[2, 0]] * 4


def test_rows_hold_deviations_only_in_csr_form():
    table = as_prescriptions(site_table(_chain()), [{}, {2: 1, 0: 3, 1: 0}, None, {3: 2}])
    assert isinstance(table, Prescriptions) and len(table) == 4
    assert table.offsets.tolist() == [0, 0, 2, 2, 3]
    assert table.site_ids.tolist() == [0, 2, 3]  # ascending within a row
    assert table.branches.tolist() == [3, 1, 2]
    assert table.rows().tolist() == [1, 1, 3]
    assert [table[row] for row in range(4)] == [{}, {0: 3, 2: 1}, {}, {3: 2}]
    assert table[-1] == {3: 2}
    middle = table[1:3]
    assert len(middle) == 2 and middle.offsets.tolist() == [0, 2, 2]
    assert middle[0] == {0: 3, 2: 1} and len(table[2:2]) == 0


@pytest.mark.parametrize("rows", [slice(None, None, 2), slice(None, None, -1), slice(2, 0, -1)])
def test_a_slice_with_a_step_is_refused(rows):
    """A slice is a row range: its CSR offsets are one contiguous run."""
    table = as_prescriptions(site_table(_chain()), [{0: 1}, {}, {3: 2}])
    with pytest.raises(ExecutionError, match="slice takes step 1"):
        table[rows]


@pytest.mark.parametrize(
    "keys, message",
    [
        ([[(0, 1)], [(4, 1)]], "spec 1 prescribes noise site 4, but the circuit has 4 noise sites"),
        ([[(0, 1)], [(1, 4)]], "spec 1 prescribes Kraus index 4 at noise site 1, whose channel"),
        ([[(0, -1)], []], "spec 0 prescribes Kraus index -1 at noise site 0, whose channel"),
        ([[(0, 1)], [(2, 0), (2, 1)]], "spec 1 prescribes noise site 2 twice"),
        # An unknown site anywhere comes before a bad index or a repeat in an earlier row.
        ([[(0, 4), (0, 1)], [(9, 1)]], "spec 1 prescribes noise site 9, but"),
        ([[(1, 2), (1, 3)], [(3, 7)]], "spec 1 prescribes Kraus index 7 at noise site 3"),
        # A site in two rows is no repeat.
        ([[(2, 1)], [(2, 1), (3, 1), (3, 2)]], "spec 1 prescribes noise site 3 twice"),
    ],
)
def test_prescribe_names_the_first_bad_row(keys, message):
    with pytest.raises(ExecutionError, match=message):
        prescribe(site_table(_chain()), keys)


def test_a_table_for_the_same_sites_passes_through_and_any_other_is_checked_again():
    circuit = _chain()
    table = as_prescriptions(site_table(circuit), [{3: 3}, {1: 2}])
    assert as_prescriptions(site_table(circuit), table) is table
    # Pickled (as a process pool ships it) it is still the same circuit's.
    shipped = pickle.loads(pickle.dumps(table))
    assert as_prescriptions(site_table(_chain()), shipped) is shipped
    # Against amplitude-damping sites (2 operators), index 3 does not exist.
    with pytest.raises(ExecutionError, match="spec 0 prescribes Kraus index 3 at noise site 3"):
        as_prescriptions(site_table(_chain(amplitude_damping(0.2))), table)
    # Equal tables pass through whatever built them; a fifth site is not equal.
    assert as_prescriptions(site_table(_chain(depolarizing(0.3))), table) is table
    model = NoiseModel().add_all_qubit_gate_noise("h", depolarizing(0.1))
    wider = site_table(model.apply(_chain()).freeze())
    again = as_prescriptions(wider, table)
    assert again is not table and np.array_equal(again.sites, wider)
    assert [again[0], again[1]] == [{3: 3}, {1: 2}]


def test_take_and_the_trie_order_against_a_sort_of_the_dense_rows():
    """``trie_order`` sorts by window, then lexicographically by each row's
    branch at every site, a deviation before the dominant branch (the
    reference below sorts the dense rows in Python); ``take`` gathers rows
    in any order."""
    sites = site_table(_chain())
    rows = [
        {site: branch for site, branch in enumerate(dense) if branch}
        for dense in np.ndindex(4, 4, 4, 4)
    ]
    rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))] + [{}, {1: 2}]
    table = as_prescriptions(sites, rows)

    def dense(row):
        return [(0, row[site]) if site in row else (1, 0) for site in range(4)]

    window = np.arange(len(rows)) // 100  # three windows: 100, 100 and 58 rows
    order = table.trie_order(window)
    assert sorted(order.tolist()) == list(range(len(rows)))
    expected = sorted((window[r], dense(row)) for r, row in enumerate(rows))
    assert [(window[r], dense(rows[r])) for r in order] == expected
    taken = table.take(order)
    assert [taken[r] for r in range(len(rows))] == [rows[r] for r in order]
    assert table.take(np.array([], dtype=np.intp)).offsets.tolist() == [0]
    assert table[3:3].trie_order(window[3:3]).tolist() == []
    empty = as_prescriptions(sites, [{}, {}, {}])
    assert empty.trie_order(np.array([1, 0, 1])).tolist() == [1, 0, 2]
