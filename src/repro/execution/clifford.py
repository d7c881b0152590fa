"""Batched Pauli-frame execution: the Clifford fast path as a strategy.

The fifth execution strategy (``run_ptsbe(strategy="clifford")``): for
circuits that are pure Clifford with Pauli-mixture noise, trajectory
realization does not need a dense state at all.  The
:class:`~repro.backends.pauli_frame.FrameSampler` compiles the circuit
once — one tableau analysis of the ideal circuit plus one conjugation
walk that propagates every noise branch's Pauli pattern to the end — and
then a *unit* of PTS trajectories (as many dedup groups as fit 2**16
shots) costs:

* **one frame assembly**, O(deviations) per trajectory: with a spec's
  Kraus choices *fixed*, its frame is deterministic — the all-dominant
  frame XOR one precomputed ``branch XOR dominant`` end pattern per
  deviating site (this is where PTS and Stim-style frame sampling
  compose: pre-sampling removes the per-shot branch draw the conventional
  frame sampler does);
* **one packed gather** for the unit's whole shot budget: each trajectory's
  table rows are the raw 64-bit words of its own Philox stream, cut into
  16-bit indices (:func:`~repro.rng.uint16_draws`), then the unit is one
  lookup per generator group, one XOR with ``reference XOR flips`` and one
  unpack.

That is millions of shots per second at *any* width — the dense
strategies stop at ``Config.max_dense_qubits`` (26), this one happily
runs 40-qubit syndrome-extraction workloads.  Trajectories are deduplicated
into :class:`~repro.pts.base.SpecGroups` so each distinct Kraus
prescription is one row of its unit, and delivery goes through the
same :class:`~repro.execution.streaming.OrderedDelivery` discipline as
every other strategy, so ``run_ptsbe_stream``, ``retain=False``, and
mid-stream ``close()`` behave identically.

Faithfulness contract: per-trajectory *conditional distributions* and
weights are exactly those of the dense strategies (Pauli conjugation is
exact, and Pauli mixtures make weights state-independent products of
branch probabilities), but the per-shot random draws use a different
stochastic mechanism than dense amplitude sampling — so cross-strategy
conformance is distributional (TVD / chi-square, the sweep oracle's
statistical tier), not bitwise.  Seeded replay of *this* strategy is
still bitwise: shots derive from the same per-trajectory Philox streams
``(seed, trajectory_id)`` as everywhere else.
"""

from __future__ import annotations

from repro.backends.pauli_frame import FrameSampler
from repro.circuits.circuit import Circuit
from repro.config import Config
from repro.execution.batched import DENSE_KINDS, BackendSpec, check_backend
from repro.execution.driver import StreamingExecutor, timed
from repro.execution.router import check_engine_fits

__all__ = ["CliffordFrameExecutor"]


class CliffordFrameExecutor(StreamingExecutor):
    """Execute trajectory specs by batched Pauli-frame propagation.

    Parameters
    ----------
    backend:
        Accepted for dispatch-signature symmetry, and read for its
        ``config``.  Frame sampling needs no dense backend, so only the
        dense kinds (which carry no state the frame path would miss) are
        tolerated; an ``"mps"`` spec is a real request for a specific
        simulator and is rejected rather than silently ignored.
    """

    def __init__(self, backend: BackendSpec = BackendSpec()):
        self._config = check_backend(type(self).__name__, backend, DENSE_KINDS).config

    def _engine(self, circuit: Circuit) -> "_FrameEngine":
        check_engine_fits(circuit, "clifford")
        return _FrameEngine(circuit, self._config)


class _FrameEngine:
    """:class:`~repro.execution.driver.Engine` over one compiled
    :class:`FrameSampler`: a unit is a stack of frames — one
    ``frame_for_choices`` call assembles every row's flips and weight, one
    ``sample_stack`` call draws every request's shots.

    Frames are row-wise independent (a row's flips, weight and Philox
    stream do not depend on its neighbours), so where a unit is cut changes
    no bits.  Rows are nearly free here and shots are what a unit holds, so
    a unit closes at ``max_rows`` groups or ``max_unit_shots`` shots,
    whichever comes first: packed words stay within 512 KiB and unit bits
    within 64 Ki x k bytes whatever the shot budget per trajectory is.
    Throughput is flat from 64 to 2048 rows, so both are constants.
    """

    name = "clifford"
    max_rows = 1024
    max_unit_shots = 1 << 16
    coupled_rows = False
    sort_bytes = None
    # Measured with the look-ahead always on (clifford_pts_35q, 2-core
    # host, 4 interleaved pairs): 0.87-0.95x shots/s, first chunk within
    # +-5 %, RSS +2 %.  The second FrameSampler compile it pays is one
    # affine tableau pass (~0.004 s traced); the helper thread is not won
    # back on units this cheap to prepare.
    lookahead_shots = None

    def __init__(self, circuit: Circuit, config: Config):
        self.config = config
        self.sampler, self.compile_seconds = timed(FrameSampler, circuit.freeze())

    def share(self, table, peer) -> None:
        """Units share nothing on this engine."""

    def prepare(self, table, sizes):
        self.flips, weights = self.sampler.frame_for_choices(table)
        return weights

    def sample(self, requests):
        return self.sampler.sample_stack(self.flips, requests)

    def release(self) -> None:
        pass
