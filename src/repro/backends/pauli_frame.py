"""Stim-style Pauli-frame bulk sampler for Clifford + Pauli-noise circuits.

This is the "reference frame sampler [able] to efficiently bulk sample
noisy simulation data at a rate of MHz" that paper §2.3 credits to Stim —
the baseline whose restriction to Clifford circuits motivates PTSBE.

Method (valid for circuits with *terminal* measurements, which is the
library-wide deferred-measurement contract):

1.  One tableau run of the ideal circuit maps the noiseless outcome
    distribution, which for stabilizer circuits is uniform over an affine
    subspace of GF(2)^k: a reference sample ``b_ref`` plus one generator
    per random measurement.  The measurements are made once, in order,
    with every tableau sign carried as an affine function of the random
    outcomes before it, so a deterministic outcome comes out as a
    constant (its ``b_ref`` bit) plus coefficients (its generator bits).
2.  Noise is handled entirely by Pauli *frames*: an (m, n) pair of X/Z bit
    matrices, one row per shot, propagated through the Clifford gates with
    O(1) column updates and XOR-ed with vectorized per-site error draws.
3.  A shot's outcome is ``b_ref XOR (random combination of generators)
    XOR frame_x[measured qubits]`` — a frame X component anticommutes with
    the measured Z and flips the outcome.

Everything after the (single) tableau analysis is pure vectorized NumPy
over the shot axis, which is what makes this path orders of magnitude
faster than per-shot state simulation — and why Clifford-only tools win
whenever they are applicable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import validate_deferred_measurement
from repro.backends.stabilizer import StabilizerBackend
from repro.circuits.circuit import Circuit
from repro.circuits.operations import GateOp, NoiseOp
from repro.errors import BackendError
from repro.linalg.sampling import inverse_cdf_indices
from repro.prescriptions import Choices, Prescriptions, as_prescriptions, site_table
from repro.rng import uint16_draws

__all__ = ["FrameSampler", "pauli_sites", "propagate_to_end"]


@dataclass
class _NoiseSite:
    """Pre-analyzed Pauli-mixture site: per-branch frame bit patterns.

    ``x_patterns``/``z_patterns`` are the branch Paulis *at* the site;
    :func:`propagate_to_end` carries them to the end of the circuit, which
    is what makes fixed-choice (PTS) sampling O(deviations) per spec: a
    spec's terminal frame is just the XOR of its chosen branches' end
    patterns.
    """

    op_index: int
    site_id: int
    dominant_index: int
    qubits: Tuple[int, ...]
    probs: np.ndarray  # (branches,)
    x_patterns: np.ndarray  # (branches, n) uint8
    z_patterns: np.ndarray  # (branches, n) uint8


def _pauli_patterns(channel) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """``(probs, x, z, dominant branch)``: the channel as a Pauli mixture,
    one ``(branches, channel qubits)`` bit pattern each (``None`` for a
    channel that is not one)."""
    mixture = channel.mixture
    if mixture is None or None in mixture.paulis:
        return None
    return (
        np.asarray(mixture.probs, dtype=np.float64),
        np.array([p.x for p in mixture.paulis], dtype=np.uint8),
        np.array([p.z for p in mixture.paulis], dtype=np.uint8),
        channel.dominant_index(),
    )


def pauli_sites(circuit: Circuit, strict: bool) -> List[_NoiseSite]:
    """The circuit's Pauli-mixture noise sites in program order, each with
    its branches' bit patterns at the site.  A site whose channel is not a
    Pauli mixture raises :class:`~repro.errors.BackendError` when
    ``strict``, and is left out otherwise."""
    sites: List[_NoiseSite] = []
    # The channel's bit patterns depend on the channel object alone, and
    # a noise model attaches a handful of channels to every site.
    analyzed: Dict[int, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]] = {}
    for op_index, op in enumerate(circuit):
        if not isinstance(op, NoiseOp):
            continue
        if id(op.channel) not in analyzed:
            analyzed[id(op.channel)] = _pauli_patterns(op.channel)
        patterns = analyzed[id(op.channel)]
        if patterns is None:
            if strict:
                raise BackendError(
                    f"channel {op.channel.name!r} is not a Pauli mixture; the frame "
                    "sampler has the Stim restriction (Clifford + Pauli noise)"
                )
            continue
        probs, local_x, local_z, dominant = patterns
        xpat = np.zeros((len(probs), circuit.num_qubits), dtype=np.uint8)
        zpat = np.zeros((len(probs), circuit.num_qubits), dtype=np.uint8)
        xpat[:, op.qubits] = local_x
        zpat[:, op.qubits] = local_z
        sites.append(
            _NoiseSite(
                op_index=op_index,
                site_id=op.site_id,
                dominant_index=dominant,
                qubits=op.qubits,
                probs=probs,
                x_patterns=xpat,
                z_patterns=zpat,
            )
        )
    return sites


def propagate_to_end(
    circuit: Circuit, sites: Sequence[_NoiseSite]
) -> Tuple[np.ndarray, np.ndarray]:
    """Conjugate every site's branch patterns to the end of the circuit.

    One forward walk: a site's branch rows join the working stack when the
    walk reaches it, so each later gate's O(1) column update hits exactly
    the branches the gate acts after.  Returns the end X patterns, one row
    per branch, flat by site in ``sites`` order, and per site whether its
    rows stayed Pauli frames to the end: a gate outside the frame rules, or
    a noise operation not among ``sites``, acting where one of the site's
    rows has support (its forward light cone) clears the flag, and that
    site's rows mean nothing from there on.  On a Clifford + Pauli-noise
    circuit with every site listed, every flag stays set.
    """
    counts = [len(site.probs) for site in sites]
    fx = np.zeros((sum(counts), circuit.num_qubits), dtype=np.uint8)
    fz = np.zeros_like(fx)
    owner = np.repeat(np.arange(len(sites)), counts)
    clean = np.ones(len(sites), dtype=bool)
    active = 0
    site_iter = iter(sites)
    next_site = next(site_iter, None)
    for op_index, op in enumerate(circuit):
        if next_site is not None and next_site.op_index == op_index:
            fx[active : active + len(next_site.probs)] = next_site.x_patterns
            fz[active : active + len(next_site.probs)] = next_site.z_patterns
            active += len(next_site.probs)
            next_site = next(site_iter, None)
        elif active and isinstance(op, (GateOp, NoiseOp)):
            # The tableau's gates are the ones the frame rules cover.
            if isinstance(op, GateOp) and op.gate.name.lower() in StabilizerBackend._GATE_DISPATCH:
                _conjugate(op.gate.name, op.qubits, fx[:active], fz[:active])
            else:
                qubits = list(op.qubits)
                touched = (fx[:active, qubits] | fz[:active, qubits]).any(axis=1)
                clean[owner[:active][touched]] = False
    return fx, clean


class FrameSampler:
    """Compiled bulk sampler for one Clifford + Pauli-noise circuit."""

    def __init__(self, circuit: Circuit):
        if not circuit.frozen:
            raise BackendError("FrameSampler requires a frozen circuit")
        validate_deferred_measurement(circuit)
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.measured_qubits = list(circuit.measured_qubits)
        if not self.measured_qubits:
            raise BackendError("FrameSampler requires at least one measurement")
        self._measured_index = np.asarray(self.measured_qubits, dtype=np.intp)
        self._combo_tables: Optional[List[np.ndarray]] = None
        self._packed_tables_cache: Optional[List[np.ndarray]] = None
        self._analyze_ideal()
        self._analyze_noise()

    # ------------------------------------------------------------------ #
    # one-time tableau analysis of the ideal circuit
    # ------------------------------------------------------------------ #
    def _analyze_ideal(self) -> None:
        """Reference outcome plus one affine generator per random measurement.

        The gate list is applied once; then one forward measurement pass
        (:meth:`StabilizerBackend.affine_outcomes`) carries every tableau
        sign as an affine function of the random outcomes, which yields the
        reference (every random outcome 0) and the generators (each random
        outcome's coefficients) together, with no tableau copy or replay.
        """
        backend = StabilizerBackend(self.num_qubits)
        for op in self.circuit:
            if isinstance(op, GateOp):
                backend.apply_gate_by_name(op.gate.name, op.qubits)
            # NoiseOps ignored in the ideal pass; MeasureOps deferred.
        self.reference, self.random_positions, self.generators = backend.affine_outcomes(
            self.measured_qubits
        )

    # ------------------------------------------------------------------ #
    # one-time noise-site compilation
    # ------------------------------------------------------------------ #
    def _analyze_noise(self) -> None:
        """Every site's branch patterns, conjugated to the end of the
        circuit (:func:`propagate_to_end`), so :meth:`frame_for_choices`
        assembles a fixed trajectory's terminal frame without touching the
        gate list again."""
        self.sites = pauli_sites(self.circuit, strict=True)
        fx, _ = propagate_to_end(self.circuit, self.sites)
        # Flat per-branch tables behind frame_for_choices, indexed by site
        # id (the sites are in program order, as the ids count them): a
        # trajectory is the all-dominant frame XOR one (branch XOR
        # dominant) row per deviation, so assembling it never walks the
        # sites it leaves alone.
        self._site_branches = np.array([len(site.probs) for site in self.sites], dtype=np.intp)
        self._site_start = np.cumsum(self._site_branches) - self._site_branches
        self._end_x = fx
        self._dominant_rows = self._site_start + np.array(
            [site.dominant_index for site in self.sites], dtype=np.intp
        )
        self._branch_probs = np.concatenate([site.probs for site in self.sites] or [np.zeros(0)])
        self._dominant_probs = self._branch_probs[self._dominant_rows]
        self._dominant_flips, self._delta_flips = self._relative(fx[:, self._measured_index])

    def _relative(self, end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``end`` (one row per branch, flat by site) as the XOR of the
        dominant branches' rows and one ``branch XOR dominant`` row per
        branch: the two operands of :meth:`_assemble`."""
        dominant = end[self._dominant_rows]
        delta = end ^ np.repeat(dominant, self._site_branches, axis=0)
        return np.bitwise_xor.reduce(dominant, axis=0), delta

    def _assemble(self, table: Prescriptions, dominant: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Per row of ``table``: ``dominant`` XOR the ``delta`` row of each
        of its deviations, in one array pass."""
        out = np.tile(dominant, (len(table), 1))
        np.bitwise_xor.at(out, table.rows(), delta[self._site_start[table.site_ids] + table.branches])
        return out

    # ------------------------------------------------------------------ #
    # fixed-choice (PTS) sampling
    # ------------------------------------------------------------------ #
    def frame_for_choices(self, choices_list: Choices) -> Tuple[np.ndarray, np.ndarray]:
        """Terminal frame flips on the measured qubits + exact weights, one
        row per prescription: ``(rows, k)`` uint8 and ``(rows,)`` float64.

        ``choices_list`` is a prescription table built against the circuit,
        or one ``site_id -> kraus_index`` map per row, checked by
        :func:`~repro.prescriptions.as_prescriptions` (PTS semantics: a
        site a row does not list takes the dominant branch).  Because a
        spec's Kraus choices are *fixed*, its frame is deterministic — the
        XOR over sites of the chosen branch's end-propagated X pattern,
        assembled as the all-dominant frame XOR one precomputed ``branch
        XOR dominant`` row per deviation — and the trajectory weight is exactly the
        product, in site order, of the chosen branch probabilities (Pauli
        mixtures are unitary mixtures, so nominal probabilities are exact).
        """
        table = as_prescriptions(site_table(self.circuit), choices_list)
        flips = self._assemble(table, self._dominant_flips, self._delta_flips)
        sites = table.site_ids
        probs = np.tile(self._dominant_probs, (len(table), 1))
        probs[table.rows(), sites] = self._branch_probs[self._site_start[sites] + table.branches]
        # Reduced over the leading axis: the same left-to-right product
        # over sites a scalar loop takes, so weights keep their last bit.
        return flips, np.multiply.reduce(probs.T, axis=0, initial=1.0)

    def end_parities(self, choices_list: Choices, support: np.ndarray) -> np.ndarray:
        """Per prescription, the parity of its terminal X frame on
        ``support`` (a ``(num_qubits,)`` 0/1 vector), ``(rows,)`` uint8: 1
        where the row's Paulis, conjugated through every later gate to the
        end of the circuit, anticommute with ``Z`` on ``support``.

        The assembly of :meth:`frame_for_choices` over one bit per branch
        (its end pattern's parity on ``support``), so it is exact on any
        Clifford + Pauli-noise circuit; ``choices_list`` is taken the same way.
        """
        table = as_prescriptions(site_table(self.circuit), choices_list)
        bits = np.bitwise_xor.reduce(self._end_x & support, axis=1)[:, None]
        return self._assemble(table, *self._relative(bits))[:, 0]

    #: Generators per XOR-combination lookup table: 2**12 rows of k bytes
    #: stays comfortably cache-resident while covering 12 random
    #: measurements per table (most circuits need exactly one table).
    _COMBO_GROUP_BITS = 12

    def _combination_tables(self) -> List[np.ndarray]:
        """Lazy per-group lookup tables of all generator XOR combinations.

        Row ``c`` of a group's table is the XOR of the group's generators
        selected by the bits of ``c``, built by doubling — so a uniform
        row index is exactly a uniform coefficient vector, and bulk
        sampling becomes one integer draw plus one gather per group
        instead of a (shots x r) uint8 matmul (which has no BLAS path).
        """
        if self._combo_tables is None:
            k = len(self.measured_qubits)
            tables = []
            for start in range(0, len(self.random_positions), self._COMBO_GROUP_BITS):
                group = self.generators[start : start + self._COMBO_GROUP_BITS]
                table = np.zeros((1 << len(group), k), dtype=np.uint8)
                for i in range(len(group)):
                    half = 1 << i
                    np.bitwise_xor(table[:half], group[i], out=table[half : 2 * half])
                tables.append(table)
            self._combo_tables = tables
        return self._combo_tables

    #: Generators per *packed* lookup table: rows are whole bit-vectors
    #: packed into one integer word, so a 2**16-row uint64 table is 512 KiB
    #: (cache-resident) while covering 16 random measurements at once.
    _PACKED_GROUP_BITS = 16

    def _packed_word_dtype(self):
        """Smallest unsigned dtype holding all k measured bits (None if >64)."""
        k = len(self.measured_qubits)
        if k <= 16:
            return np.uint16
        if k <= 32:
            return np.uint32
        if k <= 64:
            return np.uint64
        return None

    def _pack_words(self, bits: np.ndarray) -> np.ndarray:
        """Pack ``(rows, k)`` uint8 bits into ``(rows,)`` words (bit j of a
        word = measured bit j): the inverse of :meth:`_unpack_words`."""
        word = np.dtype(self._packed_word_dtype())
        padded = np.zeros((len(bits), 8 * word.itemsize), dtype=np.uint8)
        padded[:, : bits.shape[1]] = bits
        packed = np.packbits(padded, axis=1, bitorder="little").view(word)[:, 0]
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are little
            packed = packed.byteswap()
        return packed

    def _packed_combination_tables(self) -> List[np.ndarray]:
        """Packed-word variant of :meth:`_combination_tables`.

        Same doubling construction, but each table row is the whole k-bit
        outcome packed into one unsigned word — so the per-group gather is
        1-D (2–8 bytes per shot instead of k), group XORs are single word
        ops, and the bits are unpacked to ``(shots, k)`` uint8 exactly
        once per unit in :meth:`_unpack_words`.
        """
        if self._packed_tables_cache is None:
            gen_words = self._pack_words(self.generators)
            tables = []
            for start in range(0, len(self.random_positions), self._PACKED_GROUP_BITS):
                group = gen_words[start : start + self._PACKED_GROUP_BITS]
                table = np.zeros(1 << len(group), dtype=gen_words.dtype)
                for i, gen in enumerate(group):
                    half = 1 << i
                    np.bitwise_xor(table[:half], gen, out=table[half : 2 * half])
                tables.append(table)
            self._packed_tables_cache = tables
        return self._packed_tables_cache

    def _unpack_words(self, packed: np.ndarray) -> np.ndarray:
        """Unpack ``(shots,)`` words back to contiguous ``(shots, k)`` bits."""
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are little
            packed = packed.byteswap()
        return np.unpackbits(
            packed.view(np.uint8).reshape(len(packed), packed.dtype.itemsize),
            axis=1,
            count=len(self.measured_qubits),
            bitorder="little",
        )

    def sample_stack(
        self,
        flips: np.ndarray,
        requests: Sequence[Tuple[int, int, np.random.Generator]],
    ) -> np.ndarray:
        """Bulk-sample every request of a unit: one ``(shots, k)`` bits
        block, each ``(row of flips, shots, rng)`` request's shots after the
        one before.

        ``flips`` comes from :meth:`frame_for_choices`; the only per-shot
        randomness left is the uniform combination of the ideal circuit's
        affine outcome generators.  Each request draws one uniform table
        row per generator group from its own stream — its ``(groups,
        shots)`` 16-bit words are the stream's raw words
        (:func:`~repro.rng.uint16_draws`), masked to each table's
        power-of-two length — into one unit-wide buffer; then the whole
        unit is one gather per group, one XOR with each row's ``reference
        XOR flips`` and (over packed words, when k fits a machine word)
        one unpack.
        """
        rows = np.array([row for row, _, _ in requests], dtype=np.intp)
        shots = np.array([n for _, n, _ in requests], dtype=np.intp)
        ends = np.cumsum(shots)
        base = self.reference ^ flips
        if not self.random_positions:
            return np.repeat(base[rows], shots, axis=0)
        packed = self._packed_word_dtype() is not None
        tables = self._packed_combination_tables() if packed else self._combination_tables()
        groups = len(tables)
        draws = np.empty((groups, int(shots.sum())), dtype=np.uint16)
        for (_, n, rng), end in zip(requests, ends):
            draws[:, end - n : end] = uint16_draws(rng, groups * n).reshape(groups, n)
        draws &= np.array([[len(table) - 1] for table in tables], dtype=np.uint16)
        # Words when k fits one, else (>64 measured qubits) rows of the
        # unpacked (shots, k) tables.
        sampled = np.take(tables[0], draws[0], axis=0)
        for table, group_draws in zip(tables[1:], draws[1:]):
            sampled ^= np.take(table, group_draws, axis=0)
        sampled ^= np.repeat((self._pack_words(base) if packed else base)[rows], shots, axis=0)
        return self._unpack_words(sampled) if packed else sampled

    def sample_fixed(
        self, flips: np.ndarray, num_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(num_shots, k)`` bits for one fixed trajectory: the one-request
        form of :meth:`sample_stack`."""
        return self.sample_stack(flips[None, :], [(0, num_shots, rng)])

    # ------------------------------------------------------------------ #
    # bulk sampling
    # ------------------------------------------------------------------ #
    def sample(self, num_shots: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``(num_shots, k)`` measurement bits for the noisy circuit."""
        m = num_shots
        n = self.num_qubits
        fx = np.zeros((m, n), dtype=np.uint8)
        fz = np.zeros((m, n), dtype=np.uint8)
        site_iter = iter(self.sites)
        next_site = next(site_iter, None)
        for op_index, op in enumerate(self.circuit):
            if isinstance(op, GateOp):
                _conjugate(op.gate.name, op.qubits, fx, fz)
            elif isinstance(op, NoiseOp):
                assert next_site is not None and next_site.op_index == op_index
                site = next_site
                next_site = next(site_iter, None)
                # Vectorized branch draw for all shots at this site.
                cum = np.cumsum(site.probs)
                cum[-1] = 1.0
                draws = inverse_cdf_indices(cum, rng.random(m))
                fx ^= site.x_patterns[draws]
                fz ^= site.z_patterns[draws]
        # Ideal randomness: uniform combination of affine generators.
        out = np.broadcast_to(self.reference, (m, len(self.measured_qubits))).copy()
        if len(self.random_positions):
            coeffs = rng.integers(0, 2, size=(m, len(self.random_positions)), dtype=np.uint8)
            out ^= (coeffs @ self.generators) & 1
        # Frame X components flip terminal Z measurements.
        out ^= fx[:, self.measured_qubits]
        return out


def _conjugate(name: str, qubits: Sequence[int], fx: np.ndarray, fz: np.ndarray) -> None:
    """Conjugate all shot frames through one Clifford gate (in place)."""
    name = name.lower()
    if name in ("i", "x", "y", "z"):
        return  # Paulis commute with Pauli frames up to irrelevant phase
    if name == "h":
        q = qubits[0]
        fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
    elif name in ("s", "sdg"):
        q = qubits[0]
        fz[:, q] ^= fx[:, q]
    elif name in ("sx", "sxdg"):
        q = qubits[0]
        fx[:, q] ^= fz[:, q]
    elif name in ("sy", "sydg"):
        q = qubits[0]
        fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
    elif name == "cx":
        c, t = qubits
        fx[:, t] ^= fx[:, c]
        fz[:, c] ^= fz[:, t]
    elif name == "cz":
        a, b = qubits
        fz[:, b] ^= fx[:, a]
        fz[:, a] ^= fx[:, b]
    elif name == "swap":
        a, b = qubits
        fx[:, [a, b]] = fx[:, [b, a]]
        fz[:, [a, b]] = fz[:, [b, a]]
    else:
        raise BackendError(f"gate {name!r} unsupported by the frame sampler")
