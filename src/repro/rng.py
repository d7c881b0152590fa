"""Deterministic random-number streams (the library's cuRAND stand-in).

The paper's simulator uses cuRAND, a counter-based generator, so that each
trajectory draws from an independent, reproducible stream regardless of
execution order or which GPU it lands on.  cuRAND's contract is a
``(seed, sequence)`` pair; NumPy's Philox bit generator is the same
construction, and this module uses it the same way:

* **key** — the root seed is hashed once to the 128-bit Philox key
  (``SeedSequence(seed, spawn_key=(STREAM_KEY,))``, so no stream is the one
  :func:`make_rng` returns for the same integer), kept per seed;
* **counter** — the 256-bit Philox counter of a stream starts at the words
  ``[0, 0, index, family]``.  Drawing advances it from word 0 upward, so
  two streams of one seed could only meet after 2**128 blocks: their
  independence is Philox's guarantee for distinct counters under one key,
  not a hash's;
* **family** — :data:`FAMILY_SHOTS` for the stream trajectory *index*
  draws its shots from, :data:`FAMILY_PTS` for the one stream the PTS
  sampler draws from (index 0).  No trajectory index can reach the
  sampler's stream.

Before this layout every trajectory stream was
``Philox(SeedSequence(seed, spawn_key=(index,)))`` — one hash per
trajectory, which on a cheap engine cost more than drawing the shots — and
the sampler drew from trajectory 0's stream.  Seeds recorded then replay a
different, equally valid, trajectory set and shot table now.  The fault
machinery keeps its ``SeedSequence`` spawn keys (:func:`fault_rng`): one
stream per site and attempt, far off the hot path.

* :func:`root_sequence` builds the experiment-level seed sequence and
  :func:`make_rng` a plain generator on it, for callers that hold no
  factory (tests, scripts);
* :func:`trajectory_rng` derives the stream for trajectory *i* — the same
  stream is produced whether the trajectory runs serially, in a stack
  of any size, or in a process pool (verified in ``tests/test_rng.py``);
* :class:`StreamFactory` packages this for the execution layer.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = [
    "root_sequence",
    "make_rng",
    "library_rng",
    "trajectory_rng",
    "fault_rng",
    "StreamFactory",
]

#: Spawn key the Philox key of the trajectory and sampler streams is hashed
#: under (the root's own spawn key ``()`` is :func:`make_rng`'s).
STREAM_KEY = 0x57A3

#: Last word of a stream's starting Philox counter.
FAMILY_SHOTS = 0
FAMILY_PTS = 1

#: Reserved leading spawn-key element for the fault-tolerance machinery:
#: random-mode fault draws use four-element ``SeedSequence`` spawn keys
#: starting with this constant, a key no other stream is hashed under.
FAULT_STREAM_KEY = 0xFA17

#: The injection sub-namespace under :data:`FAULT_STREAM_KEY` (the key's
#: second element, kept at 0 so random-mode fault patterns replay).
FAULT_NS_INJECTION = 0


def fault_rng(
    seed: Optional[int], namespace: int, site: str, attempt: int
) -> np.random.Generator:
    """Deterministic stream for fault-machinery draws at one site/attempt.

    Keyed by ``(FAULT_STREAM_KEY, namespace, crc32(site), attempt)`` —
    ``zlib.crc32`` rather than ``hash()``, whose value for a string
    changes with ``PYTHONHASHSEED``, so the same seed draws the same
    stream in every interpreter run.  Used for random-mode fault injection
    decisions, which are therefore exactly replayable from the root seed,
    like every other draw in the library.
    """
    site_key = zlib.crc32(site.encode("utf-8"))
    seq = np.random.SeedSequence(
        seed, spawn_key=(FAULT_STREAM_KEY, int(namespace), site_key, int(attempt))
    )
    return np.random.Generator(np.random.Philox(seq))


def root_sequence(seed: Optional[int]) -> np.random.SeedSequence:
    """Return the experiment-level :class:`numpy.random.SeedSequence`.

    ``None`` gives fresh OS entropy (non-reproducible); any integer gives a
    fully deterministic tree of child streams.
    """
    return np.random.SeedSequence(seed)


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a Philox-backed generator from an integer seed (or entropy)."""
    return np.random.Generator(np.random.Philox(root_sequence(seed)))


def library_rng(seed: Optional[int] = None) -> np.random.Generator:
    """The sanctioned generator for circuit-library and utility randomness.

    Workload builders (``random_brickwork``, Haar-random unitaries, ...)
    historically drew from ``np.random.default_rng`` — PCG64, not the
    Philox trajectory streams — and registered circuit families are keyed
    to those exact bit sequences.  This wrapper preserves them bit for
    bit while giving the draw one auditable home: RNG001
    (``tests/test_invariants.py``) fails on any ``numpy.random`` call
    outside this module, so construction
    randomness flows through here and *execution* randomness through
    :func:`trajectory_rng` — never through an unseeded side channel.
    """
    return np.random.default_rng(seed)


def trajectory_rng(seed: Optional[int], trajectory_index: int) -> np.random.Generator:
    """Derive the deterministic stream for one trajectory.

    The stream depends only on ``(seed, trajectory_index)`` — not on how
    many trajectories run, in what order, or on which worker — mirroring
    counter-based cuRAND semantics.  A caller deriving many streams of one
    seed keeps a :class:`StreamFactory`, which hashes the seed once.
    """
    return StreamFactory(seed).rng_for(trajectory_index)


class _StreamKey(ISpawnableSeedSequence):
    """A root seed's Philox key, as the seed sequence its streams are built
    from: ``Philox(_StreamKey(seed), counter=c)`` is
    ``Philox(key=_StreamKey(seed).key, counter=c)`` without the OS entropy
    a keyed ``Philox`` draws and drops (a syscall per stream)."""

    def __init__(self, seed: int):
        root = np.random.SeedSequence(seed, spawn_key=(STREAM_KEY,))
        self.key = root.generate_state(2, np.uint64)
        self.key.flags.writeable = False  # shared by every factory of the seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:  # what Philox asks for
            raise ValueError("a stream key is two np.uint64 words")
        return self.key

    def spawn(self, n_children: int) -> List[np.random.SeedSequence]:
        raise TypeError("a trajectory stream does not spawn; ask its StreamFactory")


#: One key per root seed: the factories of one run (the sampler's, the
#: executor's) share one hash.
_stream_key = lru_cache(maxsize=64)(_StreamKey)


class StreamFactory:
    """Factory of per-trajectory RNG streams for the execution layer.

    Parameters
    ----------
    seed:
        Experiment seed.  ``None`` draws OS entropy once at construction,
        so every stream of the factory derives from one recorded seed.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1)[0])
        self.seed = int(seed)
        self._key = _stream_key(self.seed)  # hashed once, not per stream

    def _stream(self, index: int, family: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._key, counter=(0, 0, index, family)))

    def rng_for(self, trajectory_index: int) -> np.random.Generator:
        """Stream for a single trajectory index."""
        if trajectory_index < 0:
            raise ValueError(f"trajectory_index must be >= 0, got {trajectory_index}")
        return self._stream(trajectory_index, FAMILY_SHOTS)

    def rngs_for(self, trajectory_indices: Sequence[int]) -> List[np.random.Generator]:
        """One independent stream per stacked trajectory.

        The vectorized executor's batch counterpart of :meth:`rng_for`:
        row ``i`` of a trajectory stack samples from the stream of
        ``trajectory_indices[i]``, so stacked execution stays shot-for-shot
        identical to serial execution regardless of stacking or chunking.
        """
        return [self.rng_for(i) for i in trajectory_indices]

    def sampler_rng(self) -> np.random.Generator:
        """The stream the PTS sampler draws from: a counter family of its
        own, so it shares no draw with any trajectory's shots."""
        return self._stream(0, FAMILY_PTS)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamFactory(seed={self.seed})"
