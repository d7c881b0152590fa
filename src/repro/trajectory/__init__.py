"""Conventional quantum-trajectory simulation (the paper's baseline).

:mod:`repro.trajectory.baseline` implements paper Algorithm 1 — the
interleaved gate-application / per-site noise-sampling loop of the
traditional CUDA-Q trajectory simulator, including its one pre-existing
optimization (the unitary-mixture fast path, read off each channel's
cached analysis, :attr:`repro.channels.kraus.KrausChannel.mixture`).  Its
three limitations (redundant state preparation per shot, single-shot
collection, no error provenance) are precisely what PTSBE removes.

:mod:`repro.trajectory.events` defines the provenance records shared by
the baseline and PTSBE layers.
"""

from repro.trajectory.events import KrausEvent, TrajectoryRecord
from repro.trajectory.baseline import TrajectorySimulator

__all__ = [
    "KrausEvent",
    "TrajectoryRecord",
    "TrajectorySimulator",
]
