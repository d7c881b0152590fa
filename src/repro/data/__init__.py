"""Data layer: provenance-labeled datasets, serialization, statistics.

The end product of the paper's pipeline is "massive corpuses of noisy
quantum data ... suitable for downstream tasks such as training an
ML-based QEC decoder", with error provenance as supervised labels.
:mod:`repro.data.dataset` builds those labeled datasets from PTSBE
results — each keeps the run's trajectory table, and its logical-flip
labels are the end-propagated Pauli frame, exact on any Clifford +
Pauli-noise circuit (any other circuit is refused with
:class:`~repro.errors.DataError`); :mod:`repro.data.io` persists them as
columns; :mod:`repro.data.stats` provides the distribution statistics
the evaluation figures use (empirical distributions, total-variation
distance, chi-square tests).
"""

from repro.data.dataset import (
    LabeledShotDataset,
    build_decoder_dataset,
    iter_decoder_batches,
)
from repro.data.io import load_dataset, save_dataset
from repro.data.stats import (
    chi_square_statistic,
    empirical_distribution,
    total_variation_distance,
)

__all__ = [
    "LabeledShotDataset",
    "build_decoder_dataset",
    "iter_decoder_batches",
    "save_dataset",
    "load_dataset",
    "total_variation_distance",
    "chi_square_statistic",
    "empirical_distribution",
]
