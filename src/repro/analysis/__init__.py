"""Analysis: convergence against the exact density-matrix reference.  The
trajectory-weighted estimate of a run is
:meth:`~repro.execution.results.PTSBEResult.pooled_distribution`."""

from repro.analysis.convergence import distribution_error, exact_distribution

__all__ = ["distribution_error", "exact_distribution"]
