"""The repo benchmark: five paper-shaped ``run_ptsbe_stream`` workloads.

``run.py`` is the one command (end-to-end metrics, correctness gate and
the per-layer traced run); ``README.md`` has the metric tables, the
sizing rules and how a later PR states a claim.
"""
