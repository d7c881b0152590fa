"""The repo benchmark (``benchmarks/e2e``) and the sweep specs.

A package so the benchmark runs as a module from the repo root
(``python -m benchmarks.e2e.run``) as well as directly as a script
(``python3 benchmarks/e2e/run.py``).  The sweep specs under
``benchmarks/sweeps`` are run by ``python -m repro.sweep``.
"""
