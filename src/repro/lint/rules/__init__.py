"""Bundled rule modules: importing this package populates the registry.

Each module registers its rules via the ``@register`` decorator; adding
a rule means adding a module here (and a fixture test demonstrating the
rule catching a seeded violation — see ``tests/test_lint.py``).
"""

from repro.lint.rules import determinism, err_rules, rng_rules, strategy

__all__ = ["determinism", "err_rules", "rng_rules", "strategy"]
