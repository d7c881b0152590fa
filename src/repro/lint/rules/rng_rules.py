"""RNG discipline: every random draw flows through ``repro.rng``.

The replay contract — any run reproduces bitwise from one resolved root
seed — only survives if no module draws entropy on the side.  A stray
``np.random.default_rng()`` (fresh OS entropy), module-level
``np.random.*`` calls (hidden global state), or stdlib ``random.*``
(process-global Mersenne state) all break it silently: results look fine
until a replay diverges.

**RNG001** flags any *call* into ``numpy.random`` or the stdlib
``random`` module anywhere in ``src/repro`` outside ``rng.py`` — the one
module allowed to construct generators, because it is the stream
machinery (``root_sequence`` / ``trajectory_rng`` / ``StreamFactory``)
that keys every stream by ``(seed, trajectory_id)``.  Annotations like
``np.random.Generator`` are attribute references, not calls, and are
never flagged; neither are method calls on generator *objects*
(``rng.random(n)``), which are exactly the sanctioned pattern.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.framework import FileRule, register

__all__ = ["RNG001UnmanagedRandomness"]

#: The one module allowed to touch numpy.random / construct generators:
#: the spawn machinery itself.
RNG_MACHINERY = ("rng.py",)


@register
class RNG001UnmanagedRandomness(FileRule):
    id = "RNG001"
    title = "random draw outside the repro.rng spawn machinery"
    rationale = (
        "Bitwise replay from one root seed requires every stream to be "
        "derived via repro.rng (Philox keyed by (seed, trajectory_id)); "
        "direct numpy.random / stdlib random calls draw unmanaged "
        "entropy or global state that no seed threads through."
    )

    def applies_to(self, path: str) -> bool:
        return path not in RNG_MACHINERY

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node)
            if resolved is None:
                continue
            message = None
            if resolved.startswith("numpy.random."):
                short = resolved[len("numpy."):]
                message = (
                    f"'{short}' call bypasses the repro.rng spawn "
                    f"machinery; derive streams via repro.rng "
                    f"(make_rng / trajectory_rng / library_rng)"
                )
            elif resolved == "random" or resolved.startswith("random."):
                message = (
                    f"stdlib '{resolved}' call uses process-global RNG "
                    f"state; derive a generator via repro.rng instead"
                )
            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=message,
                    scope=ctx.scope_of(node),
                    text=ctx.line_text(node.lineno),
                )
