"""Strategy-contract rule: what a test cannot check about the dispatch.

Every strategy reaches the shared loop through the one ``execute_stream``
of ``execution/driver.py``, and ``tests/test_driver.py`` runs every name of
the strategy table through it (engine name, fault-unit prefix, ``seed`` /
``retain`` parameters).  Two properties are left that a behavioral test
over today's table cannot see, because they are about code that *could*
be added beside it:

**STRAT001**

1. the dispatch site attaches the routing trail — an
   ``<stream>.routing = ...`` assignment in ``execution/batched.py`` — so
   ``result.routing`` always says why an engine ran;
2. ``StreamedResult(...)`` is constructed under ``execution/`` only in
   ``execution/driver.py``: an executor that builds its own has left the
   shared loop (its retry, ordering and cleanup with it).

On trees without ``execution/batched.py`` (not a repro-shaped source
root) the rule is silent.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.framework import Project, ProjectRule, register

__all__ = ["STRAT001ExecutorContract"]

DISPATCH_MODULE = "execution/batched.py"
DRIVER_MODULE = "execution/driver.py"


def _attaches_routing(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Attribute) and t.attr == "routing" for t in node.targets)
        for node in ast.walk(tree)
    )


def _streamed_result_calls(tree: ast.Module) -> Iterable[ast.Call]:
    return (
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "StreamedResult"
    )


@register
class STRAT001ExecutorContract(ProjectRule):
    id = "STRAT001"
    title = "execution module steps outside the shared dispatch and driver"
    rationale = (
        "run_ptsbe_stream must record why each engine ran (stream.routing), "
        "and only execution/driver.py may build a StreamedResult: a run "
        "built elsewhere has left the shared retry, ordering and cleanup."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        ctx = project.context_for(DISPATCH_MODULE)
        if ctx is None:
            return  # not a repro-shaped tree: nothing to check
        if not _attaches_routing(ctx.tree):
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=1,
                column=0,
                message=(
                    "dispatch never attaches the routing decision "
                    "(no '<stream>.routing = ...' assignment); "
                    "run_ptsbe_stream must record why each engine ran"
                ),
                scope="<module>",
                text=ctx.line_text(1),
            )
        for relpath in project.files():
            if not relpath.startswith("execution/") or relpath == DRIVER_MODULE:
                continue
            module_ctx = project.context_for(relpath)
            if module_ctx is None:
                continue
            for call in _streamed_result_calls(module_ctx.tree):
                yield Finding(
                    rule=self.id,
                    path=relpath,
                    line=call.lineno,
                    column=call.col_offset,
                    message=(
                        f"StreamedResult constructed outside {DRIVER_MODULE}: "
                        f"go through StreamingExecutor.execute_stream so the run "
                        f"gets the shared retry, ordering and cleanup"
                    ),
                    scope=module_ctx.scope_of(call),
                    text=module_ctx.line_text(call.lineno),
                )
