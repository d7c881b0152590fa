"""Error-handling discipline on the execution paths.

The fault-tolerance layer (:mod:`repro.faults`) only works if failures
*reach* it: a work unit that dies must surface as a typed
:class:`~repro.errors.ReproError` the retry policy can classify, or
escalate.  Two anti-patterns defeat that silently:

* **broad catches** — ``except:`` / ``except Exception`` /
  ``except BaseException`` absorb everything, including the injected
  :class:`~repro.errors.WorkerCrashError` and pool-level
  ``BrokenProcessPool`` signals the recovery ladder keys on.  A broad
  catch is tolerated only when the handler visibly re-raises
  (translation into a typed error with unit context is exactly the
  sanctioned pattern);
* **swallowed domain errors** — a handler for a
  :class:`~repro.errors.ReproError` subclass whose body is nothing but
  ``pass`` / ``...`` / ``continue`` drops a failure on the floor: the
  run "succeeds" with missing shots and no
  :class:`~repro.faults.retry.RecoveryEvent` recording what happened.

**ERR001** flags both shapes in ``execution/`` and ``faults/`` modules.
Handlers over non-literal exception tuples (``except policy.retryable:``)
are deliberately invisible to this rule: the retry machinery's
classification happens through :class:`~repro.faults.retry.RetryPolicy`,
which is the structured path this rule funnels code toward.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.framework import FileRule, register

__all__ = ["ERR001SwallowedFailure"]

#: Module prefixes where the fault-tolerance contract applies: every
#: failure must surface as a typed error or a recorded recovery action.
ERROR_PATH_PREFIXES = ("execution/", "faults/")

#: The typed error taxonomy of :mod:`repro.errors`.  Kept as literal
#: names (not an import of the runtime package) so the linter stays a
#: pure source-level tool; handler types are matched on their trailing
#: identifier, which covers ``BackendError`` and ``errors.BackendError``
#: alike.
REPRO_ERROR_NAMES = frozenset(
    {
        "ReproError",
        "CircuitError",
        "GateError",
        "ChannelError",
        "NoiseModelError",
        "BackendError",
        "CapacityError",
        "SamplingError",
        "ExecutionError",
        "WorkerCrashError",
        "FaultError",
        "DeviceError",
        "QECError",
        "DataError",
    }
)

#: Builtin catch-alls.  These are bare names the import map never
#: resolves, so they are matched literally.
BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _caught_names(ctx: FileContext, handler: ast.ExceptHandler) -> List[str]:
    """Trailing identifiers of every literal class in the except clause.

    ``except (BackendError, errors.DeviceError):`` yields
    ``["BackendError", "DeviceError"]``.  Non-literal elements (calls,
    subscripts, plain locals holding tuples) yield nothing — the rule
    only judges what it can read.
    """
    node = handler.type
    if node is None:
        return []
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names: List[str] = []
    for element in elements:
        dotted = ctx.dotted_name(element)
        if dotted is not None:
            names.append(dotted.rsplit(".", 1)[-1])
    return names


def _handler_raises(handler: ast.ExceptHandler) -> bool:
    """Whether any path through the handler body re-raises."""
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body does nothing with the failure.

    ``pass``, a lone docstring/ellipsis, or a bare ``continue`` all
    discard the exception without recording, translating, or re-raising
    it.
    """
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


@register
class ERR001SwallowedFailure(FileRule):
    id = "ERR001"
    title = "failure swallowed or caught too broadly on an execution path"
    rationale = (
        "Retry and batch-halving only trigger when failures "
        "surface as typed ReproError subclasses; a broad or silent "
        "except hides faults from the recovery ladder and from the "
        "run's RecoveryEvent record."
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(ERROR_PATH_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            finding = self._check_handler(ctx, node)
            if finding is not None:
                yield finding

    def _check_handler(
        self, ctx: FileContext, handler: ast.ExceptHandler
    ) -> Optional[Finding]:
        if handler.type is None:
            return self._finding(
                ctx,
                handler,
                "bare 'except:' absorbs every failure (including "
                "KeyboardInterrupt and injected faults); catch the typed "
                "ReproError subclass the unit can actually recover from",
            )
        names = _caught_names(ctx, handler)
        broad = sorted(set(names) & BROAD_NAMES)
        if broad and not _handler_raises(handler):
            return self._finding(
                ctx,
                handler,
                f"'except {broad[0]}' without a re-raise hides failures "
                f"from the retry/halving ladder; catch the typed error or "
                f"translate into ExecutionError with unit context",
            )
        swallowed = sorted(set(names) & REPRO_ERROR_NAMES)
        if swallowed and _swallows(handler):
            return self._finding(
                ctx,
                handler,
                f"{swallowed[0]} handler discards the failure without "
                f"recording or re-raising it; append a RecoveryEvent, "
                f"translate, or let the retry policy classify it",
            )
        return None

    def _finding(
        self, ctx: FileContext, handler: ast.ExceptHandler, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=handler.lineno,
            column=handler.col_offset,
            message=message,
            scope=ctx.scope_of(handler),
            text=ctx.line_text(handler.lineno),
        )
