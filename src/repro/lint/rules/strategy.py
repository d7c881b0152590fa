"""Strategy-contract rule: every registered engine honors the executor API.

The six strategies stay interchangeable because each executor behind
``STRATEGY_BUILDERS`` implements the same surface: an ``execute_stream``
that accepts the threaded root ``seed`` and the ``retain`` knob, and an
engine name equal to its registry key on the streamed results, so routing
decisions are auditable (``result.engine`` / ``result.routing``).  Every
engine gets the loop itself — in-process or over a pool — from
``repro.execution.driver.drive`` (whose ``Engine`` protocol mypy checks);
what is left to check statically is the part that spans modules — a new
strategy can pass its own tests while silently breaking
``run_ptsbe_stream``'s dispatch assumptions.

**STRAT001** walks the contract statically:

1. parse ``execution/batched.py`` for the ``STRATEGY_BUILDERS`` dict;
2. resolve each builder function to the executor class it constructs
   (following the builder-local ``from repro.execution.<m> import <Cls>``);
3. in the class's module, require ``execute_stream`` to exist, to accept
   ``seed`` and ``retain`` parameters, and require the module to declare
   the registry key as its engine name: an ``Engine`` adapter's
   class-level ``name = "<strategy>"``, which ``drive`` stamps on the
   results;
4. require the dispatch site to attach the routing trail
   (an ``<stream>.routing = ...`` assignment in ``execution/batched.py``);
5. allow ``StreamedResult(...)`` to be constructed under ``execution/``
   only in ``execution/driver.py``: an executor that builds its own has
   left the shared loop (its retry, ordering and cleanup with it).

On trees without ``execution/batched.py`` (not a repro-shaped source
root) the rule is silent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import Project, ProjectRule, register

__all__ = ["STRAT001ExecutorContract"]

DISPATCH_MODULE = "execution/batched.py"
DRIVER_MODULE = "execution/driver.py"
TABLE_NAME = "STRATEGY_BUILDERS"
REQUIRED_PARAMS = ("seed", "retain")


def _builders_table(tree: ast.Module) -> Optional[Tuple[ast.Dict, Dict[str, str]]]:
    """The ``STRATEGY_BUILDERS`` dict node and its name->builder map."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == TABLE_NAME for t in node.targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            return None
        table: Dict[str, str] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Name)
            ):
                table[key.value] = value.id
        return node.value, table
    return None


def _resolve_builder(
    tree: ast.Module, builder_name: str
) -> Optional[Tuple[Optional[str], str]]:
    """(module relpath or None for dispatch-local, class name) for a builder.

    Follows the idiom ``def _build_x(...): from repro.execution.x import
    XExecutor; return XExecutor(...)``.  A builder returning a class with
    no builder-local import constructs a class defined in the dispatch
    module itself (the serial engine).
    """
    func = next(
        (
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == builder_name
        ),
        None,
    )
    if func is None:
        return None
    local_imports: Dict[str, str] = {}
    returned: Optional[str] = None
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local_imports[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            callee = node.value.func
            if isinstance(callee, ast.Name):
                returned = callee.id
    if returned is None:
        return None
    module = local_imports.get(returned)
    if module is None:
        return None, returned
    if not module.startswith("repro."):
        return None
    relpath = "/".join(module.split(".")[1:]) + ".py"
    return relpath, returned


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _param_names(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _module_records_engine(tree: ast.Module, engine: str) -> bool:
    """Does some adapter in the module declare ``name = "<engine>"``?"""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "name" for t in node.targets)
            and isinstance(node.value, ast.Constant)
            and node.value.value == engine
        ):
            return True
    return False


def _streamed_result_calls(tree: ast.Module) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "StreamedResult"
    ]


def _dispatch_attaches_routing(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Attribute) and t.attr == "routing"
                for t in node.targets
            ):
                return True
    return False


@register
class STRAT001ExecutorContract(ProjectRule):
    id = "STRAT001"
    title = "registered strategy violates the executor contract"
    rationale = (
        "Every engine behind STRATEGY_BUILDERS must expose "
        "execute_stream(seed=..., retain=...), name its adapter after its "
        "registry key, and leave building the StreamedResult to "
        "execution/driver.py; the strategies are only interchangeable "
        "(and routing decisions only auditable) while that holds."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        ctx = project.context_for(DISPATCH_MODULE)
        if ctx is None:
            return  # not a repro-shaped tree: nothing to check
        found = _builders_table(ctx.tree)
        if found is None:
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=1,
                column=0,
                message=(
                    f"{TABLE_NAME} dict literal not found; the strategy "
                    f"contract has no anchor to check against"
                ),
                scope="<module>",
                text=ctx.line_text(1),
            )
            return
        table_node, table = found
        if not _dispatch_attaches_routing(ctx.tree):
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=table_node.lineno,
                column=table_node.col_offset,
                message=(
                    "dispatch never attaches the routing decision "
                    "(no '<stream>.routing = ...' assignment); "
                    "run_ptsbe_stream must record why each engine ran"
                ),
                scope=ctx.scope_of(table_node),
                text=ctx.line_text(table_node.lineno),
            )
        for strategy, builder_name in sorted(table.items()):
            yield from self._check_strategy(project, table_node, strategy, builder_name)
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
                        f"return drive(...) so the run gets the shared retry, "
                        f"ordering and cleanup"
                    ),
                    scope=module_ctx.scope_of(call),
                    text=module_ctx.line_text(call.lineno),
                )

    def _check_strategy(
        self,
        project: Project,
        table_node: ast.Dict,
        strategy: str,
        builder_name: str,
    ) -> Iterable[Finding]:
        ctx = project.context_for(DISPATCH_MODULE)
        assert ctx is not None  # caller established it
        resolved = _resolve_builder(ctx.tree, builder_name)
        if resolved is None:
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=table_node.lineno,
                column=table_node.col_offset,
                message=(
                    f"builder '{builder_name}' for strategy "
                    f"'{strategy}' does not resolve to an executor class "
                    f"(expected 'from repro.execution.<m> import <Cls>' + "
                    f"'return <Cls>(...)')"
                ),
                scope=ctx.scope_of(table_node),
                text=ctx.line_text(table_node.lineno),
            )
            return
        module_rel, class_name = resolved
        module_rel = module_rel or DISPATCH_MODULE
        cls = project.find_class(module_rel, class_name)
        module_ctx = project.context_for(module_rel)
        if cls is None or module_ctx is None:
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=table_node.lineno,
                column=table_node.col_offset,
                message=(
                    f"executor class '{class_name}' for strategy "
                    f"'{strategy}' not found in {module_rel}"
                ),
                scope=ctx.scope_of(table_node),
                text=ctx.line_text(table_node.lineno),
            )
            return
        method = _method(cls, "execute_stream")
        if method is None:
            yield Finding(
                rule=self.id,
                path=module_rel,
                line=cls.lineno,
                column=cls.col_offset,
                message=(
                    f"executor '{class_name}' (strategy '{strategy}') "
                    f"defines no execute_stream: every registered engine "
                    f"must stream ordered ShotChunks"
                ),
                scope=class_name,
                text=module_ctx.line_text(cls.lineno),
            )
        else:
            params = _param_names(method)
            for required in REQUIRED_PARAMS:
                if required not in params:
                    yield Finding(
                        rule=self.id,
                        path=module_rel,
                        line=method.lineno,
                        column=method.col_offset,
                        message=(
                            f"{class_name}.execute_stream (strategy "
                            f"'{strategy}') does not accept '{required}': "
                            f"the dispatch threads the resolved root seed "
                            f"and the retention knob to every engine"
                        ),
                        scope=f"{class_name}.execute_stream",
                        text=module_ctx.line_text(method.lineno),
                    )
        if not _module_records_engine(module_ctx.tree, strategy):
            yield Finding(
                rule=self.id,
                path=module_rel,
                line=cls.lineno,
                column=cls.col_offset,
                message=(
                    f"module never records engine='{strategy}' (no adapter "
                    f"with name = '{strategy}'): routing decisions must be "
                    f"auditable via result.engine"
                ),
                scope=class_name,
                text=module_ctx.line_text(cls.lineno),
            )
