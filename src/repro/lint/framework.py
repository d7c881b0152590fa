"""Rule registry, project model, and the lint driver.

Rules come in two shapes:

* :class:`FileRule` — runs once per source file against a
  :class:`~repro.lint.context.FileContext`; ``applies_to`` scopes it to
  the module set whose invariant it guards (replay paths for
  determinism, everything for RNG discipline).
* :class:`ProjectRule` — runs once against the whole
  :class:`Project`, for cross-module contracts (the strategy-table rule
  reads ``execution/batched.py`` and every executor module it points at).

``@register`` adds a rule class to the global :data:`REGISTRY`;
:func:`run_lint` drives every registered rule over a root directory and
filters findings through inline suppressions.  Registration is
idempotent by rule id so test reloads do not duplicate rules.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding

__all__ = [
    "LintError",
    "Rule",
    "FileRule",
    "ProjectRule",
    "Project",
    "REGISTRY",
    "register",
    "all_rules",
    "run_lint",
]


class LintError(Exception):
    """Raised for unusable lint inputs (bad root, unparseable source)."""


class Rule:
    """Base class: every rule has an id, a one-line title, a rationale."""

    id: str = ""
    title: str = ""
    rationale: str = ""


class FileRule(Rule):
    """A rule evaluated independently on each source file."""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (POSIX, root-relative)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the whole project tree."""

    def check_project(self, project: "Project") -> Iterable[Finding]:
        raise NotImplementedError


#: Global rule registry: id -> rule *class*.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY` (idempotent)."""
    if not rule_cls.id:
        raise LintError(f"rule class {rule_cls.__name__} has no id")
    REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _ensure_rules_loaded()
    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


def _ensure_rules_loaded() -> None:
    """Import the bundled rule modules exactly once."""
    import repro.lint.rules  # noqa: F401  — import populates REGISTRY


class Project:
    """A lint run's view of one source tree.

    Parses files lazily and caches the :class:`FileContext` per path, so
    a file visited by four file rules and one cross-module rule is parsed
    once.  ``__pycache__`` and non-``.py`` files are skipped.
    """

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise LintError(f"lint root {self.root} is not a directory")
        self._contexts: Dict[str, FileContext] = {}
        self._errors: List[Finding] = []

    def files(self) -> List[str]:
        """Sorted root-relative POSIX paths of every lintable file."""
        out: List[str] = []
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root).as_posix()
            if "__pycache__" in rel:
                continue
            out.append(rel)
        return out

    def context_for(self, relpath: str) -> Optional[FileContext]:
        """The (cached) context for one file, ``None`` when absent."""
        if relpath in self._contexts:
            return self._contexts[relpath]
        full = self.root / relpath
        if not full.is_file():
            return None
        try:
            ctx = FileContext(self.root, relpath)
        except SyntaxError as exc:
            self._errors.append(
                Finding(
                    rule="PARSE",
                    path=relpath,
                    line=exc.lineno or 1,
                    column=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                    scope="<module>",
                    text="",
                )
            )
            return None
        self._contexts[relpath] = ctx
        return ctx

    def parse_errors(self) -> List[Finding]:
        return list(self._errors)


def run_lint(
    root: Path,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the registered rules over ``root`` and return live findings.

    Findings silenced by inline/file suppressions are dropped here;
    baseline matching is the caller's concern
    (:func:`repro.lint.baseline.partition`).  ``rule_ids`` restricts the
    run to a subset of rules (unknown ids raise).
    """
    _ensure_rules_loaded()
    rules = all_rules()
    if rule_ids is not None:
        unknown = sorted(set(rule_ids) - set(REGISTRY))
        if unknown:
            raise LintError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(REGISTRY))}"
            )
        wanted = set(rule_ids)
        rules = [rule for rule in rules if rule.id in wanted]

    project = Project(Path(root))
    findings: List[Finding] = []
    for relpath in project.files():
        file_rules = [
            rule
            for rule in rules
            if isinstance(rule, FileRule) and rule.applies_to(relpath)
        ]
        if not file_rules:
            continue
        ctx = project.context_for(relpath)
        if ctx is None:
            continue
        for rule in file_rules:
            for finding in rule.check(ctx):
                if not ctx.is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            for finding in rule.check_project(project):
                ctx = project.context_for(finding.path)
                if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
                    continue
                findings.append(finding)
    findings.extend(project.parse_errors())
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings
