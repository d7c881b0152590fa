"""Per-file analysis context shared by every rule.

One :class:`FileContext` is built per source file and handed to each
file-scoped rule, so the expensive work — parsing, import-alias
resolution, parent links, suppression-comment scanning — happens once
per file, not once per rule.

The context knows three things rules keep asking:

* **what a call resolves to** — ``resolve_call("np.linalg.svd")`` walks
  the attribute chain back through the file's import aliases and returns
  the canonical dotted name (``"numpy.linalg.svd"``), covering
  ``import numpy as np``, ``from numpy import linalg``, and
  ``from numpy.random import default_rng`` alike;
* **where a node sits** — the enclosing function/class scope (for
  baseline keys);
* **what the author suppressed** — ``# replint: disable=RULE[,RULE...]``
  on the offending line, or ``# replint: disable-file=RULE`` anywhere in
  the file.  ``disable=all`` silences every rule for that line.
"""

from __future__ import annotations

import ast
import re
import tokenize
from io import StringIO
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

__all__ = ["FileContext", "SUPPRESS_RE"]

#: Matches one suppression comment.  Group 1 is ``-file`` when the
#: suppression applies to the whole file, group 2 the comma-separated
#: rule list (``all`` silences everything).  Trailing prose after the
#: rule list is the (encouraged) justification and is ignored by the
#: matcher: ``# replint: disable=DET001 -- timing only, never seeds``.
SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*disable(-file)?\s*=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Nodes that start a new scope for baseline keys.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class FileContext:
    """Parsed AST plus derived lookup tables for one source file."""

    def __init__(self, root: Path, relpath: str, source: Optional[str] = None):
        self.root = Path(root)
        #: POSIX-style path relative to the lint root — rules match on it.
        self.path = relpath.replace("\\", "/")
        if source is None:
            source = (self.root / relpath).read_text(encoding="utf-8")
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=self.path)
        #: imported-name -> canonical dotted prefix, e.g. ``{"np": "numpy",
        #: "default_rng": "numpy.random.default_rng"}``.
        self.import_map: Dict[str, str] = {}
        self._collect_imports()
        #: child AST node -> parent (for scope/loop queries).
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        #: line -> set of suppressed rule ids ("all" wildcard included).
        self.line_suppressions: Dict[int, Set[str]] = {}
        #: rule ids suppressed for the whole file.
        self.file_suppressions: Set[str] = set()
        self._collect_suppressions()

    # ------------------------------------------------------------------ #
    # imports and call resolution
    # ------------------------------------------------------------------ #
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_map[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports never reach numpy/stdlib
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.import_map[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """The literal dotted chain of a Name/Attribute node, if pure."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, through import aliases.

        ``np.linalg.svd`` -> ``numpy.linalg.svd`` when the file did
        ``import numpy as np``; ``default_rng`` -> the full
        ``numpy.random.default_rng`` after a from-import.  Returns
        ``None`` for anything that is not a plain dotted chain rooted at
        an imported name (locals stay unresolved on purpose: ``rng.random()``
        on a Generator parameter must not look like the stdlib).
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        mapped = self.import_map.get(head)
        if mapped is None:
            return None
        return f"{mapped}.{rest}" if rest else mapped

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Canonical dotted name of a call's target (or ``None``)."""
        return self.resolve(call.func)

    # ------------------------------------------------------------------ #
    # position queries
    # ------------------------------------------------------------------ #
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def scope_of(self, node: ast.AST) -> str:
        """Dotted enclosing def/class chain, ``"<module>"`` at top level."""
        names: List[str] = []
        cur = self._parents.get(node)
        while cur is not None:
            if isinstance(cur, _SCOPE_NODES):
                names.append(cur.name)
            cur = self._parents.get(cur)
        return ".".join(reversed(names)) if names else "<module>"

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    # ------------------------------------------------------------------ #
    # suppressions
    # ------------------------------------------------------------------ #
    def _collect_suppressions(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(StringIO(self.source).readline))
        except tokenize.TokenError:  # pragma: no cover - parse already passed
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            rules = {part.strip() for part in match.group(2).split(",") if part.strip()}
            if match.group(1):  # disable-file
                self.file_suppressions |= rules
            else:
                self.line_suppressions.setdefault(tok.start[0], set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is silenced at ``line`` (or file-wide)."""
        if {"all", rule} & self.file_suppressions:
            return True
        at_line = self.line_suppressions.get(line, set())
        return bool({"all", rule} & at_line)
