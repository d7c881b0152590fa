"""Finding records: what a rule reports and how findings are keyed.

A :class:`Finding` pins one rule violation to a source location.  Two
identifiers matter downstream:

* the *location* (``path:line:column``) — what humans and CI annotations
  consume;
* the *key* (``rule``, ``path``, enclosing ``scope``, stripped source
  ``text``) — what the committed baseline matches on.  Line numbers are
  deliberately excluded from the key so unrelated edits above a
  grandfathered finding do not invalidate the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

__all__ = ["Finding", "FindingKey"]

#: The baseline-matching identity of a finding (line numbers excluded).
FindingKey = Tuple[str, str, str, str]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Rule identifier (``"DET001"``, ...).
    path:
        POSIX-style path relative to the lint root.
    line / column:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable explanation with the expected fix.
    scope:
        Dotted name of the enclosing function/class (``"<module>"`` at
        top level) — part of the baseline key.
    text:
        The stripped source line — part of the baseline key.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    scope: str = "<module>"
    text: str = ""

    def key(self) -> FindingKey:
        """Baseline identity: stable under unrelated line-number churn."""
        return (self.rule, self.path, self.scope, self.text)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: RULE message``)."""
        return f"{self.location()}: {self.rule} {self.message} [{self.scope}]"

    def to_json(self) -> Dict[str, Union[str, int]]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "scope": self.scope,
            "text": self.text,
        }
