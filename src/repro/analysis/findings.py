"""Finding records and the rule registry for :mod:`repro.analysis`.

A *finding* is one violation at one source location; a *rule* is a
callable that takes a parsed module plus its :class:`ModuleContext`
and yields findings.  Rules register themselves by ID family
(``RPR1xx`` units, ``RPR2xx`` determinism, ``RPR3xx`` asyncio safety,
``RPR4xx`` kernel purity) so the driver can run them all, or a
selected subset, over any file.

Everything in this package is stdlib-only: the linter must run in a
bare interpreter (CI bootstrap, pre-commit) without importing numpy
or any of the modules it checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "register_rule",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule) so sorted output groups by
    file and reads top to bottom.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Clickable ``file:line:col: RULE message`` text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleContext:
    """Everything a rule may need to know about the file under check."""

    #: Path as reported in findings (repo-relative when possible).
    path: str
    #: Dotted module name (``repro.streaming.engine``); drives the
    #: per-package scoping of the determinism rules.
    module: str
    #: Source text, for line lookups in messages.
    source: str
    #: True when the module is a vectorized-kernel module (RPR4xx).
    kernel: bool = False
    #: Source split into lines, computed lazily by the driver.
    lines: list[str] = field(default_factory=list)

    def in_package(self, packages: Iterable[str]) -> bool:
        """Whether :attr:`module` lives under any of ``packages``."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )


#: A rule inspects one parsed module and yields findings.
Rule = Callable[[ast.Module, ModuleContext], Iterator[Finding]]

#: rule id -> (rule callable, one-line description).  Populated by the
#: rule modules at import time via :func:`register_rule`; read only by
#: :mod:`repro.analysis.driver`, which imports every rule module.
_RULES: dict[str, tuple[Rule, str]] = {}


def register_rule(rule_id: str, description: str) -> Callable[[Rule], Rule]:
    """Function decorator adding a checker to the rule table."""

    def deco(fn: Rule) -> Rule:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _RULES[rule_id] = (fn, description)
        return fn

    return deco
