"""The analysis driver: walk files, run rules, filter, report.

The pipeline per file is parse → run every registered rule → drop
findings suppressed by an inline ``# noqa: RPR###``; every finding
left is a failure.  Files are checked in parallel through
:func:`repro.parallel.run_tasks` — each file is independent, so
results are reassembled in path order and the output is identical for
any worker count.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..parallel import run_tasks
from .findings import _RULES, Finding, ModuleContext
from .kernels import KERNEL_MODULES, KERNEL_PRAGMA

# Importing the rule modules fills the rule table, so it is complete
# wherever this module is imported.
from . import units as _units  # noqa: F401
from . import determinism as _determinism  # noqa: F401
from . import asyncsafe as _asyncsafe  # noqa: F401
from . import kernels as _kernels  # noqa: F401

__all__ = [
    "AnalysisReport",
    "check_source",
    "check_file",
    "collect_files",
    "run",
    "rule_catalog",
]

#: ``# noqa`` (suppress everything) or ``# noqa: RPR101, RPR203``.
_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
    re.IGNORECASE,
)


def _noqa_rules(line: str) -> frozenset[str] | None:
    """Rule ids suppressed on ``line``: a set, ``ALL`` as empty-None, or no noqa.

    Returns ``None`` when the line has no ``noqa``, an empty frozenset
    for a bare ``# noqa`` (suppress every rule), else the listed ids.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return frozenset()
    return frozenset(code.strip().upper() for code in codes.split(","))


def _module_name(path: Path) -> str:
    """Dotted module name inferred from a ``src/``-rooted path."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    while parts and parts[0] in ("..", "."):
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_kernel(module: str, source: str) -> bool:
    if module in KERNEL_MODULES:
        return True
    head = source[:4096]
    return KERNEL_PRAGMA in head


def rule_catalog() -> list[tuple[str, str]]:
    """``(rule id, description)`` pairs, sorted by id (for --list/docs)."""
    return sorted((rid, desc) for rid, (_, desc) in _RULES.items())


def check_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    kernel: bool | None = None,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the rule set over source text; the unit of all testing.

    Parameters
    ----------
    source:
        Python source to check.
    path:
        Path reported in findings.
    module:
        Dotted module name; inferred from ``path`` when omitted.
        Drives the package scoping of the RPR2xx rules.
    kernel:
        Force kernel-module status (RPR4xx); inferred from the module
        name / pragma when omitted.
    rules:
        Restrict to these rule ids (default: all registered).
    """
    if module is None:
        module = _module_name(Path(path))
    if kernel is None:
        kernel = _is_kernel(module, source)
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    ctx = ModuleContext(path=path, module=module, source=source, kernel=kernel, lines=lines)
    selected = _RULES if rules is None else {r: _RULES[r] for r in rules}
    findings: list[Finding] = []
    for rule_id, (rule, _desc) in selected.items():
        for finding in rule(tree, ctx):
            line_text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
            suppressed = _noqa_rules(line_text)
            if suppressed is not None and (not suppressed or finding.rule in suppressed):
                continue
            findings.append(finding)
    return sorted(findings)


def check_file(
    path: Path | str,
    *,
    root: Path | str | None = None,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Check one file; paths in findings are relative to ``root``."""
    path = Path(path)
    display = path
    if root is not None:
        try:
            display = path.resolve().relative_to(Path(root).resolve())
        except ValueError:
            display = path
    source = path.read_text(encoding="utf-8")
    try:
        return check_source(source, path=display.as_posix(), rules=rules)
    except SyntaxError as exc:
        return [
            Finding(
                display.as_posix(), exc.lineno or 1, (exc.offset or 1) - 1,
                "RPR000", f"syntax error: {exc.msg}",
            )
        ]


def collect_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.update(p.rglob("*.py"))
        elif p.is_file():
            files.add(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    return sorted(files)


# -- the run ------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Outcome of one driver run over a file set."""

    #: Every finding, sorted.
    findings: list[Finding]
    #: Number of files checked.
    n_files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        """The ``--json`` report."""
        return {
            "version": 1,  # of this layout
            "files": self.n_files,
            "findings": [
                {
                    "file": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "counts": dict(Counter(f.rule for f in self.findings)),
        }


def _check_one(path: str, root: str, rules: tuple[str, ...] | None) -> list[Finding]:
    """Picklable per-file worker for the process pool."""
    return check_file(path, root=root or None, rules=rules)


def run(
    paths: Sequence[Path | str],
    *,
    root: Path | str | None = None,
    rules: Iterable[str] | None = None,
    jobs: int = 1,
) -> AnalysisReport:
    """Check ``paths`` and report every finding.

    ``jobs > 1`` fans files over a process pool, one task per file
    (:func:`repro.parallel.run_tasks`, which rejects a ``jobs`` that is
    not a positive integer); output is identical for any worker count
    because per-file results are order-independent and globally
    re-sorted.
    """
    root = Path(root) if root is not None else Path.cwd()
    files = collect_files(paths)
    rule_tuple = tuple(rules) if rules is not None else None
    work = [(str(f), str(root), rule_tuple) for f in files]
    per_file = run_tasks(_check_one, work, jobs)

    findings = sorted(f for batch in per_file for f in batch)
    return AnalysisReport(findings=findings, n_files=len(files))
