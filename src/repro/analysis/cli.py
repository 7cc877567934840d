"""Command line for the invariant linter: ``repro lint`` and
``python -m repro.analysis``.

Exit codes: 0 clean, 1 any finding, 2 usage error.  An inline
``# noqa: RPR###`` is the one way to suppress a finding.  ``--json``
emits a machine-readable report for CI artifacts; the default text
form prints one clickable ``file:line:col: RULE message`` per finding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .driver import rule_catalog, run

__all__ = ["main"]


def _default_jobs() -> int:
    return min(8, os.cpu_count() or 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Project invariant linter: unit suffixes, determinism, "
                    "asyncio safety, kernel purity (rule ids RPR1xx-RPR4xx).",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to check (default: src/ under the cwd, "
             "else the installed repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--select", default=None, metavar="RPR1xx[,RPR2xx...]",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=f"parallel file checkers (default: min(8, cpus) = {_default_jobs()})",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _default_paths() -> list[str]:
    """``src/`` when run from a checkout, else the installed package."""
    src = Path.cwd() / "src"
    if src.is_dir():
        return [str(src)]
    return [str(Path(__file__).resolve().parent.parent)]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        width = max(len(rid) for rid, _ in rule_catalog())
        for rule_id, description in rule_catalog():
            print(f"{rule_id:<{width}}  {description}")
        return 0

    paths = list(args.paths) if args.paths else _default_paths()
    rules = None
    if args.select:
        rules = tuple(tok.strip().upper() for tok in args.select.split(",") if tok.strip())
        unknown = [r for r in rules if r not in dict(rule_catalog())]
        if unknown:
            print(f"unknown rule id {unknown[0]!r}; see --list-rules", file=sys.stderr)
            return 2
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        report = run(paths, rules=rules, jobs=jobs)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.format())
    print(
        f"repro lint: {len(report.findings)} finding(s) in {report.n_files} file(s)",
        file=sys.stderr,
    )
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
