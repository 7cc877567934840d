"""The linter's headline guarantee: this repository is clean.

``repro lint`` over ``src/`` must report zero findings against the
committed baseline — and that baseline must be *empty*, so the
guarantee is unconditional (nothing is grandfathered).
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.driver import load_baseline, run

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "analysis-baseline.json"


def test_committed_baseline_is_empty():
    assert BASELINE.is_file(), "analysis-baseline.json must be committed"
    assert sum(load_baseline(BASELINE).values()) == 0


def test_src_tree_is_clean():
    report = run([SRC], root=REPO_ROOT, baseline=BASELINE, jobs=2)
    assert report.n_files > 90  # the whole tree, not a subset
    formatted = "\n".join(f.format() for f in report.findings)
    assert report.findings == [], f"repro lint found:\n{formatted}"


def test_self_check_exercises_every_rule_family():
    """Meta-guard: a clean tree must not mean 'the rules went dead'.
    Each family still fires on its bad fixture when routed through the
    same driver the self-check uses."""
    fixtures = Path(__file__).parent / "fixtures"
    report = run([fixtures / "units_bad.py", fixtures / "kernel_bad.py",
                  fixtures / "asyncio_bad.py"], root=REPO_ROOT)
    families = {f.rule[:4] for f in report.findings}
    assert {"RPR1", "RPR3", "RPR4"} <= families
