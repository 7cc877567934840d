"""The package imports with only its declared dependencies.

``pyproject.toml`` declares numpy alone, so ``import repro`` must not
pull in anything else — scipy in particular, which only the test-side
reference solver (``tests/core/reference_solver.py``) uses.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = "import sys, repro; print('scipy' in sys.modules)"


def test_import_repro_leaves_scipy_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"
