"""The A/B runner's seed choice: ``--first-seed S`` runs seeds S .. S + N - 1.

``benchmarks/perfbench_ab.py`` is a script, so it is loaded from its
path.  Its perfbench runs and its ``git worktree`` calls are stubbed: the
test checks which seeds each side ran and in what order, not timings.
"""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "perfbench_ab.py")


@pytest.fixture
def perfbench_ab():
    spec = importlib.util.spec_from_file_location("perfbench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def runs(perfbench_ab, monkeypatch):
    """Every stubbed perfbench run as ``(side, workload, seed)``."""
    ran = []
    trees = {}

    def fake_git(command, cwd=None, **kwargs):
        if command[:3] == ["git", "worktree", "add"]:
            trees[command[-2]] = "base"
        return None

    def fake_run_side(tree, workload, seed):
        ran.append((trees.get(tree, "head"), workload, seed))
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"setup_s": 1.0}}

    monkeypatch.setattr(perfbench_ab.subprocess, "run", fake_git)
    monkeypatch.setattr(perfbench_ab, "run_side", fake_run_side)
    return ran


def test_first_seed_picks_the_pairs_seeds(perfbench_ab, runs, capsys):
    argv = ["HEAD~1", "--workload", "fleet-64", "--first-seed", "41", "--pairs", "2"]
    assert perfbench_ab.main(argv) == 0
    # Pair 1 runs base first, pair 2 head first; both sides see both seeds.
    assert runs == [
        ("base", "fleet-64", 41),
        ("head", "fleet-64", 41),
        ("head", "fleet-64", 42),
        ("base", "fleet-64", 42),
    ]
    out = capsys.readouterr().out
    assert "pair 1 seed 41 base (first)" in out
    assert "pair 2 seed 42 head (first)" in out


def test_seeds_start_at_one_by_default(perfbench_ab, runs):
    assert perfbench_ab.main(["HEAD~1", "--workload", "fleet-sim", "--pairs", "3"]) == 0
    assert sorted({seed for _, _, seed in runs}) == [1, 2, 3]
