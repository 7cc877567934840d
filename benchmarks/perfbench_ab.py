#!/usr/bin/env python3
"""Gate a change's end-to-end perfbench metrics against a base commit.

Usage::

    python benchmarks/perfbench_ab.py BASE [--workload W ...] [--pairs N] [--first-seed S]

Checks ``BASE`` out with ``git worktree add`` into a temporary
directory, then runs ``python3 perfbench/run.py --workload W --seed i
--seconds 20`` in the base tree and in this working tree ("head") for
``i = S .. S + N - 1`` (``S`` is 1 unless given, so a claim can be
checked on seeds no earlier run used).  The two sides of a pair run
back to back, and the side that goes first alternates by pair, so a
slow phase of the host lands on both sides alike.

For each workload it prints every run, then each end-to-end metric's
median and quartiles per side and how many pairs head won.  It exits 1
when head fails more ops than base, or when a head median is worse
than base's by more than that metric's bound in ``BENCHMARK.json``
(a relative bound: 0.25 lets a higher-is-better metric fall to 0.75 of
base's median).  Exit 2 is a usage error.  The worktree is removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Each run's length, the benchmark's own ``run_seconds``.
SECONDS = 20
#: perfbench's compute workloads (serve-fade measures wall time on a
#: real socket and is not compared here).
WORKLOADS = ("encode-512", "fleet-64", "fleet-sim")


def load_bounds() -> dict[str, dict]:
    """End-to-end metric name -> its ``BENCHMARK.json`` entry."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def run_side(tree: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``; a crash counts as one failed op."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS),
    ]
    done = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse_than_bound(base: float, head: float, spec: dict) -> bool:
    if spec["better"] == "higher":
        return head < base * (1.0 - spec["bound"])
    return head > base * (1.0 + spec["bound"])


def head_won(base: float, head: float, spec: dict) -> bool:
    return head > base if spec["better"] == "higher" else head < base


def compare(workload: str, runs: dict[str, list[dict]], bounds: dict[str, dict]) -> list[str]:
    """Print one workload's table; return why head regressed, if it did."""
    problems = []
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    print(
        f"# {workload}: failed ops base {failed['base']}/{attempted['base']}, "
        f"head {failed['head']}/{attempted['head']}"
    )
    if failed["head"] > failed["base"]:
        problems.append(
            f"{workload}: head failed {failed['head']} ops, base {failed['base']}"
        )
    print(
        f"#   {'metric':<20} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30}"
        f" {'head/base':>9} {'bound':>6} {'head won':>9}"
    )
    for name, spec in bounds.items():
        series = {side: [r["metrics"][name] for r in rs if name in r["metrics"]]
                  for side, rs in runs.items()}
        if not series["base"] or not series["head"]:
            continue
        base_q, head_q = quartiles(series["base"]), quartiles(series["head"])
        wins = sum(head_won(b, h, spec) for b, h in zip(series["base"], series["head"]))
        ratio = head_q[1] / base_q[1] if base_q[1] else float("nan")
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (base_q, head_q)]
        print(
            f"#   {name:<20} {cells[0]:>30} {cells[1]:>30} {ratio:>9.3f}"
            f" {spec['bound']:>6g} {wins:>4}/{len(series['head'])}"
        )
        if worse_than_bound(base_q[1], head_q[1], spec):
            problems.append(
                f"{workload}: {name} head median {head_q[1]:.4g} is worse than base "
                f"{base_q[1]:.4g} by more than {spec['bound']:g}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="commit to compare against (any git revision)")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to compare (repeatable; default: all three)",
    )
    parser.add_argument("--pairs", type=int, default=3, help="base/head run pairs per workload")
    parser.add_argument(
        "--first-seed", type=int, default=1, help="seed of the first pair (pair i runs S + i - 1)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    bounds = load_bounds()
    scratch = tempfile.mkdtemp(prefix="perfbench-ab-")
    base_tree = os.path.join(scratch, "base")
    subprocess.run(
        ["git", "worktree", "add", "--detach", base_tree, args.base], cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    problems = []
    try:
        trees = {"base": base_tree, "head": ROOT}
        for workload in workloads:
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for pair in range(1, args.pairs + 1):
                seed = args.first_seed + pair - 1
                order = ("base", "head") if pair % 2 else ("head", "base")
                for side in order:
                    result = run_side(trees[side], workload, seed=seed)
                    runs[side].append(result)
                    values = " ".join(
                        f"{name}={value:.6g}" for name, value in result["metrics"].items()
                    )
                    print(
                        f"# run {workload} pair {pair} seed {seed} {side}"
                        f"{' (first)' if side == order[0] else ''}: "
                        f"failed {result['failed']}/{result['attempted']} {values}",
                        flush=True,
                    )
            problems += compare(workload, runs, bounds)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=ROOT)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"# REGRESSION: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
