"""Command-line entry point: ``python -m repro <experiment>``.

Runs any of the paper-figure or extension experiments from a shell and
prints its table, so the evaluation is reproducible without writing a
line of Python.

    python -m repro list
    python -m repro fig10
    python -m repro fig10 --codecs bd,png
    python -m repro fig13 --height 256 --width 256 --frames 2
    python -m repro all

``all`` isolates failures: every experiment runs, a pass/fail summary
is printed at the end, and the exit code is nonzero only if something
failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from .codecs.registry import available_codecs, resolve_codec_name, streaming_codec_names
from .experiments import (
    adaptive as adaptive_experiment,
    fleet as fleet_experiment,
    fig02_ellipsoids,
    fig10_bandwidth,
    fig11_bits,
    fig12_cases,
    fig13_power,
    fig14_study,
    fig15_tilesize,
    sec61_hardware,
    sec63_psnr,
)
from .experiments.common import ExperimentConfig
from .experiments.ablations import (
    run_axis_ablation,
    run_fovea_ablation,
    run_plane_ablation,
)
from .experiments.extensions import (
    run_dark_adaptation,
    run_gaze_latency,
    run_streaming,
    run_variable_bd,
)
from .experiments.quality import (
    run_flicker,
    run_foveation_comparison,
    run_rate_distortion,
)
from .streaming.adaptive import CONTROLLER_CHOICES
from .streaming.engine import SCHEDULER_CHOICES
from .streaming.link import WIFI6_LINK, WirelessLink
from .streaming.loss import RECOVERY_CHOICES, parse_loss_spec
from .streaming.traces import parse_trace_spec

__all__ = ["main", "EXPERIMENTS"]

#: name -> (runner taking a config, description).  The hardware model
#: runner ignores the config (it has no workload).
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig02": (fig02_ellipsoids.run, "discrimination ellipsoids at 5 vs 25 deg"),
    "fig10": (fig10_bandwidth.run, "bandwidth reduction vs NoCom/SCC/BD/PNG"),
    "fig11": (fig11_bits.run, "bits/pixel decomposition"),
    "fig12": (fig12_cases.run, "case c1/c2 distribution"),
    "fig13": (fig13_power.run, "power saving over BD"),
    "fig14": (fig14_study.run, "simulated user study"),
    "fig15": (fig15_tilesize.run, "tile-size sensitivity"),
    "sec61": (lambda _config: sec61_hardware.run(), "CAU hardware constants"),
    "sec63": (sec63_psnr.run, "PSNR of adjusted frames"),
    "ablation-axis": (run_axis_ablation, "optimization-axis ablation"),
    "ablation-fovea": (run_fovea_ablation, "foveal-bypass-radius ablation"),
    "ablation-plane": (run_plane_ablation, "case-2 plane-placement ablation"),
    "ext-gaze": (run_gaze_latency, "artifact visibility vs gaze error"),
    "ext-dark": (run_dark_adaptation, "dark-adaptation compression gain"),
    "ext-varbd": (run_variable_bd, "variable-width BD (footnote 1)"),
    "ext-streaming": (run_streaming, "remote-rendering link study"),
    "ext-rd": (run_rate_distortion, "rate-distortion sweep"),
    "ext-flicker": (run_flicker, "temporal stability"),
    "ext-foveation": (run_foveation_comparison, "foveation comparison"),
    "fleet": (fleet_experiment.run, "multi-client fleet contention study"),
    "adaptive": (adaptive_experiment.run, "fixed vs adaptive rate control on a fading link"),
}

#: Experiments whose runner reads ``ExperimentConfig.codec_names``;
#: ``--codecs`` is rejected when none of the selected experiments do.
CODEC_SWEEP_EXPERIMENTS = frozenset({"fig10", "fleet"})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's experiments from the command line.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list' to enumerate, or 'all' to run everything",
    )
    parser.add_argument("--height", type=int, default=192, help="eval frame height")
    parser.add_argument("--width", type=int, default=192, help="eval frame width")
    parser.add_argument("--frames", type=int, default=2, help="animation frames per scene")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    parser.add_argument(
        "--model", choices=("parametric", "rbf"), default="parametric",
        help="discrimination model implementation",
    )
    parser.add_argument(
        "--codecs", default=None, metavar="NAME[,NAME...]",
        help="comma-separated codec-registry filter for the sweep "
             "experiments (fig10's baseline roster, fleet's per-client "
             "cycle); see 'list' for names",
    )
    fleet_group = parser.add_argument_group("fleet options")
    fleet_group.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="fleet only: number of headset clients sharing the link (default 4)",
    )
    fleet_group.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fleet only: process-pool width, one task per scene and size "
             "when encoding and one per cohort with --cohorts (default 1)",
    )
    fleet_group.add_argument(
        "--scheduler", choices=SCHEDULER_CHOICES, default=None,
        help="fleet only: link scheduling discipline (default fair)",
    )
    fleet_group.add_argument(
        "--bandwidth", type=float, default=None, metavar="MBPS",
        help="fleet only: shared link bandwidth in Mbps (default WiFi6, 400)",
    )
    fleet_group.add_argument(
        "--trace", default=None, metavar="SPEC",
        help="fleet only: time-varying link bandwidth, e.g. step:400:100:5 "
             "(high:low Mbps, 5 s per phase), const:MBPS, "
             "markov:HIGH:LOW:P[:SEED], or file:PATH",
    )
    fleet_group.add_argument(
        "--loss", default=None, metavar="SPEC",
        help="fleet only: packet-loss model on the link — bern:P "
             "(Bernoulli) or ge:P_ENTER:MEAN_BURST[:P_LOSS_BAD[:P_LOSS_GOOD]] "
             "(Gilbert-Elliott burst loss)",
    )
    fleet_group.add_argument(
        "--recovery", choices=RECOVERY_CHOICES, default=None,
        help="fleet only, with --loss: loss-recovery policy — arq "
             "(retransmit under backoff; default), fec (fixed-overhead "
             "parity), or skip (drop and I-frame resync)",
    )
    fleet_group.add_argument(
        "--controller", choices=CONTROLLER_CHOICES, default=None,
        help="fleet only: per-client rate controller; clients then adapt "
             "their codec rung per frame (default: pinned codecs)",
    )
    fleet_group.add_argument(
        "--cohorts", action="store_true", default=False,
        help="fleet only: mean-field fast path — fold statistically "
             "identical clients into cohorts and advance them in "
             "O(cohorts) work, with tracer clients proven bit-for-bit "
             "against the exact engine (enables million-client fleets)",
    )
    fleet_group.add_argument(
        "--tracers", type=int, default=None, metavar="N",
        help="fleet only, with --cohorts: fully-simulated tracer clients "
             "per cohort (default 1)",
    )
    return parser


def _parse_codecs(spec: str) -> tuple[str, ...]:
    """Canonicalize a comma-separated ``--codecs`` value (KeyError if unknown)."""
    names = tuple(token.strip() for token in spec.split(",") if token.strip())
    if not names:
        raise KeyError("--codecs needs at least one codec name")
    return tuple(resolve_codec_name(name) for name in names)


def _print_listing() -> None:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    print()
    print(f"codecs    : {', '.join(available_codecs())}")
    print(f"streaming : {', '.join(streaming_codec_names())}")
    print("serving   : repro serve / repro loadgen (each has --help)")
    print("analysis  : repro lint (invariant linter; --list-rules for the catalog)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The serving stack and the linter have their own argument
    # surfaces; dispatch before the experiment parser sees (and
    # rejects) their flags.
    if argv and argv[0] in ("serve", "loadgen"):
        from .serving.cli import loadgen_main, serve_main

        runner = serve_main if argv[0] == "serve" else loadgen_main
        return runner(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.experiment == "list":
        _print_listing()
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment {unknown[0]!r}; run 'python -m repro list'",
            file=sys.stderr,
        )
        return 2

    codec_names = None
    if args.codecs:
        try:
            codec_names = _parse_codecs(args.codecs)
        except KeyError as exc:
            print(f"bad --codecs value: {exc.args[0]}", file=sys.stderr)
            return 2
        if not any(name in CODEC_SWEEP_EXPERIMENTS for name in names):
            print(
                f"--codecs only affects {', '.join(sorted(CODEC_SWEEP_EXPERIMENTS))}; "
                f"it would be ignored by {names[0]!r}",
                file=sys.stderr,
            )
            return 2
        if names == ["fleet"]:
            # Fail fast on codecs that cannot stream (png, scc, ...).
            # Multi-experiment runs (e.g. ``all``) keep the full roster
            # for the sweep experiments; the fleet cycles over the
            # streaming-capable subset (see ``run_fleet``).
            try:
                for codec_name in codec_names:
                    fleet_experiment.streaming_codec_name(codec_name)
            except ValueError as exc:
                print(f"bad --codecs value: {exc}", file=sys.stderr)
                return 2

    fleet_values = {
        "--clients": args.clients,
        "--jobs": args.jobs,
        "--scheduler": args.scheduler,
        "--bandwidth": args.bandwidth,
        "--trace": args.trace,
        "--loss": args.loss,
        "--recovery": args.recovery,
        "--controller": args.controller,
        "--cohorts": args.cohorts or None,
        "--tracers": args.tracers,
    }
    flags_set = [flag for flag, value in fleet_values.items() if value is not None]
    if flags_set and "fleet" not in names:
        print(
            f"{', '.join(flags_set)} only affect the fleet experiment; "
            f"ignored by {names[0]!r}",
            file=sys.stderr,
        )
        return 2
    if args.clients is not None and args.clients < 1:
        print("--clients must be >= 1", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.bandwidth is not None and not 0 < args.bandwidth < math.inf:
        print("--bandwidth must be positive and finite (Mbps)", file=sys.stderr)
        return 2
    if args.trace is not None and args.bandwidth is not None:
        print("--trace and --bandwidth are mutually exclusive", file=sys.stderr)
        return 2
    if args.tracers is not None and not args.cohorts:
        print("--tracers requires --cohorts", file=sys.stderr)
        return 2
    if args.tracers is not None and args.tracers < 0:
        print("--tracers must be >= 0", file=sys.stderr)
        return 2
    if args.recovery is not None and args.loss is None:
        print("--recovery requires --loss (a lossless link needs no recovery)",
              file=sys.stderr)
        return 2
    loss_trace = None
    if args.loss is not None:
        try:
            loss_trace = parse_loss_spec(args.loss)
        except ValueError as exc:
            print(f"bad --loss value: {exc}", file=sys.stderr)
            return 2
    if args.trace is not None:
        try:
            # Same propagation as the WiFi6 default so trace sweeps
            # change exactly one variable.
            fleet_link = WirelessLink.traced(
                parse_trace_spec(args.trace),
                propagation_ms=WIFI6_LINK.propagation_ms,
                loss=loss_trace,
            )
        except (ValueError, OSError) as exc:
            print(f"bad --trace value: {exc}", file=sys.stderr)
            return 2
    elif args.bandwidth is not None:
        # Same propagation as the WiFi6 default so bandwidth sweeps
        # change exactly one variable.
        fleet_link = WirelessLink(
            bandwidth_mbps=args.bandwidth,
            propagation_ms=WIFI6_LINK.propagation_ms,
            loss=loss_trace,
        )
    elif loss_trace is not None:
        fleet_link = WirelessLink(
            bandwidth_mbps=WIFI6_LINK.bandwidth_mbps,
            propagation_ms=WIFI6_LINK.propagation_ms,
            loss=loss_trace,
        )
    else:
        fleet_link = WIFI6_LINK
    fleet_kwargs = dict(
        n_clients=args.clients if args.clients is not None else 4,
        n_jobs=args.jobs if args.jobs is not None else 1,
        scheduler=args.scheduler if args.scheduler is not None else "fair",
        link=fleet_link,
        controller=args.controller,
        recovery=args.recovery,
        cohorts=args.cohorts,
        tracers_per_cohort=args.tracers if args.tracers is not None else 1,
    )

    config = ExperimentConfig(
        height=args.height,
        width=args.width,
        n_frames=args.frames,
        seed=args.seed,
        model_kind=args.model,
        codec_names=codec_names,
    )
    def invoke(name: str, runner: Callable):
        # The fleet experiment has its own knobs beyond ExperimentConfig.
        # Multi-experiment runs share one --codecs filter, so the fleet
        # tolerates (skips) codecs that cannot stream; a sole fleet run
        # was already strictly validated above.
        if name == "fleet":
            return fleet_experiment.run_fleet(
                config, lenient_codecs=len(names) > 1, **fleet_kwargs
            )
        return runner(config)

    isolate = len(names) > 1
    failures: list[tuple[str, Exception]] = []
    for name in names:
        runner, description = EXPERIMENTS[name]
        print(f"== {name}: {description}")
        if not isolate:
            # Single-experiment runs propagate, keeping the full
            # traceback; only multi-runs trade it for isolation.
            print(invoke(name, runner).table())
            print()
            continue
        try:
            print(invoke(name, runner).table())
        except Exception as exc:  # noqa: BLE001 - isolate per-experiment failures
            failures.append((name, exc))
            print(f"!! {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print()

    if isolate:
        passed = len(names) - len(failures)
        print(f"summary: {passed}/{len(names)} experiments passed")
        for name, exc in failures:
            print(f"  FAIL {name}: {type(exc).__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
