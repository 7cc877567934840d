"""One JSON format for every streaming report, simulated or served.

The simulators (:mod:`repro.streaming.session`, ``adaptive``,
``server``) and the real serving path (:mod:`repro.serving`) all
describe their outcomes with the same vocabulary — per-frame
:class:`~repro.streaming.engine.FrameTiming` rows, per-stream
:class:`~repro.streaming.engine.AdaptiveStats`, per-client reports
rolling up into a fleet/server aggregate.  This module gives that
vocabulary one serialized form, so ``repro serve --report`` output and
``simulate_fleet`` results are *diffable with the same tooling*: load
either side with :func:`report_from_json` and compare attribute by
attribute, or diff the JSON directly.

Every payload carries a ``"report"`` type tag and a ``"version"``;
decoding dispatches on the tag through a registry that the serving
subsystem extends with its own report types
(:func:`register_report_type`), so one loader handles simulator and
server output alike.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .engine import AdaptiveStats, FrameTiming
from .link import WirelessLink
from .loss import LossStats, LossTrace
from .traces import BandwidthTrace

__all__ = [
    "REPORT_FORMAT_VERSION",
    "frame_timing_to_dict",
    "frame_timing_from_dict",
    "adaptive_stats_to_dict",
    "adaptive_stats_from_dict",
    "loss_stats_to_dict",
    "loss_stats_from_dict",
    "loss_trace_to_dict",
    "loss_trace_from_dict",
    "link_to_dict",
    "link_from_dict",
    "register_report_type",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
]

#: Version stamped into every serialized report; bump on breaking
#: format changes so old payloads fail loudly instead of silently.
#: Version 2 added the ``cohort-fleet`` report type and its quantile-
#: sketch latency roll-up (see ``docs/fleet-scale.md``).  The lossy-
#: link fields (``"loss"`` on session bodies and link mappings) are
#: *conditional* additions — emitted only when a loss trace was
#: configured — so lossless version-2 payloads are byte-identical to
#: pre-loss ones and no version bump is warranted.
REPORT_FORMAT_VERSION = 2

#: Versions :func:`report_from_dict` accepts.  Version-1 payloads are
#: a strict subset of version 2 (no field changed shape), so old
#: reports keep loading.
_SUPPORTED_VERSIONS = frozenset({1, 2})


# -- leaf converters ----------------------------------------------------


def frame_timing_to_dict(timing: FrameTiming) -> dict[str, Any]:
    """One :class:`FrameTiming` as a plain JSON-ready mapping."""
    return {
        "frame_index": timing.frame_index,
        "payload_bits": timing.payload_bits,
        "encode_time_s": timing.encode_time_s,
        "serialization_time_s": timing.serialization_time_s,
        "transmit_time_s": timing.transmit_time_s,
        "rung": timing.rung,
    }


def frame_timing_from_dict(data: dict[str, Any]) -> FrameTiming:
    """Rebuild a :class:`FrameTiming` from its mapping form."""
    return FrameTiming(
        frame_index=int(data["frame_index"]),
        payload_bits=int(data["payload_bits"]),
        encode_time_s=float(data["encode_time_s"]),
        serialization_time_s=float(data["serialization_time_s"]),
        transmit_time_s=float(data["transmit_time_s"]),
        rung=str(data.get("rung", "")),
    )


def adaptive_stats_to_dict(stats: AdaptiveStats | None) -> dict[str, Any] | None:
    """Adaptation telemetry as a mapping (``None`` passes through)."""
    if stats is None:
        return None
    return {
        "controller": stats.controller,
        "rungs": list(stats.rungs),
        "rung_switches": stats.rung_switches,
        "time_in_rung": dict(stats.time_in_rung),
        "stall_time_s": stats.stall_time_s,
        "mean_quality": stats.mean_quality,
    }


def adaptive_stats_from_dict(data: dict[str, Any] | None) -> AdaptiveStats | None:
    """Rebuild :class:`AdaptiveStats` (``None`` passes through)."""
    if data is None:
        return None
    return AdaptiveStats(
        controller=str(data["controller"]),
        rungs=tuple(str(r) for r in data["rungs"]),
        rung_switches=int(data["rung_switches"]),
        time_in_rung={str(k): float(v) for k, v in data["time_in_rung"].items()},
        stall_time_s=float(data["stall_time_s"]),
        mean_quality=float(data["mean_quality"]),
    )


def loss_stats_to_dict(stats: LossStats | None) -> dict[str, Any] | None:
    """Loss/recovery telemetry as a mapping (``None`` passes through)."""
    if stats is None:
        return None
    return {
        "policy": stats.policy,
        "frames_displayed": stats.frames_displayed,
        "frames_lost": stats.frames_lost,
        "frames_poisoned": stats.frames_poisoned,
        "resyncs": stats.resyncs,
        "recovery_time_s": stats.recovery_time_s,
        "packets_sent": stats.packets_sent,
        "packets_lost": stats.packets_lost,
        "retransmits": stats.retransmits,
        "overhead_bits": stats.overhead_bits,
        "goodput_bits": stats.goodput_bits,
        "wasted_bits": stats.wasted_bits,
    }


def loss_stats_from_dict(data: dict[str, Any] | None) -> LossStats | None:
    """Rebuild :class:`LossStats` (``None`` passes through)."""
    if data is None:
        return None
    return LossStats(
        policy=str(data["policy"]),
        frames_displayed=int(data["frames_displayed"]),
        frames_lost=int(data["frames_lost"]),
        frames_poisoned=int(data["frames_poisoned"]),
        resyncs=int(data["resyncs"]),
        recovery_time_s=float(data["recovery_time_s"]),
        packets_sent=int(data["packets_sent"]),
        packets_lost=int(data["packets_lost"]),
        retransmits=int(data["retransmits"]),
        overhead_bits=float(data["overhead_bits"]),
        goodput_bits=float(data["goodput_bits"]),
        wasted_bits=float(data["wasted_bits"]),
    )


def loss_trace_to_dict(trace: LossTrace | None) -> dict[str, Any] | None:
    """A loss trace as a mapping (``None`` passes through)."""
    if trace is None:
        return None
    return {
        "p_loss_good": trace.p_loss_good,
        "p_loss_bad": trace.p_loss_bad,
        "p_good_to_bad": trace.p_good_to_bad,
        "p_bad_to_good": trace.p_bad_to_good,
        "packet_bits": trace.packet_bits,
        "reorder_prob": trace.reorder_prob,
        "reorder_depth": trace.reorder_depth,
    }


def loss_trace_from_dict(data: dict[str, Any] | None) -> LossTrace | None:
    """Rebuild a :class:`LossTrace` (``None`` passes through)."""
    if data is None:
        return None
    return LossTrace(
        p_loss_good=float(data["p_loss_good"]),
        p_loss_bad=float(data["p_loss_bad"]),
        p_good_to_bad=float(data["p_good_to_bad"]),
        p_bad_to_good=float(data["p_bad_to_good"]),
        packet_bits=int(data["packet_bits"]),
        reorder_prob=float(data["reorder_prob"]),
        reorder_depth=int(data["reorder_depth"]),
    )


def link_to_dict(link: WirelessLink) -> dict[str, Any]:
    """A link (and any attached traces) as a mapping.

    The ``"loss"`` key appears only for lossy links, keeping lossless
    payloads byte-identical to pre-loss serializations.
    """
    trace = None
    if link.trace is not None:
        trace = {
            "times_s": list(link.trace.times_s),
            "rates_mbps": list(link.trace.rates_mbps),
        }
    body = {
        "bandwidth_mbps": link.bandwidth_mbps,
        "propagation_ms": link.propagation_ms,
        "jitter_ms": link.jitter_ms,
        "trace": trace,
    }
    if link.loss is not None:
        body["loss"] = loss_trace_to_dict(link.loss)
    return body


def link_from_dict(data: dict[str, Any]) -> WirelessLink:
    """Rebuild a :class:`WirelessLink` (trace segments included)."""
    trace = None
    if data.get("trace") is not None:
        trace = BandwidthTrace(data["trace"]["times_s"], data["trace"]["rates_mbps"])
    return WirelessLink(
        bandwidth_mbps=float(data["bandwidth_mbps"]),
        propagation_ms=float(data["propagation_ms"]),
        jitter_ms=float(data["jitter_ms"]),
        trace=trace,
        loss=loss_trace_from_dict(data.get("loss")),
    )


# -- the report-type registry -------------------------------------------

#: tag -> (class, to_dict, from_dict).  Populated below for the
#: simulator reports; :mod:`repro.serving` registers its own.
_REPORT_TYPES: dict[str, tuple[type, Callable, Callable]] = {}


def register_report_type(
    tag: str,
    cls: type,
    to_dict: Callable[[Any], dict[str, Any]],
    from_dict: Callable[[dict[str, Any]], Any],
) -> None:
    """Teach the serializer a new report type.

    Parameters
    ----------
    tag:
        The payload's ``"report"`` value.  Must be unique.
    cls:
        The exact report class the tag stands for (dispatch is on
        ``type(report)``, so subclasses register their own tags).
    to_dict, from_dict:
        The body converters; the envelope (tag + version) is handled
        here.
    """
    if tag in _REPORT_TYPES:
        raise ValueError(f"report tag {tag!r} already registered")
    _REPORT_TYPES[tag] = (cls, to_dict, from_dict)


def report_to_dict(report: Any) -> dict[str, Any]:
    """Serialize any registered report to its tagged mapping form."""
    for tag, (cls, to_dict, _) in _REPORT_TYPES.items():
        if type(report) is cls:
            return {"report": tag, "version": REPORT_FORMAT_VERSION, **to_dict(report)}
    raise TypeError(
        f"no serializer registered for {type(report).__name__}; "
        f"known tags: {sorted(_REPORT_TYPES)}"
    )


def report_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a report from its tagged mapping form."""
    tag = data.get("report")
    if tag not in _REPORT_TYPES:
        raise ValueError(
            f"unknown report tag {tag!r}; known tags: {sorted(_REPORT_TYPES)}"
        )
    version = data.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"report format version {version!r} not supported "
            f"(this build reads versions {sorted(_SUPPORTED_VERSIONS)})"
        )
    _, _, from_dict = _REPORT_TYPES[tag]
    return from_dict(data)


def report_to_json(report: Any, indent: int | None = 2) -> str:
    """Any registered report as a JSON document."""
    return json.dumps(report_to_dict(report), indent=indent)


def report_from_json(text: str) -> Any:
    """Load whichever report type a JSON document declares."""
    return report_from_dict(json.loads(text))


# -- simulator report types ---------------------------------------------


def _session_body(report) -> dict[str, Any]:
    body = {
        "encoder": report.encoder,
        "target_fps": report.target_fps,
        "frames": [frame_timing_to_dict(f) for f in report.frames],
    }
    # Conditional: lossless reports stay byte-identical to pre-loss
    # serializations (the bit-for-bit acceptance gate).
    if getattr(report, "loss", None) is not None:
        body["loss"] = loss_stats_to_dict(report.loss)
    return body


def _session_to_dict(report) -> dict[str, Any]:
    return _session_body(report)


def _session_from_dict(data: dict[str, Any]):
    from .session import SessionReport

    return SessionReport(
        encoder=str(data["encoder"]),
        target_fps=float(data["target_fps"]),
        frames=[frame_timing_from_dict(f) for f in data["frames"]],
        loss=loss_stats_from_dict(data.get("loss")),
    )


def _adaptive_session_to_dict(report) -> dict[str, Any]:
    return {
        **_session_body(report),
        "adaptive": adaptive_stats_to_dict(report.adaptive),
        "ladder": list(report.ladder),
    }


def _adaptive_session_from_dict(data: dict[str, Any]):
    from .adaptive import AdaptiveSessionReport

    return AdaptiveSessionReport(
        encoder=str(data["encoder"]),
        target_fps=float(data["target_fps"]),
        frames=[frame_timing_from_dict(f) for f in data["frames"]],
        loss=loss_stats_from_dict(data.get("loss")),
        adaptive=adaptive_stats_from_dict(data.get("adaptive")),
        ladder=tuple(str(name) for name in data.get("ladder", ())),
    )


def _client_to_dict(report) -> dict[str, Any]:
    return {
        **_session_body(report),
        "name": report.name,
        "scene": report.scene,
        "weight": report.weight,
        "adaptive": adaptive_stats_to_dict(report.adaptive),
        "start_s": report.start_s,
        "stop_s": report.stop_s,
    }


def _client_from_dict(data: dict[str, Any]):
    from .server import ClientReport

    return ClientReport(
        encoder=str(data["encoder"]),
        target_fps=float(data["target_fps"]),
        frames=[frame_timing_from_dict(f) for f in data["frames"]],
        loss=loss_stats_from_dict(data.get("loss")),
        name=str(data["name"]),
        scene=str(data["scene"]),
        weight=float(data["weight"]),
        adaptive=adaptive_stats_from_dict(data.get("adaptive")),
        start_s=float(data.get("start_s", 0.0)),
        stop_s=None if data.get("stop_s") is None else float(data["stop_s"]),
    )


def _fleet_to_dict(report) -> dict[str, Any]:
    return {
        "clients": [_client_to_dict(c) for c in report.clients],
        "link": link_to_dict(report.link),
        "scheduler": report.scheduler,
        "n_frames": report.n_frames,
        "controller": report.controller,
        # Backlog queueing is the only transport pricing; the key stays
        # so payloads remain byte-identical to earlier writers.
        "pricing": "backlog",
    }


def _fleet_from_dict(data: dict[str, Any]):
    from .server import FleetReport

    pricing = data.get("pricing", "backlog")
    if pricing != "backlog":
        # Its horizon and utilization were measured on a clock this
        # build no longer models; re-deriving them would be wrong.
        raise ValueError(
            f"fleet report priced with {pricing!r}; only backlog-priced "
            "reports load (round pricing was removed, see docs/migration.md)"
        )
    return FleetReport(
        clients=tuple(_client_from_dict(c) for c in data["clients"]),
        link=link_from_dict(data["link"]),
        scheduler=str(data["scheduler"]),
        n_frames=int(data["n_frames"]),
        controller=(
            None if data.get("controller") is None else str(data["controller"])
        ),
    )


def _cohort_summary_to_dict(summary) -> dict[str, Any]:
    return {
        "name": summary.name,
        "scene": summary.scene,
        "codec": summary.codec,
        "n_members": summary.n_members,
        "n_tracers": summary.n_tracers,
        "weight": summary.weight,
        "target_fps": summary.target_fps,
        "start_s": summary.start_s,
        "stop_s": summary.stop_s,
        "frames_streamed": summary.frames_streamed,
        "member_payload_bits": summary.member_payload_bits,
        "mean_serialization_s": summary.mean_serialization_s,
        "encode_time_s": summary.encode_time_s,
        "member_link": link_to_dict(summary.member_link),
        "adaptive": adaptive_stats_to_dict(summary.adaptive),
    }


def _cohort_summary_from_dict(data: dict[str, Any]):
    from .cohort import CohortSummary

    return CohortSummary(
        name=str(data["name"]),
        scene=str(data["scene"]),
        codec=str(data["codec"]),
        n_members=int(data["n_members"]),
        n_tracers=int(data["n_tracers"]),
        weight=float(data["weight"]),
        target_fps=float(data["target_fps"]),
        start_s=float(data["start_s"]),
        stop_s=None if data.get("stop_s") is None else float(data["stop_s"]),
        frames_streamed=int(data["frames_streamed"]),
        member_payload_bits=int(data["member_payload_bits"]),
        mean_serialization_s=float(data["mean_serialization_s"]),
        encode_time_s=float(data["encode_time_s"]),
        member_link=link_from_dict(data["member_link"]),
        adaptive=adaptive_stats_from_dict(data.get("adaptive")),
    )


def _cohort_fleet_to_dict(report) -> dict[str, Any]:
    return {
        "cohorts": [_cohort_summary_to_dict(s) for s in report.cohorts],
        "tracers": [_client_to_dict(t) for t in report.tracers],
        "link": link_to_dict(report.link),
        "scheduler": report.scheduler,
        "seed": report.seed,
        "latency": report.latency.to_dict(),
        "controller": report.controller,
    }


def _cohort_fleet_from_dict(data: dict[str, Any]):
    from .cohort import CohortFleetReport
    from .sketch import QuantileSketch

    return CohortFleetReport(
        cohorts=tuple(_cohort_summary_from_dict(s) for s in data["cohorts"]),
        tracers=tuple(_client_from_dict(t) for t in data["tracers"]),
        link=link_from_dict(data["link"]),
        scheduler=str(data["scheduler"]),
        seed=int(data["seed"]),
        latency=QuantileSketch.from_dict(data["latency"]),
        controller=(
            None if data.get("controller") is None else str(data["controller"])
        ),
    )


def _register_builtin_types() -> None:
    """Register the simulator reports (deferred: import cycles)."""
    from .adaptive import AdaptiveSessionReport
    from .cohort import CohortFleetReport
    from .server import ClientReport, FleetReport
    from .session import SessionReport

    register_report_type("session", SessionReport, _session_to_dict, _session_from_dict)
    register_report_type(
        "adaptive-session",
        AdaptiveSessionReport,
        _adaptive_session_to_dict,
        _adaptive_session_from_dict,
    )
    register_report_type("client", ClientReport, _client_to_dict, _client_from_dict)
    register_report_type("fleet", FleetReport, _fleet_to_dict, _fleet_from_dict)
    register_report_type(
        "cohort-fleet",
        CohortFleetReport,
        _cohort_fleet_to_dict,
        _cohort_fleet_from_dict,
    )


_register_builtin_types()
