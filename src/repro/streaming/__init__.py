"""Remote-rendering streaming substrate (paper Sec. 2.2, Fig. 3).

Layers, bottom up: :mod:`~repro.streaming.traces` models time-varying
link capacity, :mod:`~repro.streaming.link` the wireless hop,
:mod:`~repro.streaming.engine` the discrete-event kernel every
simulator dispatches through (shared with
:mod:`~repro.streaming.validation` for parameter guards),
:mod:`~repro.streaming.session` a single client's stream,
:mod:`~repro.streaming.adaptive` per-frame rate control, and
:mod:`~repro.streaming.server` a fleet of clients contending for one
link.  A solo session is a fleet of one: all three public simulators
are thin wrappers over the same :class:`StreamingEngine`.

For fleets far beyond what per-frame events can carry,
:mod:`~repro.streaming.cohort` advances groups of statistically
identical clients in O(cohorts) work — proven against the exact engine
by tracer clients — with tail latencies rolled up through the
:mod:`~repro.streaming.sketch` quantile sketch.
"""

from .adaptive import (
    CONTROLLER_CHOICES,
    AdaptiveSessionReport,
    BufferController,
    FixedController,
    RateController,
    ThroughputController,
    get_controller,
    simulate_adaptive_session,
)
from .engine import (
    FRAME_READY,
    SCHEDULER_CHOICES,
    TRANSMIT_DONE,
    TRANSMIT_START,
    AdaptationState,
    AdaptiveStats,
    ControllerContext,
    Event,
    FairShareScheduler,
    FrameTiming,
    LinkScheduler,
    PrecomputedSource,
    PriorityScheduler,
    StreamingEngine,
    StreamOutcome,
    StreamSpec,
    get_scheduler,
)
from .cohort import (
    CohortFleetReport,
    CohortSpec,
    CohortSummary,
    plan_member_links,
    simulate_cohort_fleet,
    tracer_seed,
)
from .link import WIFI6_LINK, WIGIG_LINK, WirelessLink
from .loss import (
    LOSS_SPEC_KINDS,
    RECOVERY_CHOICES,
    ArqPolicy,
    Backoff,
    DropSkipPolicy,
    FecPolicy,
    LossStats,
    LossTrace,
    RecoveryPolicy,
    get_recovery_policy,
    parse_loss_spec,
)
from .reports import (
    REPORT_FORMAT_VERSION,
    report_from_json,
    report_to_json,
)
from .server import (
    ClientConfig,
    ClientReport,
    FleetReport,
    simulate_fleet,
    solo_sustainable_fps,
)
from .session import ENCODER_CHOICES, SessionReport, simulate_session
from .sketch import QuantileSketch
from .traces import TRACE_SPEC_KINDS, BandwidthTrace, parse_trace_spec

__all__ = [
    "FRAME_READY",
    "TRANSMIT_START",
    "TRANSMIT_DONE",
    "Event",
    "PrecomputedSource",
    "StreamSpec",
    "StreamOutcome",
    "StreamingEngine",
    "WIFI6_LINK",
    "WIGIG_LINK",
    "WirelessLink",
    "BandwidthTrace",
    "parse_trace_spec",
    "TRACE_SPEC_KINDS",
    "LossTrace",
    "parse_loss_spec",
    "LOSS_SPEC_KINDS",
    "RECOVERY_CHOICES",
    "Backoff",
    "RecoveryPolicy",
    "ArqPolicy",
    "FecPolicy",
    "DropSkipPolicy",
    "LossStats",
    "get_recovery_policy",
    "ENCODER_CHOICES",
    "FrameTiming",
    "SessionReport",
    "simulate_session",
    "CONTROLLER_CHOICES",
    "AdaptationState",
    "AdaptiveSessionReport",
    "AdaptiveStats",
    "BufferController",
    "ControllerContext",
    "FixedController",
    "RateController",
    "ThroughputController",
    "get_controller",
    "simulate_adaptive_session",
    "SCHEDULER_CHOICES",
    "ClientConfig",
    "ClientReport",
    "FairShareScheduler",
    "FleetReport",
    "LinkScheduler",
    "PriorityScheduler",
    "get_scheduler",
    "simulate_fleet",
    "solo_sustainable_fps",
    "REPORT_FORMAT_VERSION",
    "report_to_json",
    "report_from_json",
    "QuantileSketch",
    "CohortSpec",
    "CohortSummary",
    "CohortFleetReport",
    "plan_member_links",
    "simulate_cohort_fleet",
    "tracer_seed",
]
