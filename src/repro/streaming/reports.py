"""One JSON format for every streaming report, simulated or served.

The simulators (:mod:`repro.streaming.session`, ``adaptive``,
``fleet``, ``cohort``) and the real serving path
(:mod:`repro.serving`) all describe their outcomes with the same
vocabulary — per-frame :class:`~repro.streaming.engine.FrameTiming`
rows, per-stream :class:`~repro.streaming.engine.AdaptiveStats`,
per-client reports rolling up into a fleet/server aggregate.  This
module gives that vocabulary one serialized form, so ``repro serve
--report`` output and ``simulate_fleet`` results are *diffable with the
same tooling*: load either side with :func:`report_from_json` and
compare attribute by attribute, or diff the JSON directly.

The form is read off the report dataclasses themselves.  A body is the
dataclass fields in declaration order: nested dataclasses encode field
by field, lists, tuples and dicts element by element, and any other
object through its own ``to_dict``/``from_dict``.  Decoding rebuilds
each field from its type hint (an ``Any`` value is kept as it is), and
a missing key takes the field's default.  Every payload carries a
``"report"`` type tag and a ``"version"``; a class joins the format by
subclassing :class:`Report` and taking a row in :data:`_REPORT_TYPES`,
the one map from each tag to its class.  The map names classes by path
and the reader imports them on first use, so one loader handles
simulator and server output alike, whatever else the caller has
imported.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import types
import typing
from typing import Any, Mapping

__all__ = [
    "REPORT_FORMAT_VERSION",
    "OMIT_DEFAULT",
    "Report",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
]

#: Version stamped into every serialized report; bump on breaking
#: format changes so old payloads fail loudly instead of silently.
#: Version 2 added the ``cohort-fleet`` report type and its quantile-
#: sketch latency roll-up (see ``docs/fleet-scale.md``).  Later
#: additions (loss, chaos and reconnect telemetry) are omitted while
#: unset (:data:`OMIT_DEFAULT`), so payloads without them stay
#: byte-identical to earlier ones and no version bump is warranted.
REPORT_FORMAT_VERSION = 2

#: Versions :func:`report_from_dict` accepts.  Version-1 payloads are
#: a strict subset of version 2 (no field changed shape), so old
#: reports keep loading.
_SUPPORTED_VERSIONS = frozenset({1, 2})

#: Field metadata marking a key that is left out of the JSON while the
#: field equals its default: ``field(default=0, metadata=OMIT_DEFAULT)``.
#: Readers fill the default back in.
OMIT_DEFAULT: Mapping[str, bool] = types.MappingProxyType({"omit_default": True})

#: ``"report"`` tag -> ``module:Class`` of the report it names.
#: Dispatch is on the exact type, so a subclass has its own tag
#: (``AdaptiveSessionReport`` writes ``adaptive-session``, not its
#: base's ``session``).
_REPORT_TYPES: dict[str, str] = {
    "session": "repro.streaming.session:SessionReport",
    "adaptive-session": "repro.streaming.adaptive:AdaptiveSessionReport",
    "client": "repro.streaming.fleet:ClientReport",
    "fleet": "repro.streaming.fleet:FleetReport",
    "cohort-fleet": "repro.streaming.cohort:CohortFleetReport",
    "loadgen-client": "repro.serving.client:LoadgenClientReport",
    "loadgen": "repro.serving.client:LoadgenReport",
    "served-client": "repro.serving.server:ServedClientReport",
    "server": "repro.serving.server:ServerReport",
}

#: ``module:Class`` -> tag, for the writer.
_REPORT_TAGS: dict[str, str] = {path: tag for tag, path in _REPORT_TYPES.items()}


def _report_class(tag: str) -> type:
    module, _, name = _REPORT_TYPES[tag].partition(":")
    return getattr(importlib.import_module(module), name)


class Report:
    """Base of every tagged report dataclass.

    ``constants`` are keys written after the fields with a fixed value;
    the reader rejects a payload carrying any other value for them.
    """

    #: Fixed trailing keys (set through the ``constants=`` class keyword).
    _constants: Mapping[str, Any] = types.MappingProxyType({})

    def __init_subclass__(cls, *, constants: Mapping[str, Any] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if constants is not None:
            cls._constants = types.MappingProxyType(dict(constants))

    def to_json(self, indent: int | None = 2) -> str:
        """This report as a tagged, versioned JSON document."""
        return report_to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> Report:
        """Load a report serialized by :meth:`to_json`.

        Decoding dispatches on the payload's type tag; the result must
        be an instance of ``cls`` (calling ``FleetReport.from_json`` on
        a session payload is an error, but ``SessionReport.from_json``
        accepts any session subclass).
        """
        report = report_from_json(text)
        if not isinstance(report, cls):
            raise TypeError(
                f"payload decodes to {type(report).__name__}, not {cls.__name__}"
            )
        return report


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return _fields_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _fields_to_dict(obj: Any) -> dict[str, Any]:
    body = {}
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        if spec.metadata.get("omit_default") and value == spec.default:
            continue
        body[spec.name] = _encode(value)
    body.update(getattr(obj, "_constants", {}))
    return body


@functools.cache
def _type_hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _decode(hint: Any, value: Any) -> Any:
    if hint is Any:
        return value
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return _decode(inner, value)
    if origin in (list, tuple):
        return origin(_decode(args[0], item) for item in value)
    if origin is dict:
        return {
            _decode(args[0], key): _decode(args[1], item)
            for key, item in value.items()
        }
    if dataclasses.is_dataclass(hint):
        return _fields_from_dict(hint, value)
    if hasattr(hint, "from_dict"):
        return hint.from_dict(value)
    return hint(value)


def _fields_from_dict(cls: type, data: dict[str, Any]) -> Any:
    for key, expected in getattr(cls, "_constants", {}).items():
        found = data.get(key, expected)
        if found != expected:
            raise ValueError(
                f"{cls.__name__} payload has {key}={found!r}; this build reads "
                f"only {key}={expected!r} (see docs/migration.md)"
            )
    hints = _type_hints(cls)
    return cls(
        **{
            spec.name: _decode(hints[spec.name], data[spec.name])
            for spec in dataclasses.fields(cls)
            if spec.name in data
        }
    )


def report_to_dict(report: Report) -> dict[str, Any]:
    """Serialize any tagged report to its tagged mapping form."""
    cls = type(report)
    tag = _REPORT_TAGS.get(f"{cls.__module__}:{cls.__qualname__}")
    if tag is None:
        raise TypeError(
            f"no serializer registered for {cls.__name__}; "
            f"known tags: {sorted(_REPORT_TYPES)}"
        )
    return {"report": tag, "version": REPORT_FORMAT_VERSION, **_fields_to_dict(report)}


def report_from_dict(data: dict[str, Any]) -> Report:
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
    return _fields_from_dict(_report_class(tag), data)


def report_to_json(report: Report, indent: int | None = 2) -> str:
    """Any tagged report as a JSON document."""
    return json.dumps(report_to_dict(report), indent=indent)


def report_from_json(text: str) -> Report:
    """Load whichever report type a JSON document declares."""
    return report_from_dict(json.loads(text))
