"""Run reports: schema-versioned JSON, Prometheus text, span-tree summary.

The run report is the single document that merges everything one run
produced: the span timeline, the merged metrics, the
:class:`~repro.core.profile.PipelineProfile` and
:class:`~repro.core.profile.RunHealth` aggregates, and (when the
determinism sanitizer ran) the detsan manifest.  ``version`` is bumped on
any breaking shape change; consumers (the benchmark trajectory, CI's
schema gate) pin against it.

:data:`REPORT_SCHEMA` is the authoritative schema, embedded here so the
validator has no file dependency; ``schemas/run_report.schema.json`` is
the checked-in copy CI validates against, and a golden test keeps the two
identical.  :func:`validate_report` implements the small JSON-Schema
subset the schema uses (``type``/``required``/``properties``/``items``/
``enum``/``minimum``) — the container deliberately has no ``jsonschema``
dependency.

Run ``python -m repro.obs.export report.json --schema schemas/...`` to
validate a report from the command line (the CI ``obs`` job does).
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .metrics import MetricsRegistry, prometheus_text
from .trace import SpanDict, Tracer

__all__ = [
    "FLIGHT_RECORDS_SCHEMA",
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "REQUEST_TRACE_SCHEMA",
    "SERVE_METRICS_SCHEMA",
    "build_run_report",
    "main",
    "prometheus_text",
    "render_span_tree",
    "validate_flight_records",
    "validate_report",
    "validate_request_trace",
    "validate_serve_metrics",
]

#: Bumped on any breaking change to the report shape.
REPORT_VERSION = 1


def _as_dict(obj: Any) -> Any:
    """Duck-typed serialization so this module never imports core/."""
    if obj is None or isinstance(obj, dict):
        return obj
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a run report")


def build_run_report(
    *,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    profile: Any = None,
    health: Any = None,
    detsan: Any = None,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the schema-versioned run report.

    *profile*, *health* and *detsan* may be the live objects (anything
    with ``as_dict()`` / ``manifest()``), pre-serialized dicts, or None.
    """
    merged_meta: dict[str, Any] = {}
    if tracer is not None:
        merged_meta.update(tracer.meta)
    if meta:
        merged_meta.update(meta)
    if detsan is not None and not isinstance(detsan, dict):
        manifest = getattr(detsan, "manifest", None)
        detsan = manifest() if callable(manifest) else _as_dict(detsan)
    return {
        "version": REPORT_VERSION,
        "meta": merged_meta,
        "spans": tracer.export() if tracer is not None else [],
        "metrics": registry.to_dict() if registry is not None else {"metrics": []},
        "profile": _as_dict(profile),
        "run_health": _as_dict(health),
        "detsan": detsan,
    }


def render_span_tree(spans: list[SpanDict] | Tracer) -> str:
    """Indented terminal summary of the span forest, durations aligned.

    Children render under their parent in recorded order; orphans (parent
    id missing from the export) render as roots rather than vanishing.
    """
    rows = spans.export() if isinstance(spans, Tracer) else list(spans)
    ids = {row["span_id"] for row in rows}
    children: dict[int | None, list[SpanDict]] = {}
    for row in rows:
        parent = row.get("parent_id")
        children.setdefault(parent if parent in ids else None, []).append(row)

    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for row in children.get(parent, ()):  # recorded order
            duration = row.get("duration")
            took = "open" if duration is None else f"{duration * 1e3:10.3f} ms"
            attrs = row.get("attributes") or {}
            decor = (
                " [" + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs)) + "]"
                if attrs
                else ""
            )
            events = row.get("events") or ()
            suffix = f" ({len(events)} events)" if events else ""
            lines.append(f"{'  ' * depth}{row['name']:<{32 - 2 * depth}} {took}{decor}{suffix}")
            walk(row["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)


_SPAN_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["name", "span_id", "parent_id", "start", "duration"],
    "properties": {
        "name": {"type": "string"},
        "span_id": {"type": "integer", "minimum": 1},
        "parent_id": {"type": ["integer", "null"]},
        "start": {"type": "number"},
        "duration": {"type": ["number", "null"], "minimum": 0},
        "attributes": {"type": "object"},
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "offset"],
                "properties": {
                    "name": {"type": "string"},
                    "offset": {"type": "number"},
                },
            },
        },
    },
}

_METRIC_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["name", "kind", "labels"],
    "properties": {
        "name": {"type": "string"},
        "kind": {"enum": ["counter", "gauge", "histogram"]},
        "labels": {"type": "object"},
        "value": {"type": "number"},
        "boundaries": {"type": "array", "items": {"type": "number"}},
        "counts": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "total": {"type": "number"},
        "samples": {"type": "integer", "minimum": 0},
    },
}

#: The authoritative run-report schema.  ``schemas/run_report.schema.json``
#: is the checked-in copy; a golden test asserts the two stay identical.
REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro run report",
    "type": "object",
    "required": ["version", "meta", "spans", "metrics"],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "meta": {"type": "object"},
        "spans": {"type": "array", "items": _SPAN_SCHEMA},
        "metrics": {
            "type": "object",
            "required": ["metrics"],
            "properties": {
                "metrics": {"type": "array", "items": _METRIC_SCHEMA},
            },
        },
        "profile": {"type": ["object", "null"]},
        "run_health": {"type": ["object", "null"]},
        "detsan": {"type": ["object", "null"]},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value: Any, schema: dict[str, Any], path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected {'/'.join(types)}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']!r}")
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value!r} < minimum {schema['minimum']!r}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required key {name!r}")
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                _validate(value[name], sub, f"{path}.{name}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)


def validate_report(
    report: dict[str, Any], schema: dict[str, Any] | None = None
) -> list[str]:
    """Validate a run report; returns error strings (empty = valid)."""
    errors: list[str] = []
    _validate(report, REPORT_SCHEMA if schema is None else schema, "$", errors)
    return errors


#: Terminal request statuses shared by the per-request trace document and
#: the flight-recorder record.
_REQUEST_STATUSES = ["ok", "shed", "deadline", "error", "draining"]

#: The authoritative per-request trace document schema (what
#: ``GET /debug/trace/<id>`` and ``--trace-dir`` spool files contain).
#: ``schemas/request_trace.schema.json`` is the checked-in copy; a golden
#: test keeps the two identical and the CI ``obs-serve`` job validates
#: live documents against it.
REQUEST_TRACE_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro per-request trace",
    "type": "object",
    "required": [
        "version",
        "request_id",
        "trace_id",
        "request_index",
        "status",
        "code",
        "duration_seconds",
        "spans",
    ],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "request_id": {"type": "string"},
        "trace_id": {"type": "string"},
        "request_index": {"type": ["integer", "null"], "minimum": 0},
        "status": {"enum": _REQUEST_STATUSES},
        "code": {"type": "integer", "minimum": 100},
        "duration_seconds": {"type": "number", "minimum": 0},
        "spans": {"type": "array", "items": _SPAN_SCHEMA},
    },
}

_FLIGHT_RECORD_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "request_id",
        "trace_id",
        "request_index",
        "status",
        "code",
        "breakdown",
        "retry_events",
        "fallback_events",
        "breaker_events",
        "shed_reason",
        "degraded",
    ],
    "properties": {
        "request_id": {"type": "string"},
        "trace_id": {"type": "string"},
        "request_index": {"type": ["integer", "null"], "minimum": 0},
        "status": {"enum": _REQUEST_STATUSES},
        "code": {"type": "integer", "minimum": 100},
        "breakdown": {
            "type": "object",
            "properties": {
                "queue": {"type": "number", "minimum": 0},
                "step1": {"type": "number", "minimum": 0},
                "step2": {"type": "number", "minimum": 0},
                "step3": {"type": "number", "minimum": 0},
                "dispatch": {"type": "number", "minimum": 0},
                "total": {"type": "number", "minimum": 0},
            },
        },
        "retry_events": {"type": "integer", "minimum": 0},
        "fallback_events": {"type": "integer", "minimum": 0},
        "breaker_events": {"type": "array", "items": {"type": "string"}},
        "shed_reason": {"type": ["string", "null"]},
        "retry_after": {"type": ["number", "null"], "minimum": 0},
        "degraded": {"type": ["boolean", "null"]},
        "alignments": {"type": ["integer", "null"], "minimum": 0},
        "error": {"type": ["string", "null"]},
    },
}

#: The authoritative flight-recorder document schema (what
#: ``GET /debug/requests`` and the SIGTERM-drain dump contain).
#: ``schemas/flight_record.schema.json`` is the checked-in copy.
FLIGHT_RECORDS_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro service flight records",
    "type": "object",
    "required": ["version", "capacity", "recorded", "dropped", "records"],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "capacity": {"type": "integer", "minimum": 1},
        "recorded": {"type": "integer", "minimum": 0},
        "dropped": {"type": "integer", "minimum": 0},
        "records": {"type": "array", "items": _FLIGHT_RECORD_SCHEMA},
        "slo": {"type": "object"},
    },
}


def validate_request_trace(
    doc: dict[str, Any], schema: dict[str, Any] | None = None
) -> list[str]:
    """Validate a per-request trace document; returns error strings."""
    errors: list[str] = []
    _validate(doc, REQUEST_TRACE_SCHEMA if schema is None else schema, "$", errors)
    return errors


def validate_flight_records(
    doc: dict[str, Any], schema: dict[str, Any] | None = None
) -> list[str]:
    """Validate a flight-recorder document; returns error strings."""
    errors: list[str] = []
    _validate(doc, FLIGHT_RECORDS_SCHEMA if schema is None else schema, "$", errors)
    return errors


#: The authoritative serving-metrics contract.  Keys under ``families``
#: name every metric family the service may expose with its exposition
#: kind; ``required`` lists the subset that must exist on any serving
#: process that completed at least one request (the rest appear once
#: their event fires).  ``schemas/serve_metrics.schema.json`` is the
#: checked-in copy; a golden test keeps the two identical, and the CI
#: ``serve-chaos`` job validates a live ``/metrics`` scrape against it.
SERVE_METRICS_SCHEMA: dict[str, Any] = {
    "version": 2,
    "prefix": "serve_",
    "families": {
        "serve_requests_total": "counter",
        "serve_shed_total": "counter",
        "serve_queue_depth": "gauge",
        "serve_queue_depth_current": "gauge",
        "serve_queue_wait_seconds": "histogram",
        "serve_request_seconds": "histogram",
        "serve_breaker_state": "gauge",
        "serve_breaker_trips_total": "counter",
        "serve_breaker_probes_total": "counter",
        "serve_degraded_requests_total": "counter",
        "serve_bank_heals_total": "counter",
        "serve_pool_workers": "gauge",
        "serve_resident_bank_bytes": "gauge",
        "serve_slo_burn_rate": "gauge",
    },
    "required": [
        "serve_requests_total",
        "serve_shed_total",
        "serve_queue_depth",
        "serve_queue_depth_current",
        "serve_queue_wait_seconds",
        "serve_request_seconds",
        "serve_breaker_state",
        "serve_breaker_trips_total",
        "serve_degraded_requests_total",
        "serve_bank_heals_total",
        "serve_pool_workers",
        "serve_resident_bank_bytes",
        "serve_slo_burn_rate",
    ],
}


def validate_serve_metrics(
    text: str, schema: dict[str, Any] | None = None
) -> list[str]:
    """Validate a ``/metrics`` Prometheus scrape against the serve contract.

    Checks, over every family whose name carries the schema's prefix:
    the required families are all present, each declared kind matches the
    schema, and no undeclared family exists (new serving metrics must land
    in the schema in the same change).  Returns error strings (empty =
    valid); non-serve families in the scrape are ignored.
    """
    if schema is None:
        schema = SERVE_METRICS_SCHEMA
    prefix = schema["prefix"]
    families: dict[str, str] = schema["families"]
    declared: dict[str, str] = {}
    errors: list[str] = []
    for line in text.splitlines():
        if not line.startswith("# TYPE "):
            continue
        try:
            _, _, name, kind = line.split(None, 3)
        except ValueError:
            errors.append(f"malformed TYPE line: {line!r}")
            continue
        if not name.startswith(prefix):
            continue
        if name in declared:
            errors.append(f"{name}: declared twice")
        declared[name] = kind
    for name in schema["required"]:
        if name not in declared:
            errors.append(f"{name}: required family missing from exposition")
    for name, kind in declared.items():
        expected = families.get(name)
        if expected is None:
            errors.append(
                f"{name}: not in the serve metrics schema — new serving "
                "metrics must be added to SERVE_METRICS_SCHEMA and "
                "schemas/serve_metrics.schema.json"
            )
        elif kind != expected:
            errors.append(f"{name}: kind {kind!r}, schema says {expected!r}")
    return errors


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.export report.json [--schema FILE]``.

    With ``--kind serve-metrics`` the positional file is a Prometheus
    text scrape of a serving process instead of a run report, validated
    via :func:`validate_serve_metrics`.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Validate a run report (or a serve /metrics scrape) "
        "against its schema.",
    )
    parser.add_argument("report", help="run-report JSON (or scrape text) file")
    parser.add_argument(
        "--schema",
        help="validate against this schema file instead of the embedded one",
    )
    parser.add_argument(
        "--kind",
        choices=["report", "serve-metrics", "request-trace", "flight-records"],
        default="report",
        help="what the positional file is (default: run report)",
    )
    args = parser.parse_args(argv)

    schema = None
    if args.schema:
        with open(args.schema, encoding="utf-8") as fh:
            schema = json.load(fh)
    if args.kind == "serve-metrics":
        with open(args.report, encoding="utf-8") as fh:
            text = fh.read()
        errors = validate_serve_metrics(text, schema)
        for err in errors:
            print(f"invalid: {err}", file=sys.stderr)
        if not errors:
            n = sum(
                1
                for line in text.splitlines()
                if line.startswith("# TYPE ")
            )
            print(f"ok: serve metrics scrape, {n} families")
        return 1 if errors else 0
    if args.kind in ("request-trace", "flight-records"):
        with open(args.report, encoding="utf-8") as fh:
            doc = json.load(fh)
        if args.kind == "request-trace":
            errors = validate_request_trace(doc, schema)
            summary = (
                f"ok: request trace {doc.get('request_id')!r}, "
                f"{len(doc.get('spans', []))} spans"
            )
        else:
            errors = validate_flight_records(doc, schema)
            summary = (
                f"ok: flight records, {len(doc.get('records', []))} of "
                f"{doc.get('recorded')} recorded"
            )
        for err in errors:
            print(f"invalid: {err}", file=sys.stderr)
        if not errors:
            print(summary)
        return 1 if errors else 0
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    errors = validate_report(report, schema)
    for err in errors:
        print(f"invalid: {err}", file=sys.stderr)
    if not errors:
        spans = report.get("spans", [])
        metrics = report.get("metrics", {}).get("metrics", [])
        print(
            f"ok: version {report.get('version')} report, "
            f"{len(spans)} spans, {len(metrics)} metric series"
        )
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    raise SystemExit(main())
