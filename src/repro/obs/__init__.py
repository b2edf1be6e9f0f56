"""Observability: counters, sim-time sampling, spans, audits, profiles.

The instrumentation substrate for the whole control system.  Every layer
(engine, ledger, schedulers, negotiation, checkpointing, prediction)
counts its decision points as plain state and reports them through
``counters()`` (and ``gauges()``) under names following
``<layer>.<component>.<name>``; the simulated system collects them into
its result's ``obs`` snapshot, which ``repro.obs.export`` writes and
renders and :class:`Sampler` records over sim time.
``repro.obs.tracelog`` records the simulator's one record stream, the
JSONL trace a run writes; ``repro.obs.trace`` assembles causal per-job
spans from it, ``repro.obs.audit`` folds its promise/outcome pairs into
calibration & SLO audit reports and ``repro.obs.gantt`` draws the
schedule — views over the records, not recording paths of their own.
``repro.obs.prof`` attributes wall time to hierarchical zones (same
naming scheme) by wrapping layer methods from outside, only while a
profiler is attached.
See DESIGN.md "Observability" for the naming scheme and the overhead
budget.
"""

from repro.obs.audit import (
    AUDIT_DIMENSIONS,
    AUDIT_SCHEMA_VERSION,
    AUDIT_STATUSES,
    VERDICT_EPSILON,
    AuditConfig,
    AuditReport,
    CalibrationCurve,
    CalibrationSummary,
    GuaranteeAudit,
    ReliabilityBin,
    RollupStat,
    audit_from_records,
    audit_outcomes,
    breach_excess_pvalue,
    calibration_gap,
    margin_honours,
    merge_reports,
    poisson_tail,
    promise_margin,
    reliability_diagram_csv,
    reliability_diagram_text,
    render_report,
    validate_audit_report,
    wilson_interval,
)
from repro.obs.export import (
    OBS_SCHEMA_VERSION,
    build_report,
    empty_obs,
    load_report,
    merge_obs,
    summarize,
    summarize_data,
    write_report,
)
from repro.obs.gantt import (
    Occupancy,
    downtime_intervals,
    occupancy_intervals,
    render_gantt,
)
from repro.obs.prof import (
    DEFAULT_BUCKET_WIDTH,
    PROF_SCHEMA_VERSION,
    ZONE_POINTS,
    Profiler,
    load_profile,
    strip_wall_ns,
    to_collapsed,
    validate_collapsed,
    write_profile,
)
from repro.obs.sampler import Sampler
from repro.obs.tracelog import (
    RECORD_KINDS,
    TraceRecord,
    TraceRecorder,
    load_jsonl,
)
from repro.obs.trace import (
    SPAN_SCHEMA_VERSION,
    Mark,
    Span,
    SpanBuilder,
    SpanTimeline,
    explain_job,
    explain_job_data,
    summarize_timeline,
    timeline_from_records,
    to_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "RECORD_KINDS",
    "TraceRecord",
    "TraceRecorder",
    "load_jsonl",
    "Occupancy",
    "downtime_intervals",
    "occupancy_intervals",
    "render_gantt",
    "SPAN_SCHEMA_VERSION",
    "Mark",
    "Span",
    "SpanBuilder",
    "SpanTimeline",
    "explain_job",
    "explain_job_data",
    "summarize_timeline",
    "timeline_from_records",
    "to_chrome_trace",
    "validate_chrome_trace",
    "AUDIT_DIMENSIONS",
    "AUDIT_SCHEMA_VERSION",
    "AUDIT_STATUSES",
    "VERDICT_EPSILON",
    "AuditConfig",
    "AuditReport",
    "CalibrationCurve",
    "CalibrationSummary",
    "GuaranteeAudit",
    "ReliabilityBin",
    "RollupStat",
    "audit_from_records",
    "audit_outcomes",
    "breach_excess_pvalue",
    "calibration_gap",
    "margin_honours",
    "merge_reports",
    "poisson_tail",
    "promise_margin",
    "reliability_diagram_csv",
    "reliability_diagram_text",
    "render_report",
    "validate_audit_report",
    "wilson_interval",
    "OBS_SCHEMA_VERSION",
    "build_report",
    "empty_obs",
    "load_report",
    "merge_obs",
    "summarize",
    "summarize_data",
    "write_report",
    "DEFAULT_BUCKET_WIDTH",
    "PROF_SCHEMA_VERSION",
    "ZONE_POINTS",
    "Profiler",
    "load_profile",
    "strip_wall_ns",
    "to_collapsed",
    "validate_collapsed",
    "write_profile",
    "Sampler",
]
