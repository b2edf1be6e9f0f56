"""Analysis tools: structured trace recording and schedule visualisation."""

from repro.analysis.gantt import (
    Occupancy,
    downtime_intervals,
    occupancy_intervals,
    render_gantt,
)
from repro.analysis.tracelog import (
    RECORD_KINDS,
    TraceRecord,
    TraceRecorder,
    load_jsonl,
)

__all__ = [
    "Occupancy",
    "downtime_intervals",
    "occupancy_intervals",
    "render_gantt",
    "RECORD_KINDS",
    "TraceRecord",
    "TraceRecorder",
    "load_jsonl",
]
