"""ASCII schedule visualisation from a simulation trace.

Renders a node-by-time occupancy chart — the classic scheduling Gantt — from
the span timeline of :mod:`repro.obs.trace`, folded from a trace's records
(a :class:`~repro.obs.tracelog.TraceRecorder` or a loaded JSONL trace) —
one more view over the record stream:

* digits/letters mark which job occupies a node (job ids are mapped to a
  compact symbol alphabet, reused cyclically);
* ``#`` marks a node inside its repair window;
* ``.`` marks idle.

Runs still open at the horizon (a job mid-execution when the trace stopped)
are drawn up to the horizon rather than dropped, which is what the span
layer's ``open`` flag exists for.

Intended for small demonstration clusters (examples, debugging, teaching);
for a 128-node production sweep the JSONL trace export is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import SpanBuilder, SpanTimeline
from repro.obs.tracelog import TraceRecord

_SYMBOLS = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_DOWN, _IDLE = "#", "."


@dataclass(frozen=True)
class Occupancy:
    """A half-open occupancy interval of one node by one job."""

    node: int
    job_id: int
    start: float
    end: float


def _timeline(
    records: Iterable[TraceRecord], end_time: Optional[float]
) -> SpanTimeline:
    """Assemble the records into spans."""
    return SpanBuilder().consume(records).build(end_time=end_time)


def _occupancy(timeline: SpanTimeline) -> List[Occupancy]:
    intervals: List[Occupancy] = []
    for span in timeline.spans:
        if span.track != "job" or span.name != "running" or span.end is None:
            continue
        for node in span.attrs.get("nodes", []):
            intervals.append(
                Occupancy(
                    node=node,
                    job_id=span.track_id,
                    start=span.start,
                    end=span.end,
                )
            )
    intervals.sort(key=lambda o: (o.node, o.start))
    return intervals


def _downtime(timeline: SpanTimeline) -> List[Tuple[int, float, float]]:
    intervals: List[Tuple[int, float, float]] = []
    for span in timeline.spans:
        if span.track == "node" and span.name == "down" and span.end is not None:
            intervals.append((span.track_id, span.start, span.end))
    intervals.sort()
    return intervals


def occupancy_intervals(
    records: Iterable[TraceRecord], end_time: Optional[float] = None
) -> List[Occupancy]:
    """Per-node occupancy, derived from the span layer's ``running`` spans.

    A running span closes on finish, kill, or evacuation; each covers the
    job's whole partition, so it expands to one interval per node.  Spans
    still open at the end of the trace are closed at ``end_time`` when
    given, dropped otherwise (matching the trace's own knowledge).
    """
    return _occupancy(_timeline(records, end_time))


def downtime_intervals(
    records: Iterable[TraceRecord], end_time: Optional[float] = None
) -> List[Tuple[int, float, float]]:
    """Per-node repair windows, derived from the span layer's ``down`` spans."""
    return _downtime(_timeline(records, end_time))


def render_gantt(
    records: Iterable[TraceRecord],
    node_count: int,
    width: int = 72,
    end_time: Optional[float] = None,
) -> str:
    """Render the schedule as one text row per node.

    Args:
        records: A trace with at least start/finish records (a
            :class:`~repro.obs.tracelog.TraceRecorder` or a loaded JSONL
            trace).
        node_count: Number of node rows to draw.
        width: Chart columns; each column is one time bucket.
        end_time: Chart horizon; defaults to the last record's time.

    Returns:
        The chart plus a legend mapping symbols to job ids.
    """
    records = list(records)
    if not records:
        return "(empty trace)"
    builder = SpanBuilder().consume(records)
    horizon = end_time if end_time is not None else builder.last_time
    if horizon <= 0:
        return "(trace has no duration)"
    timeline = builder.build(end_time=horizon)
    bucket = horizon / width

    grid = [[_IDLE] * width for _ in range(node_count)]

    def paint(node: int, start: float, end: float, symbol: str) -> None:
        if node >= node_count:
            return
        first = min(width - 1, max(0, int(start / bucket)))
        last_col = min(width - 1, max(0, int(max(end - 1e-9, start) / bucket)))
        for column in range(first, last_col + 1):
            grid[node][column] = symbol

    for node, start, end in _downtime(timeline):
        paint(node, start, end, _DOWN)

    legend: Dict[int, str] = {}
    for interval in _occupancy(timeline):
        symbol = legend.setdefault(
            interval.job_id, _SYMBOLS[len(legend) % len(_SYMBOLS)]
        )
        paint(interval.node, interval.start, interval.end, symbol)

    lines = [
        f"t = 0 .. {horizon:.0f}s, one column = {bucket:.0f}s; "
        f"'{_DOWN}' down, '{_IDLE}' idle"
    ]
    for node in range(node_count):
        lines.append(f"node {node:>3} |{''.join(grid[node])}|")
    if legend:
        mapping = ", ".join(
            f"{symbol}=job {job_id}"
            for job_id, symbol in sorted(legend.items())[:20]
        )
        lines.append(f"jobs: {mapping}" + (" ..." if len(legend) > 20 else ""))
    return "\n".join(lines)
