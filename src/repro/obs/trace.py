"""Causal span tracing: per-job lifecycles and guarantee audit trails.

The point records of :mod:`repro.obs.tracelog` say *what happened*;
this layer assembles them into *stories*.  A :class:`SpanBuilder` folds the
record stream — live, as the simulation emits it, or replayed from a JSONL
trace — into interval **spans** on per-job and per-node tracks::

    queued -> running -> (checkpoint | failure -> queued -> running)* -> end

Each span carries the decision context that produced it: the promised
probability and risk threshold behind a ``queued`` span, the skip rationale
behind every checkpoint decision, the lost work behind a kill.  Two
consumers make the stories usable:

* :func:`to_chrome_trace` exports a timeline as Chrome Trace Event Format
  JSON that loads directly in Perfetto / ``chrome://tracing`` — jobs as
  tracks, node downtime as a lane, simulated time as the clock;
* :func:`explain_job` reconstructs, from spans alone, the complete audit
  trail of one job's guarantee: what was promised, what the predictor
  believed, every checkpoint decision, and whether the promise was honoured.

The timeline is a view over the records, not a second recording path:
the CLI streams a run's records to a JSONL trace through a plain
:class:`~repro.obs.tracelog.TraceRecorder`, and ``trace export`` /
``trace explain`` fold that file with :func:`timeline_from_records`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracelog import TraceRecord, TraceRecorder, check_record
from repro.obs.audit import margin_honours, promise_margin

#: Version stamp embedded in timeline metadata and Chrome exports.
SPAN_SCHEMA_VERSION = 1

#: Interval span names on the job track.
JOB_SPAN_NAMES = ("queued", "running", "checkpoint")

#: Interval span names on the node track.
NODE_SPAN_NAMES = ("down",)

#: Chrome Trace Event process ids: one synthetic process per track family.
_PID_JOBS = 1
_PID_NODES = 2

#: Seconds -> Chrome trace microseconds.
_US = 1e6


@dataclass
class Span:
    """One interval on a track: a phase of a job's life or a node outage.

    Attributes:
        name: Span kind — one of :data:`JOB_SPAN_NAMES` on job tracks or
            :data:`NODE_SPAN_NAMES` on node tracks.
        track: ``"job"`` or ``"node"``.
        track_id: Job id or node index the span belongs to.
        start: Simulated start time (seconds).
        end: Simulated end time, or None while the span is still open.
        attrs: Decision context captured when the span opened/closed
            (promised probability, checkpoint rationale, lost work, ...).
    """

    name: str
    track: str
    track_id: int
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Seconds covered, or None while open."""
        return None if self.end is None else self.end - self.start


@dataclass(frozen=True)
class Mark:
    """An instantaneous annotation on a track (decision, failure, outcome)."""

    name: str
    track: str
    track_id: int
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SpanTimeline:
    """The assembled product: spans + marks + run metadata.

    Built by :meth:`SpanBuilder.build`, or from a JSONL trace by
    :func:`timeline_from_records`.
    """

    spans: List[Span]
    marks: List[Mark]
    meta: Dict[str, Any] = field(default_factory=dict)

    def job_ids(self) -> List[int]:
        """All job ids with at least one span or mark, ascending."""
        ids = {s.track_id for s in self.spans if s.track == "job"}
        ids.update(m.track_id for m in self.marks if m.track == "job")
        return sorted(ids)

    def node_ids(self) -> List[int]:
        """All node indexes with at least one span or mark, ascending."""
        ids = {s.track_id for s in self.spans if s.track == "node"}
        ids.update(m.track_id for m in self.marks if m.track == "node")
        return sorted(ids)

    def for_job(self, job_id: int) -> Tuple[List[Span], List[Mark]]:
        """One job's spans and marks, each in time order."""
        spans = sorted(
            (s for s in self.spans if s.track == "job" and s.track_id == job_id),
            key=lambda s: (s.start, 0 if s.name == "queued" else 1),
        )
        marks = sorted(
            (m for m in self.marks if m.track == "job" and m.track_id == job_id),
            key=lambda m: m.time,
        )
        return spans, marks


class SpanBuilder(TraceRecorder):
    """A fold that assembles lifecycle spans as records arrive.

    It *is* a :class:`~repro.obs.tracelog.TraceRecorder`, so it folds
    live — pass it to :class:`~repro.core.system.ProbabilisticQoSSystem`
    as ``recorder=`` and call :meth:`build` after the run — or offline,
    through :meth:`consume` over a loaded trace; both give the identical
    timeline.  It writes nothing: streaming the trace is the plain
    recorder's job.  Every record passes
    :func:`~repro.obs.tracelog.check_record` first, so a malformed one
    raises ValueError, as in the guarantee audit.

    Args:
        keep_in_memory: Retain the raw records too (defaults off here —
            the spans usually *are* the memory the caller wants).
    """

    def __init__(self, keep_in_memory: bool = False) -> None:
        super().__init__(keep_in_memory=keep_in_memory)
        self._spans: List[Span] = []
        self._marks: List[Mark] = []
        #: job_id -> its open queued/running span, at most one per job.
        self._open_job: Dict[int, Span] = {}
        #: node -> its open down span.
        self._open_down: Dict[int, Span] = {}
        #: job_id -> run attempts started so far.
        self._attempts: Dict[int, int] = {}
        self._last_time: float = 0.0

    # ------------------------------------------------------------------
    # Assembly (fed by TraceRecorder.record / consume)
    # ------------------------------------------------------------------
    def _ingest(self, record: TraceRecord) -> None:
        check_record(record)
        super()._ingest(record)
        self._last_time = max(self._last_time, record.time)
        handler = _SPAN_HANDLERS.get(record.kind)
        if handler is not None:
            handler(self, record)

    def _mark(self, record: TraceRecord, track: str, track_id: int) -> None:
        self._marks.append(
            Mark(
                name=record.kind,
                track=track,
                track_id=track_id,
                time=record.time,
                attrs=dict(record.detail),
            )
        )

    def _open_job_span(
        self, job_id: int, name: str, start: float, attrs: Dict[str, Any]
    ) -> None:
        span = Span(name=name, track="job", track_id=job_id, start=start, attrs=attrs)
        self._open_job[job_id] = span
        self._spans.append(span)

    def _close_job_span(
        self, job_id: int, end: float, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        span = self._open_job.pop(job_id, None)
        if span is None:
            return
        span.end = end
        if extra:
            span.attrs.update(extra)

    # -- per-kind handlers ---------------------------------------------
    def _on_negotiated(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        self._mark(record, "job", job_id)
        self._close_job_span(job_id, record.time)  # defensive; normally absent
        self._open_job_span(job_id, "queued", record.time, dict(record.detail))

    def _on_start(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        self._close_job_span(job_id, record.time)
        attempt = self._attempts.get(job_id, 0) + 1
        self._attempts[job_id] = attempt
        attrs: Dict[str, Any] = dict(record.detail)
        attrs["attempt"] = attempt
        self._open_job_span(job_id, "running", record.time, attrs)

    def _on_checkpoint_performed(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        attrs = dict(record.detail)
        began_at = attrs.pop("began_at", None)
        start = float(began_at) if began_at is not None else record.time
        self._spans.append(
            Span(
                name="checkpoint",
                track="job",
                track_id=job_id,
                start=start,
                end=record.time,
                attrs=attrs,
            )
        )

    def _on_checkpoint_skipped(self, record: TraceRecord) -> None:
        assert record.job_id is not None
        self._mark(record, "job", record.job_id)

    def _on_finish(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        extra = dict(record.detail)
        extra["outcome"] = "finished"
        self._close_job_span(job_id, record.time, extra)
        self._mark(record, "job", job_id)

    def _on_killed(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        extra = dict(record.detail)
        extra["outcome"] = "killed"
        self._close_job_span(job_id, record.time, extra)
        self._mark(record, "job", job_id)

    def _on_evacuated(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        extra = dict(record.detail)
        extra["outcome"] = "evacuated"
        self._close_job_span(job_id, record.time, extra)
        self._mark(record, "job", job_id)

    def _on_requeued(self, record: TraceRecord) -> None:
        job_id = record.job_id
        assert job_id is not None
        self._mark(record, "job", job_id)
        self._close_job_span(job_id, record.time)  # defensive; normally closed
        self._open_job_span(job_id, "queued", record.time, dict(record.detail))

    def _on_failure(self, record: TraceRecord) -> None:
        if record.node is not None:
            self._mark(record, "node", record.node)

    def _on_node_down(self, record: TraceRecord) -> None:
        node = record.node
        if node is None or node in self._open_down:
            return
        span = Span(
            name="down",
            track="node",
            track_id=node,
            start=record.time,
            attrs=dict(record.detail),
        )
        self._open_down[node] = span
        self._spans.append(span)

    def _on_node_up(self, record: TraceRecord) -> None:
        node = record.node
        if node is None:
            return
        span = self._open_down.pop(node, None)
        if span is not None:
            span.end = record.time

    # ------------------------------------------------------------------
    # Product
    # ------------------------------------------------------------------
    def build(
        self,
        end_time: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> SpanTimeline:
        """Assemble the timeline seen so far.

        Args:
            end_time: Close still-open spans at this time, flagging them
                ``open=True`` (a job mid-run when the event budget ran out,
                a node still down at the horizon).  When None, open spans
                are left out of the timeline entirely.
            meta: Run metadata to attach (config, engine dispatch counts).

        Non-destructive: open spans are closed on *copies*, so the builder
        can keep recording and ``build`` can be called again later.
        """
        spans: List[Span] = []
        for span in self._spans:
            if span.end is not None:
                spans.append(span)
            elif end_time is not None:
                attrs = dict(span.attrs)
                attrs["open"] = True
                spans.append(
                    Span(
                        name=span.name,
                        track=span.track,
                        track_id=span.track_id,
                        start=span.start,
                        end=max(end_time, span.start),
                        attrs=attrs,
                    )
                )
        spans.sort(key=lambda s: (s.start, s.track, s.track_id))
        marks = sorted(self._marks, key=lambda m: (m.time, m.track, m.track_id))
        full_meta: Dict[str, Any] = {"schema": SPAN_SCHEMA_VERSION}
        if meta:
            full_meta.update(meta)
        return SpanTimeline(spans=spans, marks=marks, meta=full_meta)

    @property
    def last_time(self) -> float:
        """Largest record timestamp observed so far (0.0 before any)."""
        return self._last_time


#: Record kind -> SpanBuilder handler.  Module-level so dispatch is one
#: dict lookup per record instead of an if/elif chain.
_SPAN_HANDLERS = {
    "negotiated": SpanBuilder._on_negotiated,
    "start": SpanBuilder._on_start,
    "checkpoint_performed": SpanBuilder._on_checkpoint_performed,
    "checkpoint_skipped": SpanBuilder._on_checkpoint_skipped,
    "finish": SpanBuilder._on_finish,
    "killed": SpanBuilder._on_killed,
    "evacuated": SpanBuilder._on_evacuated,
    "requeued": SpanBuilder._on_requeued,
    "failure": SpanBuilder._on_failure,
    "node_down": SpanBuilder._on_node_down,
    "node_up": SpanBuilder._on_node_up,
}


def timeline_from_records(
    records: Iterable[TraceRecord],
    end_time: Optional[float] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> SpanTimeline:
    """Assemble a timeline from materialised records (e.g. a loaded trace).

    ``end_time`` defaults to the last record's timestamp, so spans still
    open when the trace stopped are closed there and flagged ``open``.
    """
    builder = SpanBuilder().consume(records)
    if end_time is None:
        end_time = builder.last_time
    return builder.build(end_time=end_time, meta=meta)


# ----------------------------------------------------------------------
# Consumer 1: Chrome Trace Event Format export
# ----------------------------------------------------------------------
def to_chrome_trace(timeline: SpanTimeline) -> Dict[str, Any]:
    """Export a timeline as a Chrome Trace Event Format document.

    The returned dict serialises to JSON that loads directly in Perfetto
    or ``chrome://tracing``: jobs are threads of a synthetic "jobs"
    process, node downtime is a lane per node under a "nodes" process,
    spans are complete (``ph="X"``) events, decisions/outcomes are instant
    (``ph="i"``) events, and the clock is simulated time exported as
    microseconds.  Events are sorted by timestamp (longer spans first on
    ties, so nested slices render inside their parents).
    """
    events: List[Dict[str, Any]] = []
    meta_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_JOBS,
            "tid": 0,
            "args": {"name": "jobs"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_NODES,
            "tid": 0,
            "args": {"name": "nodes"},
        },
    ]
    for job_id in timeline.job_ids():
        meta_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID_JOBS,
                "tid": job_id,
                "args": {"name": f"job {job_id}"},
            }
        )
    for node in timeline.node_ids():
        meta_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID_NODES,
                "tid": node,
                "args": {"name": f"node {node}"},
            }
        )

    pid_of = {"job": _PID_JOBS, "node": _PID_NODES}
    for span in timeline.spans:
        if span.end is None:
            continue
        ts = span.start * _US
        events.append(
            {
                "name": span.name,
                "cat": span.track,
                "ph": "X",
                "ts": ts,
                # Difference of the *scaled* endpoints, so ts + dur lands on
                # the next sibling's ts to within one ulp even late in long
                # traces ((end - start) * 1e6 drifts further).
                "dur": span.end * _US - ts,
                "pid": pid_of[span.track],
                "tid": span.track_id,
                "args": dict(span.attrs),
            }
        )
    for mark in timeline.marks:
        events.append(
            {
                "name": mark.name,
                "cat": mark.track,
                "ph": "i",
                "ts": mark.time * _US,
                "pid": pid_of[mark.track],
                "tid": mark.track_id,
                "s": "t",
                "args": dict(mark.attrs),
            }
        )
    events.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
    return {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ms",
        "otherData": dict(
            timeline.meta, clock="simulated seconds exported as microseconds"
        ),
    }


def validate_chrome_trace(doc: Any) -> List[str]:
    """Validate a Chrome Trace Event document; returns problems ([] = ok).

    Checks the contract Perfetto relies on — shared by the test suite and
    the CI smoke job:

    * top level is an object with a ``traceEvents`` list;
    * every event has a known phase and the fields that phase requires;
    * non-metadata events are timestamp-sorted with ``dur >= 0``;
    * complete events on one track are properly nested — any two either
      do not overlap or one contains the other.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]

    last_ts: Optional[float] = None
    by_track: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("M", "X", "i"):
            problems.append(f"event {i}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        missing = [k for k in ("name", "ts", "pid", "tid") if k not in event]
        if missing:
            problems.append(f"event {i}: missing {', '.join(missing)}")
            continue
        ts = float(event["ts"])
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: timestamp {ts} precedes previous {last_ts}"
            )
        last_ts = ts
        if phase == "X":
            if "dur" not in event:
                problems.append(f"event {i}: complete event without dur")
                continue
            dur = float(event["dur"])
            if dur < 0:
                problems.append(f"event {i}: negative dur {dur}")
                continue
            by_track.setdefault((event["pid"], event["tid"]), []).append(
                (ts, ts + dur)
            )

    for (pid, tid), intervals in sorted(by_track.items()):
        stack: List[Tuple[float, float]] = []
        for start, end in intervals:  # already ts-sorted within one track
            # Timestamps are scaled doubles; a span's reconstructed end
            # (ts + dur) can miss its sibling's ts by an ulp, which grows
            # with magnitude — so the tolerance must scale with it too.
            eps = 1e-6 + 1e-9 * abs(end)
            while stack and stack[-1][1] <= start + eps:
                stack.pop()
            if stack and end > stack[-1][1] + eps:
                problems.append(
                    f"track pid={pid} tid={tid}: span [{start}, {end}] "
                    f"partially overlaps [{stack[-1][0]}, {stack[-1][1]}]"
                )
            stack.append((start, end))
    return problems


# ----------------------------------------------------------------------
# Consumer 2: the guarantee audit trail
# ----------------------------------------------------------------------
def _fmt(value: Any, digits: int = 4) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}" if abs(value) < 1e6 else f"{value:.4g}"
    return str(value)


def _promise_lines(mark: Mark) -> List[str]:
    a = mark.attrs
    lines = [
        f"t={_fmt(mark.time, 0)} negotiated: promised p={_fmt(a.get('probability'))} "
        f"for deadline t={_fmt(a.get('deadline'), 0)}"
    ]
    context: List[str] = []
    if "predicted_pf" in a:
        context.append(f"predictor believed p_f={_fmt(a['predicted_pf'])}")
    if "user_threshold" in a:
        context.append(f"risk threshold U={_fmt(a['user_threshold'], 2)}")
    if "offers_declined" in a:
        context.append(f"{a['offers_declined']} offer(s) declined")
    if a.get("forced"):
        context.append("IMPOSED (dialogue cap hit)")
    if context:
        lines.append("  " + ", ".join(context))
    if "planned_start" in a:
        planned = f"  planned start t={_fmt(a['planned_start'], 0)}"
        if "planned_nodes" in a:
            planned += f" on nodes {_node_list(a['planned_nodes'])}"
        lines.append(planned)
    return lines


def _node_list(nodes: Sequence[int], limit: int = 12) -> str:
    nodes = list(nodes)
    body = ", ".join(str(n) for n in nodes[:limit])
    suffix = ", ..." if len(nodes) > limit else ""
    return f"[{body}{suffix}]"


def _checkpoint_line(item: Any, index: int) -> str:
    if isinstance(item, Mark):  # a skipped request
        a = item.attrs
        why = a.get("reason", "policy decision")
        extra = ""
        if a.get("p_f") is not None:
            extra = f", p_f={_fmt(a['p_f'])}"
            if a.get("at_risk") is not None:
                extra += f", {_fmt(a['at_risk'], 0)} s at risk"
        return (
            f"  t={_fmt(item.time, 0)} checkpoint request #{index}: "
            f"SKIPPED ({why}{extra})"
        )
    a = item.attrs
    why = a.get("reason", "policy decision")
    extra = ""
    if a.get("p_f") is not None:
        extra = f", p_f={_fmt(a['p_f'])}"
    dur = item.duration
    overhead = f" [+{_fmt(dur, 0)} s overhead]" if dur else ""
    return (
        f"  t={_fmt(item.start, 0)} checkpoint request #{index}: "
        f"performed ({why}{extra}){overhead}"
    )


def explain_job(timeline: SpanTimeline, job_id: int) -> str:
    """Reconstruct one job's complete guarantee story from spans alone.

    The audit trail answers, in order: what was promised and on what
    evidence; how long the job queued and where it ran; every checkpoint
    decision with its rationale; what each failure cost; and whether the
    promise was ultimately honoured.  Raises ``KeyError`` if the timeline
    has no trace of the job.
    """
    spans, marks = timeline.for_job(job_id)
    if not spans and not marks:
        raise KeyError(f"no spans or marks for job {job_id} in this timeline")

    lines: List[str] = [f"Job {job_id} — guarantee audit trail"]

    negotiated = next((m for m in marks if m.name == "negotiated"), None)
    if negotiated is not None:
        lines.extend(_promise_lines(negotiated))
    else:
        lines.append("  (no negotiation in trace: promise unknown)")

    # Interleave lifecycle spans, checkpoint decisions, and outcome marks
    # in time order.  Checkpoint request index restarts never; it counts
    # decisions across the whole job (the paper's per-request numbering).
    checkpoint_items: List[Any] = [
        m for m in marks if m.name == "checkpoint_skipped"
    ] + [s for s in spans if s.name == "checkpoint"]
    checkpoint_items.sort(
        key=lambda x: x.time if isinstance(x, Mark) else x.start
    )
    checkpoint_index = {id(item): i + 1 for i, item in enumerate(checkpoint_items)}

    events: List[Tuple[float, int, List[str]]] = []
    for span in spans:
        if span.name == "queued":
            dur = span.duration
            dur_txt = f" ({_fmt(dur, 0)} s)" if dur is not None else ""
            label = "queued" if "restart_at" not in span.attrs else "requeued"
            line = f"t={_fmt(span.start, 0)} {label}{dur_txt}"
            if "nodes" in span.attrs:
                line += f" for nodes {_node_list(span.attrs['nodes'])}"
            if span.attrs.get("open"):
                line += " — still queued at end of trace"
            events.append((span.start, 1, [line]))
        elif span.name == "running":
            attempt = span.attrs.get("attempt", "?")
            nodes = span.attrs.get("nodes")
            where = f" on nodes {_node_list(nodes)}" if nodes else ""
            until = (
                f" .. t={_fmt(span.end, 0)}" if span.end is not None else ""
            )
            line = (
                f"t={_fmt(span.start, 0)} attempt {attempt}: "
                f"running{where}{until}"
            )
            if span.attrs.get("open"):
                line += " — still running at end of trace"
            events.append((span.start, 2, [line]))
        elif span.name == "checkpoint":
            events.append(
                (span.start, 3, [_checkpoint_line(span, checkpoint_index[id(span)])])
            )
    for mark in marks:
        if mark.name == "checkpoint_skipped":
            events.append(
                (mark.time, 3, [_checkpoint_line(mark, checkpoint_index[id(mark)])])
            )
        elif mark.name == "killed":
            a = mark.attrs
            lost = a.get("lost_node_seconds")
            lost_txt = (
                f": {_fmt(lost, 0)} node-seconds of work lost"
                if lost is not None
                else ""
            )
            events.append(
                (mark.time, 0, [f"t={_fmt(mark.time, 0)} KILLED by node failure{lost_txt}"])
            )
        elif mark.name == "evacuated":
            a = mark.attrs
            pf = a.get("predicted_pf")
            why = f" (predicted p_f={_fmt(pf)})" if pf is not None else ""
            events.append(
                (mark.time, 0, [f"t={_fmt(mark.time, 0)} evacuated voluntarily{why}"])
            )

    events.sort(key=lambda e: (e[0], e[1]))
    for _, _, chunk in events:
        for line in chunk:
            lines.append("  " + line)

    # Verdict: recomputed from (deadline, finish) via the canonical
    # epsilon comparison shared with QoSGuarantee.kept and the audit
    # layer, never read from the recorded ``met`` flag when a deadline is
    # on record.  The margin is always reported signed (positive =
    # finished early), matching the audit layer's convention.
    finish = next((m for m in marks if m.name == "finish"), None)
    promised = negotiated.attrs if negotiated is not None else {}
    deadline = promised.get("deadline")
    if deadline is None and finish is not None:
        deadline = finish.attrs.get("deadline")
    if finish is not None:
        when = f"finished at t={_fmt(finish.time, 0)}"
        if deadline is not None:
            margin = promise_margin(float(deadline), finish.time)
            verdict = "HONOURED" if margin_honours(margin) else "BROKEN"
            assert margin is not None  # finish.time is never None here
            lines.append(
                f"Verdict: {when} — guarantee {verdict} (margin {margin:+.0f} s)"
            )
        else:
            met = finish.attrs.get("met")
            if met is True:
                lines.append(f"Verdict: {when} — guarantee HONOURED")
            elif met is False:
                lines.append(f"Verdict: {when} — guarantee BROKEN")
            else:
                lines.append(f"Verdict: {when} — no deadline on record")
    else:
        lines.append(
            "Verdict: never finished within the trace — guarantee BROKEN "
            "(an unfinished promise scores zero)"
        )
    return "\n".join(lines)


def explain_job_data(timeline: SpanTimeline, job_id: int) -> Dict[str, Any]:
    """Machine-readable form of :func:`explain_job`'s audit trail.

    Emits the same verdict/margin fields the audit layer computes (shared
    epsilon comparison, signed margin with positive = early), plus the
    promise context and lifecycle counters.  Raises ``KeyError`` if the
    timeline has no trace of the job.
    """
    spans, marks = timeline.for_job(job_id)
    if not spans and not marks:
        raise KeyError(f"no spans or marks for job {job_id} in this timeline")

    negotiated = next((m for m in marks if m.name == "negotiated"), None)
    finish = next((m for m in marks if m.name == "finish"), None)

    promise: Optional[Dict[str, Any]] = None
    if negotiated is not None:
        a = negotiated.attrs
        promise = {
            "negotiated_at": negotiated.time,
            "probability": a.get("probability"),
            "deadline": a.get("deadline"),
            "predicted_pf": a.get("predicted_pf"),
            "user_threshold": a.get("user_threshold"),
            "user_id": a.get("user_id"),
            "size": a.get("size"),
            "planned_start": a.get("planned_start"),
            "planned_nodes": list(a.get("planned_nodes") or []),
            "offers_declined": a.get("offers_declined"),
            "forced": bool(a.get("forced", False)),
        }

    deadline: Optional[float] = None
    if promise is not None and promise["deadline"] is not None:
        deadline = float(promise["deadline"])
    elif finish is not None and finish.attrs.get("deadline") is not None:
        deadline = float(finish.attrs["deadline"])

    finish_time = finish.time if finish is not None else None
    margin = promise_margin(deadline, finish_time) if deadline is not None else None
    if deadline is not None:
        verdict = "HONOURED" if margin_honours(margin) else "BROKEN"
    elif finish is not None:
        met = finish.attrs.get("met")
        if met is True:
            verdict = "HONOURED"
        elif met is False:
            verdict = "BROKEN"
        else:
            verdict = "UNKNOWN"
    else:
        verdict = "UNKNOWN"

    kills = [m for m in marks if m.name == "killed"]
    lost = 0.0
    for m in kills:
        value = m.attrs.get("lost_node_seconds")
        if value is not None:
            lost += float(value)
    queued_seconds = 0.0
    for s in spans:
        if s.name == "queued" and s.duration is not None:
            queued_seconds += s.duration

    return {
        "job_id": job_id,
        "promise": promise,
        "deadline": deadline,
        "finish_time": finish_time,
        "margin": margin,
        "verdict": verdict,
        "attempts": sum(1 for s in spans if s.name == "running"),
        "queued_seconds": queued_seconds,
        "checkpoints": {
            "performed": sum(1 for s in spans if s.name == "checkpoint"),
            "skipped": sum(1 for m in marks if m.name == "checkpoint_skipped"),
        },
        "kills": len(kills),
        "evacuations": sum(1 for m in marks if m.name == "evacuated"),
        "lost_node_seconds": lost,
    }


def summarize_timeline(timeline: SpanTimeline) -> str:
    """One-paragraph overview: span counts per kind, jobs, nodes, horizon."""
    counts: Dict[str, int] = {}
    for span in timeline.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    mark_counts: Dict[str, int] = {}
    for mark in timeline.marks:
        mark_counts[mark.name] = mark_counts.get(mark.name, 0) + 1
    horizon = max(
        [s.end for s in timeline.spans if s.end is not None]
        + [m.time for m in timeline.marks],
        default=0.0,
    )
    lines = [
        f"Span timeline: {len(timeline.spans)} spans, {len(timeline.marks)} "
        f"marks across {len(timeline.job_ids())} jobs and "
        f"{len(timeline.node_ids())} nodes, horizon t={horizon:g} s",
        "  spans: "
        + (
            ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
            if counts
            else "(none)"
        ),
        "  marks: "
        + (
            ", ".join(f"{k}={mark_counts[k]}" for k in sorted(mark_counts))
            if mark_counts
            else "(none)"
        ),
    ]
    return "\n".join(lines)
