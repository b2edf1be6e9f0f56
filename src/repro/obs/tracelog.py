"""Structured simulation trace recording.

The simulator can attach a :class:`TraceRecorder` that captures every
semantic transition — negotiations, starts, checkpoint decisions, failures,
evacuations, finishes — as typed :class:`TraceRecord` rows.  The trace is
the one recording product: the JSONL trace a run streams is the input
of every view over it — spans and ``trace explain``
(:mod:`repro.obs.trace`), the guarantee audit (:mod:`repro.obs.audit`)
and the schedule chart (:mod:`repro.obs.gantt`).

Recording is opt-in: the system's recorder is None by default and every
record call sits behind that test, so sweeps build no record at all.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, TypeVar

#: Trace record kinds, in the vocabulary of the paper's system.
RECORD_KINDS = (
    "negotiated",
    "start",
    "checkpoint_skipped",
    "checkpoint_performed",
    "failure",
    "killed",
    "evacuated",
    "requeued",
    "finish",
    "node_down",
    "node_up",
)


#: Kinds that describe one job, so a record of one must name the job.
JOB_RECORD_KINDS = frozenset(RECORD_KINDS) - {"failure", "node_down", "node_up"}


@dataclass(frozen=True)
class TraceRecord:
    """One semantic transition in a simulation.

    Attributes:
        time: Simulated timestamp.
        kind: One of :data:`RECORD_KINDS`.
        job_id: Affected job, or None for node-only records.
        node: Affected node, or None for job-wide records.
        detail: Kind-specific fields (promised probability, lost work...).
    """

    time: float
    kind: str
    job_id: Optional[int] = None
    node: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """One JSONL line.

        Builds the dict by hand rather than through ``dataclasses.asdict``:
        ``asdict`` deep-copies every detail value through a generic
        recursion, which dominates serialisation time on 100k-row streamed
        traces.  ``json.dumps`` never mutates its input, so the copy buys
        nothing.
        """
        return json.dumps(
            {
                "time": self.time,
                "kind": self.kind,
                "job_id": self.job_id,
                "node": self.node,
                "detail": self.detail,
            },
            sort_keys=True,
        )


_Recorder = TypeVar("_Recorder", bound="TraceRecorder")


class TraceRecorder:
    """Accumulates trace records in memory (and optionally streams JSONL).

    Args:
        stream: Optional text stream each record is written to as JSONL the
            moment it is recorded (e.g. an open file).
        keep_in_memory: Retain records on the recorder for later queries;
            disable for very long streamed runs.
    """

    def __init__(
        self, stream: Optional[TextIO] = None, keep_in_memory: bool = True
    ) -> None:
        self._stream = stream
        self._keep = keep_in_memory
        self._records: List[TraceRecord] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        kind: str,
        job_id: Optional[int] = None,
        node: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Append one record; unknown kinds are rejected to catch typos."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown trace record kind {kind!r}")
        self._ingest(
            TraceRecord(time=time, kind=kind, job_id=job_id, node=node, detail=detail)
        )

    def _ingest(self, record: TraceRecord) -> None:
        """Keep/stream one already-validated record.

        The single sink behind both live recording (:meth:`record`) and
        replay (:meth:`consume`); the folds over the record stream
        (:class:`repro.obs.trace.SpanBuilder`,
        :class:`repro.obs.audit.GuaranteeAudit`) override this so both
        paths feed their state.
        """
        if self._keep:
            self._records.append(record)
        if self._stream is not None:
            self._stream.write(record.to_json() + "\n")

    def consume(self: _Recorder, records: Iterable[TraceRecord]) -> _Recorder:
        """Replay already-materialised records (e.g. a JSONL trace loaded
        with :func:`load_jsonl`); returns self for chaining.

        The replay equivalent of live recording, so post-run queries
        (:meth:`of_kind`, :meth:`for_job`, :meth:`counts`) and the folds
        work on loaded traces too.  Kinds are validated exactly as
        :meth:`record` validates them (filter a ``strict=False`` load
        before replaying if unknown kinds must be kept).
        """
        for record in records:
            if record.kind not in RECORD_KINDS:
                raise ValueError(f"unknown trace record kind {record.kind!r}")
            self._ingest(record)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in time order."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown trace record kind {kind!r}")
        return [r for r in self._records if r.kind == kind]

    def for_job(self, job_id: int) -> List[TraceRecord]:
        """A job's full life story, in time order."""
        return [r for r in self._records if r.job_id == job_id]

    def counts(self) -> Dict[str, int]:
        """Record count per kind (only kinds that occurred)."""
        return dict(Counter(r.kind for r in self._records))


def _describe(record: TraceRecord) -> str:
    return f"{record.kind} record of job {record.job_id} at t={record.time}"


def _is_finite(value: Any) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_finite(record: TraceRecord, name: str, optional: bool = False) -> None:
    value = record.detail.get(name)
    if optional and value is None:
        return
    if not _is_finite(value):
        raise ValueError(
            f"{_describe(record)}: {name} {value!r} is not a finite number"
        )


def check_record(record: TraceRecord) -> None:
    """Reject a record missing what the trace folds rely on.

    The folds over a record stream — the guarantee audit and the span
    timeline — call this on every record they ingest, so a malformed
    trace fails with one ValueError naming the record instead of a crash
    deep inside a fold.  A record is malformed when:

    * its ``time`` is not a finite number;
    * it is a job record (:data:`JOB_RECORD_KINDS`) with no ``job_id``;
    * it is a ``negotiated`` record whose ``probability`` is missing, not
      finite or outside ``[0, 1]``, or whose ``deadline`` is missing or
      not finite;
    * a ``finish`` record's ``deadline`` or a ``checkpoint_performed``
      record's ``began_at`` is present but not a finite number.

    Raises:
        ValueError: naming the record and the offending field.
    """
    if not _is_finite(record.time):
        raise ValueError(
            f"{record.kind} record: time {record.time!r} is not a finite number"
        )
    if record.job_id is None and record.kind in JOB_RECORD_KINDS:
        raise ValueError(f"{_describe(record)}: no job_id")
    if record.kind == "negotiated":
        _check_finite(record, "probability")
        _check_finite(record, "deadline")
        probability = record.detail["probability"]
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"{_describe(record)}: probability {probability!r} "
                "is not in [0, 1]"
            )
    elif record.kind == "finish":
        _check_finite(record, "deadline", optional=True)
    elif record.kind == "checkpoint_performed":
        _check_finite(record, "began_at", optional=True)


def load_jsonl(lines: Iterable[str], strict: bool = True) -> List[TraceRecord]:
    """Parse JSONL lines back into records (inverse of streaming).

    Kinds are validated against :data:`RECORD_KINDS` just as :meth:`record`
    validates them on the way in — a trace written by a newer (or corrupted)
    build should fail loudly here, not at the end of whatever analysis
    consumed it.  Pass ``strict=False`` to keep unknown-kind rows anyway,
    e.g. to salvage what a mixed-version trace still contains.  A line
    that is not a JSON object raises ValueError naming the line.
    """
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(
                f"line {lineno}: expected a JSON object, got {type(data).__name__}"
            )
        kind = data["kind"]
        if strict and kind not in RECORD_KINDS:
            raise ValueError(
                f"line {lineno}: unknown trace record kind {kind!r} "
                "(pass strict=False to keep it)"
            )
        records.append(
            TraceRecord(
                time=data["time"],
                kind=kind,
                job_id=data.get("job_id"),
                node=data.get("node"),
                detail=data.get("detail", {}),
            )
        )
    return records
