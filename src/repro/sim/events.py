"""Event taxonomy for the trace-driven cluster simulator.

The paper (Section 4.1) enumerates seven event kinds processed by its
event-driven simulator:

1. *arrival* events — a job is submitted and negotiation begins;
2. *start* events — a scheduled job begins executing on its partition;
3. *finish* events — a job completes its remaining work;
4. *failure* events — a node fails, killing any job running on it;
5. *recovery* events — a failed node becomes available again;
6. *checkpoint start* events — a job begins writing a checkpoint;
7. *checkpoint finish* events — a checkpoint completes and becomes durable.

This module defines those kinds plus two bookkeeping kinds used internally
(checkpoint *requests*, which the cooperative policy may skip before a
checkpoint ever starts, and *wakeups*, a generic kind for re-testing a
condition at a given time; the simulator itself retries blocked starts on
the events that free capacity, so it schedules none).

Ordering: events are processed in time order; ties are broken by an explicit
per-kind priority (see :data:`TIE_BREAK_ORDER`) and then by insertion order,
so simulations are fully deterministic.  The tie-break order encodes the
semantics chosen for simultaneous events: completions and recoveries free
resources *before* arrivals and starts observe the cluster, and a failure at
the same instant as a finish does not kill the finished job.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional, Tuple


class EventKind(enum.Enum):
    """The kinds of events the cluster simulator processes."""

    #: Position among simultaneous events (:data:`TIE_BREAK_ORDER`), a
    #: plain attribute so the event loop reads it without hashing the
    #: member (``Enum.__hash__`` runs in Python).
    tie: int

    #: A checkpoint write completes; saved progress becomes durable.
    CHECKPOINT_FINISH = "checkpoint_finish"
    #: A job completes its final piece of work and leaves the system.
    FINISH = "finish"
    #: A previously failed node becomes available again.
    RECOVERY = "recovery"
    #: A node fails; any job running on it is killed.
    FAILURE = "failure"
    #: A job is submitted; deadline negotiation happens here.
    ARRIVAL = "arrival"
    #: A job's reservation matured; attempt to start it.
    START = "start"
    #: A job reaches a checkpoint request point (may be skipped).
    CHECKPOINT_REQUEST = "checkpoint_request"
    #: A checkpoint write begins (job progress pauses for the overhead C).
    CHECKPOINT_START = "checkpoint_start"
    #: Internal: re-test a condition at a given time (the simulator
    #: itself schedules none).
    WAKEUP = "wakeup"
    #: Internal: sample the components' obs counters and gauges
    #: (repro.obs) at a fixed sim-time cadence.  Never scheduled unless a
    #: sampler is attached.
    OBS_SAMPLE = "obs_sample"


#: Processing order for events that share a timestamp.  Lower comes first.
#:
#: Rationale, in order:
#:   * checkpoint/job completions first so that a simultaneous failure does
#:     not destroy work that semantically finished at that instant;
#:   * recoveries next so arrivals/starts observe recovered nodes;
#:   * failures before arrivals/starts so that new work is never placed on a
#:     node that is down "as of" this instant;
#:   * wakeups last so they see the final resource state of the timestep.
#: The ranks are ``0..len(EventKind) - 1``: the loop indexes its handlers
#: by them.  Read-only: a mutation here would silently reorder
#: simultaneous events for every simulation in the process (lint rule
#: QOS107).
TIE_BREAK_ORDER: Mapping[EventKind, int] = MappingProxyType(
    {
        EventKind.CHECKPOINT_FINISH: 0,
        EventKind.FINISH: 1,
        EventKind.RECOVERY: 2,
        EventKind.FAILURE: 3,
        EventKind.ARRIVAL: 4,
        EventKind.START: 5,
        EventKind.CHECKPOINT_REQUEST: 6,
        EventKind.CHECKPOINT_START: 7,
        EventKind.WAKEUP: 8,
        # Samples observe the final state of the timestep, after wakeups.
        EventKind.OBS_SAMPLE: 9,
    }
)
for _kind, _tie in TIE_BREAK_ORDER.items():
    _kind.tie = _tie
del _kind, _tie


class Event:
    """A scheduled occurrence in simulated time.

    Events are created through :meth:`repro.sim.engine.EventLoop.schedule`;
    user code normally only inspects ``time``, ``kind`` and ``payload``.

    Attributes:
        time: Simulated timestamp (seconds) at which the event fires.
        kind: The :class:`EventKind` dispatched to the matching handler.
        payload: Free-form keyword data for the handler (job, node id, ...).
        seq: Insertion sequence number; with :data:`TIE_BREAK_ORDER` this
            makes processing order total and deterministic.
        cancelled: Lazily-deleted flag; cancelled events are skipped when
            popped rather than removed from the heap.
        on_cancel: Set by the owning loop so it can keep an O(1)
            live-event count and count cancellations; called with the
            event, and cleared once the event leaves the heap.  Not part
            of the public API, nor of equality.

    One is built per scheduled event, so the class is slotted and built
    positionally by the loop; equality compares the fields as a
    dataclass would (``on_cancel`` excluded), and events are unhashable.
    """

    __slots__ = ("time", "kind", "payload", "seq", "cancelled", "on_cancel")

    def __init__(
        self,
        time: float,
        kind: EventKind,
        payload: Optional[Dict[str, Any]] = None,
        seq: int = 0,
        cancelled: bool = False,
        on_cancel: Optional[Callable[["Event"], None]] = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload: Dict[str, Any] = {} if payload is None else payload
        self.seq = seq
        self.cancelled = cancelled
        self.on_cancel = on_cancel

    def _fields(self) -> Tuple[Any, ...]:
        return (self.time, self.kind, self.payload, self.seq, self.cancelled)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # mutable: unhashable

    def cancel(self) -> None:
        """Mark the event so the loop discards it instead of dispatching."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel(self)

    def sort_key(self) -> Tuple[float, int, int]:
        """Total ordering key: (time, per-kind tie-break, insertion order),
        the leading fields of the loop's heap entry."""
        return (self.time, self.kind.tie, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event {self.kind.value} @ {self.time:.1f}{state} {self.payload}>"
