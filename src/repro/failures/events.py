"""Failure events, raw system-event records, and the failure trace container.

Two layers mirror the paper's data pipeline (Section 4.3):

* :class:`RawEvent` — an unfiltered system-log record (severity, subsystem,
  message), as harvested from the AIX cluster.  Hundreds of these may share
  one root cause.
* :class:`FailureEvent` — a *filtered* critical event: "any event that would
  lead to the immediate failure of a job" running on that node.  These are
  what the simulator replays and the predictor reasons about.

:class:`FailureTrace` stores failure events sorted by time with per-node
indexes, supporting the window queries the trace-based predictor needs
("all failures on this node set in this time window, in time order").
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


class Severity(enum.IntEnum):
    """System-log severity levels, ordered by criticality."""

    INFO = 0
    WARNING = 1
    ERROR = 2
    FATAL = 3
    FAILURE = 4

    @property
    def is_critical(self) -> bool:
        """True for the severities the paper's filtration keeps."""
        return self >= Severity.FATAL


@dataclass(frozen=True)
class RawEvent:
    """One unfiltered record from a node's system event log.

    Attributes:
        time: Timestamp in seconds from the trace origin.
        node: Reporting node index.
        severity: Log severity; only FATAL/FAILURE records can become
            :class:`FailureEvent` after filtering.
        subsystem: Originating subsystem (e.g. ``"memory"``, ``"network"``).
        message_id: Template identifier; repeated identical messages from
            one root cause share it.
        root_cause: Hidden ground-truth cause label used by the synthetic
            generator so filtering quality can be measured; real logs would
            not carry it (-1 when unknown).
    """

    time: float
    node: int
    severity: Severity
    subsystem: str = "unknown"
    message_id: int = 0
    root_cause: int = -1


@dataclass(frozen=True)
class FailureEvent:
    """A filtered critical event: a node failure that kills running work.

    Attributes:
        event_id: Unique id within the trace; the predictor's static
            detectability ``p_x`` is keyed on it, so detectability is a
            property of the failure, not of when it is queried.
        time: Failure time in seconds from the trace origin.
        node: Failing node index.
        subsystem: Originating subsystem (for analysis only).
    """

    event_id: int
    time: float
    node: int
    subsystem: str = "unknown"


class FailureTrace:
    """An immutable, time-sorted collection of failure events.

    Provides the two lookups the system needs:

    * :meth:`in_window` — failures on a node set within ``[start, end)``, in
      time order (the predictor's query);
    * :meth:`after` — iteration from a time point (the simulator's replay).
    """

    def __init__(self, events: Iterable[FailureEvent], name: str = "failures") -> None:
        self.name = name
        self._events: List[FailureEvent] = sorted(
            events, key=lambda e: (e.time, e.event_id)
        )
        ids = [e.event_id for e in self._events]
        if len(set(ids)) != len(ids):
            raise ValueError(f"failure trace {name!r} contains duplicate event ids")
        self._by_node: Dict[int, List[FailureEvent]] = {}
        for event in self._events:
            self._by_node.setdefault(event.node, []).append(event)
        self._node_times: Dict[int, List[float]] = {
            node: [e.time for e in evs] for node, evs in self._by_node.items()
        }

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> FailureEvent:
        return self._events[index]

    @property
    def events(self) -> Sequence[FailureEvent]:
        return self._events

    @property
    def nodes(self) -> List[int]:
        """Nodes that fail at least once, ascending."""
        return sorted(self._by_node)

    @property
    def span(self) -> float:
        """Time between the first and last failure (0 for < 2 events)."""
        if len(self._events) < 2:
            return 0.0
        return self._events[-1].time - self._events[0].time

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def for_node(self, node: int) -> Sequence[FailureEvent]:
        """All failures of ``node`` in time order."""
        return self._by_node.get(node, [])

    def in_window(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[FailureEvent]:
        """Failures hitting any of ``nodes`` in ``[start, end)``, time-sorted.

        This is exactly the predictor's retrieval step: "retrieves all the
        corresponding failures from the log and considers them in order of
        time" (Section 4.3).
        """
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        hits: List[FailureEvent] = []
        # Dedupe and order the node set: a caller passing a node twice must
        # not see its failures twice, and the explicit sort keeps the scan
        # order independent of the caller's container type.
        for node in sorted(set(nodes)):
            times = self._node_times.get(node)
            if not times:
                continue
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_left(times, end)
            hits.extend(self._by_node[node][lo:hi])
        hits.sort(key=lambda e: (e.time, e.event_id))
        return hits

    def after(self, time: float) -> List[FailureEvent]:
        """Failures at or after ``time``, in replay order."""
        times = [e.time for e in self._events]
        lo = bisect.bisect_left(times, time)
        return self._events[lo:]

    def truncate(self, end_time: float) -> "FailureTrace":
        """Failures strictly before ``end_time`` as a new trace."""
        return FailureTrace(
            (e for e in self._events if e.time < end_time),
            name=f"{self.name}[<{end_time:.0f}s]",
        )

    def restrict_nodes(self, max_node: int) -> "FailureTrace":
        """Keep only failures of nodes ``< max_node`` (the paper keeps the
        first 128 of 400 machines)."""
        return FailureTrace(
            (e for e in self._events if e.node < max_node),
            name=f"{self.name}[nodes<{max_node}]",
        )

    def interarrival_times(self) -> List[float]:
        """Cluster-wide gaps between consecutive failures (seconds)."""
        return [
            b.time - a.time for a, b in zip(self._events, self._events[1:])
        ]

    def mtbf(self) -> Optional[float]:
        """Cluster-wide mean time between failures, or None if < 2 events."""
        gaps = self.interarrival_times()
        if not gaps:
            return None
        return sum(gaps) / len(gaps)
