"""A small, deterministic discrete-event simulation engine.

The engine is a classic event loop: pending
:class:`~repro.sim.events.Event` objects sit in one binary heap of plain
``(time, tie, seq, event)`` tuples — simulated time, the kind's tie-break
(:attr:`EventKind.tie <repro.sim.events.EventKind>`), and the insertion
sequence, which is unique, so comparison never reaches the event.
Handlers are registered per :class:`~repro.sim.events.EventKind` and
invoked with the event; handlers may schedule or cancel further events.

Design notes
------------
* **Determinism.**  Given the same inputs (workload, failure trace, seeds)
  two runs produce identical event sequences.  All tie-breaking is explicit;
  no iteration order over sets or dicts ever influences scheduling.
* **Cancellation** is lazy: cancelled events stay in the queue and are
  skipped when popped.  This keeps cancellation O(1) and is the standard
  approach for simulators whose events are frequently superseded (e.g. a
  job's finish event is cancelled when a node failure kills the job).
* **Monotonic time.**  Scheduling an event in the past (or at NaN, which
  would break the heap order) raises :class:`SimulationError`; this
  catches logic bugs early instead of silently reordering history.
* **One dispatch loop.**  :meth:`EventLoop.run` is the only loop body
  (:meth:`EventLoop.step` runs it for one event); it calls
  :meth:`EventLoop._invoke` once per event, so a profiler can wrap
  dispatch (``repro.obs.prof``).
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event, EventKind

Handler = Callable[[Event], None]


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (past events, missing handlers...)."""


class EventLoop:
    """Deterministic event loop with per-kind handler dispatch.

    Example:
        >>> loop = EventLoop()
        >>> seen = []
        >>> loop.register(EventKind.WAKEUP, lambda ev: seen.append(ev.time))
        >>> _ = loop.schedule(5.0, EventKind.WAKEUP)
        >>> _ = loop.schedule(1.0, EventKind.WAKEUP)
        >>> loop.run()
        >>> seen
        [1.0, 5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        """Args:
            start_time: Initial simulated clock.
        """
        self._now = float(start_time)
        # ``(time, tie, seq, event)`` entries; ``seq`` is unique, so tuple
        # comparison never falls through to events.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        # One bound cancel hook shared by every event this loop schedules.
        self._cancel_hook = self._on_cancel
        # Handlers indexed by the kind's tie-break rank (distinct per kind),
        # so dispatch does not hash the kind.
        self._handlers: List[Optional[Handler]] = [None] * len(EventKind)
        self._processed = 0
        self._running = False
        self._stopped = False
        # Dispatched and cancelled events per kind, indexed like the
        # handlers; ``_seq`` doubles as the scheduled-event count.
        self._dispatched = [0] * len(EventKind)
        self._cancelled = [0] * len(EventKind)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events dispatched so far (excludes cancelled)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained on schedule/cancel/dispatch, instead of
        a scan over the heap.
        """
        return self._live

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty.

        Purges cancelled events off the queue head as a side effect, so
        the cost of lazy cancellation is paid once per cancelled event
        rather than on every peek; a peek with a live head is O(1).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[3].cancelled:
                return entry[0]
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register(self, kind: EventKind, handler: Handler) -> None:
        """Bind ``handler`` to ``kind``, replacing any previous binding."""
        self._handlers[kind.tie] = handler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, time: float, kind: EventKind, **payload: Any
    ) -> Event:
        """Schedule an event at absolute simulated ``time``.

        Args:
            time: Absolute timestamp; must be >= :attr:`now`.
            kind: Event kind used for handler dispatch and tie-breaking.
            **payload: Arbitrary keyword data, stored on the event as is.

        Returns:
            The scheduled :class:`Event`; keep it to :meth:`Event.cancel`.

        Raises:
            SimulationError: If ``time`` precedes the current time or is NaN.
        """
        # Written so that NaN fails too: it would break the heap order.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule {kind.value} at t={time}: not at or after "
                f"now={self._now}"
            )
        time = float(time)
        seq = self._seq
        event = Event(time, kind, payload, seq, False, self._cancel_hook)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, kind.tie, seq, event))
        return event

    def schedule_in(
        self, delay: float, kind: EventKind, **payload: Any
    ) -> Event:
        """Schedule an event ``delay`` seconds after the current time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {kind.value}")
        return self.schedule(self._now + delay, kind, **payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the loop stop after the current event completes."""
        self._stopped = True

    def step(self) -> Optional[Event]:
        """Dispatch the next live event; returns it, or None if drained."""
        if self.peek_time() is None:
            return None
        event = self._heap[0][3]
        self.run(max_events=1)
        return event

    def _invoke(self, handler: Handler, event: Event) -> None:
        """Run ``handler``: the method an attached profiler wraps for its
        per-kind dispatch zones (``repro.obs.prof``)."""
        handler(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or stopped.

        The one dispatch loop: :meth:`step` runs it for one event.

        Args:
            until: Optional horizon; events strictly after it are left queued
                and the clock is advanced to ``until``.  A horizon in the
                past dispatches nothing and leaves the clock alone.
            max_events: Optional safety valve on dispatched events.

        Returns:
            The number of events dispatched by this call.

        Raises:
            SimulationError: if ``until`` is NaN (no event time compares
                greater than it, so it would run every queued event).
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        if until is not None and math.isnan(until):
            raise SimulationError("run(until=nan): the horizon must be a number")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        handlers = self._handlers
        dispatched_per_kind = self._dispatched
        # Bound once per run: an attached profiler has already wrapped it.
        invoke = self._invoke
        horizon = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        dispatched = 0
        try:
            while heap and dispatched < budget and not self._stopped:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    # Lazy cancellation: purge the dead head and look again.
                    pop(heap)
                    continue
                time = entry[0]
                if time > horizon:
                    self._now = max(self._now, horizon)
                    break
                pop(heap)
                # Off the queue: a late cancel() must not touch the live count.
                event.on_cancel = None
                self._live -= 1
                self._now = time
                tie = entry[1]
                handler = handlers[tie]
                if handler is None:
                    raise SimulationError(
                        f"no handler registered for {event.kind.value}"
                    )
                # Counted before the handler runs, so a sample taken by an
                # ``OBS_SAMPLE`` handler includes its own event.
                dispatched_per_kind[tie] += 1
                invoke(handler, event)
                self._processed += 1
                dispatched += 1
        finally:
            self._running = False
        return dispatched

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def dispatch_counts(self) -> Dict[str, int]:
        """Dispatched events per kind value (kinds never dispatched are
        left out); the ``sim.engine.dispatched.*`` counters report it."""
        return {
            kind.value: self._dispatched[kind.tie]
            for kind in EventKind
            if self._dispatched[kind.tie]
        }

    def counters(self) -> Dict[str, int]:
        """``sim.engine.*`` totals: events scheduled, dispatched per kind,
        and cancelled; a count that is still zero is left out."""
        counts = {
            f"sim.engine.dispatched.{kind}": n
            for kind, n in self.dispatch_counts().items()
        }
        if self._seq:
            counts["sim.engine.scheduled"] = self._seq
        cancelled = sum(self._cancelled)
        if cancelled:
            counts["sim.engine.cancelled"] = cancelled
        return counts

    def gauges(self) -> Dict[str, float]:
        """Live queued events per kind ever scheduled, and their total.

        One scan of the heap: a sampling-time cost instead of per-kind
        bookkeeping on every schedule, cancel and dispatch.
        """
        live = [0] * len(EventKind)
        seen = [bool(d or c) for d, c in zip(self._dispatched, self._cancelled)]
        for entry in self._heap:
            tie = entry[1]
            seen[tie] = True
            if not entry[3].cancelled:
                live[tie] += 1
        levels = {
            f"sim.engine.pending.{kind.value}": float(live[kind.tie])
            for kind in EventKind
            if seen[kind.tie]
        }
        levels["sim.engine.pending_total"] = float(self._live)
        return levels

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_cancel(self, event: Event) -> None:
        """Event.cancel() hook: keep the live-event count exact and count
        the cancellation."""
        self._live -= 1
        self._cancelled[event.kind.tie] += 1
