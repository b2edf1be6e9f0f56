"""A small, deterministic discrete-event simulation engine.

The engine is a classic event loop: pending
:class:`~repro.sim.events.Event` objects sit in one binary heap ordered by
``(time, kind tie-break, insertion sequence)``.  Handlers are registered per
:class:`~repro.sim.events.EventKind` and invoked with the event; handlers may
schedule or cancel further events.

Design notes
------------
* **Determinism.**  Given the same inputs (workload, failure trace, seeds)
  two runs produce identical event sequences.  All tie-breaking is explicit;
  no iteration order over sets or dicts ever influences scheduling.
* **Cancellation** is lazy: cancelled events stay in the queue and are
  skipped when popped.  This keeps cancellation O(1) and is the standard
  approach for simulators whose events are frequently superseded (e.g. a
  job's finish event is cancelled when a node failure kills the job).
* **Monotonic time.**  Scheduling an event in the past raises
  :class:`SimulationError`; this catches logic bugs early instead of silently
  reordering history.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.prof import NULL_PROFILER, Profiler, Zone
from repro.obs.registry import NULL_REGISTRY, Counter, Histogram, MetricsRegistry
from repro.sim.events import Event, EventKind
from repro.sim.units import SimSeconds

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

    def __init__(
        self,
        start_time: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        """Args:
            start_time: Initial simulated clock.
            registry: Optional obs registry (see class docstring).
            profiler: Optional hierarchical profiler
                (:mod:`repro.obs.prof`); when live, each dispatched event
                runs inside a per-kind ``sim.engine.dispatch.*`` zone and
                advances the profiler's sim-time bucket clock.
        """
        self._now = float(start_time)
        # ``(sort_key, event)`` entries; keys are unique (the seq
        # component), so tuple comparison never falls through to events.
        self._heap: List[Tuple[tuple, Event]] = []
        self._seq = 0
        self._live = 0
        self._handlers: Dict[EventKind, Handler] = {}
        self._processed = 0
        self._running = False
        self._stopped = False
        # Observability (see repro.obs): per-kind dispatch counters, handler
        # wall-clock timers, and per-kind live-event counts.  All of it is
        # gated on one bool so the default NullRegistry costs a single
        # attribute test per event.
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._obs = self._registry.enabled
        self._dispatch_counters: Dict[EventKind, Counter] = {}
        self._handler_timers: Dict[EventKind, Histogram] = {}
        self._live_by_kind: Dict[EventKind, int] = {}
        # Profiling (repro.obs.prof): per-kind dispatch zones, gated on one
        # bool exactly like the registry so the NULL_PROFILER default costs
        # a single attribute test per event.
        self._profiler = profiler if profiler is not None else NULL_PROFILER
        self._prof = self._profiler.enabled
        self._dispatch_zones: Dict[EventKind, Zone] = {}
        # Dispatch counting for the span layer (repro.obs.trace): a plain
        # per-kind dict, cheaper than registry counters and available even
        # without a registry.  Costs one bool test per event when off.
        self._count_dispatch = False
        self._dispatch_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimSeconds:
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
            event = heap[0][1]
            if not event.cancelled:
                return event.time
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register(self, kind: EventKind, handler: Handler) -> None:
        """Bind ``handler`` to ``kind``, replacing any previous binding."""
        self._handlers[kind] = handler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, time: SimSeconds, kind: EventKind, **payload: Any
    ) -> Event:
        """Schedule an event at absolute simulated ``time``.

        Args:
            time: Absolute timestamp; must be >= :attr:`now`.
            kind: Event kind used for handler dispatch and tie-breaking.
            **payload: Arbitrary keyword data stored on the event.

        Returns:
            The scheduled :class:`Event`; keep it to :meth:`Event.cancel`.

        Raises:
            SimulationError: If ``time`` precedes the current time.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {kind.value} at t={time} before now={self._now}"
            )
        event = Event(time=float(time), kind=kind, payload=dict(payload), seq=self._seq)
        if self._obs:
            self._registry.counter("sim.engine.scheduled").inc()
            self._live_by_kind[kind] = self._live_by_kind.get(kind, 0) + 1
            event.on_cancel = lambda k=kind: self._on_cancel_kind(k)
        else:
            event.on_cancel = self._on_cancel
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (event.sort_key(), event))
        return event

    def schedule_in(
        self, delay: SimSeconds, kind: EventKind, **payload: Any
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
        event = heapq.heappop(self._heap)[1]
        # Off the queue: a late cancel() must not touch the live count.
        event.on_cancel = None
        self._live -= 1
        self._now = event.time
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise SimulationError(f"no handler registered for {event.kind.value}")
        if self._prof:
            self._profiler.set_sim_time(event.time)
            with self._dispatch_zone(event.kind):
                self._invoke(handler, event)
        else:
            self._invoke(handler, event)
        if self._count_dispatch:
            key = event.kind.value
            self._dispatch_counts[key] = self._dispatch_counts.get(key, 0) + 1
        self._processed += 1
        return event

    def _invoke(self, handler: Handler, event: Event) -> None:
        """Run ``handler`` with the registry instrumentation applied."""
        if self._obs:
            self._live_by_kind[event.kind] -= 1
            self._dispatched_counter(event.kind).inc()
            t0 = time.perf_counter_ns()  # qoslint: disable=QOS102 -- obs handler timer: measures real handler cost, never feeds sim state
            handler(event)
            self._handler_timer(event.kind).observe_ns(time.perf_counter_ns() - t0)  # qoslint: disable=QOS102 -- obs handler timer: wall duration goes to the registry only
        else:
            handler(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Args:
            until: Optional horizon; events strictly after it are left queued
                and the clock is advanced to ``until``.
            max_events: Optional safety valve on dispatched events.

        Returns:
            The number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        self._stopped = False
        dispatched = 0
        try:
            while not self._stopped:
                if max_events is not None and dispatched >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = max(self._now, until)
                    break
                self.step()
                dispatched += 1
        finally:
            self._running = False
        return dispatched

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_dispatch_counts(self) -> None:
        """Start counting dispatched events per kind (for trace metadata)."""
        self._count_dispatch = True

    def dispatch_counts(self) -> Dict[str, int]:
        """Dispatched events per kind value since counting was enabled.

        Empty unless :meth:`enable_dispatch_counts` was called — the span
        layer turns it on so exported timelines can carry an event-mix
        breakdown without requiring a metrics registry.
        """
        return dict(self._dispatch_counts)

    def observe_gauges(self) -> None:
        """Publish point-in-time engine state (live events per kind) to the
        registry.  Called by the owner at sampling instants; a no-op with
        the default null registry."""
        if not self._obs:
            return
        total = 0
        for kind, live in self._live_by_kind.items():
            self._registry.gauge(f"sim.engine.pending.{kind.value}").set(live)
            total += live
        self._registry.gauge("sim.engine.pending_total").set(total)

    def _dispatched_counter(self, kind: EventKind) -> Counter:
        counter = self._dispatch_counters.get(kind)
        if counter is None:
            counter = self._registry.counter(f"sim.engine.dispatched.{kind.value}")
            self._dispatch_counters[kind] = counter
        return counter

    def _handler_timer(self, kind: EventKind) -> Histogram:
        timer = self._handler_timers.get(kind)
        if timer is None:
            timer = self._registry.timer(f"sim.engine.handler_seconds.{kind.value}")
            self._handler_timers[kind] = timer
        return timer

    def _dispatch_zone(self, kind: EventKind) -> Zone:
        zone = self._dispatch_zones.get(kind)
        if zone is None:
            zone = self._profiler.zone(f"sim.engine.dispatch.{kind.value}")  # qoslint: disable=QOS111 -- per-kind dispatch zones: kind.value is a closed enum of lowercase segments
            self._dispatch_zones[kind] = zone
        return zone

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Event.cancel() hook: keep the live-event counter exact."""
        self._live -= 1

    def _on_cancel_kind(self, kind: EventKind) -> None:
        """Instrumented cancel hook: also keep per-kind live counts exact."""
        self._live -= 1
        self._live_by_kind[kind] -= 1
        self._registry.counter("sim.engine.cancelled").inc()
