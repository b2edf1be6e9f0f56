"""The instrumentation registry: named counters, gauges, and histograms.

The control system is a feedback loop — monitoring and prediction feed
scheduling, checkpointing, and negotiation — and this module is how the
simulator explains *how* it arrived at a number: every layer increments
counters on its decision points (negotiation probe depth, ledger cache
hits, backfill successes, checkpoint skips) into one shared
:class:`MetricsRegistry`.

Design constraints, in order:

* **~zero cost when off.**  The default is a :class:`NullRegistry`: its
  instruments are inert singletons and its ``enabled`` flag is False, so
  instrumented hot paths guard with one attribute test and sweeps pay
  nothing.  Components additionally bind instrument objects once at
  construction, so the per-event cost with a live registry is one method
  call — never a dict lookup by name.
* **No third-party deps.**  Counters are plain numbers, histograms are
  fixed-bucket arrays; everything snapshots to JSON-serialisable dicts.
* **Disciplined naming.**  Metric names follow
  ``<layer>.<component>.<name>`` (see DESIGN.md "Observability"), enforced
  at registration so snapshots group cleanly by layer.
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, List, Optional, Sequence

#: Names are dot-separated lowercase identifiers with at least three
#: components: ``<layer>.<component>.<name>`` (deeper nesting is allowed,
#: e.g. per-event-kind counters under ``sim.engine.dispatched.*``).
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")

#: Default histogram buckets for dimensionless counts (offer ranks, probe
#: depths, queue lengths): roughly powers of two.
DEFAULT_COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Default buckets for wall-clock timers, in seconds (1 µs .. 10 s).
DEFAULT_TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """A monotonically increasing total (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(f"{self.name}: counter increments must be >= 0")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, rolling rate, skyline size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class _TimerContext:
    """Context manager recording a wall-clock duration into a histogram.

    Durations are measured with ``perf_counter_ns`` and recorded through
    :meth:`Histogram.observe_ns`, so the exact integer-nanosecond total
    survives cross-process merging (float ``sum`` accumulates rounding
    that depends on fold order; ``sum_ns`` does not).
    """

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._t0 = 0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._histogram.observe_ns(time.perf_counter_ns() - self._t0)


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max sidecars.

    Args:
        name: Registered metric name.
        buckets: Ascending upper bounds; an implicit ``+inf`` bucket catches
            overflow.  Bounds are fixed at creation — no rebucketing.
    """

    __slots__ = (
        "name", "bounds", "bucket_counts", "count", "sum", "sum_ns",
        "min", "max",
    )

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"{name}: bucket bounds must be strictly ascending")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self.count = 0
        self.sum = 0.0
        #: Exact integer-nanosecond total for timer samples (observe_ns);
        #: stays 0 for plain value histograms.
        self.sum_ns = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        idx = 0
        for bound in self.bounds:
            if value <= bound:
                break
            idx += 1
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_ns(self, duration_ns: int) -> None:
        """Record one timer sample given in integer nanoseconds.

        Bucket/min/max/float-sum bookkeeping goes through :meth:`observe`
        on the seconds value; the nanosecond total is additionally kept as
        an exact integer so merged timers report true totals independent
        of fold order.
        """
        self.observe(duration_ns / 1e9)
        self.sum_ns += duration_ns

    def time(self) -> _TimerContext:
        """``with histogram.time():`` records the block's wall duration."""
        return _TimerContext(self)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "sum_ns": self.sum_ns,
            "min": self.min,
            "max": self.max,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.bounds, self.bucket_counts)
            ]
            + [{"le": "inf", "count": self.bucket_counts[-1]}],
        }


class MetricsRegistry:
    """Get-or-create store of named instruments, snapshotable to JSON.

    Instruments are created on first request and shared thereafter;
    re-requesting a name with a different instrument type (or different
    histogram buckets) raises, catching copy-paste divergence early.
    """

    #: Hot paths test this once instead of calling into a null instrument
    #: per event; the :class:`NullRegistry` subclass flips it to False.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._validate(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._validate(name)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._validate(name)
            instrument = self._histograms[name] = Histogram(name, buckets)
        elif instrument.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return instrument

    def timer(self, name: str) -> Histogram:
        """A histogram pre-bucketed for wall-clock seconds."""
        return self.histogram(name, DEFAULT_TIME_BUCKETS)

    # ------------------------------------------------------------------
    # Convenience one-shots (cold paths that don't keep a binding)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float,
        buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS,
    ) -> None:
        self.histogram(name, buckets).observe(value)

    # ------------------------------------------------------------------
    # Aggregation (parallel experiment execution)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's totals into this one (returns self).

        Counter and histogram merging is associative and commutative up to
        float summation order, so per-worker registries can be folded in
        any grouping.  Gauges are levels, not totals: the merged value is
        simply the other registry's last level (last-write-wins), which is
        the only meaningful choice for point-in-time readings.
        """
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a ``snapshot()``-shaped dict into this registry.

        This is the cross-process form of :meth:`merge`: pool workers
        cannot ship live instrument objects back to the parent, so they
        return ``registry.snapshot()`` and the parent folds the dicts in a
        deterministic (submission) order.
        """
        if not self.enabled:
            return self
        for name, total in snapshot.get("counters", {}).items():
            self.counter(name).inc(total)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            buckets = data["buckets"]
            bounds = tuple(b["le"] for b in buckets if b["le"] != "inf")
            histogram = self.histogram(name, bounds)
            for idx, bucket in enumerate(buckets):
                histogram.bucket_counts[idx] += bucket["count"]
            histogram.count += data["count"]
            histogram.sum += data["sum"]
            # .get(): snapshots written before the sum_ns sidecar existed
            # still merge cleanly.
            histogram.sum_ns += data.get("sum_ns", 0)
            for side, better in (("min", min), ("max", max)):
                incoming = data.get(side)
                if incoming is None:
                    continue
                current = getattr(histogram, side)
                setattr(
                    histogram,
                    side,
                    incoming if current is None else better(current, incoming),
                )
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metric_names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def layers(self) -> List[str]:
        """Distinct ``<layer>`` prefixes across all registered metrics."""
        return sorted({name.split(".", 1)[0] for name in self.metric_names()})

    def snapshot(self) -> Dict[str, Any]:
        """The full current state as a JSON-serialisable dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def scalar_snapshot(self) -> Dict[str, float]:
        """Counters and gauges flattened to one ``{name: value}`` map,
        histograms contributing their sample count under ``<name>.count``
        — the compact row format the :class:`~repro.obs.sampler.Sampler`
        stores per sampling instant."""
        row: Dict[str, float] = {}
        for name, counter in self._counters.items():
            row[name] = counter.value
        for name, gauge in self._gauges.items():
            row[name] = gauge.value
        for name, histogram in self._histograms.items():
            row[name + ".count"] = histogram.count
        return row

    @staticmethod
    def _validate(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} does not follow "
                "'<layer>.<component>.<name>' (lowercase, dot-separated, "
                ">= 3 components)"
            )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        return


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return

    def observe_ns(self, duration_ns: int) -> None:
        return


class NullRegistry(MetricsRegistry):
    """A registry that records nothing (the default, zero-cost).

    Hands out shared inert instruments so uninstrumented sweeps pay one
    no-op call at worst — and nothing at all on paths that guard with
    :attr:`MetricsRegistry.enabled`.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null.null.counter")
        self._null_gauge = _NullGauge("null.null.gauge")
        self._null_histogram = _NullHistogram("null.null.histogram")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS
    ) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def scalar_snapshot(self) -> Dict[str, float]:
        return {}


#: Shared default instance; safe because it holds no state.
NULL_REGISTRY = NullRegistry()
