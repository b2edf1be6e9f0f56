"""Hierarchical wall-clock profiler with sim-time bucketing.

The missing leg of the observability triad (metrics, traces, audits —
see DESIGN.md "Observability"): *where does the wall clock go?*  A
:class:`Profiler` maintains a stack of open **zones** — engine event
dispatch, ``find_slot``, negotiation dialogues, fastpath evaluations,
predictor queries, checkpoint decisions — attributing self and
cumulative nanoseconds plus call counts to each node of the resulting
call tree.

Design constraints, in order:

* **Profiled from outside.**  The library carries no profiling code.
  ``with profiler.attach(): ...`` wraps the methods named in
  :data:`ZONE_POINTS` for the duration of the block and puts the
  original functions back on the way out (also on an exception), so a
  run without an attached profiler executes exactly the unprofiled code.
* **Deterministic shape.**  The zone *tree structure*, call counts, and
  sim-time bucket indices are pure functions of the simulated trajectory
  and therefore bit-identical across reruns; only the wall-ns payloads
  vary run to run.  Tests pin the shape with
  :func:`strip_wall_ns`.
* **Sim-time bucketing.**  The dispatch wrapper advances the profiler's
  clock to each event's time (:meth:`Profiler.set_sim_time`) and the
  point wrapper resets it to 0 at each sweep point; each zone entry
  charges its *self* nanoseconds to the bucket
  ``floor(sim_time_at_entry / bucket_width)``, so a profile can answer
  "which phase of the trace got slow", not just "which function".
* **Mergeable.**  :meth:`Profiler.merge_snapshot` folds per-worker
  profiles across the process pool, as :func:`~repro.obs.export.merge_obs`
  folds counters; integer nanosecond arithmetic makes the fold exact and
  associative.
* **No third-party deps.**  Snapshots are JSON dicts; the collapsed
  export is the classic FlameGraph / speedscope ``frame;frame value``
  stack format.

Zone names follow the repo-wide ``<layer>.<component>.<name>`` scheme.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Version of the on-disk profile layout.
PROF_SCHEMA_VERSION = 1

#: Default sim-time bucket width, seconds (one simulated hour — the
#: paper's checkpoint interval, a natural phase length for these traces).
DEFAULT_BUCKET_WIDTH = 3600.0

#: Zone of each dispatched event; the event kind is appended
#: (``sim.engine.dispatch.arrival``).
DISPATCH_ZONE = "sim.engine.dispatch"

#: Zone of one simulated sweep point.
POINT_ZONE = "experiments.runner.point"

#: Where an attached profiler hooks in: ``(zone, module, class, method)``.
#: The method is wrapped on the class and on every subclass that defines
#: it itself.  Modules are imported when a profiler attaches, not here:
#: ``repro.obs`` sits below the layers it profiles.
ZONE_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("cluster.ledger.find_slot", "repro.cluster.reservations",
     "ReservationLedger", "find_slot"),
    ("cluster.ledger.reserve", "repro.cluster.reservations",
     "ReservationLedger", "reserve"),
    ("cluster.ledger.release", "repro.cluster.reservations",
     "ReservationLedger", "release"),
    ("negotiation.dialogue.negotiate", "repro.core.negotiation",
     "Negotiator", "negotiate"),
    ("negotiation.fastpath.evaluate", "repro.core.fastpath",
     "AnalyticalEvaluator", "failure_probability"),
    ("prediction.index.query", "repro.prediction.index",
     "FailureIntervalIndex", "failure_probability"),
    ("prediction.trace.query", "repro.prediction.trace",
     "TracePredictor", "failure_probability"),
    ("scheduling.fcfs.schedule_restart", "repro.scheduling.fcfs",
     "ConservativeBackfillScheduler", "schedule_restart"),
    ("checkpointing.policy.decide", "repro.checkpointing.policies",
     "CheckpointPolicy", "decide"),
    (DISPATCH_ZONE, "repro.sim.engine", "EventLoop", "_invoke"),
    (POINT_ZONE, "repro.experiments.runner", "ExperimentContext",
     "simulate_point"),
)

class _ZoneNode:
    """One node of the call tree: totals for a zone *at a stack position*."""

    __slots__ = ("name", "calls", "cum_ns", "self_ns", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum_ns = 0
        self.self_ns = 0
        self.children: Dict[str, "_ZoneNode"] = {}


class Profiler:
    """Maintains the live zone stack and the accumulated call tree.

    Args:
        bucket_width: Sim-time bucket width in (simulated) seconds; each
            zone entry charges its self-time to bucket
            ``floor(sim_time / bucket_width)``.
    """

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if not (math.isfinite(bucket_width) and bucket_width > 0):
            raise ValueError(
                f"bucket_width must be finite and > 0, got {bucket_width}"
            )
        self.bucket_width = float(bucket_width)
        self._root = _ZoneNode("root")
        # One frame per live zone: [node, start_ns, child_ns, bucket].
        self._frames: List[List[Any]] = []
        self._sim_time = 0.0
        # bucket index -> zone name -> [calls, self_ns]
        self._buckets: Dict[int, Dict[str, List[int]]] = {}

    # ------------------------------------------------------------------
    # Attaching
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def attach(self) -> Iterator["Profiler"]:
        """Profile every :data:`ZONE_POINTS` call made inside the block.

        The first attach installs the wrappers and its exit removes them.
        Attaching while another profiler is attached (a forked pool worker
        inherits its parent's) sends the zones to this profiler until it
        detaches.

        Raises:
            ImportError, AttributeError: If a point no longer exists;
                nothing is wrapped then.
        """
        patches = [] if _attached else _install(ZONE_POINTS)
        _attached.append(self)
        try:
            yield self
        finally:
            _attached.pop()
            for cls, attr, original in reversed(patches):
                setattr(cls, attr, original)

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def set_sim_time(self, sim_time: float) -> None:
        """Advance the simulated clock used for bucket attribution."""
        self._sim_time = sim_time

    @property
    def depth(self) -> int:
        """Number of currently open zones."""
        return len(self._frames)

    def push(self, name: str) -> None:
        """Open zone ``name`` under the innermost open zone."""
        frames = self._frames
        parent = frames[-1][0] if frames else self._root
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = _ZoneNode(name)
        frames.append(
            [
                node,
                time.perf_counter_ns(),
                0,
                int(self._sim_time // self.bucket_width),
            ]
        )

    def pop(self) -> None:
        """Close the innermost open zone and account its elapsed time."""
        end_ns = time.perf_counter_ns()
        if not self._frames:
            raise RuntimeError("Profiler.pop() without a matching push()")
        node, start_ns, child_ns, bucket = self._frames.pop()
        elapsed = end_ns - start_ns
        self_ns = elapsed - child_ns
        node.calls += 1
        node.cum_ns += elapsed
        node.self_ns += self_ns
        if self._frames:
            self._frames[-1][2] += elapsed
        slots = self._buckets.get(bucket)
        if slots is None:
            slots = self._buckets[bucket] = {}
        slot = slots.get(node.name)
        if slot is None:
            slots[node.name] = [1, self_ns]
        else:
            slot[0] += 1
            slot[1] += self_ns

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The accumulated profile as a JSON-serialisable dict.

        Open zones contribute nothing until they pop; snapshotting is
        intended for quiescent profilers (end of run / end of worker).
        """
        return {
            "schema": PROF_SCHEMA_VERSION,
            "bucket_width": self.bucket_width,
            "meta": dict(meta) if meta else {},
            "root": _node_to_dict(self._root),
            "buckets": {
                str(index): {
                    name: {"calls": slot[0], "self_ns": slot[1]}
                    for name, slot in sorted(slots.items())
                }
                for index, slots in sorted(self._buckets.items())
            },
        }

    def merge(self, other: "Profiler") -> "Profiler":
        """Fold another profiler's totals into this one (returns self)."""
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> "Profiler":
        """Fold a ``snapshot()``-shaped dict into this profiler.

        The cross-process form of :meth:`merge`: pool workers return
        their snapshot and the parent folds the dicts in submission
        order.  All arithmetic is integer nanoseconds, so the fold is
        exact and associative regardless of grouping.
        """
        schema = snapshot.get("schema")
        if schema != PROF_SCHEMA_VERSION:
            raise ValueError(
                f"cannot merge profile schema {schema!r} "
                f"(this build speaks {PROF_SCHEMA_VERSION})"
            )
        width = snapshot.get("bucket_width")
        if width != self.bucket_width:
            raise ValueError(
                f"cannot merge profiles with different bucket widths "
                f"({self.bucket_width} vs {width})"
            )
        _merge_node(self._root, snapshot.get("root", {}))
        for index_key, zones in sorted(snapshot.get("buckets", {}).items()):
            index = int(index_key)
            slots = self._buckets.get(index)
            if slots is None:
                slots = self._buckets[index] = {}
            for name, data in sorted(zones.items()):
                slot = slots.get(name)
                if slot is None:
                    slots[name] = [int(data["calls"]), int(data["self_ns"])]
                else:
                    slot[0] += int(data["calls"])
                    slot[1] += int(data["self_ns"])
        return self


#: Attached profilers, innermost last; the installed wrappers push to the
#: last one.  Module state rather than a closure, so wrappers a forked
#: worker inherits feed the worker's own profiler once it attaches.
_attached: List[Profiler] = []

_Patch = Tuple[type, str, Any]


def attached() -> Optional[Profiler]:
    """The profiler the wrappers currently feed, or None."""
    return _attached[-1] if _attached else None


def _zone_wrapper(zone: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def zoned(*args: Any, **kwargs: Any) -> Any:
        profiler = _attached[-1]
        profiler.push(zone)
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.pop()

    return zoned


def _dispatch_wrapper(zone: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    names: Dict[Any, str] = {}

    @functools.wraps(fn)
    def dispatch(loop: Any, handler: Any, event: Any) -> None:
        profiler = _attached[-1]
        profiler.set_sim_time(event.time)
        name = names.get(event.kind)
        if name is None:
            name = names[event.kind] = f"{zone}.{event.kind.value}"
        profiler.push(name)
        try:
            fn(loop, handler, event)
        finally:
            profiler.pop()

    return dispatch


def _point_wrapper(zone: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def point(*args: Any, **kwargs: Any) -> Any:
        profiler = _attached[-1]
        # Each point's simulation starts at sim time 0.
        profiler.set_sim_time(0.0)
        profiler.push(zone)
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.pop()

    return point


_WRAPPERS = {DISPATCH_ZONE: _dispatch_wrapper, POINT_ZONE: _point_wrapper}


def _defining(cls: type, method: str) -> List[type]:
    """``cls`` and its subclasses that define ``method`` themselves."""
    found: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in found and method in vars(current):
            found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _install(points: Tuple[Tuple[str, str, str, str], ...]) -> List[_Patch]:
    """Wrap every point; returns ``(class, attribute, original)`` patches.

    Every point is resolved before the first class is touched, so a
    missing one raises with nothing installed.
    """
    resolved: List[Tuple[str, type, str]] = []
    for zone, module_name, class_name, method in points:
        cls = getattr(importlib.import_module(module_name), class_name)
        targets = _defining(cls, method)
        if not targets:
            raise AttributeError(
                f"profiler zone {zone}: {module_name}.{class_name} "
                f"has no method {method!r}"
            )
        resolved.extend((zone, target, method) for target in targets)
    patches: List[_Patch] = []
    for zone, target, method in resolved:
        original = vars(target)[method]
        wrap = _WRAPPERS.get(zone, _zone_wrapper)
        setattr(target, method, wrap(zone, original))
        patches.append((target, method, original))
    return patches


def _node_to_dict(node: _ZoneNode) -> Dict[str, Any]:
    return {
        "calls": node.calls,
        "cum_ns": node.cum_ns,
        "self_ns": node.self_ns,
        "children": {
            name: _node_to_dict(child)
            for name, child in sorted(node.children.items())
        },
    }


def _merge_node(node: _ZoneNode, data: Dict[str, Any]) -> None:
    node.calls += int(data.get("calls", 0))
    node.cum_ns += int(data.get("cum_ns", 0))
    node.self_ns += int(data.get("self_ns", 0))
    for name, child_data in sorted(data.get("children", {}).items()):
        child = node.children.get(name)
        if child is None:
            child = node.children[name] = _ZoneNode(name)
        _merge_node(child, child_data)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def write_profile(path: str, snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Write a profile snapshot to ``path``; returns what was written."""
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snapshot


def load_profile(path: str) -> Dict[str, Any]:
    """Read a profile back.

    Raises:
        ValueError: If the file is not JSON, speaks another schema, or
            does not have the :meth:`Profiler.snapshot` shape.
    """
    with open(path) as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path}: a profile is a JSON object")
    schema = snapshot.get("schema")
    if schema != PROF_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported profile schema {schema!r} "
            f"(this build reads {PROF_SCHEMA_VERSION})"
        )
    width = snapshot.get("bucket_width")
    if not isinstance(width, (int, float)) or isinstance(width, bool):
        raise ValueError(f"{path}: bucket_width is not a number")
    _check_node(path, "root", snapshot.get("root"))
    buckets = snapshot.get("buckets", {})
    _check_dict(path, "buckets", buckets)
    for index, zones in buckets.items():
        _check_dict(path, f"buckets.{index}", zones)
        for name, slot in zones.items():
            _check_ints(path, f"buckets.{index}.{name}", slot,
                        ("calls", "self_ns"))
    return snapshot


def _check_dict(path: str, where: str, value: Any) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {where} is not an object")


def _check_ints(
    path: str, where: str, value: Any, keys: Tuple[str, ...]
) -> None:
    _check_dict(path, where, value)
    for key in keys:
        field = value.get(key)
        if not isinstance(field, int) or isinstance(field, bool):
            raise ValueError(f"{path}: {where}.{key} is not an integer")


def _check_node(path: str, where: str, node: Any) -> None:
    _check_ints(path, where, node, ("calls", "cum_ns", "self_ns"))
    children = node.get("children", {})
    _check_dict(path, f"{where}.children", children)
    for name, child in children.items():
        _check_node(path, f"{where}.{name}", child)


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
def strip_wall_ns(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The snapshot with every wall-ns payload zeroed.

    What remains — tree structure, call counts, bucket indices and
    per-bucket call counts — is the deterministic surface: bit-identical
    across reruns of the same trajectory.
    """

    def strip_node(node: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "calls": node.get("calls", 0),
            "cum_ns": 0,
            "self_ns": 0,
            "children": {
                name: strip_node(child)
                for name, child in sorted(node.get("children", {}).items())
            },
        }

    return {
        "schema": snapshot.get("schema"),
        "bucket_width": snapshot.get("bucket_width"),
        "meta": {},
        "root": strip_node(snapshot.get("root", {})),
        "buckets": {
            index: {
                name: {"calls": data.get("calls", 0), "self_ns": 0}
                for name, data in sorted(zones.items())
            }
            for index, zones in sorted(snapshot.get("buckets", {}).items())
        },
    }


def walk_zones(
    snapshot: Dict[str, Any]
) -> Iterator[Tuple[Tuple[str, ...], Dict[str, Any]]]:
    """Yield ``(stack, node_dict)`` for every zone, depth-first, sorted."""

    def walk(
        node: Dict[str, Any], stack: Tuple[str, ...]
    ) -> Iterator[Tuple[Tuple[str, ...], Dict[str, Any]]]:
        for name, child in sorted(node.get("children", {}).items()):
            child_stack = stack + (name,)
            yield child_stack, child
            yield from walk(child, child_stack)

    yield from walk(snapshot.get("root", {}), ())


def aggregate_self(snapshot: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """Flatten the tree: zone name -> (calls, self_ns) across all stacks."""
    totals: Dict[str, Tuple[int, int]] = {}
    for stack, node in walk_zones(snapshot):
        name = stack[-1]
        calls, self_ns = totals.get(name, (0, 0))
        totals[name] = (calls + node["calls"], self_ns + node["self_ns"])
    return totals


def total_ns(snapshot: Dict[str, Any]) -> int:
    """Wall nanoseconds under profile: the root children's cumulative sum."""
    root = snapshot.get("root", {})
    return sum(
        child.get("cum_ns", 0)
        for child in root.get("children", {}).values()
    )


# ----------------------------------------------------------------------
# Collapsed-stack (FlameGraph / speedscope) export
# ----------------------------------------------------------------------
def to_collapsed(snapshot: Dict[str, Any]) -> str:
    """The profile in collapsed-stack form: ``a;b;c <self_ns>`` per line.

    The classic Brendan Gregg FlameGraph input, which speedscope also
    imports directly; weights are integer self-nanoseconds.  Zones whose
    self time rounds to zero are omitted (a collapsed line's weight must
    be positive).
    """
    lines: List[str] = []
    for stack, node in walk_zones(snapshot):
        self_ns = node.get("self_ns", 0)
        if self_ns > 0:
            lines.append(";".join(stack) + f" {self_ns}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_collapsed(text: str) -> List[str]:
    """Problems that would stop FlameGraph/speedscope loading ``text``.

    Checks the grammar the importers share: one ``frame(;frame)* weight``
    per non-empty line, frames non-empty, weight a positive integer.
    Returns an empty list when the document is valid.
    """
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_part, _, weight_part = line.rpartition(" ")
        if not stack_part:
            problems.append(f"line {lineno}: missing stack or weight")
            continue
        if not weight_part.isdigit() or int(weight_part) <= 0:
            problems.append(
                f"line {lineno}: weight {weight_part!r} is not a "
                "positive integer"
            )
        frames = stack_part.split(";")
        if any(not frame for frame in frames):
            problems.append(f"line {lineno}: empty frame in {stack_part!r}")
    return problems


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.1f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f}us"
    return f"{ns}ns"


def render_report(
    snapshot: Dict[str, Any],
    top: int = 12,
    max_depth: Optional[int] = None,
    bucket_rows: int = 12,
) -> str:
    """Render a profile as the ``probqos prof report`` text.

    Three sections: the zone call tree (by cumulative time), the
    flattened top self-time zones, and the sim-time bucket breakdown.
    """
    lines: List[str] = []
    total = total_ns(snapshot)
    meta = snapshot.get("meta", {})
    zone_count = sum(1 for _ in walk_zones(snapshot))
    lines.append(
        f"Profile: {zone_count} zones, {_fmt_ns(total)} profiled wall time"
        f" (sim-time buckets of {snapshot.get('bucket_width', 0.0):g} s)"
    )
    for key in sorted(meta):
        lines.append(f"  {key}: {meta[key]}")

    lines.append("")
    lines.append("Zone tree (by cumulative time):")

    def render_node(node: Dict[str, Any], name: str, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        share = (node["cum_ns"] / total * 100.0) if total else 0.0
        lines.append(
            f"  {'  ' * depth}{name:<{max(1, 46 - 2 * depth)}}"
            f" {share:5.1f}%  cum {_fmt_ns(node['cum_ns']):>9}"
            f"  self {_fmt_ns(node['self_ns']):>9}"
            f"  calls {node['calls']}"
        )
        children = sorted(
            node.get("children", {}).items(),
            key=lambda kv: (-kv[1]["cum_ns"], kv[0]),
        )
        for child_name, child in children:
            render_node(child, child_name, depth + 1)

    roots = sorted(
        snapshot.get("root", {}).get("children", {}).items(),
        key=lambda kv: (-kv[1]["cum_ns"], kv[0]),
    )
    for name, node in roots:
        render_node(node, name, 0)

    totals = aggregate_self(snapshot)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))[:top]
    if ranked:
        lines.append("")
        lines.append(f"Top {len(ranked)} zones by self time (all stacks):")
        width = max(len(name) for name, _ in ranked)
        for name, (calls, self_ns) in ranked:
            share = (self_ns / total * 100.0) if total else 0.0
            per_call = self_ns // calls if calls else 0
            lines.append(
                f"  {name:<{width}}  {share:5.1f}%  self {_fmt_ns(self_ns):>9}"
                f"  calls {calls:>8}  ({_fmt_ns(per_call)}/call)"
            )

    buckets = snapshot.get("buckets", {})
    if buckets:
        width_s = snapshot.get("bucket_width", DEFAULT_BUCKET_WIDTH)
        by_index = sorted((int(k), v) for k, v in buckets.items())
        bucket_totals = [
            sum(d["self_ns"] for d in zones.values()) for _, zones in by_index
        ]
        lines.append("")
        lines.append(
            f"Sim-time buckets: {len(by_index)} buckets, wall cost per "
            "simulated phase:"
        )
        ranked_buckets = sorted(
            zip(by_index, bucket_totals),
            key=lambda pair: (-pair[1], pair[0][0]),
        )[:bucket_rows]
        for (index, zones), bucket_ns in sorted(
            ranked_buckets, key=lambda pair: pair[0][0]
        ):
            hot = max(zones.items(), key=lambda kv: (kv[1]["self_ns"], kv[0]))
            share = (bucket_ns / total * 100.0) if total else 0.0
            lines.append(
                f"  [{index * width_s:>12g}s, {(index + 1) * width_s:>12g}s)"
                f"  {share:5.1f}%  {_fmt_ns(bucket_ns):>9}"
                f"  hottest {hot[0]} ({_fmt_ns(hot[1]['self_ns'])})"
            )
        if len(by_index) > bucket_rows:
            lines.append(
                f"  ... {len(by_index) - bucket_rows} cooler buckets omitted"
            )
    return "\n".join(lines)
