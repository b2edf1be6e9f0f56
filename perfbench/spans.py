"""Layer tracing from outside the program.

The traced run times calls into each layer's public methods.  It does so
with wrappers that this module installs on the library's classes just for
that run and removes afterwards; the library itself carries no tracing
code for the benchmark.

Each wrapped call records a span ``(name, start, end, parent)``.  Spans are
kept in memory in flat integer arrays and written out when the run ends.
A span's *self time* is its duration minus the time covered by its child
spans.  Every span of a replay nests inside that replay's root span, so
the self times of all spans sum exactly to the root durations.

A call into a layer operation from inside the same operation (for example
``free_nodes`` delegating to ``free_nodes_set``) is not a new span: an
operation counts once per entry from outside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Where the traced run hooks in: ``(operation, module, class, methods)``.
#: Methods are wrapped on the class and on every subclass that overrides
#: them, so a policy or predictor family is covered by naming its base.
TRACE_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "EventLoop", ("run",)),
    ("core.negotiate", "repro.core.negotiation", "Negotiator", ("negotiate",)),
    (
        "core.fastpath",
        "repro.core.fastpath",
        "AnalyticalEvaluator",
        (
            "failure_probability",
            "node_failure_probability",
            "predicted_failures",
            "first_predicted_failure",
            "best_case_probability",
        ),
    ),
    (
        "prediction",
        "repro.prediction.index",
        "FailureIntervalIndex",
        (
            "node_term",
            "first_detectable",
            "failure_probability",
            "first_predicted",
            "predicted_failures",
            "best_case_probability",
        ),
    ),
    (
        "prediction",
        "repro.prediction.trace",
        "TracePredictor",
        (
            "failure_probability",
            "predicted_failures",
            "first_predicted_failure",
            "node_failure_term",
            "interval_index",
        ),
    ),
    (
        "scheduling",
        "repro.scheduling.fcfs",
        "ConservativeBackfillScheduler",
        ("schedule_arrival", "schedule_restart", "pull_forward"),
    ),
    (
        "checkpointing.decide",
        "repro.checkpointing.policies",
        "CheckpointPolicy",
        ("decide",),
    ),
    ("cluster.find_slot", "repro.cluster.reservations", "ReservationLedger", ("find_slot",)),
    ("cluster.reserve", "repro.cluster.reservations", "ReservationLedger", ("reserve",)),
    ("cluster.release", "repro.cluster.reservations", "ReservationLedger", ("release",)),
    (
        "cluster.free_nodes",
        "repro.cluster.reservations",
        "ReservationLedger",
        ("free_nodes_set", "free_nodes"),
    ),
    ("cluster.profile", "repro.cluster.reservations", "ReservationLedger", ("profile",)),
)

#: Root operation: one span per replay, wrapped by the benchmark itself.
ROOT_OP = "replay"

#: Hook called after a wrapped call returns: ``after(instance, result)``.
After = Callable[[object, object], None]


class Tracer:
    """Collects spans in flat arrays (32 bytes per span)."""

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._op_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        # Open spans, innermost last, as (span index, operation id).
        self._stack: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(
        self, op: str, method: str, fn: Callable, after: Optional[After] = None
    ) -> Callable:
        """``fn`` recording one span named ``op:method`` per outside call."""
        span_name = f"{op}:{method}"
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        name_id = self._name_ids[span_name]
        op_id = self._op_ids.setdefault(op, len(self._op_ids))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == op_id:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append((index, op_id))
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args[0] if args else None, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children never overlap each other and
    lie inside their parent: the covered time is the sum of the children's
    durations.
    """
    start_a = np.asarray(start, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - start_a
    parent_a = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(duration), dtype=np.int64)
    nested = parent_a >= 0
    np.add.at(covered, parent_a[nested], duration[nested])
    return duration - covered


@dataclass
class Installed:
    """Wrappers in place, and what could not be wrapped."""

    patches: List[Tuple[type, str, Callable]]
    missing: List[str]

    def remove(self) -> None:
        """Put every original method back, last patch first."""
        for cls, attr, original in reversed(self.patches):
            setattr(cls, attr, original)
        self.patches.clear()


def _overriding(cls: type, method: str) -> List[type]:
    """``cls`` and its subclasses that define ``method`` themselves."""
    found: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in found and method in vars(current):
            found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(
    tracer: Tracer,
    after: Optional[Dict[str, After]] = None,
    points: Sequence[Tuple[str, str, str, Tuple[str, ...]]] = TRACE_POINTS,
) -> Installed:
    """Wrap every trace point; a point that no longer exists is reported
    in :attr:`Installed.missing` instead of raising.

    ``after`` maps ``"op:method"`` to a hook run on each wrapped result.
    """
    after = after or {}
    installed = Installed(patches=[], missing=[])
    for op, module_name, class_name, methods in points:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            installed.missing.append(f"{module_name}.{class_name}")
            continue
        for method in methods:
            targets = [
                target
                for target in _overriding(cls, method)
                if inspect.isfunction(vars(target)[method])
                and not inspect.isgeneratorfunction(vars(target)[method])
            ]
            if not targets:
                installed.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            for target in targets:
                own = vars(target)[method]
                wrapped = tracer.wrap(op, method, own, after.get(f"{op}:{method}"))
                setattr(target, method, wrapped)
                installed.patches.append((target, method, own))
    return installed


@dataclass(frozen=True)
class OpStats:
    """Per-operation totals folded from the spans."""

    calls: int
    self_s: float
    durations_ns: np.ndarray


def fold(tracer: Tracer) -> Dict[str, OpStats]:
    """Per operation (the span name up to ``:``): call count, summed self
    time, and every span's inclusive duration."""
    if not len(tracer):
        return {}
    names = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    own = self_times(start, end, np.frombuffer(tracer.parent, dtype=np.int64))
    op_of = np.array([name.split(":", 1)[0] for name in tracer.span_names])
    ops = op_of[names]
    stats: Dict[str, OpStats] = {}
    for op in sorted(set(ops.tolist())):
        mask = ops == op
        stats[op] = OpStats(
            calls=int(mask.sum()),
            self_s=float(own[mask].sum()) / 1e9,
            durations_ns=(end[mask] - start[mask]),
        )
    return stats


def name_counts(tracer: Tracer) -> Dict[str, int]:
    """Span count per full span name (``op:method``)."""
    counts = np.bincount(
        np.frombuffer(tracer.name, dtype=np.int32),
        minlength=len(tracer.span_names),
    )
    return {name: int(counts[i]) for i, name in enumerate(tracer.span_names)}
