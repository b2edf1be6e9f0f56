"""Failure-log filtration (the BG/L-prototype filtering pipeline).

The paper (Section 4.3) reduces a year of raw AIX event logs to 1,021
failures using techniques "similar to those used to filter BG/L failures":

1. keep only the highest-severity records (FATAL / FAILURE);
2. collapse *clusters of events that share a root cause* into one failure.

Root causes are not labelled in real logs, so step 2 is approximated the way
the BG/L filtering study does it: records on the same node within a
*temporal* threshold are one failure (restarted daemons, repeated machine
checks), and — optionally — records across nodes with the same message
template within a *spatial* threshold are one failure (fabric-wide events).

The synthetic raw logs produced by :mod:`repro.failures.generator` carry
hidden ground-truth ``root_cause`` labels, so filtering quality (how close
the recovered trace is to the truth) is measurable; see
:func:`evaluate_filtering`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.failures.events import FailureEvent, FailureTrace, RawEvent, Severity


@dataclass(frozen=True)
class FilterSpec:
    """Thresholds for the two-step filtration.

    Attributes:
        temporal_gap: Records on one node closer than this (seconds) share a
            root cause.  The BG/L study's canonical choice is a few minutes
            to an hour; default 20 min.
        spatial_gap: Records on *different* nodes with the same message
            template closer than this share a root cause; 0 disables
            cross-node merging.
        min_severity: Lowest severity retained by step 1.
    """

    temporal_gap: float = 1200.0
    spatial_gap: float = 60.0
    min_severity: Severity = Severity.FATAL


def filter_raw_log(
    records: Iterable[RawEvent],
    spec: Optional[FilterSpec] = None,
    name: str = "filtered",
) -> FailureTrace:
    """Reduce a raw event log to a failure trace.

    Args:
        records: Raw records in any order.
        spec: Filtration thresholds.
        name: Name for the resulting trace.

    Returns:
        A :class:`FailureTrace` with one event per inferred root cause; the
        event takes the time/node of the cluster's first critical record.
    """
    spec = spec if spec is not None else FilterSpec()
    critical = sorted(
        (r for r in records if r.severity >= spec.min_severity),
        key=lambda r: (r.time, r.node),
    )

    kept: List[RawEvent] = []
    last_on_node: Dict[int, float] = {}
    last_template: Dict[int, float] = {}
    for record in critical:
        prev_node_t = last_on_node.get(record.node)
        if prev_node_t is not None and record.time - prev_node_t < spec.temporal_gap:
            last_on_node[record.node] = record.time  # extend the cluster
            continue
        if spec.spatial_gap > 0:
            prev_tpl_t = last_template.get(record.message_id)
            if prev_tpl_t is not None and record.time - prev_tpl_t < spec.spatial_gap:
                last_template[record.message_id] = record.time
                last_on_node[record.node] = record.time
                continue
        kept.append(record)
        last_on_node[record.node] = record.time
        last_template[record.message_id] = record.time

    events = [
        FailureEvent(
            event_id=i + 1, time=r.time, node=r.node, subsystem=r.subsystem
        )
        for i, r in enumerate(kept)
    ]
    return FailureTrace(events, name=name)


@dataclass(frozen=True)
class FilteringQuality:
    """How well filtration recovered the ground-truth failures.

    Attributes:
        true_failures: Ground-truth root causes with >= 1 critical record.
        recovered: Failures emitted by the filter.
        matched: Recovered failures within ``tolerance`` of a distinct truth
            event on the same node.
        precision: matched / recovered (1.0 when recovered == 0).
        recall: matched / true_failures (1.0 when true_failures == 0).
    """

    true_failures: int
    recovered: int
    matched: int
    precision: float
    recall: float


def evaluate_filtering(
    truth: FailureTrace,
    recovered: FailureTrace,
    tolerance: float = 300.0,
) -> FilteringQuality:
    """Score a filtered trace against ground truth.

    Greedy one-to-one matching in time order: a recovered event matches the
    earliest unmatched truth event on the same node within ``tolerance``
    seconds.
    """
    unmatched: Dict[int, List[float]] = {}
    for event in truth:
        unmatched.setdefault(event.node, []).append(event.time)

    matched = 0
    for event in recovered:
        times = unmatched.get(event.node)
        if not times:
            continue
        best_idx, best_gap = -1, tolerance
        for idx, t in enumerate(times):
            gap = abs(t - event.time)
            if gap <= best_gap:
                best_idx, best_gap = idx, gap
        if best_idx >= 0:
            times.pop(best_idx)
            matched += 1

    true_count = len(truth)
    rec_count = len(recovered)
    return FilteringQuality(
        true_failures=true_count,
        recovered=rec_count,
        matched=matched,
        precision=matched / rec_count if rec_count else 1.0,
        recall=matched / true_count if true_count else 1.0,
    )
