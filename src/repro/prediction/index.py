"""Interval index over a trace predictor's detectable failures.

The negotiation fast path (see :mod:`repro.core.fastpath`) needs three
queries answered many times per dialogue, each over a different window:

* the detectability ``p_x`` of the *first* detectable failure on a node
  set — exactly :meth:`~repro.prediction.trace.TracePredictor
  .failure_probability`, the paper's retrieval semantics;
* which nodes carry a detectable failure in the window, and each one's
  first ``p_x`` (the fault-aware placement ranking);
* a sound upper bound on the promise *any* partition of a given size
  could earn in a window (the candidate-pruning bound).

The trace predictor answers the first by materialising every failure in
the window and scanning it (``in_window`` allocates a merged, sorted list
per query).  This index pre-filters the trace once — keeping only
failures the predictor can actually see (``p_x <= a``) — and stores them
twice, both sorted by ``(time, event_id)``: per failing node as parallel
``(time, event_id, p_x)`` arrays, and as one global array.  A node query
is one ``bisect`` on the node's arrays; a window query
(:meth:`FailureIntervalIndex.window_firsts`) is one ``bisect`` on the
global array plus a walk over the failures inside the window.  Results are
*bit-identical* to the predictor's, because the ``(time, event_id)``
order is exactly the tie-break :meth:`~repro.failures.events.FailureTrace
.in_window` applies.

Undetectable failures (``p_x > a``) are excluded at build time: the
predictor cannot see them, so they can never influence a query result.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.nodeset import NodeSet
from repro.failures.events import FailureTrace
from repro.prediction.base import PredictedFailure


class FailureIntervalIndex:
    """Sorted detectable-failure arrays with O(log f) lookups.

    Args:
        trace: The failure trace the predictor replays.
        detectability: Static ``p_x`` per ``event_id`` (the trace
            predictor's assignment; sharing it keeps results bit-identical
            across the probe and analytical paths).
        accuracy: The predictor's accuracy ``a``; failures with
            ``p_x > a`` are invisible and therefore not indexed.
    """

    def __init__(
        self,
        trace: FailureTrace,
        detectability: Mapping[int, float],
        accuracy: float,
    ) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self._accuracy = float(accuracy)
        times: Dict[int, List[float]] = {}
        event_ids: Dict[int, List[int]] = {}
        px: Dict[int, List[float]] = {}
        # The trace iterates in its global (time, event_id) sort, so both
        # the global and the per-node arrays inherit exactly the in_window
        # scan order.
        all_times: List[float] = []
        all_rows: List[Tuple[int, Tuple[float, int, float]]] = []
        for event in trace:
            value = detectability[event.event_id]
            if value <= self._accuracy:
                times.setdefault(event.node, []).append(event.time)
                event_ids.setdefault(event.node, []).append(event.event_id)
                px.setdefault(event.node, []).append(value)
                all_times.append(event.time)
                all_rows.append((event.node, (event.time, event.event_id, value)))
        self._times = times
        self._event_ids = event_ids
        self._px = px
        self._all_times = all_times
        #: ``(node, (time, event_id, p_x))`` per detectable failure, in
        #: ``(time, event_id)`` order, parallel to ``_all_times``.
        self._all_rows = all_rows
        #: Nodes carrying at least one detectable failure, ascending; every
        #: other node is clean in every window and never needs scanning.
        self._failing_nodes: List[int] = sorted(times)
        # The last window query and its answer (see window_firsts).
        self._window: Tuple[float, float] = (0.0, 0.0)
        self._firsts: Dict[int, Tuple[float, int, float]] = {}

    @property
    def accuracy(self) -> float:
        """The accuracy the index was filtered at."""
        return self._accuracy

    @property
    def detectable_count(self) -> int:
        """Total detectable failures indexed."""
        return sum(len(ts) for ts in self._times.values())

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def _query_order(self, nodes: Iterable[int]) -> Iterable[int]:
        """The cheaper side to iterate for a per-node scan over ``nodes``.

        Only nodes carrying detectable failures can contribute to any
        query, so a run-length :class:`NodeSet` is scanned as ``failing ∩
        nodes``, one slice of the sorted failing-node list per run — on a
        100k-node partition with a handful of dirty nodes that is a few
        bisections instead of 100k dict probes.  Both orders are ascending
        restrictions of the same set, so results are unchanged.
        """
        if isinstance(nodes, NodeSet):
            failing = self._failing_nodes
            members: List[int] = []
            for lo, hi in nodes.runs:
                members += failing[
                    bisect.bisect_left(failing, lo) : bisect.bisect_left(failing, hi)
                ]
            return members
        return nodes

    def _node_first(
        self, node: int, start: float, end: float
    ) -> Optional[Tuple[float, int, float]]:
        """``(time, event_id, p_x)`` of ``node``'s first detectable failure
        in ``[start, end)``, or None if the node is clean there."""
        times = self._times.get(node)
        if not times:
            return None
        lo = bisect.bisect_left(times, start)
        if lo == len(times) or times[lo] >= end:
            return None
        return times[lo], self._event_ids[node][lo], self._px[node][lo]

    def node_term(self, node: int, start: float, end: float) -> float:
        """``p_x`` of the node's first detectable failure in the window, or 0.

        Bit-identical to ``TracePredictor.node_failure_probability``.
        """
        if end <= start:
            return 0.0
        first = self._node_first(node, start, end)
        return first[2] if first is not None else 0.0

    def first_detectable(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[Tuple[float, int, float, int]]:
        """``(time, event_id, p_x, node)`` of the set's earliest detectable
        failure in ``[start, end)``, minimised by ``(time, event_id)``.

        ``(time, event_id)`` keys are unique across nodes, so the minimum
        is independent of iteration order — which licenses the big-cluster
        fast path: a wide run-length :class:`NodeSet` is intersected with
        the (usually far shorter) failing-node list instead of being walked
        member by member.
        """
        if end <= start:
            return None
        candidates = self._query_order(nodes)
        best: Optional[Tuple[float, int, float, int]] = None
        for node in candidates:
            first = self._node_first(node, start, end)
            if first is None:
                continue
            candidate = (first[0], first[1], first[2], node)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        return best

    def failure_probability(
        self, nodes: Iterable[int], start: float, end: float
    ) -> float:
        """``p_x`` of the first detectable failure on the set, or 0.

        Bit-identical to ``TracePredictor.failure_probability`` — same
        events, same ``(time, event_id)`` tie-break, same float.  A
        :class:`NodeSet` priced in the memoised window (the one placement
        just ranked) is answered from :meth:`window_firsts`: the map lists
        each dirty node's first failure in ``(time, event_id)`` order, so
        the first entry on the set is the set's first failure.
        """
        if isinstance(nodes, NodeSet) and (start, end) == self._window:
            if not self._firsts:
                return 0.0
            # Membership by bisection on a local list of run starts, so
            # the partition (which a booking keeps) caches nothing.
            runs = nodes.runs
            starts = [run[0] for run in runs]
            for node, first in self._firsts.items():
                i = bisect.bisect_right(starts, node)
                if i and node < runs[i - 1][1]:
                    return first[2]
            return 0.0
        first = self.first_detectable(nodes, start, end)
        return first[2] if first is not None else 0.0

    def first_predicted(
        self, nodes: Iterable[int], start: float, end: float
    ) -> Optional[PredictedFailure]:
        """The set's earliest detectable failure as a
        :class:`PredictedFailure` (the negotiation jump target)."""
        first = self.first_detectable(nodes, start, end)
        if first is None:
            return None
        return PredictedFailure(time=first[0], node=first[3], probability=first[2])

    def predicted_failures(
        self, nodes: Iterable[int], start: float, end: float
    ) -> List[PredictedFailure]:
        """All detectable failures on the set in the window, time-sorted
        (``TracePredictor.predicted_failures`` semantics)."""
        if end <= start:
            return []
        if isinstance(nodes, NodeSet):
            ordered: Iterable[int] = self._query_order(nodes)
        else:
            ordered = sorted(set(nodes))
        hits: List[Tuple[float, int, float, int]] = []
        for node in ordered:
            times = self._times.get(node)
            if not times:
                continue
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_left(times, end)
            for i in range(lo, hi):
                hits.append(
                    (times[i], self._event_ids[node][i], self._px[node][i], node)
                )
        hits.sort(key=lambda h: (h[0], h[1]))
        return [
            PredictedFailure(time=t, node=n, probability=p)
            for t, _, p, n in hits
        ]

    # ------------------------------------------------------------------
    # Window query
    # ------------------------------------------------------------------
    def window_firsts(
        self, start: float, end: float
    ) -> Dict[int, Tuple[float, int, float]]:
        """Every node with a detectable failure in ``[start, end)``, mapped
        to its first one there as ``(time, event_id, p_x)``.

        The map iterates in ``(time, event_id)`` order of those first
        failures: one bisection of the global array, then a walk over the
        failures inside the window that stops once every failing node is
        seen.  Nodes absent from the map are clean in the window.

        One dialogue asks about the same window several times in a row
        (the pruning bound, placement, pricing), so the last answer is
        memoised; the index is immutable, so the memo never goes stale.
        Callers must not mutate the returned map.
        """
        if (start, end) == self._window:
            return self._firsts
        firsts: Dict[int, Tuple[float, int, float]] = {}
        if start < end:
            times = self._all_times
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_left(times, end, lo)
            failing = len(self._failing_nodes)
            for node, first in self._all_rows[lo:hi]:
                if node not in firsts:
                    firsts[node] = first
                    if len(firsts) == failing:
                        break
        self._window = (start, end)
        self._firsts = firsts
        return firsts

    # ------------------------------------------------------------------
    # Pruning bound
    # ------------------------------------------------------------------
    def best_case_probability(
        self, size: int, start: float, end: float, node_count: int
    ) -> float:
        """Sound upper bound on the promise any ``size``-node partition can
        earn in ``[start, end)``.

        Derivation (see DESIGN.md "Analytical negotiation fast path"): the
        set-level ``p_f`` is the ``p_x`` of the partition's earliest
        detectable failure, which is always some member node's *first*
        in-window failure.  With ``k`` dirty nodes (first failure at
        ``t_1 <= ... <= t_k``, detectabilities ``x_1..x_k``) and ``c``
        clean nodes:

        * ``c >= size`` — an all-clean partition exists, best ``p = 1``;
        * otherwise every partition must contain ``m = size - c`` dirty
          nodes, and its earliest-failing member can only be one of the
          first ``k - m + 1`` dirty nodes in time order (later ones cannot
          lead a set that needs ``m`` dirty members), so the best promise
          is ``1 - min(x_1..x_{k-m+1})``.

        Any achievable offer probability is ``<=`` this bound, for every
        topology (supersets of ``size`` only add failures).  The dirty
        nodes, in time order, are exactly :meth:`window_firsts`.
        """
        if end <= start:
            return 1.0
        dirty = self.window_firsts(start, end)
        deficit = size - (node_count - len(dirty))
        if deficit <= 0:
            return 1.0
        if deficit > len(dirty):
            # size exceeds the cluster: no partition exists at all.  Do not
            # prune — the probe path reports infeasibility naturally.
            return 1.0
        reachable = itertools.islice(dirty.values(), len(dirty) - deficit + 1)
        return 1.0 - min(first[2] for first in reachable)
