"""Node-level reservation ledger (the scheduler's free-time profile).

Conservative backfilling — which is what a scheduler that *promises
deadlines at submission* must do — books a concrete ``(node set, start,
end)`` reservation for every job the moment it is negotiated.  The ledger
stores those bookings as node runs and answers the two
questions the scheduler and the negotiation loop ask:

* *"What is the earliest time at or after ``t`` at which ``n`` nodes are
  simultaneously free for ``d`` seconds, and which nodes?"*
  (:meth:`ReservationLedger.find_slot`) — candidate start times only need to
  be examined at ``t`` itself and at reservation end points, because free
  capacity changes nowhere else;
* *"Is this exact window still free on these nodes?"* for requeue placement.

Reservations are immutable once made except for two paper-sanctioned
adjustments: an early *release* when a job finishes ahead of its padded
estimate (skipped checkpoints), and an *extension* when a start is delayed
by a node still in its 120 s repair window.  Extensions may overlap a later
booking; the conflict resolves at start time (the runtime layer starts jobs
only when their nodes are actually free), mirroring how the paper's
scheduler never re-optimises the future schedule.

Performance model
-----------------
A job costs the ledger one free-set query, one :meth:`~ReservationLedger
.reserve`, one :meth:`~ReservationLedger.release` and sometimes an
:meth:`~ReservationLedger.extend`, so at paper scale it is bound by
mutations as much as by queries.  Each booking is therefore stored once
(see DESIGN.md "Performance" and "Scaling the substrate"):

* the booking store is one list of node runs ``(node_lo, node_hi, start,
  end, job_id)`` sorted by node interval; a mutation inserts or deletes
  one entry per run of the booking, by bisection;
* a free-set query is one pass over that list: the gaps between the
  runs that overlap the window in time are the free nodes, as a
  run-length :class:`~repro.cluster.nodeset.NodeSet`.  The cost is the
  live *run* count, never the cluster width, and the answer is memoised
  on ``(start, end, mutation version)`` so the overlap check in
  ``reserve`` right after the placement query is one subset query, a
  bisection of the free runs per booked run;
* the pass is skipped when every live booking is active at one instant
  of the window, an O(1) test against the latest live start and the
  earliest live end (the ledger keeps the start and end times as sorted
  multisets); the free set is then the nodes no booking holds.  The
  ledger keeps those as a run list that ``reserve`` cuts and ``release``
  merges back (dropping it when a node was held twice, rebuilding it on
  the next query that needs it), so on a wide cluster whose bookings all
  run now the query is a copy of the free runs;
* the aggregate usage *skyline* (:class:`CapacityProfile`) is stored as
  the level change at each breakpoint and edited in place by every
  mutation — two breakpoints, each one bisection and at most one list
  edit — so :meth:`~ReservationLedger.profile` is free, a window query
  is two bisections and a walk over the window's breakpoints from a kept
  prefix sum, and the prefilter passes a job that fits beside all live
  bookings together without a look at the skyline;
* :meth:`~ReservationLedger.find_slot` walks candidate start times lazily
  and stops at the first window with enough free nodes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.nodeset import NodeSet

class CapacityProfile:
    """Aggregate usage over time, for cheap infeasibility prefiltering.

    ``max_usage(start, end)`` bounds the nodes simultaneously booked in the
    window from *below* the true per-node constraint: a window can pass the
    capacity test yet still fail node-level availability (two nodes each
    busy for half the window leave zero nodes free *throughout* it), so a
    passing window must still be verified with
    :meth:`ReservationLedger.free_nodes` — but a failing window is failing
    for sure, and in deep-queue phases almost every candidate fails here,
    skipping the node-level sweep.

    The skyline is two parallel lists: ``times`` ascending, and
    ``deltas[i]``, the change in the booked node count at ``times[i]``
    (the count is zero before the first boundary and, since every
    booking adds its width at its start and takes it back at its end,
    the deltas sum to zero).  Only boundaries where the count changes are
    kept, so the lists are a canonical form of the usage function;
    :attr:`levels` is the count on each ``[times[i], times[i+1])``.
    ``booked`` is the summed width of the live bookings, which no instant
    can exceed.  :meth:`add` and :meth:`move_end` edit them in place, two
    breakpoints each; the ledger calls one of them on every mutation.  A
    query needs the count at its window, a prefix sum of the deltas: the
    profile keeps one, which edits below it adjust in O(1) and each query
    moves to its window.
    """

    def __init__(self, reservations: Sequence["Reservation"] = ()) -> None:
        deltas: Dict[float, int] = {}
        self.booked = 0
        for r in reservations:
            width = len(r.nodes)
            deltas[r.start] = deltas.get(r.start, 0) + width
            deltas[r.end] = deltas.get(r.end, 0) - width
            self.booked += width
        # A zero net delta (one booking ending where another of the same
        # width starts) changes no level, so it is no boundary.
        self.times: List[float] = [t for t in sorted(deltas) if deltas[t]]
        self.deltas: List[int] = [deltas[t] for t in self.times]
        # The kept prefix sum: _at_level is sum(deltas[:_at]), the booked
        # count just before times[_at] (0 when _at is 0 or len(times)).
        self._at = 0
        self._at_level = 0

    @property
    def levels(self) -> List[int]:
        """The booked node count on each ``[times[i], times[i+1])``."""
        return list(accumulate(self.deltas))

    def add(self, start: float, end: float, width: int) -> None:
        """Add a booking of ``width`` nodes over ``[start, end)`` (negative
        ``width`` removes one)."""
        self._step(start, width)
        self._step(end, -width)
        self.booked += width

    def move_end(self, end: float, new_end: float, width: int) -> None:
        """Move the end of a live ``width``-node booking from ``end`` to
        ``new_end``; the live width does not change."""
        self._step(end, width)
        self._step(new_end, -width)

    def _step(self, t: float, delta: int) -> None:
        """Change the booked count from ``t`` on by ``delta``: one
        bisection and at most one list edit."""
        times, deltas = self.times, self.deltas
        i = bisect.bisect_left(times, t)
        if i == len(times) or times[i] != t:
            times.insert(i, t)
            deltas.insert(i, delta)
            moved = 1
        elif deltas[i] + delta:
            deltas[i] += delta
            moved = 0
        else:
            del times[i], deltas[i]
            moved = -1
        if i < self._at:
            # An edit below the kept prefix sum shifts its boundary and
            # changes its level; one at or above it changes neither.
            self._at += moved
            self._at_level += delta

    def max_usage(self, start: float, end: float) -> int:
        """Maximum booked node count over ``[start, end)``."""
        # Segments from the one holding `start` (lo - 1; usage before the
        # first boundary is 0) to the last one starting before `end`
        # (hi - 1), walked last first from the kept prefix sum, moved to
        # hi.  The move is inlined here and in blocked_until: both are
        # hot, and successive queries move it a few deltas or none.
        times, deltas = self.times, self.deltas
        hi = bisect.bisect_left(times, end)
        lo = bisect.bisect_right(times, start, 0, hi)
        at, level = self._at, self._at_level
        if hi != at:
            level += sum(deltas[at:hi]) if hi > at else -sum(deltas[hi:at])
            self._at, self._at_level = hi, level
        most = level
        for i in range(hi - 1, lo - 1, -1):
            level -= deltas[i]
            if level > most:
                most = level
        return most

    def blocked_until(self, start: float, end: float, most_busy: int) -> float:
        """End of the last segment in ``[start, end)`` with more than
        ``most_busy`` nodes booked, or ``start`` when there is none.

        ``max_usage(start, end) > most_busy`` exactly when the result is
        past ``start``, and then every window that starts before the
        result and ends at or after ``end`` meets that segment too.  A
        negative ``most_busy`` (more nodes wanted than exist) blocks every
        window: the result is infinite.  No instant books more than the
        live bookings' summed width, so when that fits the answer is
        ``start`` without a look at the skyline.
        """
        if most_busy < 0:
            return math.inf
        if self.booked <= most_busy:
            return start
        # Same segments as max_usage, last first; segment i - 1 ends at
        # times[i] (an over-full one is never the last, whose level is 0).
        times, deltas = self.times, self.deltas
        hi = bisect.bisect_left(times, end)
        lo = bisect.bisect_right(times, start, 0, hi)
        at, level = self._at, self._at_level
        if hi != at:
            level += sum(deltas[at:hi]) if hi > at else -sum(deltas[hi:at])
            self._at, self._at_level = hi, level
        i = hi
        while level <= most_busy:
            if i == lo:
                return start
            i -= 1
            level -= deltas[i]
        return times[i]

    def window_fits(self, start: float, end: float, free_needed: int, total: int) -> bool:
        """Capacity prefilter: can ``free_needed`` nodes possibly be free?"""
        return total - self.max_usage(start, end) >= free_needed


@dataclass
class Reservation:
    """A booked slot: ``job_id`` holds ``nodes`` during ``[start, end)``.

    ``nodes`` is a run-length :class:`NodeSet` (the ledger normalises any
    other iterable when it books one); it compares equal to the sorted
    tuple of its members.  One is built per booking and per change to
    one, so it is slotted.
    """

    __slots__ = ("job_id", "nodes", "start", "end")

    job_id: int
    nodes: NodeSet
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class ReservationLedger:
    """Node-run book-keeping over a fixed-width cluster.

    Args:
        node_count: Cluster width N; node indexes are ``0..N-1``.

    The ledger counts its probe volume, prefilter effectiveness and
    mutations; :meth:`counters` and :meth:`gauges` report them under
    ``cluster.ledger.*`` (see DESIGN.md "Observability").
    """

    def __init__(self, node_count: int) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self._n = node_count
        self._full = NodeSet.full(node_count)
        # The one booking store: every live booking's node runs, sorted by
        # node interval, as (node_lo, node_hi, start, end, job_id).
        self._busy_runs: List[Tuple[int, int, float, float, int]] = []
        self._by_job: Dict[int, Reservation] = {}
        # Sorted multisets of reservation end times (candidate start
        # points) and start times.
        self._end_times: List[float] = []
        self._start_times: List[float] = []
        # Aggregate usage skyline and live booked width, edited in place
        # by every mutation.
        self._profile = CapacityProfile()
        # Every mutation bumps _version, and nothing else: the sorted
        # reservation view and the free-set memo each record the version
        # they were built at.
        self._version = 0
        self._sorted: List[Reservation] = []
        self._sorted_version = 0
        self._sweep_key: Optional[Tuple[float, float, int]] = None
        self._sweep_free = self._full
        # The nodes no live booking holds at any time, as (lo, hi) runs
        # with their node count.  The run list is None while not kept
        # (after a release that a node held twice made inexact); the next
        # query that needs it rebuilds.
        self._unheld: Optional[List[Tuple[int, int]]] = [(0, node_count)]
        self._unheld_size = node_count
        # find_slot tallies; _version doubles as the mutation count.
        self._find_slot_calls = 0
        self._probes = 0
        self._prefilter_rejects = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return self._n

    def __len__(self) -> int:
        return len(self._by_job)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._by_job

    def counters(self) -> Dict[str, int]:
        """``cluster.ledger.*`` totals: slot searches, the candidate start
        times they probed and prefiltered, and mutations."""
        return {
            "cluster.ledger.find_slot_calls": self._find_slot_calls,
            "cluster.ledger.probes": self._probes,
            "cluster.ledger.prefilter_rejects": self._prefilter_rejects,
            "cluster.ledger.mutations": self._version,
        }

    def gauges(self) -> Dict[str, float]:
        """Live bookings and skyline breakpoints."""
        return {
            "cluster.ledger.reservations": float(len(self._by_job)),
            "cluster.ledger.skyline_size": float(len(self._profile.times)),
        }

    def get(self, job_id: int) -> Optional[Reservation]:
        """The reservation for ``job_id``, or None."""
        return self._by_job.get(job_id)

    def reservations(self) -> List[Reservation]:
        """All live reservations, sorted by start time.

        The sorted view is cached between mutations; callers receive a
        fresh copy they may mutate freely.
        """
        if self._sorted_version != self._version:
            self._sorted = sorted(
                self._by_job.values(), key=lambda r: (r.start, r.job_id)
            )
            self._sorted_version = self._version
        return list(self._sorted)

    def profile(self) -> CapacityProfile:
        """The live capacity profile.

        The same object for the ledger's whole life, edited in place by
        every mutation: read it, do not hold it across a mutation.
        """
        return self._profile

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(
        self,
        job_id: int,
        nodes: Iterable[int],
        start: float,
        end: float,
        allow_overlap: bool = False,
    ) -> Reservation:
        """Book ``nodes`` for ``job_id`` over ``[start, end)``.

        A :class:`NodeSet` argument is booked as it is — the hot path for
        placements coming straight out of :meth:`find_slot`.  Any other
        iterable is normalised into one first.

        Args:
            allow_overlap: Skip the free-window validation.  Only for
                *restoring* a previously held booking that may legally
                overlap another job's :meth:`extend`-ed interval; overlaps
                resolve at start time in the runtime layer.

        Raises:
            ValueError: On overlap with an existing booking (unless
                ``allow_overlap``), a duplicate job id, an out-of-range
                node, or a degenerate window.
        """
        node_set = nodes if isinstance(nodes, NodeSet) else NodeSet.from_iterable(nodes)
        runs = node_set.runs
        if not runs:
            raise ValueError(f"job {job_id}: empty node set")
        if end <= start:
            raise ValueError(f"job {job_id}: end {end} <= start {start}")
        if job_id in self._by_job:
            raise ValueError(f"job {job_id} already has a reservation")
        # Ascending runs: bounds-checking the extremes covers every node.
        if runs[0][0] < 0 or runs[-1][1] > self._n:
            self._check_node(runs[0][0])
            self._check_node(runs[-1][1] - 1)
        if not allow_overlap and self._end_times and start < self._end_times[-1]:
            # Usually the window the placement was just chosen in, so the
            # free set is memoised and this is one subset query.
            clash = node_set.lowest_outside(self.free_nodes_set(start, end))
            if clash is not None:
                raise ValueError(
                    f"job {job_id}: node {clash} not free over [{start}, {end})"
                )
        reservation = Reservation(job_id, node_set, start, end)
        self._by_job[job_id] = reservation
        width = 0
        for lo, hi in runs:
            bisect.insort(self._busy_runs, (lo, hi, start, end, job_id))
            width += hi - lo
        bisect.insort(self._end_times, end)
        bisect.insort(self._start_times, start)
        self._profile.add(start, end, width)
        if self._unheld is not None:
            self._unheld_size -= self._hold(self._unheld, runs)
        self._version += 1
        return reservation

    def release(self, job_id: int) -> Reservation:
        """Drop a job's booking entirely (finish, kill, or cancellation)."""
        reservation = self._by_job.pop(job_id, None)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        width = self._remove_runs(reservation)
        self._remove_time(self._end_times, reservation.end)
        self._remove_time(self._start_times, reservation.start)
        if self._unheld is not None:
            # The booked width counts each held node once per booking
            # holding it, and n - unheld_size counts it once: they agree
            # exactly when no node is held twice, and only then is the
            # release exact.
            if self._profile.booked + self._unheld_size == self._n:
                self._unhold(self._unheld, reservation.nodes.runs)
                self._unheld_size += width
            else:
                self._unheld = None
        self._profile.add(reservation.start, reservation.end, -width)
        self._version += 1
        return reservation

    def truncate(self, job_id: int, new_end: float) -> Reservation:
        """Shrink a booking's end (job finished earlier than estimated).

        The freed tail becomes available to subsequent ``find_slot`` calls —
        this is where skipped checkpoints buy the system schedule slack.
        """
        reservation = self._by_job.get(job_id)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        if new_end >= reservation.end:
            return reservation
        if new_end <= reservation.start:
            raise ValueError(
                f"job {job_id}: truncation to {new_end} precedes start "
                f"{reservation.start}"
            )
        return self._resize(reservation, new_end)

    def extend(self, job_id: int, new_end: float) -> Reservation:
        """Grow a booking's end (start delayed by repair, overrun).

        Unlike :meth:`reserve`, overlap with later bookings is tolerated;
        the runtime layer serialises conflicting starts on actual node
        availability.
        """
        reservation = self._by_job.get(job_id)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        if new_end <= reservation.end:
            return reservation
        return self._resize(reservation, new_end)

    def _resize(self, reservation: Reservation, new_end: float) -> Reservation:
        """Shared tail of truncate/extend: move ``end`` to ``new_end``."""
        job_id, start, end = reservation.job_id, reservation.start, reservation.end
        width = self._remove_runs(reservation)
        for lo, hi in reservation.nodes.runs:
            bisect.insort(self._busy_runs, (lo, hi, start, new_end, job_id))
        self._remove_time(self._end_times, end)
        bisect.insort(self._end_times, new_end)
        self._profile.move_end(end, new_end, width)
        self._version += 1
        updated = Reservation(job_id, reservation.nodes, start, new_end)
        self._by_job[job_id] = updated
        return updated

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_free(self, node: int, start: float, end: float) -> bool:
        """True if ``node`` has no booking overlapping ``[start, end)``."""
        self._check_node(node)
        return not any(
            lo <= node < hi and r_start < end and r_end > start
            for lo, hi, r_start, r_end, _job in self._busy_runs
        )

    def free_nodes_set(self, start: float, end: float) -> NodeSet:
        """All nodes free throughout ``[start, end)``, as a run-length set.

        A window past the last booking end, or one the skyline shows as
        entirely unbooked, is free on every node; a window in which every
        live booking is active at one instant is answered from the unheld
        set; otherwise the answer is the complement of the runs that
        overlap the window in time.

        Memoised on ``(start, end, version)``: the validation in
        :meth:`reserve` usually asks for the window the placement query
        just answered, and any mutation in between bumps the version; the
        early-outs are memoised too, so that check never sweeps a window
        the placement query did not.
        """
        key = (start, end, self._version)
        if key != self._sweep_key:
            if not self._end_times or start >= self._end_times[-1]:
                free = self._full
            elif self._all_active(start, end):
                # The free nodes are the unheld ones.
                if self._unheld is None:
                    rebuilt = self._free_sweep(-math.inf, math.inf)
                    self._unheld = list(rebuilt.runs)
                    self._unheld_size = len(rebuilt)
                free = NodeSet.from_runs(self._unheld, self._unheld_size)
            elif self._profile.max_usage(start, end) == 0:
                free = self._full
            else:
                free = self._free_sweep(start, end)
            self._sweep_key, self._sweep_free = key, free
        return self._sweep_free

    def free_nodes(self, start: float, end: float) -> List[int]:
        """All nodes free throughout ``[start, end)``, ascending (legacy
        list form of :meth:`free_nodes_set`)."""
        return self.free_nodes_set(start, end).to_list()

    def candidate_times(self, earliest: float, limit: Optional[int] = None) -> List[float]:
        """Start times worth probing: ``earliest`` plus booking end points.

        Free capacity is piecewise-constant between these points, so the
        earliest feasible slot always begins at one of them.
        """
        return list(islice(self.iter_candidate_times(earliest), limit))

    def iter_candidate_times(self, earliest: float) -> Iterator[float]:
        """Lazy :meth:`candidate_times`: same values, no list materialised.

        Callers usually stop within the first few candidates.  Yields from
        a snapshot of the end-time array, so the iterator stays valid even
        if the ledger is mutated mid-iteration (callers still see the
        candidates of the ledger as it was when iteration started).
        """
        yield earliest
        idx = bisect.bisect_right(self._end_times, earliest)
        last = earliest
        for t in self._end_times[idx:]:
            if t > last:
                yield t
                last = t

    def find_slot(
        self, size: int, duration: float, earliest: float
    ) -> Tuple[float, NodeSet]:
        """Earliest start >= ``earliest`` with ``size`` nodes free for
        ``duration``, and the ``size`` lowest-indexed free nodes there
        (first-fit; scored placement is :meth:`Topology.select_partition`'s
        job).

        Args:
            size: Nodes required.
            duration: Window length in seconds.

        Returns:
            ``(start, nodes)`` — ``nodes`` is a run-length
            :class:`NodeSet`; it iterates ascending and compares equal to
            the legacy list.

        Raises:
            ValueError: If ``size`` exceeds the cluster width (can never be
                satisfied) or ``duration`` is non-positive.
        """
        if size > self._n:
            raise ValueError(f"requested {size} nodes on a {self._n}-node cluster")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")

        probes = rejects = 0
        blocked_until = self.profile().blocked_until
        most_busy = self._n - size
        blocked = earliest
        for start in self.iter_candidate_times(earliest):
            probes += 1
            if start < blocked:
                rejects += 1
                continue
            blocked = blocked_until(start, start + duration, most_busy)
            if blocked > start:
                rejects += 1
                continue
            free = self.free_nodes_set(start, start + duration)
            if len(free) >= size:
                self._find_slot_calls += 1
                self._probes += probes
                self._prefilter_rejects += rejects
                return start, free[:size]
        # Unreachable: the window after the last booking end is always free.
        raise RuntimeError("no feasible slot found past the final booking")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _all_active(self, start: float, end: float) -> bool:
        """Whether every live booking (there must be one) is active at one
        instant of ``[start, end)``: after the last start and before the
        first end.  The skyline's maximum over the window is then the
        booked width."""
        return max(start, self._start_times[-1]) < min(end, self._end_times[0])

    def _free_sweep(self, start: float, end: float) -> NodeSet:
        """Nodes free throughout ``[start, end)``: one pass over the
        node-sorted runs keeping a busy high-water mark; every gap below
        the next run that overlaps the window in time is free.
        """
        free: List[Tuple[int, int]] = []
        cursor = 0  # lowest node not yet known busy
        for lo, hi, r_start, r_end, _job in self._busy_runs:
            # A run ending at or below the cursor adds no gap and no reach.
            if r_start < end and r_end > start and hi > cursor:
                if lo > cursor:
                    free.append((cursor, lo))
                cursor = hi
        if cursor < self._n:
            free.append((cursor, self._n))
        return NodeSet.from_runs(free)

    @staticmethod
    def _hold(
        unheld: List[Tuple[int, int]], runs: Sequence[Tuple[int, int]]
    ) -> int:
        """Remove ``runs`` from the run list ``unheld``, whatever their
        overlap; returns the number of nodes removed."""
        removed = 0
        for lo, hi in runs:
            # i: first unheld run ending past lo; j: first starting at or
            # past hi.  The runs in [i, j) overlap [lo, hi).
            i = bisect.bisect_left(unheld, (lo, lo))
            if i and unheld[i - 1][1] > lo:
                i -= 1
            j = bisect.bisect_left(unheld, (hi, hi), i)
            if j - i == 1:
                a, b = unheld[i]
                removed += (b if b < hi else hi) - (a if a > lo else lo)
                if a < lo:
                    unheld[i] = (a, lo)
                    if b > hi:
                        unheld.insert(i + 1, (hi, b))
                elif b > hi:
                    unheld[i] = (hi, b)
                else:
                    del unheld[i]
            elif j > i:
                a, b = unheld[i][0], unheld[j - 1][1]
                for x, y in unheld[i:j]:
                    removed += (y if y < hi else hi) - (x if x > lo else lo)
                pieces = []
                if a < lo:
                    pieces.append((a, lo))
                if b > hi:
                    pieces.append((hi, b))
                unheld[i:j] = pieces
        return removed

    @staticmethod
    def _unhold(
        unheld: List[Tuple[int, int]], runs: Sequence[Tuple[int, int]]
    ) -> None:
        """Merge ``runs``, disjoint from the run list ``unheld``, into it."""
        for lo, hi in runs:
            i = bisect.bisect_left(unheld, (lo, lo))
            left = i > 0 and unheld[i - 1][1] == lo
            right = i < len(unheld) and unheld[i][0] == hi
            if left and right:
                unheld[i - 1] = (unheld[i - 1][0], unheld[i][1])
                del unheld[i]
            elif left:
                unheld[i - 1] = (unheld[i - 1][0], hi)
            elif right:
                unheld[i] = (lo, unheld[i][1])
            else:
                unheld.insert(i, (lo, hi))

    def _remove_runs(self, reservation: Reservation) -> int:
        """Delete a booking's entries, one per node run, from
        ``_busy_runs``; returns the booking's width."""
        busy_runs = self._busy_runs
        start, end, job_id = reservation.start, reservation.end, reservation.job_id
        width = 0
        for lo, hi in reservation.nodes.runs:
            del busy_runs[bisect.bisect_left(busy_runs, (lo, hi, start, end, job_id))]
            width += hi - lo
        return width

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range [0, {self._n})")

    @staticmethod
    def _remove_time(times: List[float], t: float) -> None:
        """Delete one ``t`` from the sorted multiset ``times``.

        Raises:
            RuntimeError: If ``t`` is missing, which means the ledger's
                bookkeeping is corrupt.
        """
        idx = bisect.bisect_left(times, t)
        if idx == len(times) or times[idx] != t:
            raise RuntimeError(f"ledger bookkeeping corrupt: no time {t} to remove")
        del times[idx]
