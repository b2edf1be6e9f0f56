"""Frozen seed implementation of the reservation ledger.

This module preserves the original (pre-optimisation) ledger verbatim:
every query rebuilds its answer from scratch — ``reservations()`` re-sorts
the live bookings, ``node_free`` scans every predecessor interval, and
``find_slot``/``profile`` reconstruct a full :class:`CapacityProfile` per
call.  It is the reference for equivalence testing and must not be
"improved": the optimised
:class:`~repro.cluster.reservations.ReservationLedger` must return
byte-identical ``find_slot`` results and identical ``max_usage`` values
under any mutation sequence, and identical negotiation outcomes (see
``tests/cluster/test_profile_equivalence.py``).

The two additions over the seed are :meth:`SeedReservationLedger.profile`
and :meth:`SeedReservationLedger.iter_candidate_times`, which reproduce
exactly what the seed *call sites* did (build a fresh ``CapacityProfile``
from a fresh sort; walk a freshly built candidate list) so the negotiation
and scheduling layers can run unmodified on top of either ledger.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.reservations import CapacityProfile, Reservation

#: The seed's per-node scoring callback: (node, start, end) -> sort key.
NodeScorer = Callable[[int, float, float], float]


class SeedReservationLedger:
    """The seed ledger: correct, simple, and O(n log n) per query."""

    def __init__(self, node_count: int) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self._n = node_count
        # Per-node parallel arrays of (start, end, job_id), sorted by start.
        self._starts: List[List[float]] = [[] for _ in range(node_count)]
        self._ends: List[List[float]] = [[] for _ in range(node_count)]
        self._jobs: List[List[int]] = [[] for _ in range(node_count)]
        self._by_job: Dict[int, Reservation] = {}
        # Sorted multiset of reservation end times (candidate start points).
        self._end_times: List[float] = []

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

    # The seed ledger predates the obs counters: it reports none, so a
    # simulation can still run on it in place of the current ledger.
    def counters(self) -> Dict[str, int]:
        return {}

    def gauges(self) -> Dict[str, float]:
        return {}

    def get(self, job_id: int) -> Optional[Reservation]:
        return self._by_job.get(job_id)

    def reservations(self) -> List[Reservation]:
        """All live reservations, sorted by start time (fresh sort)."""
        return sorted(self._by_job.values(), key=lambda r: (r.start, r.job_id))

    def profile(self) -> CapacityProfile:
        """A from-scratch capacity profile (what the seed call sites built)."""
        return CapacityProfile(self.reservations())

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
        node_tuple = tuple(sorted(set(nodes)))
        if not node_tuple:
            raise ValueError(f"job {job_id}: empty node set")
        if end <= start:
            raise ValueError(f"job {job_id}: end {end} <= start {start}")
        if job_id in self._by_job:
            raise ValueError(f"job {job_id} already has a reservation")
        for node in node_tuple:
            self._check_node(node)
            if not allow_overlap and not self.node_free(node, start, end):
                raise ValueError(
                    f"job {job_id}: node {node} not free over [{start}, {end})"
                )
        for node in node_tuple:
            idx = bisect.bisect_left(self._starts[node], start)
            self._starts[node].insert(idx, start)
            self._ends[node].insert(idx, end)
            self._jobs[node].insert(idx, job_id)
        reservation = Reservation(job_id=job_id, nodes=node_tuple, start=start, end=end)
        self._by_job[job_id] = reservation
        bisect.insort(self._end_times, end)
        return reservation

    def release(self, job_id: int) -> Reservation:
        reservation = self._by_job.pop(job_id, None)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        for node in reservation.nodes:
            idx = self._find_entry(node, job_id)
            del self._starts[node][idx]
            del self._ends[node][idx]
            del self._jobs[node][idx]
        self._remove_end_time(reservation.end)
        return reservation

    def truncate(self, job_id: int, new_end: float) -> Reservation:
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
        for node in reservation.nodes:
            idx = self._find_entry(node, job_id)
            self._ends[node][idx] = new_end
        self._remove_end_time(reservation.end)
        bisect.insort(self._end_times, new_end)
        updated = Reservation(job_id, reservation.nodes, reservation.start, new_end)
        self._by_job[job_id] = updated
        return updated

    def extend(self, job_id: int, new_end: float) -> Reservation:
        reservation = self._by_job.get(job_id)
        if reservation is None:
            raise KeyError(f"job {job_id} has no reservation")
        if new_end <= reservation.end:
            return reservation
        for node in reservation.nodes:
            idx = self._find_entry(node, job_id)
            self._ends[node][idx] = new_end
        self._remove_end_time(reservation.end)
        bisect.insort(self._end_times, new_end)
        updated = Reservation(job_id, reservation.nodes, reservation.start, new_end)
        self._by_job[job_id] = updated
        return updated

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_free(self, node: int, start: float, end: float) -> bool:
        """Seed semantics: scan every predecessor interval's end."""
        self._check_node(node)
        starts = self._starts[node]
        ends = self._ends[node]
        idx = bisect.bisect_left(starts, end)
        for k in range(idx - 1, -1, -1):
            if ends[k] > start:
                return False
        return True

    def free_nodes(self, start: float, end: float) -> List[int]:
        return [n for n in range(self._n) if self.node_free(n, start, end)]

    def busy_jobs_at(self, time: float) -> List[int]:
        return sorted(
            r.job_id
            for r in self._by_job.values()
            if r.start <= time < r.end
        )

    def candidate_times(self, earliest: float, limit: Optional[int] = None) -> List[float]:
        idx = bisect.bisect_right(self._end_times, earliest)
        tail = self._end_times[idx:]
        times = [earliest]
        last = earliest
        for t in tail:
            if t > last:
                times.append(t)
                last = t
        if limit is not None:
            times = times[:limit]
        return times

    def iter_candidate_times(self, earliest: float) -> Iterator[float]:
        """What the seed call sites walked: the full candidate list."""
        return iter(self.candidate_times(earliest))

    def find_slot(
        self,
        size: int,
        duration: float,
        earliest: float,
        scorer: Optional[NodeScorer] = None,
    ) -> Tuple[float, List[int]]:
        """Seed semantics: rebuild the capacity profile from a full sort."""
        if size > self._n:
            raise ValueError(f"requested {size} nodes on a {self._n}-node cluster")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")

        profile = CapacityProfile(self.reservations())
        for start in self.candidate_times(earliest):
            if not profile.window_fits(start, start + duration, size, self._n):
                continue
            free = self.free_nodes(start, start + duration)
            if len(free) >= size:
                chosen = self._select(free, size, start, start + duration, scorer)
                return start, chosen
        raise RuntimeError("no feasible slot found past the final booking")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _select(
        self,
        free: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[NodeScorer],
    ) -> List[int]:
        if scorer is None:
            return list(free[:size])
        scored = sorted(free, key=lambda n: (scorer(n, start, end), n))
        return sorted(scored[:size])

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range [0, {self._n})")

    def _find_entry(self, node: int, job_id: int) -> int:
        """Seed semantics: linear scan for the job's interval."""
        for idx, jid in enumerate(self._jobs[node]):
            if jid == job_id:
                return idx
        raise KeyError(f"job {job_id} has no interval on node {node}")

    def _remove_end_time(self, end: float) -> None:
        idx = bisect.bisect_left(self._end_times, end)
        if idx < len(self._end_times) and self._end_times[idx] == end:
            del self._end_times[idx]
