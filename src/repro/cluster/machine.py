"""The simulated cluster: N homogeneous nodes with independent failures.

Owns live node state (up/down, which job runs where) and the failure/
recovery mechanics; scheduling-time bookings live in
:class:`~repro.cluster.reservations.ReservationLedger`, which the cluster
also hosts so callers deal with a single façade.

Live state is three flat per-node lists — the owning job, a down flag,
and the repair end — and a job's partition is kept as a run-length
:class:`~repro.cluster.nodeset.NodeSet`.  Starting, checking and
releasing a partition are slice operations per run, never a walk over
per-node objects.  Each node hosts at most one job ("only one job may
run on a given node at a time; there is no co-scheduling or
multitasking"); a down node finishes its fixed repair (120 s in the
paper, the restart time of a BG/L node) and then recovers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.nodeset import NodeSet
from repro.cluster.reservations import ReservationLedger


class Cluster:
    """A fixed-width cluster of homogeneous, independently failing nodes.

    Args:
        node_count: Cluster width N (the paper simulates 128).
        downtime: Repair time after a failure, seconds (paper: 120, the
            BG/L node restart time).
    """

    def __init__(self, node_count: int = 128, downtime: float = 120.0) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        if downtime < 0:
            raise ValueError(f"downtime must be >= 0, got {downtime}")
        self.downtime = float(downtime)
        self._n = node_count
        # Per-node live state: owning job id (None when idle), down flag,
        # and the time the current repair completes (meaningful when down).
        self._owner: List[Optional[int]] = [None] * node_count
        self._down: List[bool] = [False] * node_count
        self._repair_end: List[float] = [0.0] * node_count
        self.ledger = ReservationLedger(node_count)
        self._job_nodes: Dict[int, NodeSet] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return self._n

    def is_up(self, node_index: int) -> bool:
        """True unless ``node_index`` is in its repair window."""
        return not self._down[node_index]

    def up_nodes(self) -> List[int]:
        """Indexes of nodes currently up."""
        return [i for i, down in enumerate(self._down) if not down]

    def idle_nodes(self) -> List[int]:
        """Indexes of nodes currently up and running no job, ascending."""
        return [
            i
            for i, (down, owner) in enumerate(zip(self._down, self._owner))
            if not down and owner is None
        ]

    def running_jobs(self) -> List[int]:
        """Ids of jobs currently executing, in ascending id order.

        Sorted so callers iterating it (e.g. the EASY backfill release
        scan) see an order independent of job start/removal history.
        """
        return sorted(self._job_nodes)

    def nodes_of(self, job_id: int) -> List[int]:
        """Node indexes the running job occupies."""
        try:
            return list(self._job_nodes[job_id])
        except KeyError:
            raise KeyError(f"job {job_id} is not running") from None

    def job_on(self, node_index: int) -> Optional[int]:
        """Id of the job running on ``node_index``, or None."""
        return self._owner[node_index]

    def nodes_available(self, node_indexes: Sequence[int]) -> bool:
        """True if every listed node is up and idle (start precondition).

        An index outside the cluster is never available.
        """
        return self._runs_available(NodeSet.from_iterable(node_indexes).runs)

    def _runs_available(self, runs: Sequence[Tuple[int, int]]) -> bool:
        """:meth:`nodes_available` of a partition given as its runs."""
        down, owner = self._down, self._owner
        for lo, hi in runs:
            if lo < 0 or True in down[lo:hi] or owner[lo:hi].count(None) != hi - lo:
                return False
        return True

    def busy_node_count(self) -> int:
        """Number of nodes currently occupied by jobs."""
        return self._n - self._owner.count(None)

    # ------------------------------------------------------------------
    # Job placement
    # ------------------------------------------------------------------
    def try_start(self, job_id: int, node_indexes: Sequence[int]) -> bool:
        """Occupy ``node_indexes`` with ``job_id`` if all are up and idle.

        Returns False, occupying nothing, when a listed node is down, held
        by a job or outside the cluster: the one availability check of a
        start.

        Raises:
            ValueError: If ``job_id`` is already running, or the list is
                empty or repeats a node.
        """
        if job_id in self._job_nodes:
            raise ValueError(f"job {job_id} is already running")
        # A NodeSet argument comes back as is.
        partition = NodeSet.from_iterable(node_indexes)
        runs = partition.runs
        if not runs:
            raise ValueError(f"job {job_id}: empty node list")
        # A repeated index would occupy its node twice.
        if partition is not node_indexes and len(partition) != len(node_indexes):
            raise _unavailable(job_id, node_indexes)
        if not self._runs_available(runs):
            return False
        owner = self._owner
        for lo, hi in runs:
            owner[lo:hi] = [job_id] * (hi - lo)
        self._job_nodes[job_id] = partition
        return True

    def start_job(self, job_id: int, node_indexes: Sequence[int]) -> None:
        """Occupy ``node_indexes`` with ``job_id`` (all must be up+idle)."""
        if not self.try_start(job_id, node_indexes):
            raise _unavailable(job_id, node_indexes)

    def remove_job(self, job_id: int) -> NodeSet:
        """Release a job's nodes (finish or kill); returns them ascending."""
        partition = self._job_nodes.pop(job_id, None)
        if partition is None:
            raise KeyError(f"job {job_id} is not running")
        owner = self._owner
        for lo, hi in partition.runs:
            owner[lo:hi] = [None] * (hi - lo)
        return partition

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail_node(self, node_index: int, now: float) -> Tuple[Optional[int], float]:
        """Fail a node at ``now``; a repeat failure during the repair
        window moves the recovery later.

        Returns:
            ``(victim_job_id_or_None, recovery_time)``.  The victim job is
            *not* removed — the system layer decides how to kill it (lost
            work accounting) and then calls :meth:`remove_job`.
        """
        recovery = now + self.downtime
        self._down[node_index] = True
        self._repair_end[node_index] = recovery
        return self._owner[node_index], recovery

    def recover_node(self, node_index: int, now: float) -> None:
        """Recovery-event handler: bring a node back up.

        Stale recoveries are ignored: if the node failed *again* during
        its repair window, the repair end moved later and only the
        recovery scheduled for the new time takes effect.
        """
        if self._down[node_index] and now + 1e-9 >= self._repair_end[node_index]:
            self._down[node_index] = False

    def down_until(self, node_index: int) -> float:
        """Repair completion time for a down node (0.0 if up)."""
        return self._repair_end[node_index] if self._down[node_index] else 0.0

    def latest_recovery(self, node_indexes: Sequence[int]) -> float:
        """Latest ``down_until`` among the listed nodes (0.0 if all up)."""
        return max((self.down_until(i) for i in node_indexes), default=0.0)


def _unavailable(job_id: int, node_indexes: Sequence[int]) -> ValueError:
    """The error of a start on nodes that are not all up and idle."""
    return ValueError(f"job {job_id}: nodes {list(node_indexes)} not all up and idle")
