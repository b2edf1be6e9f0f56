"""The simulated cluster: N homogeneous nodes with independent failures.

Owns live node state (up/down, which job runs where) and the failure/
recovery mechanics; scheduling-time bookings live in
:class:`~repro.cluster.reservations.ReservationLedger`, which the cluster
also hosts so callers deal with a single façade.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.node import Node, NodeState
from repro.cluster.reservations import ReservationLedger
from repro.obs.registry import MetricsRegistry


class Cluster:
    """A fixed-width cluster of homogeneous, independently failing nodes.

    Args:
        node_count: Cluster width N (the paper simulates 128).
        downtime: Repair time after a failure, seconds (paper: 120, the
            BG/L node restart time).
        registry: Optional obs registry forwarded to the hosted ledger.
            Only passed through when live, so drop-in ledger replacements
            (e.g. the frozen seed baseline in perf benchmarks) keep their
            single-argument constructor.
    """

    def __init__(
        self,
        node_count: int = 128,
        downtime: float = 120.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        if downtime < 0:
            raise ValueError(f"downtime must be >= 0, got {downtime}")
        self.downtime = float(downtime)
        self._nodes: List[Node] = [Node(index=i) for i in range(node_count)]
        if registry is not None and registry.enabled:
            self.ledger = ReservationLedger(node_count, registry=registry)
        else:
            self.ledger = ReservationLedger(node_count)
        self._job_nodes: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def node(self, index: int) -> Node:
        return self._nodes[index]

    @property
    def nodes(self) -> Sequence[Node]:
        return self._nodes

    def up_nodes(self) -> List[int]:
        """Indexes of nodes currently up."""
        return [n.index for n in self._nodes if n.is_up]

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
        return self._nodes[node_index].running_job

    def nodes_available(self, node_indexes: Sequence[int]) -> bool:
        """True if every listed node is up and idle (start precondition)."""
        for index in node_indexes:
            node = self._nodes[index]
            if not node.is_up or node.is_busy:
                return False
        return True

    def busy_node_count(self) -> int:
        """Number of nodes currently occupied by jobs."""
        return sum(1 for n in self._nodes if n.is_busy)

    # ------------------------------------------------------------------
    # Job placement
    # ------------------------------------------------------------------
    def start_job(self, job_id: int, node_indexes: Sequence[int]) -> None:
        """Occupy ``node_indexes`` with ``job_id`` (all must be up+idle)."""
        if job_id in self._job_nodes:
            raise ValueError(f"job {job_id} is already running")
        if not node_indexes:
            raise ValueError(f"job {job_id}: empty node list")
        if not self.nodes_available(node_indexes):
            raise ValueError(
                f"job {job_id}: nodes {list(node_indexes)} not all up and idle"
            )
        for index in node_indexes:
            self._nodes[index].assign(job_id)
        self._job_nodes[job_id] = sorted(node_indexes)

    def remove_job(self, job_id: int) -> List[int]:
        """Release a job's nodes (finish or kill); returns the node list."""
        node_indexes = self._job_nodes.pop(job_id, None)
        if node_indexes is None:
            raise KeyError(f"job {job_id} is not running")
        for index in node_indexes:
            node = self._nodes[index]
            # A node that failed may already have been force-released.
            if node.running_job == job_id:
                node.release(job_id)
        return node_indexes

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail_node(self, node_index: int, now: float) -> tuple:
        """Fail a node at ``now``.

        Returns:
            ``(victim_job_id_or_None, recovery_time)``.  The victim job is
            *not* removed — the system layer decides how to kill it (lost
            work accounting) and then calls :meth:`remove_job`.
        """
        node = self._nodes[node_index]
        victim = node.running_job
        recovery = node.fail(now, self.downtime)
        return victim, recovery

    def recover_node(self, node_index: int, now: float) -> None:
        """Recovery-event handler: bring a node back up."""
        self._nodes[node_index].recover(now)

    def down_until(self, node_index: int) -> float:
        """Repair completion time for a down node (0.0 if up)."""
        node = self._nodes[node_index]
        return node.down_until if not node.is_up else 0.0

    def latest_recovery(self, node_indexes: Sequence[int]) -> float:
        """Latest ``down_until`` among the listed nodes (0.0 if all up)."""
        return max((self.down_until(i) for i in node_indexes), default=0.0)
