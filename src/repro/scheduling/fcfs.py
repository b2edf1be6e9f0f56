"""Fault-aware FCFS scheduling with conservative backfilling.

The paper's scheduler (Section 3.3) is "a FCFS scheduler with backfilling,
that uses event prediction to break ties among otherwise equivalent
partitions", and it must quote a deadline at submission — which is exactly
a *conservative* backfilling discipline: every job receives a node-level
reservation the moment it is negotiated, later jobs backfill only into
holes that do not disturb earlier bookings (guaranteed by construction,
because bookings are never moved), and the quoted deadline is the
reservation's end.

Paper-faithful constraints honoured here:

* no migration — a running job never moves;
* no dynamic re-optimisation — "jobs that have already been scheduled for
  later execution retain their scheduled partition" after a failure;
* failed jobs return to the queue and are re-reserved (FCFS among victims)
  for their *remaining* work, restarting from the last completed
  checkpoint.

An optional extension (off by default, ablated in the benchmarks) pulls a
reserved-but-not-started job forward when capacity frees early; the paper's
frozen-schedule behaviour is the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.nodeset import freeze_nodes
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import Topology, WindowScorer
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.negotiation import NegotiationOutcome, Negotiator
from repro.core.users import UserModel
from repro.prediction.base import Predictor


@dataclass(frozen=True)
class RestartReservation:
    """A booking made for a failure victim's remaining work."""

    job_id: int
    start: float
    nodes: Sequence[int]
    end: float


class ConservativeBackfillScheduler:
    """Books arrivals through negotiation and victims at the earliest slot.

    Args:
        ledger: Shared reservation book (owned by the cluster).
        topology: Allocation-shape constraint.
        predictor: Event predictor used for fault-aware placement and for
            the promises quoted during negotiation.
        scorer: Window scorer; pass the fault-aware scorer for the
            paper's system or an uninformed one for baselines.
        max_offers: Negotiation dialogue cap.
        failure_jump_epsilon: Seconds the dialogue advances past a
            predicted failure; forwarded to the negotiator.
        evaluator: Shared analytical evaluator (the system passes the same
            instance it scores placement with, so one term cache serves
            both); forwarded to the negotiator.

    Restart bookings, the candidates they probed and pull-forward
    attempts are counted; :meth:`counters` reports them under
    ``scheduling.fcfs.*``.
    """

    def __init__(
        self,
        ledger: ReservationLedger,
        topology: Topology,
        predictor: Predictor,
        scorer: Optional[WindowScorer],
        max_offers: int = 400,
        failure_jump_epsilon: float = 1.0,
        evaluator: Optional[AnalyticalEvaluator] = None,
    ) -> None:
        self._ledger = ledger
        self._topology = topology
        # Same dispatch as the negotiator: run-length free sets when the
        # ledger speaks NodeSet, plain lists from the frozen seed ledger.
        self._free_query = getattr(ledger, "free_nodes_set", ledger.free_nodes)
        self._predictor = predictor
        self._scorer = scorer
        self.negotiator = Negotiator(
            ledger, topology, predictor, scorer, max_offers=max_offers,
            failure_jump_epsilon=failure_jump_epsilon, evaluator=evaluator,
        )
        self._restarts_booked = 0
        self._restart_probes = 0
        self._pull_attempts = 0
        self._pull_successes = 0

    def counters(self) -> Dict[str, int]:
        """``scheduling.fcfs.*`` totals (the negotiator keeps its own)."""
        return {
            "scheduling.fcfs.restarts_booked": self._restarts_booked,
            "scheduling.fcfs.restart_probes": self._restart_probes,
            "scheduling.fcfs.pull_forward_attempts": self._pull_attempts,
            "scheduling.fcfs.pull_forward_successes": self._pull_successes,
        }

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def schedule_arrival(
        self,
        job_id: int,
        size: int,
        padded_runtime: float,
        now: float,
        user: UserModel,
    ) -> NegotiationOutcome:
        """Negotiate and book a newly submitted job.

        The outcome's reservation is already in the ledger; the caller
        schedules the start event at ``outcome.start``.
        """
        return self.negotiator.negotiate(job_id, size, padded_runtime, now, user)

    # ------------------------------------------------------------------
    # Failure victims
    # ------------------------------------------------------------------
    def schedule_restart(
        self, job_id: int, size: int, padded_remaining: float, now: float
    ) -> RestartReservation:
        """Book the earliest feasible slot for a victim's remaining work.

        The original deadline and promise are untouched (promises are made
        once); this is purely a capacity booking.  Placement stays
        fault-aware: among free nodes at the chosen time the lowest
        predicted-failure partition is taken.
        """
        # Skip candidates an over-full segment already blocks, as
        # find_slot does; each still counts as a probed candidate.
        blocked_until = self._ledger.profile().blocked_until
        most_busy = self._ledger.node_count - size
        blocked = now
        candidates = 0
        for start in self._ledger.iter_candidate_times(now):
            candidates += 1
            if start >= blocked:
                blocked = blocked_until(start, start + padded_remaining, most_busy)
            if blocked > start:
                continue
            free = self._free_query(start, start + padded_remaining)
            if len(free) < size:
                continue
            nodes = self._topology.select_partition(
                free, size, start, start + padded_remaining, self._scorer
            )
            if nodes is None:
                continue
            nodes = freeze_nodes(nodes)
            self._ledger.reserve(job_id, nodes, start, start + padded_remaining)
            self._restarts_booked += 1
            self._restart_probes += candidates
            return RestartReservation(
                job_id=job_id,
                start=start,
                nodes=nodes,
                end=start + padded_remaining,
            )
        raise RuntimeError(
            f"job {job_id}: no restart slot found (should be impossible past "
            "the final booking)"
        )

    # ------------------------------------------------------------------
    # Optional extension: opportunistic pull-forward
    # ------------------------------------------------------------------
    def pull_forward(
        self, job_id: int, now: float
    ) -> Optional[RestartReservation]:
        """Try to move a not-yet-started booking earlier (extension).

        Releases the job's booking and re-books at the earliest feasible
        slot; if that is not strictly earlier, the original booking is
        restored.  Never touches other bookings, so the paper's
        no-disturbance property still holds for everyone else.

        Returns:
            The improved booking, or None if the original was kept.
        """
        reservation = self._ledger.get(job_id)
        if reservation is None or reservation.start <= now:
            return None
        self._pull_attempts += 1
        duration = reservation.duration
        self._ledger.release(job_id)
        for start in self._ledger.iter_candidate_times(now):
            if start >= reservation.start:
                break
            free = self._free_query(start, start + duration)
            if len(free) < len(reservation.nodes):
                continue
            nodes = self._topology.select_partition(
                free, len(reservation.nodes), start, start + duration, self._scorer
            )
            if nodes is None:
                continue
            self._ledger.reserve(job_id, nodes, start, start + duration)
            self._pull_successes += 1
            return RestartReservation(
                job_id=job_id, start=start, nodes=freeze_nodes(nodes), end=start + duration
            )
        # No improvement: restore the original booking.  The original may
        # legally overlap another job's extended interval, so skip the
        # free-window validation on restore.
        self._ledger.reserve(
            job_id,
            reservation.nodes,
            reservation.start,
            reservation.end,
            allow_overlap=True,
        )
        return None
