"""The deadline-negotiation dialogue between system and user.

This is the paper's central mechanism (Sections 3.3 and 3.5): at submission
the scheduler looks for the earliest time the job could run, selects the
partition with the lowest predicted failure probability, and offers the user
a deadline together with a promised success probability ``p = 1 − p_f``.
If the user declines (their risk threshold ``U`` exceeds ``p``), the system
produces the next-earliest offer — a later slot and/or a safer partition —
and the dialogue repeats.  The user accepts the earliest offer satisfying
Equation 3, so deadlines are pushed "no further than necessary".

Offer enumeration is exact for the booked region: free capacity changes
only at reservation end points, so those are the only candidate start times
(plus "now").  Past the booking horizon the cluster is entirely free and
offers can only improve by *jumping past predicted failures*; the loop
advances the candidate start just beyond the earliest predicted failure of
the best partition until the promise clears the threshold (the failure
trace is finite, so this terminates), with a hard cap as a safety valve —
if the cap is hit, the best offer seen is imposed and flagged.

Offer pricing
-------------

Offers are priced by an :class:`~repro.core.fastpath.AnalyticalEvaluator`
— cached per-node survival terms combined analytically instead of
re-querying the predictor per candidate.  For
:class:`~repro.core.users.RiskThresholdUser` dialogues the enumeration
additionally *prunes*: before probing a candidate window, a sound upper
bound on the promise any partition could earn there is compared against
the user's threshold, and provably-declined candidates are skipped without
partition selection or pricing.  Pruned candidates still count toward the
dialogue cap (keeping the enumeration aligned with an unpruned dialogue),
and if a dialogue that pruned a candidate ends without acceptance the
negotiator reruns it unpruned (one that pruned nothing already was an
unpruned dialogue), so the accepted/imposed outcome is always identical to
pricing every candidate with the live predictor — only ``offers_made`` /
``offers_declined`` shrink, because pruned offers were never laid on the
table.  The test suite keeps that per-candidate probe loop as its
reference oracle (``tests/fastpath/probe_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.cluster.nodeset import freeze_nodes
from repro.cluster.reservations import ReservationLedger
from repro.cluster.topology import Topology, WindowScorer
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.guarantee import DeadlineOffer, FrozenRecord, QoSGuarantee
from repro.core.users import RiskThresholdUser, UserModel
from repro.prediction.base import Predictor

#: Acceptance slack shared with ``RiskThresholdUser.accepts`` — the pruning
#: bound must use the exact same epsilon or it could skip an offer the user
#: would have taken.
_ACCEPT_EPSILON = 1e-12


@dataclass(frozen=True)
class NegotiationOutcome(FrozenRecord):
    """Result of one submission dialogue.

    Attributes:
        guarantee: The promise as recorded by the system.
        start: Reserved start time.
        nodes: Reserved partition (ascending; a tuple or a run-length
            :class:`~repro.cluster.nodeset.NodeSet` — equal either way).
        reserved_end: Reservation end (start + padded duration).
        offers_made: Offers laid on the table including the accepted one
            (pruned candidates were never on the table and do not count).
        forced: True if the safety cap ended the dialogue and the best
            offer was imposed rather than accepted.

    One is built per dialogue, so it is a slotted
    :class:`~repro.core.guarantee.FrozenRecord`.
    """

    __slots__ = (
        "guarantee", "start", "nodes", "reserved_end", "offers_made", "forced",
    )

    guarantee: QoSGuarantee
    start: float
    nodes: Sequence[int]
    reserved_end: float
    offers_made: int
    forced: bool


@dataclass(frozen=True)
class DeadlineSuggestion:
    """Typed result of the advisory :meth:`Negotiator.suggest_deadline`.

    Attributes:
        offer: The earliest offer reaching the target, or None.
        status: ``"found"`` when an offer reached the target;
            ``"cap_reached"`` when the dialogue cap ended the search first
            (a feasible deadline may exist beyond the cap); ``"infeasible"``
            when the enumeration exhausted naturally — no partition of the
            requested size can ever be placed.
        offers_examined: Candidates examined, including pruned ones.
    """

    offer: Optional[DeadlineOffer]
    status: str
    offers_examined: int

    @property
    def found(self) -> bool:
        """True when an offer reaching the target was found."""
        return self.offer is not None


class Negotiator:
    """Produces offers and records accepted guarantees.

    Args:
        ledger: The scheduler's reservation book.
        topology: Allocation-shape constraint (flat in the paper).
        predictor: The event predictor behind every promise.
        scorer: Window scorer used to pick partitions; the paper's system
            passes the fault-aware scorer.
        max_offers: Dialogue safety cap.
        failure_jump_epsilon: Seconds added when advancing a candidate
            start past a predicted failure; must be positive or the jump
            loop could stall on the failure instant itself.
        evaluator: The analytical evaluator to price offers with (built
            from ``predictor`` when omitted).  The system passes a shared
            instance so placement and pricing share one failure index and
            term cache.

    The negotiator counts its dialogues, probes, prefiltered and pruned
    candidates, imposed offers and advisories; :meth:`counters` reports
    them under ``negotiation.dialogue.*``.
    """

    def __init__(
        self,
        ledger: ReservationLedger,
        topology: Topology,
        predictor: Predictor,
        scorer: Optional[WindowScorer] = None,
        max_offers: int = 400,
        failure_jump_epsilon: float = 1.0,
        evaluator: Optional[AnalyticalEvaluator] = None,
    ) -> None:
        if max_offers < 1:
            raise ValueError(f"max_offers must be >= 1, got {max_offers}")
        if failure_jump_epsilon <= 0.0:
            raise ValueError(
                "failure_jump_epsilon must be positive, got "
                f"{failure_jump_epsilon}"
            )
        self._ledger = ledger
        # The ledger's width is fixed: read once, not per dialogue.
        self._node_count = ledger.node_count
        self._topology = topology
        # Prefer the run-length free-set query when the ledger offers one
        # (the frozen seed ledger only speaks lists); both iterate the same
        # nodes ascending, so offers are identical either way.
        self._free_query = getattr(ledger, "free_nodes_set", ledger.free_nodes)
        self._scorer = scorer
        self._max_offers = max_offers
        self._jump_epsilon = float(failure_jump_epsilon)
        self._eval = (
            evaluator
            if evaluator is not None
            else AnalyticalEvaluator(predictor, self._node_count)
        )
        self._dialogues = 0
        self._probes = 0
        self._prefilter_rejects = 0
        self._pruned = 0
        self._forced = 0
        self._advisories = 0

    @property
    def failure_jump_epsilon(self) -> float:
        """Seconds added when jumping past a predicted failure."""
        return self._jump_epsilon

    @property
    def evaluator(self) -> AnalyticalEvaluator:
        """The analytical evaluator every offer is priced with."""
        return self._eval

    def counters(self) -> Dict[str, int]:
        """``negotiation.dialogue.*`` totals."""
        return {
            "negotiation.dialogue.dialogues": self._dialogues,
            "negotiation.dialogue.probes": self._probes,
            "negotiation.dialogue.prefilter_rejects": self._prefilter_rejects,
            "negotiation.dialogue.pruned": self._pruned,
            "negotiation.dialogue.forced": self._forced,
            "negotiation.dialogue.advisories": self._advisories,
        }

    # ------------------------------------------------------------------
    # Offer generation
    # ------------------------------------------------------------------
    def make_offer(
        self, size: int, duration: float, start: float
    ) -> Optional[DeadlineOffer]:
        """Best offer starting exactly at ``start``, or None if infeasible.

        Picks the lowest-failure-probability partition among the free nodes
        (the paper's tie-breaking), then quotes ``p = 1 − p_f`` for it.
        """
        free = self._free_query(start, start + duration)
        if len(free) < size:
            return None
        nodes = self._topology.select_partition(
            free, size, start, start + duration, self._scorer
        )
        if nodes is None:
            return None
        partition = freeze_nodes(nodes)
        p_f = self._eval.failure_probability(partition, start, start + duration)
        return DeadlineOffer(start, partition, start + duration, 1.0 - p_f, p_f)

    def iter_offers(
        self,
        size: int,
        duration: float,
        earliest: float,
        threshold: Optional[float] = None,
        stats: Optional[Dict[str, int]] = None,
    ) -> Iterator[DeadlineOffer]:
        """Yield offers in nondecreasing deadline order.

        First the exact candidates of the booked region, then the
        jump-past-predicted-failure sequence; stops after
        ``self._max_offers`` candidates.

        Args:
            size: Nodes required.
            duration: Padded runtime to reserve.
            earliest: No offer starts before this.
            threshold: When set, candidates whose
                best-achievable promise provably falls short of this user
                threshold are skipped without pricing.  Pruned candidates
                count toward the cap so the enumeration stays aligned with
                an unpruned dialogue.
            stats: Optional dict; ``stats["produced"]`` is kept updated
                with the number of candidates counted toward the cap
                (yielded + pruned), letting callers detect cap exhaustion
                even when pruning swallows the final candidates.
        """
        produced = 0
        last_start = earliest
        evaluator = self._eval
        evaluator.begin_dialogue()
        # Capacity prefilter: reject candidates that cannot possibly have
        # enough simultaneously free nodes without a node-level sweep, and
        # skip the ones an over-full segment already blocks (as find_slot
        # does).  The ledger is not mutated during one dialogue, so one
        # read of its live profile serves the whole enumeration.
        blocked_until = self._ledger.profile().blocked_until
        most_busy = self._node_count - size
        blocked = earliest
        for start in self._ledger.iter_candidate_times(earliest):
            last_start = start
            if start >= blocked:
                blocked = blocked_until(start, start + duration, most_busy)
            if blocked > start:
                self._prefilter_rejects += 1
                continue
            if threshold is not None:
                bound = evaluator.best_case_probability(
                    size, start, start + duration
                )
                if bound < threshold - _ACCEPT_EPSILON:
                    produced += 1
                    if stats is not None:
                        stats["produced"] = produced
                    self._pruned += 1
                    if produced >= self._max_offers:
                        return
                    continue
            self._probes += 1
            offer = self.make_offer(size, duration, start)
            if offer is None:
                continue
            produced += 1
            if stats is not None:
                stats["produced"] = produced
            yield offer
            if produced >= self._max_offers:
                return
        # Past the booking horizon: jump beyond predicted failures.
        start = last_start
        while produced < self._max_offers:
            if threshold is not None:
                bound = evaluator.best_case_probability(
                    size, start, start + duration
                )
                if bound < threshold - _ACCEPT_EPSILON:
                    # Advance exactly as the unpruned loop would: find the
                    # partition this candidate would have offered and jump
                    # past its earliest predicted failure.
                    free = self._free_query(start, start + duration)
                    if len(free) < size:
                        return
                    nodes = self._topology.select_partition(
                        free, size, start, start + duration, self._scorer
                    )
                    if nodes is None:
                        return
                    predicted = evaluator.first_predicted_failure(
                        nodes, start, start + duration
                    )
                    if predicted is not None:
                        produced += 1
                        if stats is not None:
                            stats["produced"] = produced
                        self._pruned += 1
                        start = predicted.time + self._jump_epsilon
                        continue
                    # A bound below the threshold implies a detectable
                    # failure on every feasible partition, so this branch
                    # is unreachable for trace-backed evaluators; fall
                    # through to a real probe rather than trusting it.
            self._probes += 1
            offer = self.make_offer(size, duration, start)
            if offer is None:
                return  # cluster narrower than the job; caller validates
            produced += 1
            if stats is not None:
                stats["produced"] = produced
            yield offer
            if produced >= self._max_offers:
                return
            predicted = evaluator.first_predicted_failure(
                offer.nodes, start, start + duration
            )
            if predicted is None:
                return  # perfect offer; nothing later can beat p = 1
            start = predicted.time + self._jump_epsilon

    # ------------------------------------------------------------------
    # The dialogue
    # ------------------------------------------------------------------
    def _run_dialogue(
        self,
        size: int,
        duration: float,
        now: float,
        user: UserModel,
        threshold: Optional[float],
    ) -> Tuple[Optional[DeadlineOffer], Optional[DeadlineOffer], int]:
        """One pass of the offer loop: ``(best, accepted, offers_made)``."""
        best: Optional[DeadlineOffer] = None
        accepted: Optional[DeadlineOffer] = None
        offers_made = 0
        for offer in self.iter_offers(size, duration, now, threshold=threshold):
            offers_made += 1
            if best is None or offer.probability > best.probability:
                best = offer
            if user.accepts(offer):
                accepted = offer
                break
        return best, accepted, offers_made

    def negotiate(
        self,
        job_id: int,
        size: int,
        duration: float,
        now: float,
        user: UserModel,
    ) -> NegotiationOutcome:
        """Run the submission dialogue and book the accepted offer.

        Args:
            job_id: Job being submitted.
            size: Nodes required (``n_j``).
            duration: Padded runtime ``E_j`` to reserve.
            now: Submission time (offers start at or after it).
            user: The user's risk strategy.

        Returns:
            The accepted (or imposed) :class:`NegotiationOutcome`; the
            reservation is already booked in the ledger.

        Raises:
            ValueError: If the job can never fit (size > cluster width).
        """
        if size > self._node_count:
            raise ValueError(
                f"job {job_id}: size {size} exceeds cluster width "
                f"{self._node_count}"
            )

        # Pruning is only sound when acceptance is *exactly* the Equation 3
        # threshold test, so it is keyed to RiskThresholdUser itself — not
        # subclasses or look-alikes (SlackBoundedUser also accepts on
        # patience, which the bound knows nothing about).
        threshold: Optional[float] = None
        if type(user) is RiskThresholdUser:
            threshold = user.risk_threshold

        pruned = self._pruned
        best, accepted, offers_made = self._run_dialogue(
            size, duration, now, user, threshold
        )
        if accepted is None and self._pruned > pruned:
            # The pruned pass ended without acceptance (cap or exhaustion).
            # Rerun unpruned so the imposed offer — and the RuntimeError
            # below, if it comes to that — are bit-identical to an unpruned
            # dialogue.  A pass that pruned nothing already was one.
            best, accepted, offers_made = self._run_dialogue(
                size, duration, now, user, None
            )

        forced = accepted is None
        if accepted is None:
            if best is None:
                raise RuntimeError(
                    f"job {job_id}: no feasible offer (topology cannot place "
                    f"{size} nodes)"
                )
            accepted = best  # cap hit: impose the safest offer seen

        self._dialogues += 1
        self._forced += forced

        self._ledger.reserve(job_id, accepted.nodes, accepted.start, accepted.deadline)
        # Built positionally, in field order: one of each per dialogue.
        guarantee = QoSGuarantee(
            job_id,
            accepted.deadline,
            accepted.probability,
            accepted.failure_probability,
            now,
            accepted.start,
            accepted.nodes,
            offers_made - (0 if forced else 1),
        )
        return NegotiationOutcome(
            guarantee,
            accepted.start,
            accepted.nodes,
            accepted.deadline,
            offers_made,
            forced,
        )

    # ------------------------------------------------------------------
    # Advisory
    # ------------------------------------------------------------------
    def _advise(
        self,
        size: int,
        duration: float,
        now: float,
        target_probability: float,
        threshold: Optional[float],
    ) -> DeadlineSuggestion:
        stats: Dict[str, int] = {"produced": 0}
        for offer in self.iter_offers(
            size, duration, now, threshold=threshold, stats=stats
        ):
            if offer.probability >= target_probability - _ACCEPT_EPSILON:
                return DeadlineSuggestion(
                    offer=offer, status="found", offers_examined=stats["produced"]
                )
        status = (
            "cap_reached"
            if stats["produced"] >= self._max_offers
            else "infeasible"
        )
        return DeadlineSuggestion(
            offer=None, status=status, offers_examined=stats["produced"]
        )

    def suggest_deadline(
        self, size: int, duration: float, now: float, target_probability: float
    ) -> DeadlineSuggestion:
        """The paper's "the scheduler could even suggest a deadline": the
        earliest offer whose promise reaches ``target_probability``.

        Purely advisory — nothing is booked.  The result distinguishes a
        search truncated by the dialogue cap (``status="cap_reached"``: a
        feasible deadline may exist further out) from true infeasibility
        (``status="infeasible"``: the enumeration exhausted naturally,
        which only happens when no partition of this size can be placed —
        a failure-free offer always satisfies any target ``<= 1``).
        """
        self._advisories += 1
        pruned = self._pruned
        suggestion = self._advise(
            size, duration, now, target_probability, target_probability
        )
        if suggestion.status == "cap_reached" and self._pruned > pruned:
            # Pruned candidates count toward the cap (including ones an
            # unpruned pass would have skipped as infeasible), so the
            # pruned pass can exhaust the cap slightly early; rerun
            # unpruned for the verdict an unpruned search would reach.
            suggestion = self._advise(
                size, duration, now, target_probability, None
            )
        return suggestion
