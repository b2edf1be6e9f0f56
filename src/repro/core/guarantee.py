"""Probabilistic QoS guarantees — the object the system promises.

The system's promises take the paper's canonical form: *"Job j can be
completed by deadline d with probability p."*  A :class:`QoSGuarantee` is
created exactly once per job, at negotiation time, and never revised — the
QoS metric (Equation 2) scores the system against the promise as made, so a
failure that delays a job past ``deadline`` costs the full promised weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.obs.audit import margin_honours, promise_margin


class FrozenRecord:
    """Base of the frozen per-job records of a dialogue.

    Each subclass is a ``@dataclass(frozen=True)`` whose ``__slots__`` are
    its fields, spelled out (``dataclass(slots=True)`` needs Python 3.10),
    so it has no ``__dict__`` and no field defaults.
    """

    __slots__: Tuple[str, ...] = ()

    # Pickle by field values: the default slot-state restore assigns
    # through the frozen ``__setattr__``, which raises.
    def __getstate__(self) -> List[object]:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state: List[object]) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class QoSGuarantee(FrozenRecord):
    """One promise: job ``job_id`` completes by ``deadline`` w.p. ``probability``.

    Attributes:
        job_id: The promised job.
        deadline: Promised completion time (absolute seconds).
        probability: Promised success probability ``p_j = 1 - p_f`` where
            ``p_f`` is the predicted partition-failure probability over the
            reserved window.
        predicted_failure_probability: The ``p_f`` behind the promise.
        negotiated_at: Submission time the dialogue concluded.
        planned_start: Reserved start time backing the promise.
        planned_nodes: Reserved partition backing the promise.
        offers_declined: Earlier (tighter) offers the user turned down
            before accepting this one — 0 means the first offer was taken.

    One is kept per job for the whole run, so it has slots instead of a
    ``__dict__`` (see :class:`FrozenRecord`).
    """

    __slots__ = (
        "job_id", "deadline", "probability", "predicted_failure_probability",
        "negotiated_at", "planned_start", "planned_nodes", "offers_declined",
    )

    job_id: int
    deadline: float
    probability: float
    predicted_failure_probability: float
    negotiated_at: float
    planned_start: float
    planned_nodes: Tuple[int, ...]
    offers_declined: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"job {self.job_id}: probability {self.probability} not in [0,1]"
            )
        if self.deadline < self.negotiated_at:
            raise ValueError(
                f"job {self.job_id}: deadline {self.deadline} precedes "
                f"negotiation time {self.negotiated_at}"
            )

    @property
    def slack(self) -> float:
        """Seconds between negotiation and the promised deadline."""
        return self.deadline - self.negotiated_at

    def margin(self, finish_time: Optional[float]) -> Optional[float]:
        """Signed slack against the deadline (positive = early).

        ``None`` when the job never finished within the simulation.
        """
        return promise_margin(self.deadline, finish_time)

    def kept(self, finish_time: Optional[float]) -> bool:
        """Whether a finish at ``finish_time`` honours the promise.

        ``None`` (never finished within the simulation) is a broken
        promise.  Delegates to the canonical epsilon comparison in
        ``repro.obs.audit`` (``VERDICT_EPSILON``) — the same verdict the
        trace layer and the audit layer compute.
        """
        return margin_honours(self.margin(finish_time))


@dataclass(frozen=True)
class DeadlineOffer(FrozenRecord):
    """One option laid on the table during negotiation.

    Attributes:
        start: Proposed start time.
        nodes: Proposed partition.
        deadline: Completion time if the job runs to plan (start + E_j).
        probability: Promised success probability ``1 - p_f``.
        failure_probability: Predicted ``p_f`` for this window/partition.

    Several are built per dialogue, so it is a slotted
    :class:`FrozenRecord`.
    """

    __slots__ = (
        "start", "nodes", "deadline", "probability", "failure_probability",
    )

    start: float
    nodes: Tuple[int, ...]
    deadline: float
    probability: float
    failure_probability: float

    def __post_init__(self) -> None:
        # Same boundary discipline as QoSGuarantee: a predictor bug that
        # quotes p outside [0, 1] must fail here, loudly, not propagate
        # into negotiation and the audit as a silently-wrong promise.
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"offer probability {self.probability} not in [0, 1]"
            )
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError(
                f"offer failure probability {self.failure_probability} "
                "not in [0, 1]"
            )
