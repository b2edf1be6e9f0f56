"""Scheduling: fault-aware conservative backfilling, placement, queues."""

from repro.scheduling.fcfs import ConservativeBackfillScheduler, RestartReservation
from repro.scheduling.placement import (
    fault_aware_scorer,
    index_scorer,
    random_scorer,
    scorer_by_name,
)
from repro.scheduling.queue import PendingStarts, RequeueQueue

__all__ = [
    "ConservativeBackfillScheduler",
    "RestartReservation",
    "fault_aware_scorer",
    "index_scorer",
    "random_scorer",
    "scorer_by_name",
    "PendingStarts",
    "RequeueQueue",
]
