"""The float steps of a checkpointing run.

A running job alternates *compute segments* with (possibly skipped)
checkpoint requests; a performed checkpoint pauses progress for the
overhead ``C`` and makes all prior progress durable.  The run state itself
lives on the job's record (:class:`repro.core.metrics.JobOutcome`); this
module keeps the pure arithmetic it and the policies share:

* :func:`delay_from` — the next run event (checkpoint request or finish)
  from a progress point;
* :func:`decision_window` — the window a request's ``p_f`` covers;
* :func:`padded_remaining` — the reservation length for the remaining
  work.

All progress is measured in *execution seconds of the checkpoint-free
runtime* ``e_j``; overheads never count as progress, matching the paper's
"checkpointing overhead [is] unnecessary work" accounting.
"""

from __future__ import annotations

import math
from typing import Tuple


def delay_from(
    progress: float, total_work: float, interval: float
) -> Tuple[str, float]:
    """``(kind, delay)`` of the next run event for a compute segment
    starting at ``progress``: ``kind`` is ``"request"`` or ``"finish"`` and
    ``delay`` is seconds of execution.

    Requests fire at multiples of ``I`` execution seconds; a request at or
    beyond completion is never issued.
    """
    k = math.floor(progress / interval + 1e-9) + 1
    to_request = k * interval - progress
    to_finish = total_work - progress
    if to_finish <= to_request + 1e-9:
        return "finish", to_finish
    return "request", to_request


def decision_window(interval: float, overhead: float, remaining_work: float) -> float:
    """Length of the window a checkpoint request's ``p_f`` covers: perform
    now (C) + run one interval, or what remains (I) + perform (C)."""
    return overhead + min(interval, remaining_work) + overhead


def padded_remaining(
    remaining_work: float, interval: float, overhead: float
) -> float:
    """Reservation length for ``remaining_work`` assuming every future
    checkpoint is performed (the scheduler's conservative estimate E_j).

    Mirrors :meth:`repro.workload.job.Job.padded_runtime` but for restarts
    from a checkpoint.
    """
    if remaining_work <= 0:
        raise ValueError(f"remaining_work must be > 0, got {remaining_work}")
    requests = max(0, int(math.ceil(remaining_work / interval)) - 1)
    return remaining_work + overhead * requests
