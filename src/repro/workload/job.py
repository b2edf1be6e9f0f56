"""Job records and job-log containers.

A :class:`Job` is the *static* description of one submitted job, as it would
appear in a workload trace: arrival (submit) time ``v_j``, size in nodes
``n_j`` and runtime ``e_j`` *excluding* checkpoint overhead — exactly the
quantities the paper's metrics are defined over (Section 3.5).  All mutable
execution state (start times, saved progress, promised probability) lives in
the simulator, not here, so a single log can be replayed under many
configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from operator import attrgetter, ge
from typing import Iterable, Iterator, List, Optional, Sequence

_INF = math.inf


@dataclass(frozen=True)
class Job:
    """One job in a workload trace.

    Attributes:
        job_id: Unique identifier within its log (stable across replays).
        arrival_time: Submit time ``v_j`` in seconds from the log origin.
        size: Number of nodes ``n_j`` the job occupies (no co-scheduling).
        runtime: Execution time ``e_j`` in seconds, excluding checkpoints.
        user_id: Optional submitting-user identifier (SWF field).
        requested_time: Optional user-requested wall time; the paper assumes
            estimates are accurate, so the simulator uses ``runtime``, but
            the field is preserved for trace fidelity.
    """

    job_id: int
    arrival_time: float
    size: int
    runtime: float
    user_id: int = -1
    requested_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"job {self.job_id}: size must be >= 1, got {self.size}")
        # Chained comparisons fail on NaN as well as out of range; float
        # bounds keep both on the interpreter's float-compare fast path.
        if not 0.0 < self.runtime < _INF:
            raise ValueError(
                f"job {self.job_id}: runtime must be finite and > 0, "
                f"got {self.runtime}"
            )
        if not 0.0 <= self.arrival_time < _INF:
            raise ValueError(
                f"job {self.job_id}: arrival must be finite and >= 0, "
                f"got {self.arrival_time}"
            )

    @property
    def work(self) -> float:
        """Work ``e_j * n_j`` in node-seconds (the paper's unit of work)."""
        return self.runtime * self.size

    def checkpoint_count(self, interval: float) -> int:
        """Number of checkpoint requests issued during ``runtime``.

        Requests occur after every ``interval`` seconds of execution; a
        request that would coincide with (or follow) job completion is never
        issued, hence ``ceil(e_j / I) - 1``.
        """
        if interval <= 0:
            raise ValueError(f"checkpoint interval must be > 0, got {interval}")
        return max(0, int(math.ceil(self.runtime / interval)) - 1)

    def padded_runtime(self, interval: float, overhead: float) -> float:
        """Runtime ``E_j`` including all checkpoints (paper Section 3.3).

        ``E_j = e_j + C * (number of checkpoint requests)`` — the reservation
        length the scheduler books, assuming no checkpoint is skipped.
        """
        return self.runtime + overhead * self.checkpoint_count(interval)


@dataclass
class WorkloadStats:
    """Aggregate characteristics of a job log (paper Table 1)."""

    job_count: int
    mean_size: float
    mean_runtime: float
    max_runtime: float
    total_work: float
    span: float

    @property
    def max_runtime_hours(self) -> float:
        """Max runtime in hours, as Table 1 reports it."""
        return self.max_runtime / 3600.0

    def offered_load(self, nodes: int) -> float:
        """Total work divided by cluster capacity over the arrival span."""
        if self.span <= 0:
            return 0.0
        return self.total_work / (self.span * nodes)


#: The order a :class:`JobLog` keeps its jobs in.
_ARRIVAL_ORDER = attrgetter("arrival_time", "job_id")
_ARRIVAL = attrgetter("arrival_time")


class JobLog:
    """An ordered collection of jobs (a workload trace).

    Jobs are kept sorted by arrival time, which is the order the simulator
    consumes them in.  The container is intentionally list-like and cheap;
    heavyweight analysis lives in :meth:`stats`.
    """

    def __init__(self, jobs: Iterable[Job], name: str = "unnamed") -> None:
        self.name = name
        self._jobs: List[Job] = list(jobs)
        # Generated and truncated logs arrive in order.  Strictly rising
        # arrivals are already in (arrival_time, job_id) order, and one
        # pass of float comparisons over neighbours says so without the
        # sort's key tuples; a tie or an inversion sorts.
        arrivals = map(_ARRIVAL, self._jobs)
        next_arrivals = map(_ARRIVAL, islice(self._jobs, 1, None))
        if any(map(ge, arrivals, next_arrivals)):
            self._jobs.sort(key=_ARRIVAL_ORDER)
        ids = [j.job_id for j in self._jobs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"job log {name!r} contains duplicate job ids")

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> Job:
        return self._jobs[index]

    @property
    def jobs(self) -> Sequence[Job]:
        """The jobs in arrival order (read-only view by convention)."""
        return self._jobs

    def truncate(self, max_jobs: int) -> "JobLog":
        """Return a new log with the first ``max_jobs`` arrivals.

        Used by benchmarks to run reduced-size sweeps quickly while keeping
        the arrival process' statistical character.
        """
        return JobLog(self._jobs[:max_jobs], name=f"{self.name}[:{max_jobs}]")

    def scaled_sizes(self, max_size: int) -> "JobLog":
        """Return a copy with sizes clipped to ``max_size`` (cluster width).

        Jobs are frozen, so the copy shares every job that already fits;
        only a job wider than ``max_size`` is rebuilt.
        """
        clipped = [
            j if j.size <= max_size else replace(j, size=max_size)
            for j in self._jobs
        ]
        return JobLog(clipped, name=f"{self.name}(<= {max_size} nodes)")

    def stats(self) -> WorkloadStats:
        """Compute the Table 1 aggregates for this log."""
        if not self._jobs:
            return WorkloadStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        sizes = [j.size for j in self._jobs]
        runtimes = [j.runtime for j in self._jobs]
        span = self._jobs[-1].arrival_time - self._jobs[0].arrival_time
        return WorkloadStats(
            job_count=len(self._jobs),
            mean_size=sum(sizes) / len(sizes),
            mean_runtime=sum(runtimes) / len(runtimes),
            max_runtime=max(runtimes),
            total_work=sum(j.work for j in self._jobs),
            span=span,
        )
