"""The benchmark's workloads: inputs, replays, output checks and digests.

Everything here goes through the library's stable public API: the log and
failure-trace generators, ``simulate`` with a ``SystemConfig`` left at its
defaults apart from ``a``, ``U`` and the seed, and for ``scale`` the
``EventLoop`` and ``ReservationLedger`` directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.reservations import ReservationLedger
from repro.core.system import SystemConfig, simulate
from repro.experiments.runner import estimate_horizon
from repro.failures.events import FailureTrace
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.sim.engine import EventLoop
from repro.sim.events import EventKind
from repro.workload.job import Job
from repro.workload.synthetic import BigClusterSpec, log_by_name, stream_jobs

#: Seed of the fixed reference input the model metrics are computed on
#: (the library's default seed), so they repeat exactly on every run.
REFERENCE_SEED = 20050628

#: Jobs of the reference input: a longer log than a batch input, so that
#: the model metrics describe a settled cluster and its peak memory stands
#: well above page-level noise.
REFERENCE_JOBS = 3000

#: Model metrics, each in [0, 1] and higher-is-better.
MODEL_METRICS = ("qos", "utilization", "work_kept_frac", "promise_score")


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: Workload name (``nasa``, ``sdsc`` or ``scale``).
        log: Log generator name for the full system, or ``None`` for the
            ``scale`` replay through the event loop and ledger only.
        inputs: Independent inputs per run, each from its own seed
            derived from the run's ``--seed``.  NASA replay time varies
            by about 16% between inputs of 750 jobs and of 1500 alike, so
            a run replays many short inputs rather than a few long ones.
        jobs: Jobs per input.
        nodes: Cluster width.
        accuracy: Predictor accuracy ``a``.
        user_threshold: User risk threshold ``U``.
        offered_load: Target offered load of the ``scale`` stream.
    """

    name: str
    log: Optional[str]
    inputs: int
    jobs: int
    nodes: int = 128
    accuracy: float = 0.7
    user_threshold: float = 0.5
    offered_load: float = 0.7


WORKLOADS: Dict[str, Workload] = {
    "nasa": Workload("nasa", log="nasa", inputs=30, jobs=750, user_threshold=0.5),
    "sdsc": Workload("sdsc", log="sdsc", inputs=24, jobs=750, user_threshold=0.9),
    "scale": Workload("scale", log=None, inputs=24, jobs=1000, nodes=10_000),
}


@dataclass(frozen=True)
class Input:
    """One replayable input: a system log with its failure trace, or a
    materialised ``scale`` arrival stream."""

    seed: int
    jobs: Sequence[Job]
    failures: Optional[FailureTrace] = None


@dataclass
class SetupTimes:
    """Seconds spent generating one batch of inputs, by layer."""

    workload_s: float = 0.0
    failures_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.workload_s + self.failures_s


def input_seeds(seed: int, count: int) -> List[int]:
    """The per-input seeds of a run with ``--seed seed``."""
    return [seed * 1000 + i for i in range(count)]


def make_input(workload: Workload, seed: int, times: SetupTimes) -> Input:
    """Generate one input, adding the generator time to ``times``."""
    t0 = time.perf_counter()
    if workload.log is None:
        spec = BigClusterSpec(nodes=workload.nodes, offered_load=workload.offered_load)
        jobs: Sequence[Job] = list(stream_jobs(spec, seed=seed, job_count=workload.jobs))
        times.workload_s += time.perf_counter() - t0
        return Input(seed=seed, jobs=jobs)
    log = log_by_name(workload.log, seed=seed, job_count=workload.jobs)
    log = log.scaled_sizes(workload.nodes)
    t1 = time.perf_counter()
    failures = generate_failure_trace(
        estimate_horizon(log, workload.nodes),
        spec=FailureModelSpec(nodes=workload.nodes),
        seed=seed,
    )
    times.workload_s += t1 - t0
    times.failures_s += time.perf_counter() - t1
    return Input(seed=seed, jobs=log, failures=failures)


def make_reference(workload: Workload) -> Input:
    """The fixed reference input the model metrics and memory come from."""
    reference = dataclasses.replace(workload, jobs=REFERENCE_JOBS)
    return make_input(reference, REFERENCE_SEED, SetupTimes())


def make_batch(
    workload: Workload, seed: int, count: Optional[int] = None
) -> Tuple[List[Input], SetupTimes]:
    """The first ``count`` (default: all) inputs of a run, and the time
    their generation took."""
    count = workload.inputs if count is None else min(count, workload.inputs)
    times = SetupTimes()
    batch = [make_input(workload, s, times) for s in input_seeds(seed, count)]
    return batch, times


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
@dataclass
class LedgerReplay:
    """What the ``scale`` replay booked and released."""

    jobs: Sequence[Job]
    nodes: int
    bookings: List[Tuple[Job, float, object]]
    finishes: List[Tuple[int, float]]
    events_processed: int
    left_booked: int


def replay(workload: Workload, inp: Input, **hooks):
    """Replay one input to completion.

    ``hooks`` are observability objects for the library (registry,
    recorder, audit, profiler); the timed runs pass none.
    """
    if workload.log is None:
        return replay_ledger(inp.jobs, workload.nodes, **hooks)
    config = SystemConfig(
        node_count=workload.nodes,
        accuracy=workload.accuracy,
        user_threshold=workload.user_threshold,
        seed=inp.seed,
    )
    return simulate(config, inp.jobs, inp.failures, **hooks)


def replay_ledger(jobs: Sequence[Job], nodes: int, **hooks) -> LedgerReplay:
    """Book each arrival at its earliest first-fit slot and release it at
    its end: a conservative-backfill replay through the event loop and
    the reservation ledger only."""
    ledger = ReservationLedger(nodes, **hooks)
    loop = EventLoop(**hooks)
    stream = iter(jobs)
    bookings: List[Tuple[Job, float, object]] = []
    finishes: List[Tuple[int, float]] = []

    def on_arrival(event) -> None:
        job = event.payload["job"]
        start, chosen = ledger.find_slot(job.size, job.runtime, loop.now)
        ledger.reserve(job.job_id, chosen, start, start + job.runtime)
        bookings.append((job, start, chosen))
        loop.schedule(start + job.runtime, EventKind.FINISH, job_id=job.job_id)
        following = next(stream, None)
        if following is not None:
            loop.schedule(following.arrival_time, EventKind.ARRIVAL, job=following)

    def on_finish(event) -> None:
        job_id = event.payload["job_id"]
        ledger.release(job_id)
        finishes.append((job_id, loop.now))

    loop.register(EventKind.ARRIVAL, on_arrival)
    loop.register(EventKind.FINISH, on_finish)
    first = next(stream, None)
    if first is not None:
        loop.schedule(first.arrival_time, EventKind.ARRIVAL, job=first)
    loop.run()
    return LedgerReplay(
        jobs=jobs,
        nodes=nodes,
        bookings=bookings,
        finishes=finishes,
        events_processed=loop.processed_events,
        left_booked=len(ledger),
    )


# ----------------------------------------------------------------------
# Digests, checks and model metrics
# ----------------------------------------------------------------------
def digest(result) -> str:
    """sha256 over per-job ``(id, p, deadline, finish)``, or over every
    booking ``(id, start, nodes)`` of a ``scale`` replay."""
    h = hashlib.sha256()
    if isinstance(result, LedgerReplay):
        for job, start, chosen in result.bookings:
            nodes = ",".join(str(n) for n in chosen)
            h.update(f"{job.job_id}:{start!r}:{nodes};".encode())
        return h.hexdigest()
    for outcome in result.outcomes:
        g = outcome.guarantee
        p, deadline = (g.probability, g.deadline) if g is not None else (None, None)
        h.update(f"{outcome.job.job_id}:{p!r}:{deadline!r}:{outcome.finish!r};".encode())
    return h.hexdigest()


def combined_digest(digests: Sequence[str]) -> str:
    """One digest over a batch's per-input digests, in input order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def check(inp: Input, result) -> List[str]:
    """Failed output checks, one string per failed job or invariant.

    System replays: every submitted job has exactly one outcome, holds one
    promise with p in [0, 1], and finished.  ``scale``: every job was
    booked once on ``size`` free nodes no earlier than its arrival, and
    released once.  Both: every model metric lies in [0, 1].
    """
    problems: List[str] = []
    if isinstance(result, LedgerReplay):
        booked = [job.job_id for job, _, _ in result.bookings]
        released = sorted(job_id for job_id, _ in result.finishes)
        expected = sorted(job.job_id for job in inp.jobs)
        if sorted(booked) != expected:
            problems.append("booked job ids differ from the input's")
        if released != expected:
            problems.append("released job ids differ from the input's")
        if result.left_booked:
            problems.append(f"{result.left_booked} bookings never released")
        for job, start, chosen in result.bookings:
            if start < job.arrival_time or len(chosen) != job.size:
                problems.append(f"job {job.job_id}: bad booking")
    else:
        ids = sorted(outcome.job.job_id for outcome in result.outcomes)
        if ids != sorted(job.job_id for job in inp.jobs):
            problems.append("outcome job ids differ from the input's")
        for outcome in result.outcomes:
            g = outcome.guarantee
            if g is None:
                problems.append(f"job {outcome.job.job_id}: no promise")
            elif not 0.0 <= g.probability <= 1.0:
                problems.append(f"job {outcome.job.job_id}: p={g.probability!r}")
            if outcome.finish is None:
                problems.append(f"job {outcome.job.job_id}: unfinished")
    for name, value in model_metrics(result).items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name}={value!r} outside [0, 1]")
    return problems


def model_metrics(result) -> Dict[str, float]:
    """The paper's model metrics of one replay, each in [0, 1].

    * ``qos``: Eq. 2, work-weighted kept promises discounted by p.
    * ``utilization``: total work over span times cluster width.
    * ``work_kept_frac``: 1 − lost node-seconds / total work.
    * ``promise_score``: 1 − Brier score, the mean of (p − q)² over jobs
      with q = 1 when the job met its promised deadline.

    A ``scale`` booking is a p = 1 promise to finish by the booked end.
    """
    if isinstance(result, LedgerReplay):
        finished = dict(result.finishes)
        kept = {
            job.job_id: finished.get(job.job_id, float("inf")) <= start + job.runtime
            for job, start, _ in result.bookings
        }
        total = sum(job.work for job in result.jobs)
        span = max(finished.values()) - min(job.arrival_time for job in result.jobs)
        return {
            "qos": sum(job.work for job in result.jobs if kept.get(job.job_id)) / total,
            "utilization": total / (span * result.nodes),
            "work_kept_frac": 1.0,
            "promise_score": statistics.fmean(1.0 if k else 0.0 for k in kept.values()),
        }
    metrics = result.metrics
    brier = statistics.fmean(
        (outcome.guarantee.probability - (1.0 if outcome.met_deadline else 0.0)) ** 2
        for outcome in result.outcomes
        if outcome.guarantee is not None
    )
    return {
        "qos": metrics.qos,
        "utilization": metrics.utilization,
        "work_kept_frac": 1.0 - metrics.lost_work / metrics.total_work,
        "promise_score": 1.0 - brier,
    }
