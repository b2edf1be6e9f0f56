"""Experiment execution with memoised simulation points.

One figure needs dozens of ``(a, U)`` simulation points and several figures
share points (e.g. every "vs accuracy" figure uses the same 33-run grid).
:class:`ExperimentContext` prepares the workload and a failure trace long
enough to cover any makespan the sweep can produce, then memoises
:meth:`run_point` results, so regenerating all twelve figures costs one
simulation per distinct parameter combination.  A point is resolved one
way: from the memo, or else by one simulation — in this process, or in a
worker of :mod:`repro.experiments.parallel`'s pool when ``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.tracelog import TraceRecorder
from repro.core.metrics import SimulationMetrics
from repro.core.system import SimulationResult, SystemConfig, simulate
from repro.experiments.config import ExperimentSetup
from repro.failures.events import FailureTrace
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.obs.export import ObsSnapshot, empty_obs, merge_obs
from repro.workload.job import JobLog
from repro.workload.synthetic import log_by_name

#: One batched sweep point: ``(a, U)`` or ``(a, U, overrides)``.
Point = Union[Tuple[float, float], Tuple[float, float, Dict]]

#: Pessimistic utilization floor used to bound the worst-case makespan when
#: sizing the failure trace (a = 0 with heavy failure churn runs longest).
_WORST_CASE_UTILIZATION = 0.25

#: Safety factor on top of the worst-case makespan estimate.
_TRACE_MARGIN = 1.5


def estimate_horizon(log: JobLog, node_count: int) -> float:
    """Upper-bound the simulated makespan for failure-trace sizing.

    The makespan is at least the arrival span and at most roughly
    ``total work / (N * worst-case utilization)`` past it; the margin
    covers restart churn beyond even that.
    """
    stats = log.stats()
    tail = stats.total_work / (node_count * _WORST_CASE_UTILIZATION)
    return (stats.span + tail) * _TRACE_MARGIN


@dataclass
class ExperimentContext:
    """A prepared (workload, failure trace) pair with a memo of point results.

    Attributes:
        setup: The experiment environment description.
        log: The synthesized (or loaded) job log.
        failures: A failure trace covering the worst-case horizon.
        jobs: Worker processes :meth:`run_points` fans memo misses out
            across (1 = fully sequential, the default and the byte-exact
            pre-parallel behaviour).
        recorder: Optional trace recorder threaded into every simulation
            this context executes in-process (``--trace`` on batch
            commands).  Memo hits skip simulation and therefore
            contribute no records; recorders do not cross process
            boundaries, so callers should keep ``jobs=1`` when tracing.
        obs: Counters and gauges summed over the distinct points this
            context simulated, in submission order (the "what did
            producing this figure actually do" view); memo hits
            simulate nothing and add nothing.
    """

    setup: ExperimentSetup
    log: JobLog
    failures: FailureTrace
    _memo: Dict[Tuple, SimulationMetrics] = field(default_factory=dict)
    jobs: int = 1
    recorder: Optional[TraceRecorder] = None
    obs: ObsSnapshot = field(default_factory=empty_obs)

    @classmethod
    def prepare(
        cls,
        setup: ExperimentSetup,
        log: Optional[JobLog] = None,
        failures: Optional[FailureTrace] = None,
        jobs: int = 1,
        recorder: Optional[TraceRecorder] = None,
    ) -> "ExperimentContext":
        """Build the context, synthesising whatever is not supplied.

        Passing an explicit ``log`` (e.g. a parsed SWF archive trace) swaps
        the synthetic workload out of the entire harness.
        """
        if log is None:
            log = log_by_name(
                setup.workload, seed=setup.seed, job_count=setup.job_count
            )
        log = log.scaled_sizes(setup.node_count)
        if failures is None:
            duration = estimate_horizon(log, setup.node_count)
            failures = generate_failure_trace(
                duration,
                spec=FailureModelSpec(nodes=setup.node_count),
                seed=setup.seed,
            )
        return cls(
            setup=setup, log=log, failures=failures,
            jobs=jobs, recorder=recorder,
        )

    # ------------------------------------------------------------------
    # Simulation points
    # ------------------------------------------------------------------
    def config(self, accuracy: float, user_threshold: float, **overrides) -> SystemConfig:
        """The system configuration for one sweep point."""
        parameters = dict(
            node_count=self.setup.node_count,
            downtime=self.setup.downtime,
            checkpoint_overhead=self.setup.checkpoint_overhead,
            checkpoint_interval=self.setup.checkpoint_interval,
            accuracy=accuracy,
            user_threshold=user_threshold,
            seed=self.setup.seed,
        )
        parameters.update(overrides)
        return SystemConfig(**parameters)

    def run_point(
        self, accuracy: float, user_threshold: float, **overrides
    ) -> SimulationMetrics:
        """Simulate one ``(a, U)`` point (memoised).

        Keyword overrides (checkpoint policy, placement, topology, ...)
        participate in the memo key, so ablations coexist safely in one
        context.
        """
        key = (
            round(accuracy, 6),
            round(user_threshold, 6),
            tuple(sorted(overrides.items())),
        )
        memoised = self._memo.get(key)
        if memoised is not None:
            return memoised
        config = self.config(accuracy, user_threshold, **overrides)
        result = self.simulate_point(config, self.recorder)
        merge_obs(self.obs, result.obs)
        self._memo[key] = result.metrics
        return result.metrics

    def simulate_point(
        self,
        config: SystemConfig,
        recorder: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        """One fresh simulation of ``config`` on this context's workload and
        failure trace: the point boundary that sequential and pooled sweeps
        share (profiled as ``experiments.runner.point``)."""
        return simulate(config, self.log, self.failures, recorder=recorder)

    def run_points(
        self,
        points: Sequence[Point],
        **overrides,
    ) -> List[SimulationMetrics]:
        """Resolve a batch of sweep points, in order (memoised).

        Each point is ``(a, U)`` or ``(a, U, per_point_overrides)``; the
        keyword ``overrides`` apply to every point (per-point entries
        win).  Each point is served from the in-memory memo or simulated;
        memo misses fan out across :attr:`jobs` worker processes when
        ``jobs > 1``.  Results are identical to calling :meth:`run_point`
        sequentially regardless of worker count or completion order; with
        ``jobs=1`` the execution path *is* the sequential one.
        """
        from repro.experiments.parallel import PointSpec, run_specs

        keys = []
        specs = []
        for point in points:
            accuracy, user_threshold = point[0], point[1]
            merged = dict(overrides, **point[2]) if len(point) > 2 else overrides
            spec = PointSpec.create(
                self.setup, accuracy, user_threshold, merged
            )
            specs.append(spec)
            keys.append(spec.memo_key())

        results: List[Optional[SimulationMetrics]] = [
            self._memo.get(key) for key in keys
        ]
        todo = [i for i, metrics in enumerate(results) if metrics is None]
        if todo:
            computed = run_specs(
                [specs[i] for i in todo],
                jobs=self.jobs,
                contexts={self.setup: self},
            )
            for i, metrics in zip(todo, computed):
                self._memo[keys[i]] = metrics
                results[i] = metrics
        return results  # type: ignore[return-value]

    def run_instrumented(
        self,
        accuracy: float,
        user_threshold: float,
        sample_interval: Optional[float] = None,
        recorder: Optional[TraceRecorder] = None,
        **overrides,
    ):
        """Simulate one point with live instrumentation (never memoised).

        Instrumented runs bypass the memo in both directions: a memoised
        metrics object carries no counters or records, and the output of a
        fresh run must reflect exactly one simulation, not whichever point
        happened to run first.  A trace ``recorder`` (e.g. a
        :class:`~repro.obs.trace.SpanBuilder` or a
        :class:`~repro.obs.audit.GuaranteeAudit`) may be attached.

        Returns:
            ``(result, sampler)`` — the full :class:`SimulationResult`
            and the system's sampler (None unless ``sample_interval`` was
            given).
        """
        from repro.core.system import ProbabilisticQoSSystem

        config = self.config(accuracy, user_threshold, **overrides)
        system = ProbabilisticQoSSystem(
            config, self.log, self.failures,
            sample_interval=sample_interval, recorder=recorder,
        )
        return system.run(), system.sampler

    @property
    def cached_points(self) -> int:
        """Number of memoised simulation results."""
        return len(self._memo)
