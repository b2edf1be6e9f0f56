"""Process-pool execution of independent simulation points.

The evaluation is embarrassingly parallel: every figure is a grid of
``(a, U)`` points, every replication multiplies the grid by seeds, and no
point depends on any other.  This module fans the points the in-memory
memo does not hold out across worker processes:

* :class:`PointSpec` is the picklable, hermetic description of one point —
  the full :class:`~repro.experiments.config.ExperimentSetup` plus the
  sweep coordinates and config overrides — from which a worker can rebuild
  the exact :class:`~repro.experiments.runner.ExperimentContext`
  (workload synthesis and failure-trace generation are deterministic in
  the setup's seed) and simulate without talking to the parent.
* :func:`run_specs` resolves a batch of specs in order: a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or the
  plain in-process path (``jobs == 1``, exactly the pre-parallel
  behaviour).  Results are returned in *submission* order
  regardless of worker count or completion order, so callers observe
  bit-identical output either way.

Workers cache their rebuilt contexts in a module global keyed by setup, so
one worker pays workload/trace preparation once per distinct setup, not
once per point.  On platforms that fork (Linux), the parent additionally
registers its own prepared contexts before spawning the pool, so workers
inherit them copy-on-write and usually rebuild nothing at all.

Observability: each worker ships its point's ``result.obs`` back and the
parent folds it into the calling context's
:attr:`~repro.experiments.runner.ExperimentContext.obs` with
:func:`~repro.obs.export.merge_obs`, in submission order — the order the
sequential path folds in, so the totals do not depend on the worker
count; memo hits contribute no counters in either mode.
Profiles travel the same way: while a
:class:`~repro.obs.prof.Profiler` is attached in the parent, each worker
attaches its own (same bucket width) around every point and ships its
snapshot back for :meth:`~repro.obs.prof.Profiler.merge_snapshot`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import SimulationMetrics
from repro.experiments.config import ExperimentSetup
from repro.obs.export import ObsSnapshot, merge_obs
from repro.obs.prof import Profiler, attached

#: Precision at which sweep coordinates are considered the same point —
#: must match ``ExperimentContext.run_point``'s memo key rounding.
KEY_DECIMALS = 6


@dataclass(frozen=True)
class PointSpec:
    """Hermetic description of one simulation point.

    The spec carries the *exact* sweep coordinates it was created with
    (so a worker reproduces the caller's arithmetic to the bit) while its
    :meth:`memo_key` rounds them, so near-identical floats are one point.
    """

    setup: ExperimentSetup
    accuracy: float
    user_threshold: float
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        setup: ExperimentSetup,
        accuracy: float,
        user_threshold: float,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> "PointSpec":
        return cls(
            setup=setup,
            accuracy=accuracy,
            user_threshold=user_threshold,
            overrides=tuple(sorted((overrides or {}).items())),
        )

    def memo_key(self) -> Tuple:
        """The context-local memo key (see ``ExperimentContext.run_point``)."""
        return (
            round(self.accuracy, KEY_DECIMALS),
            round(self.user_threshold, KEY_DECIMALS),
            self.overrides,
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process context store: one prepared (workload, failures) pair per
#: distinct setup.  In the parent it is pre-seeded by ``register_context``
#: so forked workers inherit prepared contexts copy-on-write.
_WORKER_CONTEXTS: Dict[ExperimentSetup, Any] = {}


def register_context(context: Any) -> None:
    """Make a prepared context inheritable by forked pool workers."""
    _WORKER_CONTEXTS.setdefault(context.setup, context)


def _worker_context(setup: ExperimentSetup):
    from repro.experiments.runner import ExperimentContext

    context = _WORKER_CONTEXTS.get(setup)
    if context is None:
        context = ExperimentContext.prepare(setup)
        _WORKER_CONTEXTS[setup] = context
    return context


def _run_spec_task(
    spec: PointSpec, prof_bucket_width: Optional[float]
) -> Tuple[SimulationMetrics, ObsSnapshot, Optional[Dict[str, Any]]]:
    """Simulate one spec hermetically inside a pool worker.

    Returns the metrics, the point's obs snapshot and, when
    ``prof_bucket_width`` is given, the worker-local profile snapshot —
    the last two for the parent to fold in.
    """
    context = _worker_context(spec.setup)
    config = context.config(
        spec.accuracy, spec.user_threshold, **dict(spec.overrides)
    )
    if prof_bucket_width is None:
        result = context.simulate_point(config)
        prof_snapshot = None
    else:
        with Profiler(bucket_width=prof_bucket_width).attach() as profiler:
            result = context.simulate_point(config)
        prof_snapshot = profiler.snapshot()
    return result.metrics, result.obs, prof_snapshot


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_specs(
    specs: Sequence[PointSpec],
    jobs: int = 1,
    contexts: Optional[Dict[ExperimentSetup, Any]] = None,
) -> List[SimulationMetrics]:
    """Resolve every spec to its metrics, in input order.

    Each distinct spec is simulated once — pooled across ``jobs`` worker
    processes when ``jobs > 1`` and there is more than one distinct
    point, in-process otherwise.  Duplicate specs (same setup and memo
    key) share the first one's result.

    Args:
        specs: Points to resolve.
        jobs: Worker processes; 1 keeps everything in this process and is
            byte-identical to the pre-parallel sequential path.
        contexts: Optional mutable ``{setup: ExperimentContext}`` map for
            in-process execution; prepared contexts are reused and fresh
            ones are stored back for the caller (lazy construction).  Each
            simulated point's obs snapshot is folded into its setup's
            context here (in-process runs fold as they run; pooled results
            are folded in submission order).

    An attached profiler is handled alike: in-process runs profile into
    it directly, pooled workers attach private ones (same bucket width)
    and the parent folds their snapshots in submission order.
    """
    results: List[Optional[SimulationMetrics]] = [None] * len(specs)

    # Deduplicate on the memo key; first occurrence wins, mirroring the
    # in-memory memo's first-call-wins semantics.
    order: Dict[Tuple, List[int]] = {}
    unique: List[PointSpec] = []
    for index, spec in enumerate(specs):
        key = (spec.setup, spec.memo_key())
        slot = order.get(key)
        if slot is None:
            order[key] = [index]
            unique.append(spec)
        else:
            slot.append(index)

    if jobs > 1 and len(unique) > 1:
        for context in (contexts or {}).values():
            register_context(context)  # inherited by forked workers
        computed = _run_pooled(unique, jobs, contexts or {})
    else:
        computed = _run_local(unique, contexts)

    for spec, metrics in zip(unique, computed):
        for index in order[(spec.setup, spec.memo_key())]:
            results[index] = metrics
    return results  # type: ignore[return-value]


def _run_local(
    specs: Sequence[PointSpec],
    contexts: Optional[Dict[ExperimentSetup, Any]],
) -> List[SimulationMetrics]:
    """The sequential path: run through (possibly shared) live contexts."""
    from repro.experiments.runner import ExperimentContext

    contexts = contexts if contexts is not None else {}
    computed = []
    for spec in specs:
        context = contexts.get(spec.setup)
        if context is None:
            context = ExperimentContext.prepare(spec.setup)
            contexts[spec.setup] = context
        computed.append(
            context.run_point(
                spec.accuracy, spec.user_threshold, **dict(spec.overrides)
            )
        )
    return computed


def _run_pooled(
    specs: Sequence[PointSpec],
    jobs: int,
    contexts: Dict[ExperimentSetup, Any],
) -> List[SimulationMetrics]:
    """Fan specs out across a process pool; gather in submission order."""
    profiler = attached()
    prof_bucket_width = profiler.bucket_width if profiler is not None else None
    workers = min(jobs, len(specs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_spec_task, spec, prof_bucket_width)
            for spec in specs
        ]
        outcomes = [future.result() for future in futures]
    computed = []
    for spec, (metrics, obs, prof_snapshot) in zip(specs, outcomes):
        computed.append(metrics)
        context = contexts.get(spec.setup)
        if context is not None:
            merge_obs(context.obs, obs)
        if profiler is not None and prof_snapshot is not None:
            profiler.merge_snapshot(prof_snapshot)
    return computed
