"""Synthetic failure-trace generation (the AIX-cluster substitute).

The paper's failures come from a year of filtered event logs from 400 AIX
machines, of which the first 128 machines' 1,021 failures are used:
≈2.8 failures/day, cluster MTBF ≈8.5 h, node MTBF ≈6.5 weeks.  That trace
was never published, so this module synthesises traces with the statistical
properties the source studies (Sahoo et al., DSN'04) report as the ones that
matter:

* **Temporal burstiness** — failures cluster in time ("failures in these
  clusters tend to be preceded by patterns of misbehavior"); the paper also
  attributes the jaggedness of its curves to this burstiness.  We model
  burst epochs as a Poisson process, each epoch carrying a geometric number
  of failures spread over a short window.
* **Spatial skew** — a small fraction of nodes contributes most failures;
  per-node hazard weights are lognormal.
* **Diurnal modulation** — failure intensity follows load, which follows
  time of day.

The generator also emits the *raw* event log (precursor WARNING/ERROR
records and uncorrelated noise around each failure) so that
:mod:`repro.failures.filtering` and the online predictor substrate
(:mod:`repro.prediction.online`) have realistic input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.failures.events import FailureEvent, FailureTrace, RawEvent, Severity
from repro.sim.rng import stable_hash, substream
from repro.workload.models import diurnal_weights

#: Subsystems failures originate from, with relative frequency.
_SUBSYSTEMS: Tuple[Tuple[str, float], ...] = (
    ("memory", 0.30),
    ("network", 0.25),
    ("storage", 0.18),
    ("software", 0.17),
    ("power", 0.10),
)


@dataclass(frozen=True)
class FailureModelSpec:
    """Parameters of the synthetic failure process.

    Attributes:
        nodes: Cluster width (paper: first 128 machines).
        rate_per_day: Cluster-wide mean failures per day (paper: ≈2.8,
            i.e. MTBF ≈ 8.5 h).
        burst_fraction: Fraction of failures arriving inside bursts.
        burst_size_mean: Mean failures per burst epoch (geometric).
        burst_window: Seconds over which one burst's failures spread.
        node_skew_sigma: Lognormal sigma of per-node hazard weights; 0 means
            homogeneous nodes, ≈1.2 reproduces the "few bad nodes dominate"
            skew of the AIX study.
        diurnal: Whether to modulate intensity by time of day.
    """

    nodes: int = 128
    rate_per_day: float = 2.8
    burst_fraction: float = 0.45
    burst_size_mean: float = 2.5
    burst_window: float = 2 * 3600.0
    node_skew_sigma: float = 1.2
    diurnal: bool = True


#: The configuration matching the paper's Section 4.3 aggregates.
AIX_SPEC = FailureModelSpec()


def _node_weights(spec: FailureModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-node failure propensities, normalised to sum to 1."""
    if spec.node_skew_sigma <= 0:
        return np.full(spec.nodes, 1.0 / spec.nodes)
    weights = rng.lognormal(mean=0.0, sigma=spec.node_skew_sigma, size=spec.nodes)
    return weights / weights.sum()


def _pick_subsystems(rng: np.random.Generator, count: int) -> List[str]:
    names = [name for name, _ in _SUBSYSTEMS]
    probs = np.asarray([w for _, w in _SUBSYSTEMS])
    probs = probs / probs.sum()
    return list(rng.choice(names, size=count, p=probs))


def _thin_diurnal(
    times: np.ndarray, rng: np.random.Generator, enabled: bool
) -> np.ndarray:
    """Keep each candidate time with probability ∝ diurnal intensity."""
    if not enabled or times.size == 0:
        return times
    keep = rng.random(times.size) * 1.75 < diurnal_weights(times)
    return times[keep]


def generate_failure_trace(
    duration: float,
    spec: FailureModelSpec = AIX_SPEC,
    seed: Optional[int] = None,
) -> FailureTrace:
    """Generate a bursty, spatially skewed failure trace.

    Args:
        duration: Trace length in seconds (generate at least the simulation
            horizon; the simulator replays failures up to its makespan).
        spec: Process parameters; default matches the paper's aggregates.
        seed: Master seed; an independent substream is derived, so the same
            seed used for workloads yields an uncorrelated failure trace.

    Returns:
        A :class:`FailureTrace` whose cluster-wide rate is ≈
        ``spec.rate_per_day`` and whose inter-arrival distribution is
        over-dispersed relative to Poisson (burstiness).
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    rng = substream(seed, "failures.trace")
    expected_total = spec.rate_per_day * duration / 86400.0

    # Split the budget between burst failures and background singletons.
    burst_budget = expected_total * spec.burst_fraction
    single_budget = expected_total - burst_budget
    epoch_count = rng.poisson(max(burst_budget / spec.burst_size_mean, 0.0))
    single_count = rng.poisson(max(single_budget, 0.0))

    times: List[float] = []
    # Background singletons: homogeneous Poisson thinned by diurnal cycle.
    singles = rng.uniform(0.0, duration, size=int(single_count * 1.9))
    singles = _thin_diurnal(singles, rng, spec.diurnal)[:single_count]
    times.extend(singles.tolist())

    # Bursts: epoch openings thinned by diurnal cycle; failures within an
    # epoch spread exponentially over the burst window.
    epochs = rng.uniform(0.0, duration, size=int(epoch_count * 1.9))
    epochs = _thin_diurnal(epochs, rng, spec.diurnal)[:epoch_count]
    for epoch in epochs:
        size = rng.geometric(1.0 / spec.burst_size_mean)
        offsets = rng.exponential(spec.burst_window / 3.0, size=size)
        for offset in offsets:
            t = epoch + offset
            if t < duration:
                times.append(float(t))

    times.sort()
    weights = _node_weights(spec, rng)
    nodes = rng.choice(spec.nodes, size=len(times), p=weights)
    # Burst failures preferentially hit correlated (nearby-index) nodes:
    # re-draw half the burst members near their epoch's first node.
    subsystems = _pick_subsystems(rng, len(times))

    events = [
        FailureEvent(
            event_id=i + 1,
            time=float(times[i]),
            node=int(nodes[i]),
            subsystem=subsystems[i],
        )
        for i in range(len(times))
    ]
    return FailureTrace(events, name="synthetic-aix")


def generate_raw_log(
    trace: FailureTrace,
    duration: float,
    spec: FailureModelSpec = AIX_SPEC,
    seed: Optional[int] = None,
    precursor_fraction: float = 0.7,
    noise_rate_per_node_day: float = 4.0,
) -> List[RawEvent]:
    """Emit a raw system-event log surrounding a failure trace.

    Structure per failure: a FATAL/FAILURE record at the failure time, a
    cluster of duplicate criticals sharing the root cause (what filtration
    must collapse), and — for ``precursor_fraction`` of failures — a run of
    WARNING/ERROR precursors in the preceding hour ("failures ... tend to be
    preceded by patterns of misbehavior").  Uncorrelated INFO/WARNING noise
    is layered on every node.

    Args:
        trace: Ground-truth failures to decorate.
        duration: Raw-log horizon in seconds.
        spec: Cluster shape (node count).
        seed: Master seed (independent substream).
        precursor_fraction: Fraction of failures that emit precursors; this
            bounds what *any* log-based predictor can recall, mirroring the
            ≈70% prediction ceiling reported by Sahoo et al.
        noise_rate_per_node_day: Benign events per node per day.

    Returns:
        Time-sorted list of :class:`RawEvent`.
    """
    rng = substream(seed, "failures.rawlog")
    records: List[RawEvent] = []

    for failure in trace:
        cause = failure.event_id
        # The critical record itself, plus duplicated criticals to collapse.
        duplicates = 1 + int(rng.geometric(0.5))
        for k in range(duplicates):
            records.append(
                RawEvent(
                    time=failure.time + k * rng.uniform(0.5, 30.0),
                    node=failure.node,
                    severity=Severity.FATAL if k else Severity.FAILURE,
                    subsystem=failure.subsystem,
                    message_id=1000 + stable_hash(failure.subsystem) % 100,
                    root_cause=cause,
                )
            )
        # Precursor misbehaviour in the preceding hour.
        if rng.random() < precursor_fraction:
            count = 2 + int(rng.geometric(0.4))
            leads = np.sort(rng.uniform(120.0, 3600.0, size=count))[::-1]
            for lead in leads:
                t = failure.time - float(lead)
                if t <= 0:
                    continue
                records.append(
                    RawEvent(
                        time=t,
                        node=failure.node,
                        severity=Severity.ERROR
                        if rng.random() < 0.5
                        else Severity.WARNING,
                        subsystem=failure.subsystem,
                        message_id=500 + stable_hash(failure.subsystem) % 100,
                        root_cause=cause,
                    )
                )

    # Benign background noise, uniform over nodes and time.
    noise_total = rng.poisson(
        noise_rate_per_node_day * spec.nodes * duration / 86400.0
    )
    noise_times = rng.uniform(0.0, duration, size=noise_total)
    noise_nodes = rng.integers(0, spec.nodes, size=noise_total)
    for t, node in zip(noise_times, noise_nodes):
        records.append(
            RawEvent(
                time=float(t),
                node=int(node),
                severity=Severity.INFO if rng.random() < 0.8 else Severity.WARNING,
                subsystem="software",
                message_id=int(rng.integers(0, 200)),
                root_cause=-1,
            )
        )

    records.sort(key=lambda r: (r.time, r.node, r.message_id))
    return records


def aix_like_trace(
    duration: float, seed: Optional[int] = None, nodes: int = 128
) -> FailureTrace:
    """Convenience: a failure trace with the paper's AIX aggregates."""
    spec = FailureModelSpec(
        nodes=nodes,
        rate_per_day=AIX_SPEC.rate_per_day,
        burst_fraction=AIX_SPEC.burst_fraction,
        burst_size_mean=AIX_SPEC.burst_size_mean,
        burst_window=AIX_SPEC.burst_window,
        node_skew_sigma=AIX_SPEC.node_skew_sigma,
        diurnal=AIX_SPEC.diurnal,
    )
    return generate_failure_trace(duration, spec=spec, seed=seed)
