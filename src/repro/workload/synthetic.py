"""Synthetic stand-ins for the paper's NASA and SDSC job logs.

The paper evaluates on two Parallel Workloads Archive traces (Section 4.3,
Table 1):

* **NASA** — NASA Ames 128-node iPSC/860, 1993.  Power-of-two job sizes
  (hypercube allocation), average size 6.3 nodes, average runtime 381 s,
  maximum runtime 12 h, relatively light load.
* **SDSC** — San Diego Supercomputer Center 128-node IBM RS/6000 SP,
  1998-2000.  Arbitrary ("odd") job sizes, average size 9.7 nodes, average
  runtime 7722 s, maximum 132 h, heavier load and longer jobs.

The archive is network-gated in this environment, so these generators
produce logs with matching Table 1 marginals, heavy-tailed size/runtime
distributions with positive size-runtime correlation, and sessionised
diurnal arrivals.  The arrival span is derived from a target *offered load*
(total work / cluster capacity), so the simulated utilisation lands in the
paper's observed ranges (NASA ≈ 0.55-0.6, SDSC ≈ 0.64-0.72 on 128 nodes).

Real archive files can be substituted at any time via
:func:`repro.workload.swf.parse_swf`; everything downstream only sees a
:class:`~repro.workload.job.JobLog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.sim.rng import substream
from repro.workload.job import Job, JobLog
from repro.workload.models import (
    MixedSizes,
    PowerOfTwoSizes,
    calibrate_mean,
    sessionised_arrivals,
    truncated_lognormal,
)

#: Exponent weights tuned so the power-of-two mean is ~6.3 nodes (NASA).
_NASA_P2_WEIGHTS = (0.39, 0.25, 0.15, 0.09, 0.058, 0.032, 0.021, 0.009)

#: Exponent weights for SDSC's power-of-two fraction (skewed small).
_SDSC_P2_WEIGHTS = (0.34, 0.26, 0.19, 0.11, 0.06, 0.03, 0.008, 0.002)


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to synthesise one log.

    Attributes:
        name: Log label (``"nasa"``/``"sdsc"`` for the bundled specs).
        job_count: Number of jobs (the paper uses 10,000 per log).
        mean_runtime: Target average ``e_j`` in seconds (Table 1).
        max_runtime: Hard runtime cap in seconds (Table 1 max).
        min_runtime: Minimum runtime; the paper assumes jobs have "some
            minimum runtime" to avoid degenerate border cases.
        runtime_sigma: Lognormal shape for runtimes (heavier = burstier mix
            of tiny and huge jobs).
        size_runtime_coupling: Strength of the positive correlation between
            job size and runtime (0 = independent).  Real logs show large
            jobs running longer; this is what makes ``E[e_j * n_j]`` exceed
            ``E[e_j] * E[n_j]`` severalfold.
        max_work: Per-job cap on ``e_j * n_j`` in node-seconds.  Archive
            logs contain long jobs and wide jobs but not extreme products of
            both; without the cap, synthetic outliers (wide *and*
            maximum-length) dominate every metric and — unable to survive a
            checkpoint-free run between failures — snowball the
            no-prediction baseline in a way the paper's traces do not.
        offered_load: Target total-work / capacity over the arrival span;
            sets the arrival span.
        nodes: Cluster width used for the offered-load computation.
        burstiness: Fraction of arrivals generated inside sessions.
    """

    name: str
    job_count: int
    mean_runtime: float
    max_runtime: float
    min_runtime: float
    runtime_sigma: float
    size_runtime_coupling: float
    offered_load: float
    max_work: float = float("inf")
    nodes: int = 128
    burstiness: float = 0.5


#: Table 1 "NASA" row, as a generator specification.
NASA_SPEC = WorkloadSpec(
    name="nasa",
    job_count=10_000,
    mean_runtime=381.0,
    max_runtime=12 * 3600.0,
    min_runtime=30.0,
    runtime_sigma=1.9,
    size_runtime_coupling=0.55,
    offered_load=0.62,
    max_work=8.0e5,
)

#: Table 1 "SDSC" row, as a generator specification.
SDSC_SPEC = WorkloadSpec(
    name="sdsc",
    job_count=10_000,
    mean_runtime=7722.0,
    max_runtime=132 * 3600.0,
    min_runtime=60.0,
    runtime_sigma=2.1,
    size_runtime_coupling=0.25,
    offered_load=0.88,
    max_work=2.5e6,
)


def _sample_sizes(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.name == "nasa":
        sampler = PowerOfTwoSizes(_NASA_P2_WEIGHTS)
        return sampler.sample(rng, spec.job_count)
    if spec.name == "sdsc":
        sampler = MixedSizes(
            power_of_two=PowerOfTwoSizes(_SDSC_P2_WEIGHTS),
            p2_fraction=0.55,
            odd_max=64,
        )
        return sampler.sample(rng, spec.job_count)
    # Generic spec: mixed sizes with a mild power-of-two preference.
    sampler = MixedSizes(
        power_of_two=PowerOfTwoSizes(_SDSC_P2_WEIGHTS),
        p2_fraction=0.5,
        odd_max=max(2, spec.nodes // 2),
    )
    return sampler.sample(rng, spec.job_count)


def _sample_runtimes(
    spec: WorkloadSpec, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Heavy-tailed runtimes, positively coupled to job size, mean-matched."""
    base_median = spec.mean_runtime / np.exp(spec.runtime_sigma**2 / 2.0)
    base_median = max(spec.min_runtime, base_median)
    runtimes = truncated_lognormal(
        rng,
        spec.job_count,
        median=base_median,
        sigma=spec.runtime_sigma,
        minimum=spec.min_runtime,
        maximum=spec.max_runtime,
    )
    # Couple to size: scale by (size / mean size)^coupling, preserving the
    # marginal mean via calibration below.
    mean_size = float(sizes.mean())
    coupling = (sizes / mean_size) ** spec.size_runtime_coupling
    runtimes = runtimes * coupling
    # Calibrate the mean and enforce the per-job work cap jointly: the cap
    # shaves the largest products, so re-calibration is iterated.
    per_job_cap = np.minimum(spec.max_work / sizes, spec.max_runtime)
    for _ in range(6):
        runtimes = calibrate_mean(
            runtimes, spec.mean_runtime, spec.min_runtime, spec.max_runtime
        )
        runtimes = np.minimum(runtimes, per_job_cap)
        mean = float(runtimes.mean())
        if abs(mean - spec.mean_runtime) / spec.mean_runtime < 0.02:
            break
    return np.maximum(runtimes, spec.min_runtime)


def generate_workload(
    spec: WorkloadSpec,
    seed: Optional[int] = None,
    job_count: Optional[int] = None,
) -> JobLog:
    """Synthesise a job log for ``spec``.

    Args:
        spec: Workload specification (use :data:`NASA_SPEC`/:data:`SDSC_SPEC`
            for the paper's logs).
        seed: Master seed; the generator derives an independent substream
            per log name, so NASA and SDSC logs from the same seed are
            statistically independent.
        job_count: Optional override of ``spec.job_count`` (benchmarks use
            smaller logs by default).

    Returns:
        A :class:`JobLog` in arrival order with sizes capped at
        ``spec.nodes``.
    """
    count = spec.job_count if job_count is None else int(job_count)
    if count <= 0:
        raise ValueError(f"job_count must be > 0, got {count}")
    spec = WorkloadSpec(**{**spec.__dict__, "job_count": count})

    rng = substream(seed, f"workload.{spec.name}")
    sizes = np.minimum(_sample_sizes(spec, rng), spec.nodes)
    runtimes = _sample_runtimes(spec, sizes, rng)

    total_work = float((sizes * runtimes).sum())
    span = total_work / (spec.nodes * spec.offered_load)
    arrivals = sessionised_arrivals(
        rng, count, span=span, burstiness=spec.burstiness
    )

    # One vector draw gives the same ids as one scalar draw per job
    # (pinned by tests/workload/test_input_digests.py); ``tolist`` turns
    # each array into Python numbers once instead of once per field read.
    users = rng.integers(1, 200, size=count)
    jobs = [
        Job(
            job_id=job_id,
            arrival_time=arrival,
            size=size,
            runtime=runtime,
            user_id=user,
            requested_time=runtime,
        )
        for job_id, arrival, size, runtime, user in zip(
            range(1, count + 1),
            arrivals.tolist(),
            sizes.tolist(),
            runtimes.tolist(),
            users.tolist(),
        )
    ]
    return JobLog(jobs, name=spec.name)


@dataclass(frozen=True)
class BigClusterSpec:
    """A scale-testing workload for clusters far wider than the paper's 128.

    Unlike :class:`WorkloadSpec` this spec is built to be *streamed*
    (:func:`stream_jobs`): arrivals are generated as per-job exponential
    inter-arrival gaps whose mean is each job's work divided by the target
    delivered capacity, so the offered load sits on target over any prefix
    of the stream and a million-job trace never has to exist in memory.

    Attributes:
        name: Label (feeds the RNG substream, so two specs with different
            names draw independent streams from the same master seed).
        nodes: Cluster width the load targets.
        offered_load: Target total-work / capacity over the arrival span.
        mean_runtime: Target average runtime in seconds.
        min_runtime: Runtime floor in seconds.
        max_runtime: Runtime cap in seconds.
        runtime_sigma: Lognormal shape for runtimes.
        size_decay: Geometric decay of the power-of-two size weights;
            smaller means smaller jobs dominate (0.55 gives a mean around
            a few dozen nodes with a tail into the hundreds).
        max_size_fraction: Per-job size cap as a fraction of ``nodes``
            (real schedulers rarely see single jobs spanning the machine).
    """

    name: str = "big"
    nodes: int = 10_000
    offered_load: float = 0.7
    mean_runtime: float = 3600.0
    min_runtime: float = 60.0
    max_runtime: float = 24 * 3600.0
    runtime_sigma: float = 1.6
    size_decay: float = 0.55
    max_size_fraction: float = 0.25


#: Default big-cluster stream used by the ``scale`` benchmark scenario.
BIG_SPEC = BigClusterSpec()


def stream_jobs(
    spec: BigClusterSpec,
    seed: Optional[int] = None,
    job_count: int = 1_000_000,
    chunk: int = 8192,
) -> Iterator[Job]:
    """Stream ``job_count`` jobs in arrival order with O(``chunk``) memory.

    Sizes are powers of two with geometrically decaying weights (capped at
    ``spec.max_size_fraction * spec.nodes``); runtimes are truncated
    lognormals; each job's inter-arrival gap is exponential with mean
    ``work / (nodes * offered_load)``, which keeps arrivals sorted by
    construction and the offered load on target over any prefix — no
    global span computation, so nothing about the stream requires holding
    it in memory.

    Determinism: the stream is a pure function of ``(spec, seed,
    job_count, chunk)`` — draws happen in fixed-size batches, so ``chunk``
    is part of the definition, not a tuning knob to vary per run.

    Args:
        spec: The big-cluster specification.
        seed: Master seed (independent substream per ``spec.name``).
        job_count: Total jobs to yield.
        chunk: Jobs drawn per RNG batch.

    Yields:
        :class:`Job` values with strictly nondecreasing arrival times and
        ids ``1..job_count``.
    """
    if job_count <= 0:
        raise ValueError(f"job_count must be > 0, got {job_count}")
    if chunk <= 0:
        raise ValueError(f"chunk must be > 0, got {chunk}")
    rng = substream(seed, f"workload.{spec.name}.stream")

    max_size = max(1, int(spec.nodes * spec.max_size_fraction))
    exponents = max_size.bit_length()  # sizes 2^0 .. 2^(exponents-1) <= max_size
    sampler = PowerOfTwoSizes(
        tuple(spec.size_decay**k for k in range(exponents))
    )
    median = max(
        spec.min_runtime,
        spec.mean_runtime / float(np.exp(spec.runtime_sigma**2 / 2.0)),
    )
    capacity = spec.nodes * spec.offered_load

    clock = 0.0
    job_id = 1
    remaining = job_count
    while remaining > 0:
        n = min(chunk, remaining)
        sizes = np.minimum(sampler.sample(rng, n), spec.nodes)
        runtimes = truncated_lognormal(
            rng,
            n,
            median=median,
            sigma=spec.runtime_sigma,
            minimum=spec.min_runtime,
            maximum=spec.max_runtime,
        )
        gaps = rng.exponential(sizes * runtimes / capacity)
        users = rng.integers(1, 1000, size=n)
        for gap, size, runtime, user in zip(
            gaps.tolist(), sizes.tolist(), runtimes.tolist(), users.tolist()
        ):
            clock += gap
            yield Job(
                job_id=job_id,
                arrival_time=clock,
                size=size,
                runtime=runtime,
                user_id=user,
                requested_time=runtime,
            )
            job_id += 1
        remaining -= n


def nasa_log(seed: Optional[int] = None, job_count: Optional[int] = None) -> JobLog:
    """The synthetic NASA iPSC/860-like log (Table 1 row 1)."""
    return generate_workload(NASA_SPEC, seed=seed, job_count=job_count)


def sdsc_log(seed: Optional[int] = None, job_count: Optional[int] = None) -> JobLog:
    """The synthetic SDSC SP-2-like log (Table 1 row 2)."""
    return generate_workload(SDSC_SPEC, seed=seed, job_count=job_count)


def log_by_name(
    name: str, seed: Optional[int] = None, job_count: Optional[int] = None
) -> JobLog:
    """Look up a bundled log generator by name (``"nasa"`` or ``"sdsc"``)."""
    generators = {"nasa": nasa_log, "sdsc": sdsc_log}
    try:
        generator = generators[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(generators)}"
        ) from None
    return generator(seed=seed, job_count=job_count)
