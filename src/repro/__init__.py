"""probqos — probabilistic QoS guarantees for supercomputing systems.

A production-grade reproduction of Oliner, Rudolph, Sahoo, Moreira and
Gupta, *"Probabilistic QoS Guarantees for Supercomputing Systems"* (DSN
2005): a trace-driven simulated supercomputer whose scheduler negotiates
deadlines of the form "job j completes by d with probability p", backed by
event prediction, fault-aware conservative backfilling, and cooperative
checkpointing.

Quick start::

    from repro import SystemConfig, simulate
    from repro.workload import sdsc_log
    from repro.failures import aix_like_trace

    log = sdsc_log(seed=7, job_count=1000)
    failures = aix_like_trace(duration=120 * 86400, seed=7)
    result = simulate(
        SystemConfig(accuracy=0.8, user_threshold=0.9, seed=7), log, failures
    )
    print(result.metrics.qos, result.metrics.utilization)
"""

from repro.core.guarantee import QoSGuarantee
from repro.core.metrics import SimulationMetrics
from repro.core.system import (
    ProbabilisticQoSSystem,
    SimulationResult,
    SystemConfig,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    "ProbabilisticQoSSystem",
    "QoSGuarantee",
    "SimulationMetrics",
    "SimulationResult",
    "SystemConfig",
    "simulate",
    "__version__",
]
