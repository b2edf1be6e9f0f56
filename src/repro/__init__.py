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

import importlib
from typing import Any, List

__version__ = "1.0.0"

#: Each re-export and the module that defines it.  They resolve on first
#: access (PEP 562), so importing a submodule such as ``repro.lint`` or
#: ``repro.cli`` does not import the simulator: ``probqos lint --arch``
#: can then report an import-time cycle as a finding instead of dying in
#: the cycle itself.
_EXPORTS = {
    "ProbabilisticQoSSystem": "repro.core.system",
    "QoSGuarantee": "repro.core.guarantee",
    "SimulationMetrics": "repro.core.metrics",
    "SimulationResult": "repro.core.system",
    "SystemConfig": "repro.core.system",
    "simulate": "repro.core.system",
}

__all__ = [
    "ProbabilisticQoSSystem",
    "QoSGuarantee",
    "SimulationMetrics",
    "SimulationResult",
    "SystemConfig",
    "simulate",
    "__version__",
]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
