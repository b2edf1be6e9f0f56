"""The repo-specific rule set (QOS1xx-QOS5xx).

Importing this package registers every rule with the engine registry;
:func:`repro.lint.engine.all_rules` does so lazily.  Each module groups the
rules policing one determinism failure mode; the rule docstrings and
``rationale`` attributes are the authoritative statement of the contract
(DESIGN.md "Static analysis & the determinism contract" mirrors them).

Families: QOS1xx are single-pass pattern rules; QOS2xx follow taint
through per-function dataflow; QOS3xx check the probability and time-unit
domains; QOS5xx (in :mod:`repro.lint.arch`, run by ``--arch``) enforce
the layer DAG.
"""

from __future__ import annotations

from repro.lint import arch  # noqa: F401  (registers QOS501/QOS502)
from repro.lint.rules import (  # noqa: F401
    dataflow,
    defaults,
    env,
    excepts,
    floats,
    hashing,
    ordering,
    pickling,
    probability,
    profzones,
    rng,
    state,
    wallclock,
)
