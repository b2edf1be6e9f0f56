"""The repo-specific rule set (QOS1xx, QOS5xx).

Importing this package registers every rule with the engine registry;
:func:`repro.lint.engine.all_rules` does so lazily.  Each module groups the
rules policing one determinism failure mode; the rule docstrings and
``rationale`` attributes are the authoritative statement of the contract
(DESIGN.md "Static analysis & the determinism contract" mirrors them).

Families: QOS1xx are single-pass pattern rules; QOS5xx (in
:mod:`repro.lint.arch`, run by ``--arch``) enforce the layer DAG.  The
runtime half of the determinism contract (wall clock, global RNG, hash
seed reaching outputs) is a behavioural test, ``tests/test_ambient_state.py``.
"""

from __future__ import annotations

from repro.lint import arch  # noqa: F401  (registers QOS501/QOS502)
from repro.lint.rules import (  # noqa: F401
    defaults,
    env,
    excepts,
    floats,
    hashing,
    ordering,
    rng,
    state,
    wallclock,
)
