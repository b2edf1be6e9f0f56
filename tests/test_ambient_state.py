"""Results must not depend on ambient process state.

A trajectory may read only its inputs: never the host clock, the
process-global ``random``/``numpy.random`` streams, or the interpreter's
string-hash salt.  These tests perturb each of those and check that two
golden simulations (sampler attached) and one small evaluation report come
out byte-identical to a plain run.  They judge the outputs, so a leak is
caught however many functions it passes through on its way there.

The second golden case starts jobs opportunistically: its pull-forward
pass runs on every capacity change (finish, kill, recovery), so its
counters and samples move with the order of those events.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.report import generate_report
from tests.obs.test_golden_counters import CASES, golden_system, outcomes_digest

REPO = Path(__file__).resolve().parents[1]

#: Prints :func:`fingerprint` in a fresh interpreter.
_PROBE = "from tests.test_ambient_state import fingerprint; print(*fingerprint())"


#: The golden cases the fingerprint runs.
_CASES = ("sdsc_conservative", "sdsc_opportunistic")


def fingerprint():
    """sha256s of each golden case's outcomes, counters and sampler rows,
    and of the small report's text."""
    digests = []
    for name in _CASES:
        system = golden_system(CASES[name])
        result = system.run()
        digests += [
            outcomes_digest(result),
            hashlib.sha256(repr(result.obs["counters"]).encode()).hexdigest(),
            hashlib.sha256(repr(system.sampler.rows).encode()).hexdigest(),
        ]
    report = generate_report(job_count=50, seed=5, figures=[7])
    return digests + [hashlib.sha256(report.encode()).hexdigest()]


def skewed_clock(monkeypatch, origin: float) -> None:
    """Replace the ``time`` clocks with one that jumps on every call."""
    ticks = [origin]

    def seconds():
        ticks[0] += 997.125
        return ticks[0]

    def nanoseconds():
        return int(seconds() * 10 ** 9)

    for name in ("time", "monotonic", "perf_counter"):
        monkeypatch.setattr(time, name, seconds)
        monkeypatch.setattr(time, f"{name}_ns", nanoseconds)


def seeded_global_streams(monkeypatch, seed: int) -> None:
    """Replace the module-level ``random`` and ``numpy.random`` functions
    with the methods of fresh generators seeded with ``seed``."""
    for module, stream in (
        (random, random.Random(seed)),
        (np.random, np.random.RandomState(seed)),
    ):
        for name in dir(stream):
            if not name.startswith("_") and callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, getattr(stream, name))


def test_clock_and_global_rng_do_not_reach_outputs(monkeypatch):
    reference = fingerprint()
    for seed in (1, 2):
        with monkeypatch.context() as patch:
            skewed_clock(patch, origin=1.0e9 * seed)
            seeded_global_streams(patch, seed)
            assert fingerprint() == reference, f"ambient state {seed} leaked"


def test_string_hash_seed_does_not_reach_outputs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    runs = {}
    for seed in ("0", "1", "2"):
        runs[seed] = subprocess.Popen(
            [sys.executable, "-c", _PROBE],
            env=dict(env, PYTHONHASHSEED=seed),
            cwd=str(REPO),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    printed = {}
    for seed, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        printed[seed] = out.split()
    expected = fingerprint()
    assert printed == {seed: expected for seed in runs}
