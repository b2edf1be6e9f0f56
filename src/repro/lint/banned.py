"""Canonical banned-call sets shared by pattern rules and flow analyses.

The QOS1xx pattern rules and the QOS2xx taint analyses must agree on
what counts as a wall-clock read or a global-RNG draw — one definition,
imported by both, keeps the direct-use rules and the through-a-variable
rules from drifting apart.  This module has no intra-package imports so
either side can load first.
"""

from __future__ import annotations

#: Canonical dotted names of wall-clock sources.
WALLCLOCK_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: ``random.<name>`` module-level functions that read or mutate the hidden
#: global Mersenne Twister.
STDLIB_GLOBAL_RNG_FUNCTIONS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` attributes that do NOT touch the legacy global state:
#: explicit generator/bit-generator constructors and seed plumbing.
NUMPY_EXPLICIT_RNG = frozenset(
    {
        "BitGenerator",
        "Generator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "RandomState",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)


def is_global_rng(qualified: str) -> bool:
    """Whether a canonical dotted name is a process-global RNG access."""
    if qualified.startswith("random."):
        return qualified[len("random.") :] in STDLIB_GLOBAL_RNG_FUNCTIONS
    if qualified.startswith("numpy.random."):
        rest = qualified[len("numpy.random.") :]
        return "." not in rest and rest not in NUMPY_EXPLICIT_RNG
    return False
