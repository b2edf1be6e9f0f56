"""Discrete-event simulation substrate (engine, events, seeded RNG)."""

from repro.sim.engine import EventLoop, SimulationError
from repro.sim.events import Event, EventKind, TIE_BREAK_ORDER
from repro.sim.rng import (
    DEFAULT_SEED,
    make_rng,
    stable_hash,
    stable_uniform,
    substream,
)

__all__ = [
    "EventLoop",
    "SimulationError",
    "Event",
    "EventKind",
    "TIE_BREAK_ORDER",
    "DEFAULT_SEED",
    "make_rng",
    "stable_hash",
    "stable_uniform",
    "substream",
]
