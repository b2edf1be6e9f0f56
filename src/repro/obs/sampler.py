"""Sim-time sampling of the simulator's counters into a time-series.

Counters answer "how many, in total"; the :class:`Sampler` answers "when".
It records the scalar state (every component's counters and gauges) at a
fixed sim-time cadence, producing the rows that let a metric like
backfill success rate or predictor detection rate be plotted *over* a
simulation instead of only summed across it.

The sampler itself is passive — it has no clock.  The owner (the simulated
system) calls :meth:`sample` from a recurring ``OBS_SAMPLE`` event, so the
cadence is exact in simulated seconds and costs nothing when no sampler is
attached.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, TextIO, Tuple


class Sampler:
    """Records ``read()`` every ``interval`` simulated seconds.

    Args:
        read: Returns the current ``{metric name: value}`` map.
        interval: Sim-seconds between samples (> 0).

    Rows are plain dicts ``{"time": t, "metrics": {name: value}}`` in
    nondecreasing time order; a row arriving at the same instant as the
    previous one replaces it (the final end-of-run sample may coincide
    with the last periodic one).
    """

    def __init__(
        self, read: Callable[[], Dict[str, float]], interval: float
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampler interval must be > 0, got {interval}")
        self._read = read
        self.interval = float(interval)
        self._rows: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Record one row at simulated time ``now``."""
        if self._rows and now < self._rows[-1]["time"]:
            raise ValueError(
                f"sample at t={now} precedes last row t={self._rows[-1]['time']}"
            )
        row = {"time": float(now), "metrics": self._read()}
        if self._rows and self._rows[-1]["time"] == row["time"]:
            self._rows[-1] = row
        else:
            self._rows.append(row)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """All rows, oldest first (a copy)."""
        return list(self._rows)

    def series(self, name: str) -> List[Tuple[float, float]]:
        """``(time, value)`` pairs for one metric (0.0 where unregistered)."""
        return [
            (row["time"], row["metrics"].get(name, 0.0)) for row in self._rows
        ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_jsonl(self, stream: TextIO) -> None:
        """One JSON object per line, oldest first."""
        for row in self._rows:
            stream.write(json.dumps(row, sort_keys=True) + "\n")

    @staticmethod
    def load_jsonl(lines: Iterable[str]) -> List[Dict[str, Any]]:
        """Parse rows back from JSONL (inverse of :meth:`write_jsonl`)."""
        rows = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rows.append(json.loads(line))
        return rows
