"""Streaming guarantee-calibration & SLO audit layer.

The paper's value proposition is Equation 2: the system *promises* a
completion probability, so the reproduction must be able to answer "are
those promises honest?" at scale.  ``trace explain`` audits one job at a
time; this module folds every promise/outcome pair of a run into an
aggregate :class:`AuditReport`:

* a **reliability diagram** — fixed promise bins mapped to the empirical
  honoured rate, with Wilson 95% score intervals and per-bin counts;
* **proper scoring** — the Brier score with Murphy's
  calibration/refinement decomposition, plus log loss;
* **per-dimension SLO rollups** — breach counters by user class,
  partition, job-size bucket and promise decile, with configurable alert
  thresholds that mark a run ``DEGRADED`` or ``VIOLATED``.

:class:`GuaranteeAudit` is a view over the simulator's record stream: a
:class:`~repro.obs.tracelog.TraceRecorder` that folds the
``negotiated`` (promise) and ``finish`` (outcome) records as they arrive
and keeps none of them.  The one fold serves two feeds, which therefore
produce *identical* reports (tested property):

* **live** — pass the audit as the simulator's trace recorder
  (``recorder=GuaranteeAudit()``), as replicated sweeps do;
* **replay** — :func:`audit_from_records` folds a loaded JSONL trace (or
  any record iterable) through :meth:`GuaranteeAudit.consume`; this is
  ``probqos audit TRACE``.

A finished run's :class:`~repro.core.metrics.JobOutcome` list feeds the
same fold through :func:`audit_outcomes`; :func:`calibration_gap` adds
the one score the audit does not keep, the work-weighted honesty gap.

Verdicts are always recomputed inside the aggregator from
``(deadline, finish_time)`` using the canonical epsilon comparison
(:func:`promise_margin` / :func:`margin_honours`) — never read from the
trace — so live and replayed reports cannot drift.  Those helpers are
also the single source of truth for ``QoSGuarantee.kept`` and
``trace explain``'s HONOURED/BROKEN verdict.

Reports store raw additive sums (bin counts, honoured counts, promise
sums, Brier/log-loss sums) so :meth:`AuditReport.merge` across
replication shards is exact up to float summation order, mirroring
``repro.obs.export.merge_obs``; derived quantities (Wilson intervals, status,
alerts) are recomputed after every merge.

This module is dependency-light by design: it imports only the stdlib
and ``repro.obs.tracelog``, so ``repro.core`` and
``repro.prediction`` may import it freely without cycles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tracelog import TraceRecord, TraceRecorder, check_record

#: Version stamp embedded in every serialized :class:`AuditReport`.
AUDIT_SCHEMA_VERSION = 1

#: Absolute tolerance (simulated seconds) for deadline verdicts.  A finish
#: within ``VERDICT_EPSILON`` *after* the promised deadline still counts as
#: honoured: deadlines are sums of float durations, and a promise must not
#: flip to BROKEN over one ULP of accumulated rounding.  This is the single
#: epsilon shared by ``QoSGuarantee.kept``, ``trace explain`` verdicts and
#: the audit layer (lint rule QOS104: float comparisons need an explicit,
#: documented tolerance).
VERDICT_EPSILON = 1e-6

#: Clamp for log loss: a promise of exactly 0.0 or 1.0 that goes the wrong
#: way would otherwise score an infinite penalty.
LOG_LOSS_CLAMP = 1e-12

#: Two-sided z for the default 95% Wilson score interval (same value the
#: replication layer uses for its normal-approximation fallback).
Z_95 = 1.96

AUDIT_STATUS_OK = "OK"
AUDIT_STATUS_DEGRADED = "DEGRADED"
AUDIT_STATUS_VIOLATED = "VIOLATED"

#: Ladder order, least to most severe.
AUDIT_STATUSES = (AUDIT_STATUS_OK, AUDIT_STATUS_DEGRADED, AUDIT_STATUS_VIOLATED)

#: Rollup dimensions, in the order keys are attached to each promise.
AUDIT_DIMENSIONS = ("user", "partition", "size", "promise")


def promise_margin(deadline: float, finish_time: Optional[float]) -> Optional[float]:
    """Signed slack of a finish against its promised deadline.

    Positive = finished early (honoured), negative = finished late.
    ``None`` finish (job never completed within the simulation) yields
    ``None`` — a broken promise with no finite margin.
    """
    if finish_time is None:
        return None
    return deadline - finish_time


def margin_honours(margin: Optional[float]) -> bool:
    """Whether a signed margin honours the promise.

    ``None`` (never finished) is broken; otherwise the promise is honoured
    iff ``margin >= -VERDICT_EPSILON`` — see :data:`VERDICT_EPSILON` for
    why the tolerance exists and why it leans toward HONOURED.
    """
    return margin is not None and margin >= -VERDICT_EPSILON


def wilson_interval(successes: int, count: int, z: float = Z_95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation, the Wilson interval stays inside
    ``[0, 1]`` and behaves sensibly at the extremes (``0/n`` and ``n/n``)
    — exactly where calibration bins live when the system promises
    p ≈ 1.  Returns ``(0.0, 1.0)`` for an empty bin (no information).
    """
    if count <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= count:
        raise ValueError(f"successes {successes} not in [0, {count}]")
    n = float(count)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = phat + z2 / (2.0 * n)
    spread = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
    low = (centre - spread) / denom
    high = (centre + spread) / denom
    # The exact bounds at the degenerate proportions are 0 and 1; the
    # float evaluation above can land an ULP inside them.
    if successes == 0:
        low = 0.0
    if successes == count:
        high = 1.0
    return (max(0.0, low), min(1.0, high))


def poisson_tail(observed: int, mean: float) -> float:
    """Upper tail ``P(X >= observed)`` for ``X ~ Poisson(mean)``.

    Exact by summation for small means; for ``mean > 100`` (where the
    exact sum both loses precision and stops mattering) the
    continuity-corrected normal approximation.  Used by
    :func:`breach_excess_pvalue` as the Le Cam upper bound on the
    Poisson-binomial breach count.
    """
    if observed <= 0:
        return 1.0
    if mean <= 0.0:
        return 0.0
    if mean > 100.0:
        z = (observed - 0.5 - mean) / math.sqrt(mean)
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    # 1 - CDF(observed - 1), summed in increasing-term order.
    term = math.exp(-mean)
    cdf = term
    for k in range(1, observed):
        term *= mean / k
        cdf += term
    return max(0.0, 1.0 - cdf)


def breach_excess_pvalue(count: int, successes: int, forecast_sum: float) -> float:
    """One-sided p-value for "more breaches than the forecasts allowed".

    Under honest forecasts each promise ``i`` breaks independently with
    probability ``1 - f_i``, so the breach count is Poisson-binomial with
    mean ``mu = count - forecast_sum``.  Only the bin's raw sums survive
    aggregation, so the Poisson(mu) upper bound (Le Cam) stands in for
    the exact tail: it is conservative (Poisson variance ``mu`` is at
    least the Poisson-binomial's ``sum f_i (1 - f_i)``), and it is sharp
    exactly where guarantee audits live — forecasts near 1, where a
    Wilson-only check would flag a single break among hundreds of
    p ~ 0.999 promises as over-promising even though the promised
    probabilities themselves allow it.
    """
    breaches = count - successes
    return poisson_tail(breaches, count - forecast_sum)


@dataclass(frozen=True)
class ReliabilityBin:
    """One fixed-width forecast bin of a reliability diagram.

    ``count``/``successes``/``forecast_sum`` are the raw additive sums
    (the merge substrate); the remaining fields are derived from them at
    build time.  In the guarantee-audit context a "success" is an
    honoured promise and the forecast is the promised probability.

    Attributes:
        low: Bin lower edge (inclusive).
        high: Bin upper edge (exclusive; the last bin includes 1.0).
        count: Observations in the bin.
        successes: Observations whose outcome was a success.
        forecast_sum: Sum of the binned forecast probabilities.
        mean_forecast: ``forecast_sum / count`` (0.0 for an empty bin).
        success_rate: ``successes / count`` (0.0 for an empty bin).
        wilson_low: Lower edge of the Wilson interval on ``success_rate``.
        wilson_high: Upper edge of the Wilson interval on ``success_rate``.
        over_confident: True when the forecasts in this bin promise more
            than the evidence supports (over-promising, in audit terms):
            the mean forecast exceeds the Wilson upper bound *and* the
            breach count is significantly above what the promised
            probabilities themselves allow
            (:func:`breach_excess_pvalue`).  The second condition keeps
            the flag honest in the p ~ 1 bin, where one broken p = 0.9
            promise among hundreds of honoured p = 0.999 ones shifts the
            mean forecast past the Wilson bound without any promise
            having lied.
    """

    low: float
    high: float
    count: int
    successes: int
    forecast_sum: float
    mean_forecast: float
    success_rate: float
    wilson_low: float
    wilson_high: float
    over_confident: bool

    @property
    def midpoint(self) -> float:
        """Centre of the bin's forecast range."""
        return (self.low + self.high) / 2.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "low": self.low,
            "high": self.high,
            "count": self.count,
            "successes": self.successes,
            "forecast_sum": self.forecast_sum,
            "mean_forecast": self.mean_forecast,
            "success_rate": self.success_rate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "over_confident": self.over_confident,
        }


@dataclass(frozen=True)
class CalibrationSummary:
    """Scoring summary of a :class:`CalibrationCurve`.

    ``brier`` is the exact per-observation mean squared error;
    ``brier_binned`` is the same quantity computed from bin aggregates,
    and decomposes exactly (Murphy 1973) as
    ``brier_binned == calibration + refinement`` where

    * ``calibration`` = Σₖ nₖ(f̄ₖ − rₖ)² / N — how far each bin's mean
      forecast sits from its observed success rate (0 is honest);
    * ``refinement`` = Σₖ nₖ rₖ(1 − rₖ) / N — outcome variance within
      bins (low means the forecasts sort outcomes sharply).

    ``brier`` and ``brier_binned`` differ only by the within-bin variance
    of the forecasts themselves (binning discards it).
    """

    count: int
    successes: int
    brier: float
    log_loss: float
    brier_binned: float
    calibration: float
    refinement: float
    expected_calibration_error: float
    bins: Tuple[ReliabilityBin, ...]

    @property
    def success_rate(self) -> float:
        return self.successes / self.count if self.count else 0.0

    @property
    def mean_forecast(self) -> float:
        if not self.count:
            return 0.0
        return sum(b.forecast_sum for b in self.bins) / self.count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "mean_forecast": self.mean_forecast,
            "brier": self.brier,
            "log_loss": self.log_loss,
            "brier_binned": self.brier_binned,
            "calibration": self.calibration,
            "refinement": self.refinement,
            "expected_calibration_error": self.expected_calibration_error,
            "bins": [b.to_dict() for b in self.bins],
        }


class CalibrationCurve:
    """Streaming (forecast, outcome) accumulator behind reliability math.

    One implementation shared by guarantee auditing and predictor
    evaluation (``repro.prediction.evaluation``).  Holds only raw
    additive sums, so two
    curves over the same observations in any split are mergeable.
    """

    def __init__(self, bin_count: int = 10, confidence_z: float = Z_95) -> None:
        if bin_count < 1:
            raise ValueError(f"bin_count must be >= 1, got {bin_count}")
        if confidence_z <= 0.0:
            raise ValueError(f"confidence_z must be > 0, got {confidence_z}")
        self.bin_count = bin_count
        self.confidence_z = confidence_z
        self.count = 0
        self.successes = 0
        self.brier_sum = 0.0
        self.log_loss_sum = 0.0
        self._counts = [0] * bin_count
        self._successes = [0] * bin_count
        self._forecast_sums = [0.0] * bin_count

    def bin_index(self, forecast: float) -> int:
        """Bin holding ``forecast``; the last bin includes 1.0."""
        return min(int(forecast * self.bin_count), self.bin_count - 1)

    def observe(self, forecast: float, success: bool) -> None:
        """Fold one (forecast probability, realized outcome) pair."""
        if not 0.0 <= forecast <= 1.0:
            raise ValueError(f"forecast {forecast} not in [0, 1]")
        idx = self.bin_index(forecast)
        self.count += 1
        self._counts[idx] += 1
        self._forecast_sums[idx] += forecast
        outcome = 1.0 if success else 0.0
        if success:
            self.successes += 1
            self._successes[idx] += 1
        self.brier_sum += (forecast - outcome) ** 2
        clamped = min(max(forecast, LOG_LOSS_CLAMP), 1.0 - LOG_LOSS_CLAMP)
        if success:
            self.log_loss_sum += -math.log(clamped)
        else:
            self.log_loss_sum += -math.log1p(-clamped)

    def add_raw(
        self,
        index: int,
        count: int,
        successes: int,
        forecast_sum: float,
    ) -> None:
        """Fold pre-aggregated bin sums (the merge/deserialize path)."""
        if not 0 <= index < self.bin_count:
            raise ValueError(f"bin index {index} not in [0, {self.bin_count})")
        if not 0 <= successes <= count:
            raise ValueError(f"successes {successes} not in [0, {count}]")
        self.count += count
        self.successes += successes
        self._counts[index] += count
        self._successes[index] += successes
        self._forecast_sums[index] += forecast_sum

    def clone(self) -> "CalibrationCurve":
        other = CalibrationCurve(self.bin_count, self.confidence_z)
        other.count = self.count
        other.successes = self.successes
        other.brier_sum = self.brier_sum
        other.log_loss_sum = self.log_loss_sum
        other._counts = list(self._counts)
        other._successes = list(self._successes)
        other._forecast_sums = list(self._forecast_sums)
        return other

    def bins(self) -> Tuple[ReliabilityBin, ...]:
        """All ``bin_count`` bins, empty ones included (merge substrate)."""
        width = 1.0 / self.bin_count
        # One-sided significance matching the two-sided confidence_z
        # (z = 1.96 -> alpha = 0.025).
        alpha = 0.5 * math.erfc(self.confidence_z / math.sqrt(2.0))
        out: List[ReliabilityBin] = []
        for k in range(self.bin_count):
            n = self._counts[k]
            s = self._successes[k]
            fsum = self._forecast_sums[k]
            mean_f = fsum / n if n else 0.0
            rate = s / n if n else 0.0
            low, high = wilson_interval(s, n, self.confidence_z)
            over = (
                n > 0
                and mean_f > high
                and breach_excess_pvalue(n, s, fsum) < alpha
            )
            out.append(
                ReliabilityBin(
                    low=k * width,
                    high=(k + 1) * width,
                    count=n,
                    successes=s,
                    forecast_sum=fsum,
                    mean_forecast=mean_f,
                    success_rate=rate,
                    wilson_low=low,
                    wilson_high=high,
                    over_confident=over,
                )
            )
        return tuple(out)

    def summary(self) -> CalibrationSummary:
        """Score the curve: Brier (+ decomposition), log loss, ECE."""
        bins = self.bins()
        n_total = self.count
        if n_total == 0:
            return CalibrationSummary(
                count=0,
                successes=0,
                brier=0.0,
                log_loss=0.0,
                brier_binned=0.0,
                calibration=0.0,
                refinement=0.0,
                expected_calibration_error=0.0,
                bins=bins,
            )
        calibration = 0.0
        refinement = 0.0
        brier_binned = 0.0
        ece = 0.0
        for b in bins:
            if b.count == 0:
                continue
            gap = b.mean_forecast - b.success_rate
            calibration += b.count * gap * gap
            refinement += b.count * b.success_rate * (1.0 - b.success_rate)
            # Binned Brier from raw sums: Σ (n·f̄² − 2·f̄·s + s).
            brier_binned += (
                b.count * b.mean_forecast * b.mean_forecast
                - 2.0 * b.mean_forecast * b.successes
                + b.successes
            )
            ece += b.count * abs(gap)
        return CalibrationSummary(
            count=n_total,
            successes=self.successes,
            brier=self.brier_sum / n_total,
            log_loss=self.log_loss_sum / n_total,
            brier_binned=brier_binned / n_total,
            calibration=calibration / n_total,
            refinement=refinement / n_total,
            expected_calibration_error=ece / n_total,
            bins=bins,
        )


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for binning, intervals and alert thresholds.

    Attributes:
        bin_count: Reliability-diagram bins over ``[0, 1]``.
        confidence_z: Two-sided z for Wilson intervals (1.96 ≈ 95%).
        node_block: Partition rollup granularity — jobs are grouped by
            which ``node_block``-wide block their lowest planned node
            falls in (a proxy for "where on the machine it ran").
        min_slo_count: Rollup keys with fewer audited promises than this
            never raise alerts (too little evidence).
        degraded_overpromise_bins: A run is at least DEGRADED when this
            many populated bins are over-promised (mean promise above the
            Wilson upper bound).
        violated_overpromise_share: A run is VIOLATED when over-promised
            bins cover at least this fraction of all audited promises.
        max_breach_rate: Optional SLO on any single rollup key's breach
            rate; keys above it (with enough evidence) mark the run at
            least DEGRADED.  ``None`` disables the per-key SLO.
    """

    bin_count: int = 10
    confidence_z: float = Z_95
    node_block: int = 32
    min_slo_count: int = 10
    degraded_overpromise_bins: int = 1
    violated_overpromise_share: float = 0.25
    max_breach_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bin_count < 1:
            raise ValueError(f"bin_count must be >= 1, got {self.bin_count}")
        if self.confidence_z <= 0.0:
            raise ValueError(f"confidence_z must be > 0, got {self.confidence_z}")
        if self.node_block < 1:
            raise ValueError(f"node_block must be >= 1, got {self.node_block}")
        if self.min_slo_count < 1:
            raise ValueError(f"min_slo_count must be >= 1, got {self.min_slo_count}")
        if self.degraded_overpromise_bins < 1:
            raise ValueError(
                f"degraded_overpromise_bins must be >= 1, "
                f"got {self.degraded_overpromise_bins}"
            )
        if not 0.0 < self.violated_overpromise_share <= 1.0:
            raise ValueError(
                f"violated_overpromise_share must be in (0, 1], "
                f"got {self.violated_overpromise_share}"
            )
        if self.max_breach_rate is not None and not 0.0 <= self.max_breach_rate <= 1.0:
            raise ValueError(
                f"max_breach_rate must be in [0, 1], got {self.max_breach_rate}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bin_count": self.bin_count,
            "confidence_z": self.confidence_z,
            "node_block": self.node_block,
            "min_slo_count": self.min_slo_count,
            "degraded_overpromise_bins": self.degraded_overpromise_bins,
            "violated_overpromise_share": self.violated_overpromise_share,
            "max_breach_rate": self.max_breach_rate,
        }


@dataclass(frozen=True)
class RollupStat:
    """Breach accounting for one rollup key (raw additive sums)."""

    count: int
    honoured: int
    promise_sum: float

    @property
    def breaches(self) -> int:
        return self.count - self.honoured

    @property
    def breach_rate(self) -> float:
        return self.breaches / self.count if self.count else 0.0

    @property
    def mean_promised(self) -> float:
        return self.promise_sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "honoured": self.honoured,
            "promise_sum": self.promise_sum,
            "breaches": self.breaches,
            "breach_rate": self.breach_rate,
            "mean_promised": self.mean_promised,
        }


def _size_key(size: int) -> str:
    """Power-of-two job-size bucket, e.g. ``size:4-7``."""
    if size < 1:
        return "size:0"
    lo = 1 << (size.bit_length() - 1)
    hi = lo * 2 - 1
    if lo == hi:
        return f"size:{lo}"
    return f"size:{lo}-{hi}"


def _partition_key(nodes: Sequence[int], block: int) -> str:
    """Node-block bucket of the lowest planned node, e.g. ``nodes:0-31``."""
    if not nodes:
        return "nodes:unplaced"
    base = (min(nodes) // block) * block
    return f"nodes:{base}-{base + block - 1}"


def _promise_key(probability: float) -> str:
    """Promise decile, e.g. ``p:[0.9,1.0]`` (last decile includes 1.0)."""
    decile = min(int(probability * 10.0), 9)
    low = decile / 10.0
    if decile == 9:
        return f"p:[{low:.1f},1.0]"
    return f"p:[{low:.1f},{(decile + 1) / 10.0:.1f})"


@dataclass(frozen=True)
class _Promise:
    """A pending promise awaiting its outcome."""

    probability: float
    deadline: float
    keys: Tuple[str, str, str, str]


@dataclass(frozen=True)
class AuditReport:
    """Immutable promise-vs-outcome audit of one run (or a merge of runs).

    Never-finished promises are folded in as BROKEN at build time, so
    ``sum(bin counts) == total`` and every rollup dimension's counts also
    sum to ``total``.  ``meta`` carries provenance (source trace, run
    parameters, merge arity) and is excluded from equality — the
    live-vs-replay equivalence property compares everything else.
    """

    schema: int
    config: AuditConfig
    total: int
    honoured: int
    unfinished: int
    brier_sum: float
    log_loss_sum: float
    bins: Tuple[ReliabilityBin, ...]
    rollups: Dict[str, Dict[str, RollupStat]]
    status: str
    alerts: Tuple[str, ...]
    meta: Dict[str, Any] = field(compare=False, default_factory=dict)

    @property
    def broken(self) -> int:
        return self.total - self.honoured

    @property
    def honoured_rate(self) -> float:
        return self.honoured / self.total if self.total else 0.0

    @property
    def mean_promised(self) -> float:
        if not self.total:
            return 0.0
        return sum(b.forecast_sum for b in self.bins) / self.total

    @property
    def brier(self) -> float:
        return self.brier_sum / self.total if self.total else 0.0

    @property
    def log_loss(self) -> float:
        return self.log_loss_sum / self.total if self.total else 0.0

    def _scoring_curve(self) -> CalibrationCurve:
        curve = CalibrationCurve(self.config.bin_count, self.config.confidence_z)
        for k, b in enumerate(self.bins):
            curve.add_raw(k, b.count, b.successes, b.forecast_sum)
        curve.brier_sum = self.brier_sum
        curve.log_loss_sum = self.log_loss_sum
        return curve

    def scoring(self) -> CalibrationSummary:
        """Full proper-scoring summary (Brier decomposition, ECE)."""
        return self._scoring_curve().summary()

    def merge(self, other: "AuditReport") -> "AuditReport":
        """Fold two shards into one report; exact on the raw sums.

        Raises ValueError when the shards were audited under different
        configs — their bins would not be comparable.
        """
        if self.config != other.config:
            raise ValueError(
                f"cannot merge audit reports with different configs: "
                f"{self.config} != {other.config}"
            )
        if self.schema != other.schema:
            raise ValueError(
                f"cannot merge audit schema {self.schema} with {other.schema}"
            )
        curve = self._scoring_curve()
        for k, b in enumerate(other.bins):
            curve.add_raw(k, b.count, b.successes, b.forecast_sum)
        curve.brier_sum += other.brier_sum
        curve.log_loss_sum += other.log_loss_sum
        rollups: Dict[str, Dict[str, List[float]]] = {}
        for report in (self, other):
            for dim in AUDIT_DIMENSIONS:
                accs = rollups.setdefault(dim, {})
                for key, stat in report.rollups.get(dim, {}).items():
                    acc = accs.setdefault(key, [0, 0, 0.0])
                    acc[0] += stat.count
                    acc[1] += stat.honoured
                    acc[2] += stat.promise_sum
        merged_meta = {
            "merged": int(self.meta.get("merged", 1)) + int(other.meta.get("merged", 1))
        }
        return _build_report(
            curve=curve,
            rollup_accs=rollups,
            unfinished=self.unfinished + other.unfinished,
            config=self.config,
            meta=merged_meta,
        )

    def to_dict(self) -> Dict[str, Any]:
        scoring = self.scoring()
        return {
            "schema": self.schema,
            "config": self.config.to_dict(),
            "total": self.total,
            "honoured": self.honoured,
            "broken": self.broken,
            "unfinished": self.unfinished,
            "honoured_rate": self.honoured_rate,
            "mean_promised": self.mean_promised,
            "brier_sum": self.brier_sum,
            "log_loss_sum": self.log_loss_sum,
            "scoring": {
                "brier": scoring.brier,
                "log_loss": scoring.log_loss,
                "brier_binned": scoring.brier_binned,
                "calibration": scoring.calibration,
                "refinement": scoring.refinement,
                "expected_calibration_error": scoring.expected_calibration_error,
            },
            "bins": [b.to_dict() for b in self.bins],
            "rollups": {
                dim: {key: stat.to_dict() for key, stat in sorted(keys.items())}
                for dim, keys in sorted(self.rollups.items())
            },
            "status": self.status,
            "alerts": list(self.alerts),
            "meta": dict(self.meta),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _evaluate_status(
    bins: Sequence[ReliabilityBin],
    rollups: Mapping[str, Mapping[str, RollupStat]],
    config: AuditConfig,
    total: int,
) -> Tuple[str, Tuple[str, ...]]:
    """Derive the OK/DEGRADED/VIOLATED verdict and its alert lines."""
    alerts: List[str] = []
    over = [b for b in bins if b.count > 0 and b.over_confident]
    for b in over:
        closing = "]" if b.high >= 1.0 else ")"
        alerts.append(
            f"over-promised bin [{b.low:.1f},{b.high:.1f}{closing}: mean promise "
            f"{b.mean_forecast:.3f} exceeds Wilson upper bound "
            f"{b.wilson_high:.3f} (honoured {b.successes}/{b.count})"
        )
    breached_keys = 0
    if config.max_breach_rate is not None:
        for dim in AUDIT_DIMENSIONS:
            for key in sorted(rollups.get(dim, {})):
                stat = rollups[dim][key]
                if stat.count < config.min_slo_count:
                    continue
                if stat.breach_rate > config.max_breach_rate:
                    breached_keys += 1
                    alerts.append(
                        f"SLO breach on {dim} rollup {key}: breach rate "
                        f"{stat.breach_rate:.3f} > {config.max_breach_rate:.3f} "
                        f"(breaches {stat.breaches}/{stat.count})"
                    )
    status = AUDIT_STATUS_OK
    if len(over) >= config.degraded_overpromise_bins or breached_keys > 0:
        status = AUDIT_STATUS_DEGRADED
    if total > 0 and over:
        over_share = sum(b.count for b in over) / total
        if over_share >= config.violated_overpromise_share:
            status = AUDIT_STATUS_VIOLATED
    return status, tuple(alerts)


def _build_report(
    curve: CalibrationCurve,
    rollup_accs: Mapping[str, Mapping[str, Sequence[float]]],
    unfinished: int,
    config: AuditConfig,
    meta: Optional[Mapping[str, Any]] = None,
) -> AuditReport:
    bins = curve.bins()
    rollups: Dict[str, Dict[str, RollupStat]] = {}
    for dim in AUDIT_DIMENSIONS:
        stats: Dict[str, RollupStat] = {}
        for key in sorted(rollup_accs.get(dim, {})):
            acc = rollup_accs[dim][key]
            stats[key] = RollupStat(
                count=int(acc[0]), honoured=int(acc[1]), promise_sum=float(acc[2])
            )
        rollups[dim] = stats
    status, alerts = _evaluate_status(bins, rollups, config, curve.count)
    return AuditReport(
        schema=AUDIT_SCHEMA_VERSION,
        config=config,
        total=curve.count,
        honoured=curve.successes,
        unfinished=unfinished,
        brier_sum=curve.brier_sum,
        log_loss_sum=curve.log_loss_sum,
        bins=bins,
        rollups=rollups,
        status=status,
        alerts=alerts,
        meta=dict(meta or {}),
    )


class GuaranteeAudit(TraceRecorder):
    """Streaming promise-vs-outcome aggregator over the record stream.

    A :class:`~repro.obs.tracelog.TraceRecorder` whose :meth:`_ingest`
    folds ``negotiated`` records into pending promises and ``finish``
    records into verdicts, so it is fed live as the simulator's
    ``recorder`` or offline from a trace via :meth:`consume`.  It neither
    retains nor writes records: streaming the trace is the plain
    recorder's job.  :meth:`report` is non-destructive:
    pending promises are folded in as BROKEN in the report without
    mutating the aggregator, so it can be called mid-stream.

    Raises:
        ValueError: from the fold, on any record
            :func:`~repro.obs.tracelog.check_record` rejects (a job
            record with no ``job_id``, a ``negotiated`` record whose
            ``probability`` or ``deadline`` is missing or not finite, ...).
    """

    def __init__(self, config: Optional[AuditConfig] = None) -> None:
        super().__init__(keep_in_memory=False)
        self.config = config if config is not None else AuditConfig()
        self._curve = CalibrationCurve(self.config.bin_count, self.config.confidence_z)
        self._rollups: Dict[str, Dict[str, List[float]]] = {
            dim: {} for dim in AUDIT_DIMENSIONS
        }
        self._pending: Dict[int, _Promise] = {}

    @property
    def audited(self) -> int:
        """Promises with a resolved outcome so far."""
        return self._curve.count

    @property
    def pending(self) -> int:
        """Promises still awaiting their finish."""
        return len(self._pending)

    def observe_promise(
        self,
        job_id: int,
        probability: float,
        deadline: float,
        size: int = 0,
        user_id: int = -1,
        nodes: Sequence[int] = (),
    ) -> None:
        """Register a promise made at negotiation time."""
        self._pending[job_id] = _Promise(
            probability=probability,
            deadline=deadline,
            keys=(
                f"user:{user_id}",
                _partition_key(nodes, self.config.node_block),
                _size_key(size),
                _promise_key(probability),
            ),
        )

    def observe_outcome(self, job_id: int, finish_time: Optional[float]) -> None:
        """Resolve a promise against the job's finish time.

        The verdict is recomputed here from ``(deadline, finish_time)``
        via the canonical epsilon helpers — identically for live and
        replayed feeds.  Finishes for jobs with no registered promise
        (EASY runs, truncated traces) are ignored.
        """
        promise = self._pending.pop(job_id, None)
        if promise is None:
            return
        honoured = margin_honours(promise_margin(promise.deadline, finish_time))
        self._score(promise, honoured)

    def _ingest(self, record: TraceRecord) -> None:
        """Fold one record (negotiated/finish; the rest only stream)."""
        check_record(record)
        super()._ingest(record)
        if record.kind not in ("negotiated", "finish"):
            return
        assert record.job_id is not None  # check_record guarantees it
        job_id = int(record.job_id)
        if record.kind == "negotiated":
            detail = record.detail
            nodes = detail.get("planned_nodes") or ()
            self.observe_promise(
                job_id=job_id,
                probability=float(detail["probability"]),
                deadline=float(detail["deadline"]),
                size=int(detail.get("size", 0)),
                user_id=int(detail.get("user_id", -1)),
                nodes=[int(n) for n in nodes],
            )
        else:
            self.observe_outcome(job_id=job_id, finish_time=record.time)

    def _score(self, promise: _Promise, honoured: bool) -> None:
        self._curve.observe(promise.probability, honoured)
        for dim, key in zip(AUDIT_DIMENSIONS, promise.keys):
            acc = self._rollups[dim].setdefault(key, [0, 0, 0.0])
            acc[0] += 1
            if honoured:
                acc[1] += 1
            acc[2] += promise.probability

    def report(self, meta: Optional[Mapping[str, Any]] = None) -> AuditReport:
        """Build the report; pending promises count as BROKEN.

        Non-destructive: the aggregator keeps streaming afterwards.
        Pending promises are folded in deterministic (sorted job id)
        order so live and replayed reports agree bit-for-bit.
        """
        curve = self._curve.clone()
        rollups: Dict[str, Dict[str, List[float]]] = {
            dim: {key: list(acc) for key, acc in accs.items()}
            for dim, accs in self._rollups.items()
        }
        unfinished = len(self._pending)
        for job_id in sorted(self._pending):
            promise = self._pending[job_id]
            curve.observe(promise.probability, False)
            for dim, key in zip(AUDIT_DIMENSIONS, promise.keys):
                acc = rollups[dim].setdefault(key, [0, 0, 0.0])
                acc[0] += 1
                acc[2] += promise.probability
        return _build_report(
            curve=curve,
            rollup_accs=rollups,
            unfinished=unfinished,
            config=self.config,
            meta=meta,
        )


def merge_reports(reports: Sequence[AuditReport]) -> AuditReport:
    """Fold a sequence of shard reports into one (associative, and
    commutative up to float summation order).  Raises on an empty
    sequence or mismatched configs."""
    if not reports:
        raise ValueError("cannot merge an empty sequence of audit reports")
    merged = reports[0]
    for report in reports[1:]:
        merged = merged.merge(report)
    return merged


def audit_from_records(
    records: Iterable[TraceRecord],
    config: Optional[AuditConfig] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> AuditReport:
    """One-shot replay audit of a trace record stream."""
    return GuaranteeAudit(config).consume(records).report(meta=meta)


def audit_outcomes(
    outcomes: Iterable[Any], config: Optional[AuditConfig] = None
) -> GuaranteeAudit:
    """Fold a finished run's promises and outcomes into an audit.

    ``outcomes`` are :class:`~repro.core.metrics.JobOutcome` records, as
    ``SimulationResult.outcomes`` lists them: by job id, which is the order
    they are folded in (a live fold scores in finish order instead, so its
    sums can differ in the last bits).  Jobs with no guarantee are skipped;
    a job that never finished is scored BROKEN.
    """
    audit = GuaranteeAudit(config)
    for outcome in outcomes:
        guarantee = outcome.guarantee
        if guarantee is None:
            continue
        job = outcome.job
        audit.observe_promise(
            job.job_id,
            guarantee.probability,
            guarantee.deadline,
            size=job.size,
            user_id=job.user_id,
            nodes=guarantee.planned_nodes,
        )
        audit.observe_outcome(job.job_id, outcome.finish)
    return audit


def calibration_gap(outcomes: Iterable[Any]) -> Optional[float]:
    """Work-weighted mean absolute honesty gap, |promised − kept|.

    Weighted by ``e_j n_j`` (the QoS metric's weighting), so over-promising
    on big jobs counts for more — exactly where broken promises hurt.
    ``outcomes`` are :class:`~repro.core.metrics.JobOutcome` records;
    returns None when none carries a promise.
    """
    total_work = 0.0
    weighted_gap = 0.0
    for outcome in outcomes:
        if outcome.guarantee is None:
            continue
        work = outcome.job.work
        kept = 1.0 if outcome.met_deadline else 0.0
        weighted_gap += work * abs(outcome.guarantee.probability - kept)
        total_work += work
    if total_work == 0.0:  # qoslint: disable=QOS104 -- exact-zero guard: only the empty sum produces literal 0.0 here
        return None
    return weighted_gap / total_work


def validate_audit_report(doc: Mapping[str, Any]) -> List[str]:
    """Structural validation of a serialized report; returns problem list.

    Shared by tests and CI (same pattern as ``validate_chrome_trace``):
    an empty return value means the document is a well-formed audit
    report whose counts are internally consistent.
    """
    problems: List[str] = []
    if not isinstance(doc, Mapping):
        return ["report is not a JSON object"]
    if doc.get("schema") != AUDIT_SCHEMA_VERSION:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {AUDIT_SCHEMA_VERSION}"
        )
    for field_name in ("total", "honoured", "broken", "unfinished"):
        value = doc.get(field_name)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{field_name} is {value!r}, expected int >= 0")
    status = doc.get("status")
    if status not in AUDIT_STATUSES:
        problems.append(f"status {status!r} not in {AUDIT_STATUSES}")
    if not isinstance(doc.get("alerts"), list):
        problems.append("alerts is not a list")
    bins = doc.get("bins")
    if not isinstance(bins, list) or not bins:
        problems.append("bins is not a non-empty list")
        return problems
    total = doc.get("total")
    if isinstance(total, int):
        bin_total = sum(int(b.get("count", 0)) for b in bins)
        if bin_total != total:
            problems.append(f"bin counts sum to {bin_total}, total is {total}")
        honoured = doc.get("honoured")
        bin_honoured = sum(int(b.get("successes", 0)) for b in bins)
        if isinstance(honoured, int) and bin_honoured != honoured:
            problems.append(
                f"bin successes sum to {bin_honoured}, honoured is {honoured}"
            )
    prev_high: Optional[float] = None
    for i, b in enumerate(bins):
        for key in ("low", "high", "mean_forecast", "success_rate", "wilson_low", "wilson_high"):
            if not isinstance(b.get(key), (int, float)):
                problems.append(f"bin {i}: {key} is {b.get(key)!r}, expected number")
        if not isinstance(b.get("count"), int) or not isinstance(b.get("successes"), int):
            problems.append(f"bin {i}: count/successes must be ints")
            continue
        if b["successes"] > b["count"]:
            problems.append(f"bin {i}: successes {b['successes']} > count {b['count']}")
        low, high = b.get("low"), b.get("high")
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            if high <= low:
                problems.append(f"bin {i}: high {high} <= low {low}")
            if prev_high is not None and abs(low - prev_high) > 1e-9:
                problems.append(f"bin {i}: low {low} does not abut previous high {prev_high}")
            prev_high = float(high)
        wl, wh, rate = b.get("wilson_low"), b.get("wilson_high"), b.get("success_rate")
        if (
            isinstance(wl, (int, float))
            and isinstance(wh, (int, float))
            and isinstance(rate, (int, float))
            and b["count"] > 0
            and not (wl - 1e-9 <= rate <= wh + 1e-9)
        ):
            problems.append(
                f"bin {i}: success_rate {rate} outside Wilson interval [{wl}, {wh}]"
            )
    rollups = doc.get("rollups")
    if not isinstance(rollups, Mapping):
        problems.append("rollups is not an object")
    else:
        for dim in AUDIT_DIMENSIONS:
            keys = rollups.get(dim)
            if not isinstance(keys, Mapping):
                problems.append(f"rollup dimension {dim!r} missing")
                continue
            if isinstance(total, int):
                dim_total = sum(int(s.get("count", 0)) for s in keys.values())
                if dim_total != total:
                    problems.append(
                        f"rollup {dim!r} counts sum to {dim_total}, total is {total}"
                    )
    return problems


def _fmt_interval(b: ReliabilityBin) -> str:
    return f"[{b.wilson_low:.3f}, {b.wilson_high:.3f}]"


def reliability_diagram_text(
    bins: Sequence[ReliabilityBin], width: int = 30
) -> str:
    """ASCII reliability diagram of the populated bins.

    Per row: the promise range, count, a bar of the empirical honoured
    rate (``=``), a ``|`` marker where the bar should end for perfect
    honesty (the bin's mean promise), and the Wilson 95% interval.
    """
    populated = [b for b in bins if b.count > 0]
    if not populated:
        return "(no promises audited)"
    lines = [
        f"{'promise':>12} {'n':>7} {'rate':>6}  "
        f"{'honoured rate (=) vs promised (|)':<{width + 2}} wilson 95%"
    ]
    for b in populated:
        bar_len = int(round(b.success_rate * width))
        marker = min(int(round(b.mean_forecast * width)), width)
        row = ["="] * bar_len + [" "] * (width - bar_len + 1)
        row[marker] = "|"
        flag = "  OVER-PROMISED" if b.over_confident else ""
        closing = "]" if b.high >= 1.0 else ")"
        lines.append(
            f"[{b.low:4.2f},{b.high:4.2f}{closing} {b.count:7d} {b.success_rate:6.1%}  "
            f"{''.join(row)}  {_fmt_interval(b)}{flag}"
        )
    return "\n".join(lines)


def reliability_diagram_csv(report: AuditReport) -> str:
    """CSV of the reliability diagram (populated bins only)."""
    lines = [
        "low,high,count,honoured,honoured_rate,mean_promised,"
        "wilson_low,wilson_high,over_promised"
    ]
    for b in report.bins:
        if b.count == 0:
            continue
        lines.append(
            f"{b.low:.2f},{b.high:.2f},{b.count},{b.successes},"
            f"{b.success_rate:.6f},{b.mean_forecast:.6f},"
            f"{b.wilson_low:.6f},{b.wilson_high:.6f},"
            f"{int(b.over_confident)}"
        )
    return "\n".join(lines) + "\n"


def _render_rollup_section(report: AuditReport, dim: str, limit: int = 8) -> List[str]:
    stats = report.rollups.get(dim, {})
    populated = [(key, s) for key, s in sorted(stats.items()) if s.count > 0]
    if not populated:
        return []
    lines = [f"  by {dim} ({len(populated)} keys):"]
    # Worst offenders first when the key space is wide; everything when
    # it is narrow.  Ties broken by key for deterministic output.
    shown = sorted(populated, key=lambda kv: (-kv[1].breach_rate, kv[0]))[:limit]
    for key, s in shown:
        lines.append(
            f"    {key:<16} n={s.count:<6d} breaches={s.breaches:<5d} "
            f"breach rate {s.breach_rate:6.1%}  mean promise {s.mean_promised:.3f}"
        )
    if len(populated) > limit:
        lines.append(f"    ... {len(populated) - limit} more keys (see JSON report)")
    return lines


def render_report(report: AuditReport) -> str:
    """Human-readable audit report (the CLI's text format)."""
    scoring = report.scoring()
    lines = [
        f"Guarantee audit — status: {report.status}",
        (
            f"  promises audited: {report.total} "
            f"(honoured {report.honoured}, broken {report.broken}, "
            f"never finished {report.unfinished})"
        ),
    ]
    if report.total:
        lines.append(
            f"  honoured rate {report.honoured_rate:.4f} vs mean promise "
            f"{report.mean_promised:.4f}"
        )
        lines.append(
            f"  brier {scoring.brier:.4f} (calibration {scoring.calibration:.4f} "
            f"+ refinement {scoring.refinement:.4f} = binned "
            f"{scoring.brier_binned:.4f})  log loss {scoring.log_loss:.4f}  "
            f"ECE {scoring.expected_calibration_error:.4f}"
        )
    if report.meta.get("merged", 1) != 1:
        lines.append(f"  merged from {report.meta['merged']} reports")
    lines.append("")
    lines.append("Reliability (promise bin -> empirical honoured rate):")
    lines.append(reliability_diagram_text(report.bins))
    rollup_lines: List[str] = []
    for dim in AUDIT_DIMENSIONS:
        rollup_lines.extend(_render_rollup_section(report, dim))
    if rollup_lines:
        lines.append("")
        lines.append("SLO rollups (worst breach rates first):")
        lines.extend(rollup_lines)
    if report.alerts:
        lines.append("")
        lines.append("Alerts:")
        for alert in report.alerts:
            lines.append(f"  - {alert}")
    return "\n".join(lines)
