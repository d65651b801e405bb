"""Per-domain threshold selection for step labels.

A candidate threshold turns each trace's signal into binary step labels,
the labels into a single CoT-level prediction (their product, with the
final step excluded during calibration), and the predictions into a
confusion matrix against validator truth. The threshold maximizing
balanced accuracy wins, ties going to the smallest value.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import UndefinedMetricError
from .infogain import StepSignal
from .infogain import assign_labels  # noqa: F401  unused here; bench/traced.py counts calls through this name


@dataclass
class ConfusionCounts:
    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.tn, self.fp) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


@dataclass
class SweepEntry:
    threshold: float
    counts: ConfusionCounts
    balanced_accuracy: float


@dataclass
class ThresholdSweep:
    domain: str
    grid: list[float]
    per_threshold: list[SweepEntry]
    best_threshold: float
    best_balanced_accuracy: float

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain,
            "grid": self.grid,
            "table": [
                {
                    "threshold": e.threshold,
                    "tp": e.counts.tp,
                    "fn": e.counts.fn,
                    "tn": e.counts.tn,
                    "fp": e.counts.fp,
                    "balanced_accuracy": e.balanced_accuracy,
                    "skipped": False,  # on-disk format; every row has both classes
                }
                for e in self.per_threshold
            ],
            "best_threshold": self.best_threshold,
            "best_balanced_accuracy": self.best_balanced_accuracy,
        }


def balanced_accuracy(c: ConfusionCounts) -> float:
    """Mean of sensitivity and specificity."""
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise UndefinedMetricError("balanced accuracy needs at least one trace of each class")
    return 0.5 * (c.tp / (c.tp + c.fn) + c.tn / (c.tn + c.fp))


def sweep_threshold(
    signals: list[StepSignal],
    truths: list[int],
    grid: list[float],
    domain: str = "other",
) -> ThresholdSweep:
    """Evaluate every grid threshold and return the table plus the argmax.

    The final reasoning step is excluded from the CoT prediction, so at a
    finite threshold t a trace predicts 1 iff ``min(values[:-1]) > t``, and
    a single-step trace (the empty product) always predicts 1. Each grid
    point's counts therefore come from one bisection into the sorted minima
    of each class: O((T + G) log T) for T traces and G thresholds. Signal
    values must not be NaN.
    """
    if len(signals) != len(truths):
        raise ValueError("signals and truths must be aligned")
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    minima: tuple[list[float], list[float]] = ([], [])  # indexed by truth
    for signal, truth in zip(signals, truths):
        if not signal.values:
            raise ValueError(f"signal {signal.problem_id}/{signal.trace_id} has no values")
        minima[bool(truth)].append(min(signal.values[:-1], default=math.inf))
    neg, pos = (sorted(m) for m in minima)
    if not pos or not neg:
        raise UndefinedMetricError(
            f"domain {domain!r}: balanced accuracy undefined at every grid threshold"
        )
    entries: list[SweepEntry] = []
    for tau in grid:
        tp = len(pos) - bisect_right(pos, tau)
        fp = len(neg) - bisect_right(neg, tau)
        counts = ConfusionCounts(tp=tp, fn=len(pos) - tp, tn=len(neg) - fp, fp=fp)
        entries.append(SweepEntry(threshold=tau, counts=counts, balanced_accuracy=balanced_accuracy(counts)))
    best = min(entries, key=lambda e: (-e.balanced_accuracy, e.threshold))
    return ThresholdSweep(
        domain=domain,
        grid=list(grid),
        per_threshold=entries,
        best_threshold=best.threshold,
        best_balanced_accuracy=best.balanced_accuracy,
    )


def percentile_grid(
    values: list[float],
    size: int,
    lo_pct: float = 1.0,
    hi_pct: float = 99.0,
) -> list[float]:
    """Evenly spaced thresholds between two percentiles of the pooled signal
    values. Percentile bounds absorb scale differences between domains."""
    if not values:
        raise ValueError("cannot build a grid from no signal values")
    if size < 1:
        raise ValueError("grid size must be at least 1")
    ordered = sorted(values)
    lo = _percentile(ordered, lo_pct)
    hi = _percentile(ordered, hi_pct)
    if lo == hi or size == 1:
        return [lo]
    step = (hi - lo) / (size - 1)
    return [lo + i * step for i in range(size)]


def _percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolation percentile over already sorted values."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight
