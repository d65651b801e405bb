"""Per-domain threshold selection for step labels.

A candidate threshold turns each trace's signal into binary step labels,
the labels into a single CoT-level prediction (their product, with the
final step excluded during calibration), and the predictions into a
confusion matrix against validator truth. The threshold maximizing
balanced accuracy wins, ties going to the smallest value.
"""

import logging
from dataclasses import dataclass

from .errors import UndefinedMetricError
from .infogain import StepSignal, assign_labels, StepLabels

log = logging.getLogger(__name__)


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
    balanced_accuracy: float | None
    skipped: bool = False


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
                    "skipped": e.skipped,
                }
                for e in self.per_threshold
            ],
            "best_threshold": self.best_threshold,
            "best_balanced_accuracy": self.best_balanced_accuracy,
        }


def cot_predicted_label(labels: StepLabels, exclude_final: bool = True) -> int:
    """Product of the step labels: 1 iff every considered step is positive.

    With ``exclude_final`` the last step is left out (it contains the answer
    and would leak outcome signal into calibration); a single-step trace then
    contributes the empty product, 1.
    """
    if not labels.labels:
        raise ValueError("labels must be non-empty")
    considered = labels.labels[:-1] if exclude_final else labels.labels
    return int(all(considered))


def balanced_accuracy(c: ConfusionCounts) -> float:
    """Mean of sensitivity and specificity."""
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise UndefinedMetricError("balanced accuracy needs at least one trace of each class")
    return 0.5 * (c.tp / (c.tp + c.fn) + c.tn / (c.tn + c.fp))


def confusion(predictions: list[int], truths: list[int]) -> ConfusionCounts:
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must be aligned")
    tp = fn = tn = fp = 0
    for pred, truth in zip(predictions, truths):
        if truth:
            if pred:
                tp += 1
            else:
                fn += 1
        else:
            if pred:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fn=fn, tn=tn, fp=fp)


def sweep_threshold(
    signals: list[StepSignal],
    truths: list[int],
    grid: list[float],
    domain: str = "other",
) -> ThresholdSweep:
    """Evaluate every grid threshold and return the table plus the argmax.

    Thresholds where the metric is undefined are skipped with a flag. The
    final reasoning step is excluded from the CoT prediction throughout.
    """
    if len(signals) != len(truths):
        raise ValueError("signals and truths must be aligned")
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    entries: list[SweepEntry] = []
    for tau in grid:
        predictions = [
            cot_predicted_label(assign_labels(signal, tau), exclude_final=True)
            for signal in signals
        ]
        counts = confusion(predictions, truths)
        try:
            ba = balanced_accuracy(counts)
            entries.append(SweepEntry(threshold=tau, counts=counts, balanced_accuracy=ba))
        except UndefinedMetricError:
            log.warning("domain %s: balanced accuracy undefined at threshold %g, skipped", domain, tau)
            entries.append(SweepEntry(threshold=tau, counts=counts, balanced_accuracy=None, skipped=True))
    valid = [e for e in entries if not e.skipped]
    if not valid:
        raise UndefinedMetricError(
            f"domain {domain!r}: balanced accuracy undefined at every grid threshold"
        )
    best = min(valid, key=lambda e: (-e.balanced_accuracy, e.threshold))
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
    lo = _percentile(values, lo_pct)
    hi = _percentile(values, hi_pct)
    if lo == hi or size == 1:
        return [lo]
    step = (hi - lo) / (size - 1)
    return [lo + i * step for i in range(size)]


def _percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile over the sorted values."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight
