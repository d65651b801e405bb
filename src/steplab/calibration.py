"""Per-domain threshold selection for step labels.

A candidate threshold turns each trace's signal into binary step labels,
the labels into a single CoT-level prediction (their product, with the
final step excluded during calibration), and the predictions into a
confusion matrix against validator truth. The threshold maximizing
balanced accuracy wins, ties going to the smallest value.

:func:`sweep_threshold` returns the plain dict written for its domain in
``sweep.json``: no result class stands between the sweep and the file.
"""

import math
from bisect import bisect_right

from .errors import UndefinedMetricError
from .infogain import StepSignal
from .infogain import assign_labels  # noqa: F401  unused here; bench/traced.py counts calls through this name

# The percentiles of the pooled signal values that bound the threshold grid.
GRID_LO_PCT, GRID_HI_PCT = 1.0, 99.0


def balanced_accuracy(tp: int, fn: int, tn: int, fp: int) -> float:
    """Mean of sensitivity and specificity; both classes must have a trace."""
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


def sweep_threshold(
    signals: list[StepSignal],
    truths: list[int],
    grid: list[float],
    domain: str = "other",
) -> dict:
    """Evaluate every grid threshold; return the domain's ``sweep.json``
    object: the table and the argmax.

    The final reasoning step is excluded from the CoT prediction, so at a
    finite threshold t a trace predicts 1 iff ``min(values[:-1]) > t``, and
    a single-step trace (the empty product) always predicts 1. Each grid
    point's counts therefore come from one bisection into the sorted minima
    of each class: O((T + G) log T) for T traces and G thresholds. Truths
    align with signals, and signal values must not be NaN.
    """
    minima: tuple[list[float], list[float]] = ([], [])  # indexed by truth
    for signal, truth in zip(signals, truths):
        minima[bool(truth)].append(min(signal.values[:-1], default=math.inf))
    neg, pos = (sorted(m) for m in minima)
    if not pos or not neg:
        raise UndefinedMetricError(
            f"domain {domain!r}: balanced accuracy undefined at every grid threshold"
        )
    table = []
    for tau in grid:
        tp = len(pos) - bisect_right(pos, tau)
        fp = len(neg) - bisect_right(neg, tau)
        fn, tn = len(pos) - tp, len(neg) - fp
        table.append({
            "threshold": tau, "tp": tp, "fn": fn, "tn": tn, "fp": fp,
            "balanced_accuracy": balanced_accuracy(tp, fn, tn, fp),
            "skipped": False,  # on-disk format; every row has both classes
        })
    best = min(table, key=lambda row: (-row["balanced_accuracy"], row["threshold"]))
    return {
        "domain": domain,
        "grid": list(grid),
        "table": table,
        "best_threshold": best["threshold"],
        "best_balanced_accuracy": best["balanced_accuracy"],
    }


def percentile_grid(values: list[float], size: int) -> list[float]:
    """Evenly spaced thresholds between the :data:`GRID_LO_PCT` and
    :data:`GRID_HI_PCT` percentiles of the pooled signal values. Percentile
    bounds absorb scale differences between domains."""
    ordered = sorted(values)
    lo = _percentile(ordered, GRID_LO_PCT)
    hi = _percentile(ordered, GRID_HI_PCT)
    if lo == hi or size == 1:
        return [lo]
    step = (hi - lo) / (size - 1)
    return [lo + i * step for i in range(size)]


def _percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolation percentile over already sorted values."""
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight
