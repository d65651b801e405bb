import json
import random

import pytest

from steplab.calibration import balanced_accuracy, percentile_grid, sweep_threshold
from steplab.errors import UndefinedMetricError
from steplab.infogain import StepSignal, assign_labels


def make_signal(values, tid="t"):
    return StepSignal(problem_id="p", trace_id=tid, method="MCNIG", values=list(values))


# Brute-force oracle for the closed-form sweep: label every step, take the
# product of the labels, and count the predictions against the truths.


def cot_predicted_label(labels: list[int], exclude_final: bool = True) -> int:
    """Product of the step labels: 1 iff every considered step is positive.

    With ``exclude_final`` the last step is left out; a single-step trace
    then contributes the empty product, 1.
    """
    if not labels:
        raise ValueError("labels must be non-empty")
    considered = labels[:-1] if exclude_final else labels
    return int(all(considered))


def confusion(predictions: list[int], truths: list[int]) -> dict[str, int]:
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
    return {"tp": tp, "fn": fn, "tn": tn, "fp": fp}


def relabelled_table(signals, truths, grid):
    """The sweep's ``table`` as the per-threshold relabelling gives it."""
    rows = []
    for tau in grid:
        predictions = [cot_predicted_label(assign_labels(s, tau)) for s in signals]
        c = confusion(predictions, truths)
        rows.append({"threshold": tau, **c, "balanced_accuracy": balanced_accuracy(**c), "skipped": False})
    return rows


class TestCotPredictedLabel:
    def test_final_step_excluded(self):
        assert cot_predicted_label([1, 1, 0]) == 1

    def test_any_zero_kills_the_product(self):
        assert cot_predicted_label([1, 0, 1]) == 0

    def test_single_step_empty_product(self):
        assert cot_predicted_label([0]) == 1

    def test_without_exclusion_all_steps_count(self):
        assert cot_predicted_label([1, 1, 0], exclude_final=False) == 0

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            cot_predicted_label([])


class TestBalancedAccuracy:
    def test_formula(self):
        assert balanced_accuracy(tp=3, fn=1, tn=2, fp=2) == pytest.approx(0.625)

    def test_perfect_classifier(self):
        assert balanced_accuracy(tp=4, fn=0, tn=3, fp=0) == 1.0

    def test_constant_positive_predictor_is_half(self):
        assert balanced_accuracy(tp=4, fn=0, tn=0, fp=4) == 0.5


def exhaustive_best(signals, truths, grid):
    """Independent re-evaluation: score every threshold by direct counting."""
    best = None
    for tau in grid:
        tp = fn = tn = fp = 0
        for signal, truth in zip(signals, truths):
            pred = 1 if all(v > tau for v in signal.values[:-1]) else 0
            if truth and pred:
                tp += 1
            elif truth:
                fn += 1
            elif pred:
                fp += 1
            else:
                tn += 1
        if tp + fn == 0 or tn + fp == 0:
            continue
        ba = 0.5 * (tp / (tp + fn) + tn / (tn + fp))
        if best is None or ba > best[1] or (ba == best[1] and tau < best[0]):
            best = (tau, ba)
    return best


class TestSweepThreshold:
    def test_two_trace_fixture(self):
        signals = [make_signal([0.5, 0.9, 7.0], "A"), make_signal([0.2, -0.1, 7.0], "B")]
        truths = [1, 0]
        sweep = sweep_threshold(signals, truths, [0.3, 0.7], domain="math")
        by_tau = {row["threshold"]: row for row in sweep["table"]}
        assert by_tau[0.3]["balanced_accuracy"] == 1.0
        assert by_tau[0.7]["balanced_accuracy"] == 0.5
        assert sweep["best_threshold"] == 0.3
        assert sweep["best_balanced_accuracy"] == 1.0

    def test_two_trace_sweep_is_its_sweep_json_object(self):
        # Minima without the final step: A (correct) 0.5, B (wrong) -0.1.
        signals = [make_signal([0.5, 0.9, 7.0], "A"), make_signal([0.2, -0.1, 7.0], "B")]
        sweep = sweep_threshold(signals, [1, 0], [0.3, 0.7], domain="math")
        expected = {
            "domain": "math",
            "grid": [0.3, 0.7],
            "table": [
                {"threshold": 0.3, "tp": 1, "fn": 0, "tn": 1, "fp": 0, "balanced_accuracy": 1.0, "skipped": False},
                {"threshold": 0.7, "tp": 0, "fn": 1, "tn": 1, "fp": 0, "balanced_accuracy": 0.5, "skipped": False},
            ],
            "best_threshold": 0.3,
            "best_balanced_accuracy": 1.0,
        }
        assert sweep == expected
        assert json.dumps(sweep) == json.dumps(expected)  # key order too

    def test_singleton_grid(self):
        signals = [make_signal([1.0, 2.0], "A"), make_signal([-1.0, 2.0], "B")]
        sweep = sweep_threshold(signals, [1, 0], [0.5])
        assert sweep["best_threshold"] == 0.5

    def test_identical_signals_tie_break_to_smallest(self):
        signals = [make_signal([1.0, 5.0], t) for t in ("A", "B", "C", "D")]
        truths = [1, 0, 1, 0]
        grid = [-1.0, 0.0, 0.5]
        sweep = sweep_threshold(signals, truths, grid)
        for row in sweep["table"]:
            assert row["balanced_accuracy"] == 0.5
        assert sweep["best_threshold"] == -1.0

    def test_matches_exhaustive_re_evaluation(self):
        rng = random.Random(31)
        for _ in range(100):
            n_traces = rng.randint(2, 12)
            signals = []
            truths = []
            for t in range(n_traces):
                n_steps = rng.randint(1, 6)
                signals.append(make_signal([rng.uniform(-2, 2) for _ in range(n_steps)], f"t{t}"))
                truths.append(rng.randint(0, 1))
            if len(set(truths)) < 2:
                truths[0] = 1 - truths[0]
            grid = sorted(rng.uniform(-2, 2) for _ in range(rng.randint(1, 12)))
            sweep = sweep_threshold(signals, truths, grid)
            expected = exhaustive_best(signals, truths, grid)
            assert sweep["best_threshold"] == expected[0]
            assert sweep["best_balanced_accuracy"] == pytest.approx(expected[1], abs=1e-12)

    def test_full_table_matches_relabelling(self):
        # Integer-valued signals and grid points drawn from the same integers
        # put thresholds exactly on signal values, where the strict ">"
        # decides; grids come unsorted and with duplicates.
        rng = random.Random(59)
        for _ in range(200):
            n_traces = rng.randint(2, 12)
            signals = [
                make_signal([float(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))], f"t{t}")
                for t in range(n_traces)
            ]
            truths = [rng.randint(0, 1) for _ in range(n_traces)]
            truths[0], truths[1] = 0, 1
            grid = [float(rng.randint(-4, 4)) for _ in range(rng.randint(1, 12))]
            sweep = sweep_threshold(signals, truths, grid)
            table = relabelled_table(signals, truths, grid)
            assert sweep["table"] == table
            assert sweep["grid"] == grid
            best = min(table, key=lambda row: (-row["balanced_accuracy"], row["threshold"]))
            assert (sweep["best_threshold"], sweep["best_balanced_accuracy"]) == (
                best["threshold"], best["balanced_accuracy"],
            )

    def test_monotone_predictions_in_threshold(self):
        rng = random.Random(41)
        signals = [
            make_signal([rng.uniform(-1, 1) for _ in range(4)], f"t{t}") for t in range(30)
        ]
        truths = [rng.randint(0, 1) for _ in range(30)]
        truths[0], truths[1] = 0, 1
        grid = sorted(rng.uniform(-1, 1) for _ in range(20))
        sweep = sweep_threshold(signals, truths, grid)
        previous_tp, previous_fp = None, None
        for row in sweep["table"]:
            if previous_tp is not None:
                assert row["tp"] <= previous_tp
                assert row["fp"] <= previous_fp
            previous_tp, previous_fp = row["tp"], row["fp"]

    def test_single_class_truths_raise(self):
        signals = [make_signal([1.0, 1.0], "A")]
        with pytest.raises(UndefinedMetricError):
            sweep_threshold(signals, [1], [0.0])

    def test_single_class_checked_once_per_domain(self, caplog):
        signals = [make_signal([1.0, 1.0], t) for t in ("A", "B")]
        with pytest.raises(UndefinedMetricError) as excinfo:
            sweep_threshold(signals, [0, 0], [float(i) for i in range(256)], domain="code")
        assert str(excinfo.value) == "domain 'code': balanced accuracy undefined at every grid threshold"
        assert not caplog.records

    def test_deterministic_table(self):
        signals = [make_signal([0.5, 0.9, 7.0], "A"), make_signal([0.2, -0.1, 7.0], "B")]
        one = sweep_threshold(signals, [1, 0], [0.3, 0.7])
        two = sweep_threshold(signals, [1, 0], [0.3, 0.7])
        assert one == two


class TestPercentileGrid:
    def test_default_grid_spans_percentiles(self):
        values = [float(v) for v in range(1000)]
        grid = percentile_grid(values, size=256)
        assert len(grid) == 256
        assert grid[0] == pytest.approx(9.99, abs=0.02)
        assert grid[-1] == pytest.approx(989.01, abs=0.02)
        steps = [b - a for a, b in zip(grid, grid[1:])]
        assert max(steps) - min(steps) < 1e-9

    def test_degenerate_values_collapse_to_single_threshold(self):
        assert percentile_grid([2.0, 2.0, 2.0], size=256) == [2.0]


class TestConfusion:
    def test_counts(self):
        counts = confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (counts["tp"], counts["fp"], counts["fn"], counts["tn"]) == (1, 1, 1, 1)

    def test_total_matches_traces(self):
        rng = random.Random(3)
        preds = [rng.randint(0, 1) for _ in range(50)]
        truths = [rng.randint(0, 1) for _ in range(50)]
        assert sum(confusion(preds, truths).values()) == 50
