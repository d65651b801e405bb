import math
import random
from fractions import Fraction

import pytest

from helpers import make_problem, make_trace
from steplab.evaluation import (
    SCORE_FAILURE,
    best_of_k,
    majority_best_of_k,
    majority_vote,
    oracle_scorer,
    random_scorer,
    step_product_score,
    step_product_scorer,
)


def truth_validator(truth_by_answer):
    def validator(problem, answer):
        return truth_by_answer.get((problem.id, answer), 0)

    return validator


def random_instance(rng, n_problems=None):
    """Random problems with candidate answers and a ground-truth table."""
    problems = []
    candidates = {}
    truth = {}
    for i in range(n_problems or rng.randint(2, 10)):
        problem = make_problem(pid=f"p{i}")
        n = rng.randint(1, 10)
        traces = []
        for t in range(n):
            answer = str(rng.randint(0, 4))
            traces.append(make_trace(problem_id=problem.id, trace_id=f"p{i}-t{t}", final_answer=answer))
        correct_answers = {str(v) for v in range(5) if rng.random() < 0.35}
        for trace in traces:
            truth[(problem.id, trace.final_answer)] = int(trace.final_answer in correct_answers)
        problems.append(problem)
        candidates[problem.id] = traces
    return problems, candidates, truth


class TestStepProductScore:
    def test_product(self):
        assert step_product_score([0.9, 0.8]) == pytest.approx(0.72)

    def test_zero_annihilates(self):
        assert step_product_score([0.9, 0.0, 0.7]) == 0.0

    def test_empty_product_is_one(self):
        assert step_product_score([]) == 1.0


class TestBestOfK:
    def test_k1_equals_first_candidate_validation(self):
        rng = random.Random(19)
        for _ in range(50):
            problems, candidates, truth = random_instance(rng)
            report, _, _ = best_of_k(problems, candidates, random_scorer(1), 1, truth_validator(truth))
            for selection in report["per_problem"]:
                first = candidates[selection["problem_id"]][0]
                assert selection["selected_trace_id"] == first.trace_id
                assert selection["success"] == truth.get((selection["problem_id"], first.final_answer), 0)

    def test_oracle_equals_brute_force_any_correct(self):
        rng = random.Random(23)
        for _ in range(50):
            problems, candidates, truth = random_instance(rng)
            k = rng.randint(1, 10)
            validator = truth_validator(truth)
            report, _, _ = best_of_k(problems, candidates, oracle_scorer(validator), k, validator)
            expected = sum(
                any(truth.get((p.id, t.final_answer), 0) for t in candidates[p.id][:k])
                for p in problems
            ) / len(problems)
            assert report["accuracy"] == expected

    def test_tie_breaks_to_lowest_index(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id="first", final_answer="9"),
            make_trace(trace_id="second", final_answer="4"),
        ]
        truth = {(problem.id, "4"): 1, (problem.id, "9"): 0}
        report, _, _ = best_of_k(
            [problem], {problem.id: traces}, lambda p, t: 1.0, 2, truth_validator(truth)
        )
        assert report["per_problem"][0]["selected_trace_id"] == "first"
        assert report["per_problem"][0]["success"] == 0

    def test_unscored_candidate_never_selected_unless_all_are(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id="bad", final_answer="9"),
            make_trace(trace_id="good", final_answer="4"),
        ]
        truth = truth_validator({(problem.id, "4"): 1})

        def scorer(p, t):
            return SCORE_FAILURE if t.trace_id == "bad" else 0.1

        report, candidates, unscored = best_of_k([problem], {problem.id: traces}, scorer, 2, truth)
        assert report["per_problem"][0]["selected_trace_id"] == "good"
        assert report["per_problem"][0]["success"] == 1
        assert (candidates, unscored) == (2, 1)
        report, candidates, unscored = best_of_k([problem], {problem.id: traces}, lambda p, t: SCORE_FAILURE, 2, truth)
        assert report["per_problem"][0]["selected_trace_id"] == "bad"
        assert (candidates, unscored) == (2, 2)

    def test_scorer_exception_propagates(self):
        problem = make_problem()
        traces = [make_trace(trace_id="t0"), make_trace(trace_id="t1")]

        def scorer(p, t):
            if t.trace_id == "t1":
                raise RuntimeError("broken")
            return 0.1

        with pytest.raises(RuntimeError, match="broken"):
            best_of_k([problem], {problem.id: traces}, scorer, 2, lambda p, a: 1)

    def test_unparseable_selection_counts_as_failure(self):
        problem = make_problem()
        traces = [make_trace(trace_id="t0", final_answer=None, steps=["s"])]
        report, _, _ = best_of_k([problem], {problem.id: traces}, lambda p, t: 1.0, 1, lambda p, a: 1)
        assert report["per_problem"][0]["success"] == 0

    def test_invariance_under_strictly_increasing_transforms(self):
        rng = random.Random(29)
        for _ in range(100):
            problems, candidates, truth = random_instance(rng)
            k = rng.randint(1, 10)
            base = random_scorer(rng.randint(0, 10**6))
            a, b = rng.uniform(0.5, 3.0), rng.uniform(-2, 2)

            def transformed(p, t, _base=base, _a=a, _b=b):
                return math.exp(_a * _base(p, t) + _b)

            validator = truth_validator(truth)
            first, _, _ = best_of_k(problems, candidates, base, k, validator)
            second, _, _ = best_of_k(problems, candidates, transformed, k, validator)
            assert [s["selected_trace_id"] for s in first["per_problem"]] == [
                s["selected_trace_id"] for s in second["per_problem"]
            ]
            assert first["accuracy"] == second["accuracy"]

    def test_oracle_accuracy_non_decreasing_in_k(self):
        rng = random.Random(37)
        problems, candidates, truth = random_instance(rng, n_problems=20)
        validator = truth_validator(truth)
        accuracies = [
            best_of_k(problems, candidates, oracle_scorer(validator), k, validator)[0]["accuracy"]
            for k in range(1, 11)
        ]
        for lo, hi in zip(accuracies, accuracies[1:]):
            assert hi >= lo

    def test_random_scorer_expectation(self):
        # With i.i.d. random scores the chance of picking a correct candidate
        # equals the fraction of correct candidates, so the expected accuracy
        # is the mean of those fractions. Checked at 3 sigma over many seeds.
        rng = random.Random(41)
        problems, candidates, truth = random_instance(rng, n_problems=12)
        validator = truth_validator(truth)
        expected = sum(
            sum(truth.get((p.id, t.final_answer), 0) for t in candidates[p.id])
            / len(candidates[p.id])
            for p in problems
        ) / len(problems)
        trials = 400
        accs = [
            best_of_k(problems, candidates, random_scorer(seed), 10, validator)[0]["accuracy"]
            for seed in range(trials)
        ]
        mean = sum(accs) / trials
        se = (sum((a - mean) ** 2 for a in accs) / (trials - 1)) ** 0.5 / trials**0.5
        assert abs(mean - expected) <= 3 * max(se, 1e-9)


class TestMajorityVote:
    def test_plurality(self):
        traces = [make_trace(trace_id=f"t{i}", final_answer=a) for i, a in enumerate(["7", "7", "5"])]
        assert majority_vote(traces) == "7"

    def test_tie_breaks_to_earliest_first_member(self):
        traces = [make_trace(trace_id=f"t{i}", final_answer=a) for i, a in enumerate(["a", "b"])]
        assert majority_vote(traces, domain="qa") == "a"

    def test_numeric_normalization_groups_equivalent_answers(self):
        answers = ["0.5", "1/2", "3"]
        # Independent grouping oracle via exact rationals.
        keys = [str(Fraction(a)) if "/" not in a else str(Fraction(a)) for a in answers]
        assert keys[0] == keys[1] != keys[2]
        traces = [
            make_trace(trace_id=f"t{i}", final_answer=a) for i, a in enumerate(answers)
        ]
        assert majority_vote(traces, domain="math") == "0.5"

    def test_unparseable_candidates_excluded(self):
        traces = [
            make_trace(trace_id="t0", final_answer=None, steps=["s"]),
            make_trace(trace_id="t1", final_answer="4"),
        ]
        assert majority_vote(traces) == "4"

    def test_abstains_with_no_parsed_candidates(self):
        traces = [make_trace(trace_id="t0", final_answer=None, steps=["s"])]
        assert majority_vote(traces) is None

    def test_majority_best_of_k_selects_winning_group(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id=f"t{i}", final_answer=a)
            for i, a in enumerate(["5", "4", "4"])
        ]
        truth = {(problem.id, "4"): 1, (problem.id, "5"): 0}
        report, _, _ = majority_best_of_k([problem], {problem.id: traces}, 3, truth_validator(truth))
        assert report["per_problem"][0]["selected_trace_id"] == "t1"
        assert report["per_problem"][0]["success"] == 1
        assert report["scorer_id"] == "majority"
        assert list(report) == ["K", "scorer_id", "accuracy", "per_problem"]


class TestLabelProductScorer:
    def test_scores_from_labels(self):
        problem = make_problem()
        trace = make_trace(steps=["r1", "r2"])
        scorer = step_product_scorer({(problem.id, trace.trace_id): [1.0, 1.0]}, "label-product")
        assert scorer(problem, trace) == 1.0 and scorer.scorer_id == "label-product"
        scorer_zero = step_product_scorer({(problem.id, trace.trace_id): [1.0, 0.0]}, "label-product")
        assert scorer_zero(problem, trace) == 0.0

    def test_trace_without_step_values_scores_failure(self):
        problem = make_problem()
        scorer = step_product_scorer({(problem.id, "other"): [1.0]}, "label-product")
        assert scorer(problem, make_trace(trace_id="t1")) == SCORE_FAILURE
