import math
import random
from fractions import Fraction

import pytest

from helpers import make_problem, make_trace
from steplab.evaluation import (
    SCORE_FAILURE,
    best_of_k,
    majority_best_of_k,
    oracle_score,
    random_scorer,
    step_product_scorer,
)


def random_instance(rng, n_problems=None):
    """Random problems with judged candidate answers, and the ground-truth
    table their verdicts come from."""
    problems = []
    candidates = {}
    truth = {}
    for i in range(n_problems or rng.randint(2, 10)):
        problem = make_problem(pid=f"p{i}")
        answers = [str(rng.randint(0, 4)) for _ in range(rng.randint(1, 10))]
        correct_answers = {str(v) for v in range(5) if rng.random() < 0.35}
        traces = [
            make_trace(problem_id=problem.id, trace_id=f"p{i}-t{t}", final_answer=a, correct=a in correct_answers)
            for t, a in enumerate(answers)
        ]
        for trace in traces:
            truth[(problem.id, trace.final_answer)] = int(trace.correct)
        problems.append(problem)
        candidates[problem.id] = traces
    return problems, candidates, truth


class TestBestOfK:
    def test_k1_equals_first_candidate_validation(self):
        rng = random.Random(19)
        for _ in range(50):
            problems, candidates, truth = random_instance(rng)
            report, _, _ = best_of_k(problems, candidates, random_scorer(1), 1, "random:1")
            for selection in report["per_problem"]:
                first = candidates[selection["problem_id"]][0]
                assert selection["selected_trace_id"] == first.trace_id
                assert selection["success"] == truth.get((selection["problem_id"], first.final_answer), 0)

    def test_oracle_equals_brute_force_any_correct(self):
        rng = random.Random(23)
        for _ in range(50):
            problems, candidates, truth = random_instance(rng)
            k = rng.randint(1, 10)
            report, _, _ = best_of_k(problems, candidates, oracle_score, k, "oracle")
            expected = sum(
                any(truth.get((p.id, t.final_answer), 0) for t in candidates[p.id][:k])
                for p in problems
            ) / len(problems)
            assert report["accuracy"] == expected

    def test_tie_breaks_to_lowest_index(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id="first", final_answer="9", correct=False),
            make_trace(trace_id="second", final_answer="4", correct=True),
        ]
        report, _, _ = best_of_k([problem], {problem.id: traces}, lambda p, t: 1.0, 2, "constant")
        assert report["per_problem"][0]["selected_trace_id"] == "first"
        assert report["per_problem"][0]["success"] == 0

    def test_unscored_candidate_never_selected_unless_all_are(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id="bad", final_answer="9", correct=False),
            make_trace(trace_id="good", final_answer="4", correct=True),
        ]

        def scorer(p, t):
            return SCORE_FAILURE if t.trace_id == "bad" else 0.1

        report, candidates, unscored = best_of_k([problem], {problem.id: traces}, scorer, 2, "partial")
        assert report["per_problem"][0]["selected_trace_id"] == "good"
        assert report["per_problem"][0]["success"] == 1
        assert (candidates, unscored) == (2, 1)
        report, candidates, unscored = best_of_k([problem], {problem.id: traces}, lambda p, t: SCORE_FAILURE, 2, "none")
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
            best_of_k([problem], {problem.id: traces}, scorer, 2, "broken")

    def test_selection_without_a_verdict_counts_as_failure(self):
        problem = make_problem()
        for trace in (make_trace(trace_id="t0", final_answer=None, steps=["s"]), make_trace(trace_id="t0")):
            report, _, _ = best_of_k([problem], {problem.id: [trace]}, lambda p, t: 1.0, 1, "constant")
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

            first, _, _ = best_of_k(problems, candidates, base, k, "base")
            second, _, _ = best_of_k(problems, candidates, transformed, k, "transformed")
            assert [s["selected_trace_id"] for s in first["per_problem"]] == [
                s["selected_trace_id"] for s in second["per_problem"]
            ]
            assert first["accuracy"] == second["accuracy"]

    def test_oracle_accuracy_non_decreasing_in_k(self):
        rng = random.Random(37)
        problems, candidates, truth = random_instance(rng, n_problems=20)
        accuracies = [best_of_k(problems, candidates, oracle_score, k, "oracle")[0]["accuracy"] for k in range(1, 11)]
        for lo, hi in zip(accuracies, accuracies[1:]):
            assert hi >= lo

    def test_random_scorer_expectation(self):
        # With i.i.d. random scores the chance of picking a correct candidate
        # equals the fraction of correct candidates, so the expected accuracy
        # is the mean of those fractions. Checked at 3 sigma over many seeds.
        rng = random.Random(41)
        problems, candidates, truth = random_instance(rng, n_problems=12)
        expected = sum(
            sum(truth.get((p.id, t.final_answer), 0) for t in candidates[p.id])
            / len(candidates[p.id])
            for p in problems
        ) / len(problems)
        trials = 400
        accs = [
            best_of_k(problems, candidates, random_scorer(seed), 10, f"random:{seed}")[0]["accuracy"]
            for seed in range(trials)
        ]
        mean = sum(accs) / trials
        se = (sum((a - mean) ** 2 for a in accs) / (trials - 1)) ** 0.5 / trials**0.5
        assert abs(mean - expected) <= 3 * max(se, 1e-9)


class TestMajorityBestOfK:
    def selected(self, answers, domain="math", correct=()):
        """The trace id majority best-of-K selects among traces t0, t1, ...
        with ``answers`` (None for an unparseable trace), and its success."""
        problem = make_problem(domain=domain)
        traces = [
            make_trace(trace_id=f"t{i}", final_answer=a, steps=["s"], correct=None if a is None else a in correct)
            for i, a in enumerate(answers)
        ]
        report, _, _ = majority_best_of_k([problem], {problem.id: traces}, len(traces))
        assert report["scorer_id"] == "majority"
        assert list(report) == ["K", "scorer_id", "accuracy", "per_problem"]
        return report["per_problem"][0]["selected_trace_id"], report["per_problem"][0]["success"]

    def test_plurality(self):
        assert self.selected(["5", "7", "7"])[0] == "t1"

    def test_tie_breaks_to_the_group_whose_first_member_is_earliest(self):
        assert self.selected(["b", "a", "a", "b"], domain="qa")[0] == "t0"

    def test_numeric_normalization_groups_equivalent_answers(self):
        answers = ["3", "0.5", "1/2"]
        # Independent grouping oracle via exact rationals.
        assert Fraction(answers[1]) == Fraction(answers[2]) != Fraction(answers[0])
        assert self.selected(answers)[0] == "t1"

    def test_unparseable_candidates_excluded(self):
        assert self.selected([None, None, "4"])[0] == "t2"

    def test_no_parsed_candidate_selects_the_first(self):
        assert self.selected([None, None]) == ("t0", 0)

    def test_winning_group_succeeds_by_its_verdict(self):
        assert self.selected(["5", "4", "4"], correct={"4"}) == ("t1", 1)
        assert self.selected(["5", "4", "4"], correct={"5"}) == ("t1", 0)

    def test_a_trace_sharing_the_winners_id_does_not_win(self):
        # The correct "9" comes first but is outvoted: were it to score as a
        # member of the winning group, the earliest-index rule would select it.
        problem = make_problem()
        traces = [
            make_trace(trace_id="t", final_answer="9", correct=True),
            make_trace(trace_id="t", final_answer="4", correct=False),
            make_trace(trace_id="u", final_answer="4", correct=False),
        ]
        report, _, _ = majority_best_of_k([problem], {problem.id: traces}, 3)
        assert report["per_problem"][0] == {"problem_id": problem.id, "selected_trace_id": "t", "success": 0}


class TestStepProductScorer:
    def test_product(self):
        problem, trace = make_problem(), make_trace()
        assert step_product_scorer({(problem.id, trace.trace_id): [0.9, 0.8]})(problem, trace) == pytest.approx(0.72)

    def test_zero_annihilates(self):
        problem, trace = make_problem(), make_trace(steps=["a", "b", "c"])
        assert step_product_scorer({(problem.id, trace.trace_id): [0.9, 0.0, 0.7]})(problem, trace) == 0.0

    def test_scores_from_labels(self):
        problem = make_problem()
        trace = make_trace(steps=["r1", "r2"])
        scorer = step_product_scorer({(problem.id, trace.trace_id): [1.0, 1.0]})
        assert scorer(problem, trace) == 1.0
        scorer_zero = step_product_scorer({(problem.id, trace.trace_id): [1.0, 0.0]})
        assert scorer_zero(problem, trace) == 0.0

    def test_trace_without_step_values_scores_failure(self):
        problem = make_problem()
        scorer = step_product_scorer({(problem.id, "other"): [1.0]})
        assert scorer(problem, make_trace(trace_id="t1")) == SCORE_FAILURE
