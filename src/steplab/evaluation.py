"""Best-of-K selection harness with pluggable trace scorers.

Candidates keep their generation order; the first K are considered, the
highest-scoring one is selected (ties to the lowest index), and its
verdict, ``ReasoningTrace.correct`` as the validate stage judged it,
decides success. A candidate without a score gets :data:`SCORE_FAILURE`
and is counted; a scorer that raises fails the evaluation. Majority voting
and single sampling (K=1) fall out as special cases.

An evaluation returns ``(report, candidates, unscored_candidates)``:
``report`` is the ``eval_report.json`` object (``K``, ``scorer_id``,
``accuracy``, ``per_problem``) and the two run counts go to the stage
manifest, not the report file.
"""

import math
import random
from typing import Callable

from .ioutil import stable_seed
from .trace_model import Problem, ReasoningTrace, normalize_answer

SCORE_FAILURE = float("-inf")

Scorer = Callable[[Problem, ReasoningTrace], float]


def best_of_k(
    problems: list[Problem],
    candidates_by_problem: dict[str, list[ReasoningTrace]],
    scorer: Scorer,
    k: int,
    scorer_id: str,
) -> tuple[dict, int, int]:
    """Select the best of the first K candidates per problem; the selection
    succeeds when its verdict is true. A trace without a verdict, such as an
    unparseable one, fails.

    A candidate scored SCORE_FAILURE is never selected unless every
    candidate has that score; a scorer exception propagates.
    """
    selections = []
    considered = unscored = 0
    for problem in problems:
        window = candidates_by_problem[problem.id][:k]
        scores = [float(scorer(problem, trace)) for trace in window]
        considered += len(window)
        unscored += scores.count(SCORE_FAILURE)
        selected = window[max(range(len(window)), key=scores.__getitem__)]
        success = int(bool(selected.correct))
        selections.append({"problem_id": problem.id, "selected_trace_id": selected.trace_id, "success": success})
    accuracy = sum(s["success"] for s in selections) / len(selections) if selections else 0.0
    report = {"K": k, "scorer_id": scorer_id, "accuracy": accuracy, "per_problem": selections}
    return report, considered, unscored


def majority_best_of_k(
    problems: list[Problem],
    candidates_by_problem: dict[str, list[ReasoningTrace]],
    k: int,
) -> tuple[dict, int, int]:
    """Best-of-K evaluation that selects the plurality answer's earliest trace.

    The window's parsed traces are grouped under the normalization used for
    answer pools; the largest group wins, ties going to the group whose
    first member comes earliest, and that member is selected. When no
    candidate parses, the first one is.
    """
    winners: dict[str, ReasoningTrace | None] = {}
    for problem in problems:
        groups: dict[str, list[ReasoningTrace]] = {}
        for trace in candidates_by_problem[problem.id][:k]:
            if trace.parse_ok:
                groups.setdefault(normalize_answer(trace.final_answer, problem.domain), []).append(trace)
        # Groups are in first-member order, and max keeps the first of equals.
        winners[problem.id] = max(groups.values(), key=len)[0] if groups else None
    # The winner is matched by identity: a trace sharing its id scores 0.
    return best_of_k(problems, candidates_by_problem, lambda p, t: float(t is winners[p.id]), k, "majority")


def oracle_score(problem: Problem, trace: ReasoningTrace) -> float:
    """Score = verdict; selects a correct candidate whenever one exists."""
    return float(bool(trace.correct))


def random_scorer(seed: int) -> Scorer:
    """Deterministic pseudo-random scores, independent per (problem, trace)."""

    def scorer(problem: Problem, trace: ReasoningTrace) -> float:
        return random.Random(stable_seed(seed, problem.id, trace.trace_id)).random()

    return scorer


def step_product_scorer(step_probs_by_trace: dict[tuple[str, str], list[float]]) -> Scorer:
    """Score = product of a trace's per-step probabilities, from a table keyed
    by (problem_id, trace_id): external step scores, or this toolkit's own
    binary labels as 0/1 probabilities. No step is excluded here; final-step
    exclusion is a calibration-time concern only. A trace without step values
    scores SCORE_FAILURE."""

    def scorer(problem: Problem, trace: ReasoningTrace) -> float:
        step_probs = step_probs_by_trace.get((problem.id, trace.trace_id))
        return SCORE_FAILURE if step_probs is None else math.prod(step_probs)

    return scorer
