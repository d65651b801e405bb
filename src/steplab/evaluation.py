"""Best-of-K selection harness with pluggable trace scorers.

Candidates keep their generation order; the first K are considered, the
highest-scoring one is selected (ties to the lowest index), and an outcome
callable (the validate stage's verdict, in the pipeline) decides success.
A candidate without a score gets :data:`SCORE_FAILURE` and is counted; a
scorer that raises fails the evaluation. Majority voting and single
sampling (K=1) fall out as special cases.

An evaluation returns ``(report, candidates, unscored_candidates)``:
``report`` is the ``eval_report.json`` object (``K``, ``scorer_id``,
``accuracy``, ``per_problem``) and the two run counts go to the stage
manifest, not the report file.
"""

import logging
import math
import random
from typing import Callable

from .ioutil import stable_seed
from .trace_model import Problem, ReasoningTrace, normalize_answer

log = logging.getLogger(__name__)

SCORE_FAILURE = float("-inf")

Scorer = Callable[[Problem, ReasoningTrace], float]
OutcomeValidator = Callable[[Problem, str], int]


def step_product_score(step_probs: list[float]) -> float:
    """Product of per-step probabilities across the whole trace.

    No step is excluded here; final-step exclusion is a calibration-time
    concern only. An empty list yields the empty product, 1, with a warning.
    """
    if not step_probs:
        log.warning("step_product_score called with no steps; empty product is 1")
        return 1.0
    return math.prod(step_probs)


def best_of_k(
    problems: list[Problem],
    candidates_by_problem: dict[str, list[ReasoningTrace]],
    scorer: Scorer,
    k: int,
    validator: OutcomeValidator,
    scorer_id: str | None = None,
) -> tuple[dict, int, int]:
    """Select the best of the first K candidates per problem and validate it.

    A candidate scored SCORE_FAILURE is never selected unless every
    candidate has that score; a scorer exception propagates. An
    unparseable selected trace counts as failure without calling the
    validator.
    """
    if scorer_id is None:
        scorer_id = getattr(scorer, "scorer_id", getattr(scorer, "__name__", "scorer"))
    selections = []
    considered = unscored = 0
    for problem in problems:
        window = candidates_by_problem[problem.id][:k]
        scores = [float(scorer(problem, trace)) for trace in window]
        considered += len(window)
        unscored += scores.count(SCORE_FAILURE)
        best_idx = max(range(len(window)), key=lambda i: scores[i])
        selected = window[best_idx]
        success = int(validator(problem, selected.final_answer)) if selected.parse_ok else 0
        selections.append({"problem_id": problem.id, "selected_trace_id": selected.trace_id, "success": success})
    accuracy = sum(s["success"] for s in selections) / len(selections) if selections else 0.0
    report = {"K": k, "scorer_id": scorer_id, "accuracy": accuracy, "per_problem": selections}
    return report, considered, unscored


def majority_vote(candidates: list[ReasoningTrace], domain: str = "other") -> str | None:
    """Plurality answer among the parsed candidates, or None to abstain.

    Answers are grouped under the same normalization used for answer pools;
    ties go to the group whose first member appears earliest.
    """
    groups: dict[str, list[int]] = {}
    texts: dict[str, str] = {}
    for idx, trace in enumerate(candidates):
        if not trace.parse_ok:
            continue
        key = normalize_answer(trace.final_answer, domain)
        groups.setdefault(key, []).append(idx)
        texts.setdefault(key, trace.final_answer)
    if not groups:
        return None
    winner = min(groups, key=lambda key: (-len(groups[key]), groups[key][0]))
    return texts[winner]


def majority_best_of_k(
    problems: list[Problem],
    candidates_by_problem: dict[str, list[ReasoningTrace]],
    k: int,
    validator: OutcomeValidator,
) -> tuple[dict, int, int]:
    """Best-of-K evaluation where the majority answer's earliest trace is selected.

    Traces in the winning group score 1 and all others 0, so the earliest
    member of the group wins; when no candidate parses, the first one does.
    """
    winners = {}
    for problem in problems:
        winner = majority_vote(candidates_by_problem.get(problem.id, [])[:k], problem.domain)
        winners[problem.id] = None if winner is None else normalize_answer(winner, problem.domain)

    def scorer(problem: Problem, trace: ReasoningTrace) -> float:
        winner = winners[problem.id]
        return float(trace.parse_ok and normalize_answer(trace.final_answer, problem.domain) == winner)

    return best_of_k(problems, candidates_by_problem, scorer, k, validator, scorer_id="majority")


def oracle_scorer(validator: OutcomeValidator) -> Scorer:
    """Score = validator outcome; selects a correct candidate whenever one exists."""

    def scorer(problem: Problem, trace: ReasoningTrace) -> float:
        if not trace.parse_ok:
            return 0.0
        return float(validator(problem, trace.final_answer))

    scorer.scorer_id = "oracle"
    return scorer


def random_scorer(seed: int) -> Scorer:
    """Deterministic pseudo-random scores, independent per (problem, trace)."""

    def scorer(problem: Problem, trace: ReasoningTrace) -> float:
        return random.Random(stable_seed(seed, problem.id, trace.trace_id)).random()

    scorer.scorer_id = f"random:{seed}"
    return scorer


def step_product_scorer(step_probs_by_trace: dict[tuple[str, str], list[float]], scorer_id: str) -> Scorer:
    """Score from a table of per-step probabilities, keyed by (problem_id,
    trace_id): external step scores, or this toolkit's own binary labels as
    0/1 probabilities. A trace without step values scores SCORE_FAILURE."""

    def scorer(problem: Problem, trace: ReasoningTrace) -> float:
        step_probs = step_probs_by_trace.get((problem.id, trace.trace_id))
        return SCORE_FAILURE if step_probs is None else step_product_score(step_probs)

    scorer.scorer_id = scorer_id
    return scorer
