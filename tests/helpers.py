"""Tiny builders shared across test modules."""

import threading

from steplab.errors import BackendError
from steplab.scoring import (
    ScoringRequest,
    build_context,
    information_profile,
    profile_requests,
    score_requests,
)
from steplab.trace_model import Problem, ReasoningTrace
from steplab.validators import ValidatorSpec


def make_problem(pid="p1", domain="math", question="What is 2+2?", gold="4", validator=None):
    return Problem(
        id=pid,
        domain=domain,
        question=question,
        gold_answer=gold,
        validator_spec=validator or ValidatorSpec(kind="numeric_equivalence"),
    )


def make_trace(problem_id="p1", trace_id="t1", steps=None, final_answer="4", correct=None):
    steps = steps if steps is not None else ["think", "conclude"]
    return ReasoningTrace(
        problem_id=problem_id,
        trace_id=trace_id,
        steps=steps,
        final_answer=final_answer,
        parse_ok=final_answer is not None,
        correct=correct,
    )


class CountingBackend:
    """Wraps a backend and counts how many requests actually reach it.

    With ``fail_at`` set, that call (1-based) raises a BackendError.
    """

    def __init__(self, inner, fail_at=None):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.fail_at = fail_at
        self.calls = 0
        self.succeeded = 0
        self.closed = False
        self._lock = threading.Lock()

    def score(self, request):
        with self._lock:
            self.calls += 1
            failing = self.calls == self.fail_at
        if failing:
            raise BackendError("connection dropped")
        result = self.inner.score(request)
        with self._lock:
            self.succeeded += 1
        return result

    def close(self):
        self.closed = True
        self.inner.close()


def scored_profile(problem, trace, answers, backend, in_flight=1):
    """A trace's information profile scored by ``backend`` as the score
    stage does it: its requests through ``score_requests``, then reshaped."""
    requests = profile_requests(problem, trace, answers)
    scored = score_requests(backend, requests, in_flight=in_flight)
    return information_profile(problem, trace, answers, [scored.totals[r] for r in requests])


def information(problem, steps_prefix, answer, backend):
    """Total log-likelihood (nats) of ``answer`` given the question and a
    step prefix, from one backend call: the single-cell oracle the score
    stage's totals are checked against. An empty prefix gives the
    no-reasoning baseline."""
    request = ScoringRequest(context=build_context(problem.question, steps_prefix), continuation=answer)
    return backend.score(request).total()
