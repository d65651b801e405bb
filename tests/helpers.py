"""Tiny builders shared across test modules."""

import threading

from steplab.errors import BackendError
from steplab.trace_model import Problem, ReasoningTrace, render_trace
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
        raw_text=render_trace(steps),
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
