"""Tiny builders shared across test modules."""

import json
import threading

from steplab.errors import BackendError, DataError
from steplab.scoring import Backend, InformationProfile, ReferenceModel, ScoringRequest, build_context
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


def reference_model(path, table, fallback_prob=0.01):
    """Write a reference model file to ``path``, in the bytes
    ``build_demo_corpus`` writes, and build the model from it."""
    path.write_bytes(json.dumps({"fallback_prob": fallback_prob, "table": table}, ensure_ascii=False).encode())
    return ReferenceModel.from_file(path)


class CountingBackend(Backend):
    """Wraps a backend and counts how many requests actually reach it,
    through ``score`` or ``score_many``.

    With ``fail_at`` set, that request (1-based) raises ``fail_with``, a
    BackendError unless given.
    """

    def __init__(self, inner, fail_at=None, fail_with=BackendError):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.fail_at = fail_at
        self.fail_with = fail_with
        self.calls = 0
        self.succeeded = 0
        self._lock = threading.Lock()

    def score(self, request):
        with self._lock:
            self.calls += 1
            failing = self.calls == self.fail_at
        if failing:
            raise self.fail_with("connection dropped")
        result = self.inner.score(request)
        with self._lock:
            self.succeeded += 1
        return result


def scored_profile(problem, trace, answers, backend):
    """A trace's information profile from one ``backend.score`` call per
    (prefix, answer) cell, through :func:`information`: the reference that
    ``score_traces`` is checked against."""
    values = [[information(problem, trace.steps[:i], a, backend) for a in answers] for i in range(len(trace.steps) + 1)]
    return InformationProfile(problem.id, trace.trace_id, list(answers), values)


def information(problem, steps_prefix, answer, backend):
    """Total log-likelihood (nats) of ``answer`` given the question and a
    step prefix, from one backend call: the single-cell oracle the score
    stage's totals are checked against. An empty prefix gives the
    no-reasoning baseline."""
    request = ScoringRequest(context=build_context(problem.question, steps_prefix), continuation=answer)
    return backend.score(request).total()


def parse_record_line(line, lineno=0):
    """Parse one emitted training record, checking its marker layout: the
    round-trip oracle for the records ``write_shards`` writes. A malformed
    line raises DataError naming its line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: record is not an object")
    try:
        segments = [{"text": s["text"], "is_target": bool(s["is_target"])} for s in obj["segments"]]
        record = {"problem_id": obj["problem_id"], "trace_id": obj["trace_id"], "segments": segments}
    except (KeyError, TypeError) as exc:
        raise DataError(f"line {lineno}: missing record field: {exc}") from exc
    n_targets = sum(1 for s in segments if s["is_target"])
    if not segments or segments[0]["is_target"]:
        raise DataError(f"line {lineno}: record must start with a question segment")
    if "targets" in obj:
        targets = list(obj["targets"])
        if len(targets) != n_targets:
            raise DataError(f"line {lineno}: {len(targets)} targets for {n_targets} marker segments")
        return {**record, "targets": targets}
    if "target" in obj:
        if n_targets != 1 or not segments[-1]["is_target"]:
            raise DataError(f"line {lineno}: outcome record must have exactly one trailing target")
        return {**record, "target": obj["target"]}
    raise DataError(f"line {lineno}: record has neither 'targets' nor 'target'")


def read_records(path):
    """Every record of one emitted shard, through :func:`parse_record_line`."""
    with open(path, encoding="utf-8") as fh:
        return [parse_record_line(line, lineno) for lineno, line in enumerate(fh, start=1) if line.strip()]
