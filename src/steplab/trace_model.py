"""Problems, reasoning traces, answer pools, and train-set filtering.

Generation format conventions: reasoning steps are separated by the literal
token ``[STEP]``; the final answer appears in the last step, wrapped in
dollar signs for math/qa or a triple-backtick fence for python/sql.
"""

import logging
import random
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable

from .errors import ValidatorError
from .ioutil import encode_json, read_jsonl, row_object, stable_seed, write_jsonl
from .validators import ValidatorSpec, parse_numeric

log = logging.getLogger(__name__)

STEP_DELIMITER = "[STEP]"
DOMAINS = ("math", "python", "sql", "qa", "other")

_DOLLAR_SPAN_RE = re.compile(r"\$([^$]*)\$")
_FENCE_RE = re.compile(r"```(.*?)```", re.DOTALL)
_LANG_TAG_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_+-]*$")
_TEXT_FIELDS = ("id", "domain", "question", "gold_answer")  # a problem's string fields, in its JSON object's order


@dataclass
class Problem:
    """A question with its gold answer and validator description."""

    id: str
    domain: str
    question: str
    gold_answer: str
    validator_spec: ValidatorSpec

    def __post_init__(self):
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if not self.gold_answer:
            raise ValueError(f"problem {self.id!r}: gold answer must be non-empty")
        if self.domain not in DOMAINS:
            raise ValueError(f"problem {self.id!r}: unknown domain {self.domain!r}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Problem":
        """A problem from its JSON object, a ``--problems`` or ``problems.jsonl`` row."""
        spec = obj["validator"]
        if not isinstance(spec, dict):
            raise TypeError(f"'validator' must be an object, got {type(spec).__name__}")
        _utf8("validator", encode_json(spec))
        return cls(**_string_fields(obj, *_TEXT_FIELDS), validator_spec=ValidatorSpec.from_json_dict(spec))

    def to_json_dict(self) -> dict:
        """The one encoder of a problem: the inverse of :meth:`from_json_dict`."""
        return {**{name: getattr(self, name) for name in _TEXT_FIELDS}, "validator": self.validator_spec.to_json_dict()}


@dataclass(slots=True)
class ReasoningTrace:
    """A parsed multi-step answer to one problem.

    ``parse_ok`` is true exactly when a final answer could be extracted;
    ``correct`` is set by validation and only for parseable traces.
    """

    problem_id: str
    trace_id: str
    steps: list[str]
    final_answer: str | None
    parse_ok: bool
    correct: bool | None = None

    def __post_init__(self):
        if type(self.problem_id) is not str or type(self.trace_id) is not str:
            raise ValueError("problem_id and trace_id must be strings")
        if type(self.steps) is not list or not self.steps or not all(type(s) is str and s for s in self.steps):
            raise ValueError("steps must be a non-empty list of non-empty strings")
        if self.final_answer is not None and (type(self.final_answer) is not str or not self.final_answer):
            raise ValueError("final_answer must be a non-empty string or null")
        if self.parse_ok != (self.final_answer is not None):
            raise ValueError("parse_ok must mirror the presence of final_answer")
        if self.correct is not None and not self.parse_ok:
            raise ValueError("only parseable traces can carry a validation outcome")


@dataclass(slots=True)
class AnswerPool:
    """Validated final answers for one problem, split into correct and wrong.

    Answers are deduplicated under :func:`normalize_answer`; ``multiplicity``
    keeps the original counts and ``diagnostics`` records answers whose
    validator failed (they are filed under ``wrong``).
    """

    problem_id: str
    correct: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    multiplicity: dict[str, int] = field(default_factory=dict)
    diagnostics: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not all(type(v) is list and all(type(a) is str and a for a in v) for v in (self.correct, self.wrong)):
            raise ValueError(f"pool {self.problem_id!r}: correct and wrong must be lists of non-empty strings")
        if type(self.multiplicity) is not dict or type(self.diagnostics) is not dict:
            raise ValueError(f"pool {self.problem_id!r}: multiplicity and diagnostics must be objects")


def extract_answer(step_text: str, domain: str) -> str | None:
    """Extract the final answer from a step's text, or None.

    math/qa: content of the last non-empty ``$...$`` span. python/sql:
    content of the last fenced block, with a leading language-tag line
    stripped. The "other" domain accepts either wrapper, taking whichever
    occurs last.
    """
    spans: list[tuple[int, str]] = []
    if domain in ("math", "qa", "other"):
        for m in _DOLLAR_SPAN_RE.finditer(step_text):
            content = m.group(1).strip()
            if content:
                spans.append((m.start(), content))
    if domain in ("python", "sql", "other"):
        for m in _FENCE_RE.finditer(step_text):
            content = _strip_language_tag(m.group(1))
            if content:
                spans.append((m.start(), content))
    if not spans:
        return None
    return max(spans, key=lambda pair: pair[0])[1]


def _strip_language_tag(fence_body: str) -> str:
    lines = fence_body.split("\n")
    if len(lines) > 1 and (not lines[0].strip() or _LANG_TAG_RE.fullmatch(lines[0].strip())):
        lines = lines[1:]
    return "\n".join(lines).strip()


def parse_trace(raw: str, domain: str, problem_id: str = "", trace_id: str = "") -> ReasoningTrace:
    """Split raw model output on the step delimiter and extract the answer.

    Never aborts on an unextractable answer (``parse_ok`` goes false); raw
    text with no step content at all is a hard error.
    """
    steps = [seg.strip() for seg in raw.split(STEP_DELIMITER)]
    steps = [seg for seg in steps if seg]
    if not steps:
        raise ValueError("trace text contains no step content")
    final_answer = extract_answer(steps[-1], domain)
    return ReasoningTrace(
        problem_id=problem_id,
        trace_id=trace_id,
        steps=steps,
        final_answer=final_answer,
        parse_ok=final_answer is not None,
    )


def normalize_answer(text: str, domain: str) -> str:
    """Answer-equivalence key: trimmed, whitespace-collapsed, and for math
    canonicalized to an exact rational when the text parses as a number."""
    collapsed = " ".join(text.split())
    if domain == "math":
        number = parse_numeric(collapsed)
        if number is not None:
            return str(number)
    return collapsed


def build_answer_pool(
    problem: Problem,
    traces: list[ReasoningTrace],
    validator: Callable[[str], int],
) -> AnswerPool:
    """Partition the parsed final answers of ``traces`` into correct and wrong.

    Each distinct answer (under normalization) is validated exactly once; the
    first-seen spelling represents its group. A validator crash records the
    answer as wrong with a diagnostic instead of sinking the whole problem;
    the validate stage counts the diagnostics, so each is logged at DEBUG.
    """
    pool = AnswerPool(problem_id=problem.id)
    representatives: dict[str, str] = {}
    for trace in traces:
        if not trace.parse_ok:
            continue
        key = normalize_answer(trace.final_answer, problem.domain)
        representatives.setdefault(key, trace.final_answer)
        pool.multiplicity[representatives[key]] = pool.multiplicity.get(representatives[key], 0) + 1
    for answer in representatives.values():
        try:
            outcome = validator(answer)
        except ValidatorError as exc:
            log.debug("problem %s: validator error on %r: %s", problem.id, answer, exc)
            pool.wrong.append(answer)
            pool.diagnostics[answer] = f"validator_error: {exc}"
            continue
        if outcome == 1:
            pool.correct.append(answer)
        else:
            pool.wrong.append(answer)
    return pool


def filter_and_subsample(
    problems: list[Problem],
    traces_by_problem: dict[str, list[ReasoningTrace]],
    k: int = 8,
    seed: int = 0,
) -> tuple[list[tuple[Problem, list[ReasoningTrace]]], dict[str, str]]:
    """Build the working candidate set for labeling from validated traces:
    the kept (problem, traces) pairs, and each dropped problem's reason.

    Unparseable traces are removed, problems whose parsed traces are all
    correct are dropped (no contrast), and each surviving problem keeps a
    seeded subsample of min(k, available) traces that includes at least one
    correct trace whenever one exists, the remaining slots being filled with
    incorrect traces first. The RNG is derived from (seed, problem id) so the
    choice is independent of dataset order.
    """
    kept: list[tuple[Problem, list[ReasoningTrace]]] = []
    dropped: dict[str, str] = {}
    for problem in problems:
        parsed = [t for t in traces_by_problem.get(problem.id, []) if t.parse_ok]
        if not parsed:
            dropped[problem.id] = "no_parsed_traces"
            continue
        if all(t.correct for t in parsed):
            dropped[problem.id] = "all_correct"
            continue
        kept.append((problem, _subsample(parsed, k, seed, problem.id)))
    return kept, dropped


def _subsample(parsed: list[ReasoningTrace], k: int, seed: int, problem_id: str) -> list[ReasoningTrace]:
    rng = random.Random(stable_seed(seed, problem_id))
    target = min(k, len(parsed))
    correct = [t for t in parsed if t.correct]
    wrong = [t for t in parsed if not t.correct]
    chosen: list[ReasoningTrace] = []
    if correct:
        chosen.append(rng.choice(correct))
    need = target - len(chosen)
    chosen.extend(rng.sample(wrong, min(need, len(wrong))))
    if len(chosen) < target:
        chosen_ids = {t.trace_id for t in chosen}
        remaining = [t for t in correct if t.trace_id not in chosen_ids]
        chosen.extend(rng.sample(remaining, target - len(chosen)))
    order = {id(t): i for i, t in enumerate(parsed)}
    chosen.sort(key=lambda t: order[id(t)])
    return chosen


# ---------------------------------------------------------------------------
# JSONL interfaces


def _utf8(name: str, text: str) -> None:
    """Reject a string holding a lone surrogate (``\\ud800``), which UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{name!r} holds the lone surrogate {exc.object[exc.start]!r}") from None


def _string_fields(obj: dict, *keys: str) -> dict[str, str]:
    for key in keys:
        if not isinstance(obj[key], str):
            raise TypeError(f"{key!r} must be a string, got {type(obj[key]).__name__}")
        _utf8(key, obj[key])
    return {key: obj[key] for key in keys}


def read_problems(path: str | Path) -> list[Problem]:
    return list(read_jsonl(path, Problem.from_json_dict, key=attrgetter("id")))


def write_problems(path: str | Path, problems: Iterable[Problem]) -> str:
    return write_jsonl(path, map(Problem.to_json_dict, problems))


def read_raw_traces(path: str | Path) -> Iterable[dict]:
    """Raw generation records: {problem_id, trace_id, raw_text}, all strings, one per (problem_id, trace_id)."""
    fields = ("problem_id", "trace_id", "raw_text")
    return read_jsonl(path, lambda obj: _string_fields(obj, *fields), key=itemgetter("problem_id", "trace_id"))


# Only bench/traced.py uses these two, by patching them: pipeline.ARTIFACTS
# holds the reader and encoder of parsed_traces.jsonl.
def write_traces(path: str | Path, traces: Iterable[ReasoningTrace]) -> str:
    return write_jsonl(path, map(row_object, traces))


def read_traces(path: str | Path) -> list[ReasoningTrace]:
    return list(read_jsonl(path, lambda obj: ReasoningTrace(**obj), key=attrgetter("problem_id", "trace_id")))
