"""Serialization of labeled traces into step-level and outcome-level
training records.

Each record is the JSON object written to its shard line:
``problem_id``, ``trace_id``, ``segments`` (each ``{"text", "is_target"}``)
and then ``targets`` (step-level) or ``target`` (outcome-level).
A step-level record interleaves the question and steps with a reserved
marker segment after every step; the classifier target (POS or NEG) applies
at each marker. An outcome-level record keeps the same layout but carries a
single target at the trailing marker only. The reserved symbols are literal
strings here; trainers map them onto unused vocabulary ids.

Lines are assembled as text from a trace's :func:`trace_fragment`, which encodes
its ids, question and steps once; each equals ``encode_json(record) + "\\n"``.
"""

from json.encoder import encode_basestring
from pathlib import Path

from .errors import ReservedSymbolError
from .ioutil import atomic_write_lines
from .trace_model import Problem, ReasoningTrace

STEP_MARKER = "<|s_req|>"
POSITIVE_SYMBOL = "<|s_pos|>"
NEGATIVE_SYMBOL = "<|s_neg|>"
RESERVED_SYMBOLS = (STEP_MARKER, POSITIVE_SYMBOL, NEGATIVE_SYMBOL)

TARGET_POS = "POS"
TARGET_NEG = "NEG"

# JSON text between a record's strings, as ``encode_json`` separates it.
_SEGMENT = ', {"text": '
_PLAIN = ', "is_target": false}'
_MARKER = _SEGMENT + encode_basestring(STEP_MARKER) + ', "is_target": '
_TARGET_MARKER = _MARKER + "true}"
_PLAIN_MARKER = _MARKER + "false}"
_TARGET_TEXT = (encode_basestring(TARGET_NEG), encode_basestring(TARGET_POS))  # by 0/1 label


def _check_reserved(problem: Problem, trace: ReasoningTrace) -> None:
    for symbol in RESERVED_SYMBOLS:
        if symbol in problem.question:
            raise ReservedSymbolError(
                f"problem {problem.id!r}: question contains reserved symbol {symbol!r}",
                reason_code="reserved_symbol_in_question",
            )
        for step in trace.steps:
            if symbol in step:
                raise ReservedSymbolError(
                    f"trace {trace.trace_id!r}: step contains reserved symbol {symbol!r}",
                    reason_code="reserved_symbol_in_step",
                )


def trace_fragment(problem: Problem, trace: ReasoningTrace) -> tuple[str, list[str]]:
    """The JSON text a trace's records share: the record head through the
    question segment, and each step's segment with its leading separator.
    A question or step holding a reserved symbol raises ReservedSymbolError."""
    _check_reserved(problem, trace)
    head = (
        '{"problem_id": ' + encode_basestring(problem.id) + ', "trace_id": ' + encode_basestring(trace.trace_id)
        + ', "segments": [{"text": ' + encode_basestring(problem.question) + _PLAIN
    )
    return head, [_SEGMENT + encode_basestring(step) + _PLAIN for step in trace.steps]


def emit_prm_record(fragment: tuple[str, list[str]], labels: list[int]) -> str:
    """A step-level record's line: a target marker after every step, POS
    where the step label is 1."""
    head, steps = fragment
    targets = ", ".join([_TARGET_TEXT[label] for label in labels])
    return head + _TARGET_MARKER.join(steps) + _TARGET_MARKER + '], "targets": [' + targets + "]}\n"


def emit_orm_record(fragment: tuple[str, list[str]], correct: bool) -> str:
    """An outcome-level record's line: only the trailing marker is a
    target, and it carries the validator outcome."""
    head, steps = fragment
    return head + _PLAIN_MARKER.join(steps) + _TARGET_MARKER + '], "target": ' + _TARGET_TEXT[correct] + "}\n"


def write_shards(
    lines: list[str],
    directory: str | Path,
    split: str,
    records_per_shard: int = 100_000,
) -> list[Path]:
    """Write record lines into ``{split}-{shard:05d}.jsonl`` files, each as a stream."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for start in range(0, len(lines), records_per_shard):
        path = directory / f"{split}-{len(paths):05d}.jsonl"
        atomic_write_lines(path, lines[start : start + records_per_shard])
        paths.append(path)
    return paths


def label_balance(labels: list[int]) -> dict[str, int]:
    """Dataset-level POS/NEG target counts, from the 0/1 label of every target."""
    positive = sum(labels)
    return {TARGET_POS: positive, TARGET_NEG: len(labels) - positive}
