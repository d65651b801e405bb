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
"""

from pathlib import Path
from typing import Iterable

from .errors import ReservedSymbolError
from .ioutil import encode_json
from .trace_model import Problem, ReasoningTrace

STEP_MARKER = "<|s_req|>"
POSITIVE_SYMBOL = "<|s_pos|>"
NEGATIVE_SYMBOL = "<|s_neg|>"
RESERVED_SYMBOLS = (STEP_MARKER, POSITIVE_SYMBOL, NEGATIVE_SYMBOL)

TARGET_POS = "POS"
TARGET_NEG = "NEG"


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


def _record(problem: Problem, trace: ReasoningTrace, target_markers: str) -> dict:
    """A record without its targets: ids and the segments [question, step,
    marker, step, marker, ...]; ``target_markers`` is "all" or "last" and
    controls which markers carry a prediction target."""
    _check_reserved(problem, trace)
    segments = [{"text": problem.question, "is_target": False}]
    last = len(trace.steps) - 1
    for i, step in enumerate(trace.steps):
        segments.append({"text": step, "is_target": False})
        segments.append({"text": STEP_MARKER, "is_target": target_markers == "all" or i == last})
    return {"problem_id": problem.id, "trace_id": trace.trace_id, "segments": segments}


def emit_prm_record(problem: Problem, trace: ReasoningTrace, labels: list[int]) -> dict:
    """Build a step-level record: one target marker per step, POS where the
    step label is 1."""
    record = _record(problem, trace, target_markers="all")
    record["targets"] = [TARGET_POS if l == 1 else TARGET_NEG for l in labels]
    return record


def emit_orm_record(problem: Problem, trace: ReasoningTrace) -> dict:
    """Build an outcome-level record: the single trailing marker carries the
    validator outcome."""
    if trace.correct is None:
        raise ValueError(f"trace {trace.trace_id!r} has no validation outcome")
    record = _record(problem, trace, target_markers="last")
    record["target"] = TARGET_POS if trace.correct else TARGET_NEG
    return record


def write_shards(
    records: list[dict],
    directory: str | Path,
    split: str,
    records_per_shard: int = 100_000,
) -> list[Path]:
    """Write records, one JSON line each, into ``{split}-{shard:05d}.jsonl`` files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    handle = None
    written = 0
    try:
        for record in records:
            if handle is None or written >= records_per_shard:
                if handle is not None:
                    handle.close()
                path = directory / f"{split}-{len(paths):05d}.jsonl"
                handle = open(path, "w", encoding="utf-8")
                paths.append(path)
                written = 0
            handle.write(encode_json(record) + "\n")
            written += 1
    finally:
        if handle is not None:
            handle.close()
    return paths


def label_balance(records: Iterable[dict]) -> dict[str, int]:
    """Dataset-level POS/NEG target counts."""
    counts = {TARGET_POS: 0, TARGET_NEG: 0}
    for record in records:
        for t in record["targets"] if "targets" in record else [record["target"]]:
            counts[t] = counts.get(t, 0) + 1
    return counts
