"""Serialization of labeled traces into step-level and outcome-level
training records.

A step-level record interleaves the question and steps with a reserved
marker segment after every step; the classifier target (POS or NEG) applies
at each marker. An outcome-level record keeps the same layout but carries a
single target at the trailing marker only. The reserved symbols are literal
strings here; trainers map them onto unused vocabulary ids.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .errors import ReservedSymbolError
from .infogain import StepLabels
from .trace_model import Problem, ReasoningTrace

STEP_MARKER = "<|s_req|>"
POSITIVE_SYMBOL = "<|s_pos|>"
NEGATIVE_SYMBOL = "<|s_neg|>"
RESERVED_SYMBOLS = (STEP_MARKER, POSITIVE_SYMBOL, NEGATIVE_SYMBOL)

TARGET_POS = "POS"
TARGET_NEG = "NEG"


@dataclass
class Segment:
    text: str
    is_target: bool = False


@dataclass
class PRMRecord:
    problem_id: str
    trace_id: str
    segments: list[Segment]
    targets: list[str]


@dataclass
class ORMRecord:
    problem_id: str
    trace_id: str
    segments: list[Segment]
    target: str


Record = Union[PRMRecord, ORMRecord]


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


def _interleaved_segments(problem: Problem, trace: ReasoningTrace, target_markers: str) -> list[Segment]:
    """[question, step, marker, step, marker, ...]; ``target_markers`` is
    "all" or "last" and controls which markers carry a prediction target."""
    segments = [Segment(text=problem.question)]
    last = len(trace.steps) - 1
    for i, step in enumerate(trace.steps):
        segments.append(Segment(text=step))
        is_target = target_markers == "all" or i == last
        segments.append(Segment(text=STEP_MARKER, is_target=is_target))
    return segments


def emit_prm_record(problem: Problem, trace: ReasoningTrace, labels: StepLabels) -> PRMRecord:
    """Build a step-level record: one target marker per step, POS where the
    step label is 1."""
    if len(labels.labels) != len(trace.steps):
        raise ValueError(
            f"trace {trace.trace_id!r}: {len(labels.labels)} labels for {len(trace.steps)} steps"
        )
    _check_reserved(problem, trace)
    return PRMRecord(
        problem_id=problem.id,
        trace_id=trace.trace_id,
        segments=_interleaved_segments(problem, trace, target_markers="all"),
        targets=[TARGET_POS if l == 1 else TARGET_NEG for l in labels.labels],
    )


def emit_orm_record(problem: Problem, trace: ReasoningTrace) -> ORMRecord:
    """Build an outcome-level record: the single trailing marker carries the
    validator outcome."""
    if trace.correct is None:
        raise ValueError(f"trace {trace.trace_id!r} has no validation outcome")
    _check_reserved(problem, trace)
    return ORMRecord(
        problem_id=problem.id,
        trace_id=trace.trace_id,
        segments=_interleaved_segments(problem, trace, target_markers="last"),
        target=TARGET_POS if trace.correct else TARGET_NEG,
    )


def serialize_record(record: Record) -> str:
    """One JSON line, canonical key order."""
    obj: dict = {
        "problem_id": record.problem_id,
        "trace_id": record.trace_id,
        "segments": [{"text": s.text, "is_target": s.is_target} for s in record.segments],
    }
    if isinstance(record, PRMRecord):
        obj["targets"] = record.targets
    else:
        obj["target"] = record.target
    return json.dumps(obj, ensure_ascii=False)


def write_shards(
    records: Iterable[Record],
    directory: str | Path,
    split: str,
    records_per_shard: int = 100_000,
) -> list[Path]:
    """Write records into ``{split}-{shard:05d}.jsonl`` files."""
    if records_per_shard < 1:
        raise ValueError("records_per_shard must be at least 1")
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
            handle.write(serialize_record(record) + "\n")
            written += 1
    finally:
        if handle is not None:
            handle.close()
    return paths


def label_balance(records: Iterable[Record]) -> dict[str, int]:
    """Dataset-level POS/NEG target counts."""
    counts = {TARGET_POS: 0, TARGET_NEG: 0}
    for record in records:
        targets = record.targets if isinstance(record, PRMRecord) else [record.target]
        for t in targets:
            counts[t] = counts.get(t, 0) + 1
    return counts
