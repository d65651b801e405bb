import json
import random

import pytest

from helpers import make_problem, make_trace, parse_record_line, read_records
from steplab.dataset_emit import (
    NEGATIVE_SYMBOL,
    POSITIVE_SYMBOL,
    STEP_MARKER,
    emit_orm_record,
    emit_prm_record,
    label_balance,
    write_shards,
)
from steplab.errors import DataError, ReservedSymbolError


class TestEmitPrm:
    def test_two_step_record(self):
        problem = make_problem()
        trace = make_trace(steps=["r1", "r2"])
        record = emit_prm_record(problem, trace, [1, 0])
        assert list(record) == ["problem_id", "trace_id", "segments", "targets"]
        assert record["targets"] == ["POS", "NEG"]
        texts = [s["text"] for s in record["segments"]]
        assert texts == [problem.question, "r1", STEP_MARKER, "r2", STEP_MARKER]
        targets = [s for s in record["segments"] if s["is_target"]]
        assert len(targets) == 2
        assert record["segments"][0]["is_target"] is False

    def test_single_step(self):
        problem = make_problem()
        trace = make_trace(steps=["only"])
        record = emit_prm_record(problem, trace, [1])
        assert record["targets"] == ["POS"]
        assert sum(s["is_target"] for s in record["segments"]) == 1

    def test_reserved_symbol_in_step_rejected(self):
        problem = make_problem()
        trace = make_trace(steps=["fine", f"sneaky {STEP_MARKER} here"])
        with pytest.raises(ReservedSymbolError) as err:
            emit_prm_record(problem, trace, [1, 0])
        assert err.value.reason_code == "reserved_symbol_in_step"

    def test_reserved_symbol_in_question_rejected(self):
        problem = make_problem(question=f"what is {POSITIVE_SYMBOL}?")
        trace = make_trace(steps=["r1"])
        with pytest.raises(ReservedSymbolError) as err:
            emit_prm_record(problem, trace, [1])
        assert err.value.reason_code == "reserved_symbol_in_question"


class TestEmitOrm:
    def test_correct_trace_gets_pos(self):
        record = emit_orm_record(make_problem(), make_trace(steps=["r1", "r2"], correct=True))
        assert list(record) == ["problem_id", "trace_id", "segments", "target"]
        assert record["target"] == "POS"

    def test_incorrect_trace_gets_neg(self):
        record = emit_orm_record(make_problem(), make_trace(steps=["r1"], correct=False))
        assert record["target"] == "NEG"

    def test_unvalidated_trace_is_hard_error(self):
        with pytest.raises(ValueError):
            emit_orm_record(make_problem(), make_trace(steps=["r1"]))

    def test_single_trailing_target(self):
        record = emit_orm_record(make_problem(), make_trace(steps=["r1", "r2", "r3"], correct=True))
        assert sum(s["is_target"] for s in record["segments"]) == 1
        assert record["segments"][-1]["is_target"]
        assert record["segments"][-1]["text"] == STEP_MARKER


def line_of(record):
    """A record as one shard line, without its newline."""
    return json.dumps(record, ensure_ascii=False)


def random_record(rng, i):
    problem = make_problem(pid=f"p{i}", question=f"question {rng.randint(0, 10**6)}?")
    n_steps = rng.randint(1, 6)
    steps = [f"step {j} text {rng.randint(0, 999)}" for j in range(n_steps)]
    trace = make_trace(problem_id=problem.id, trace_id=f"p{i}-t0", steps=steps)
    labels = [rng.randint(0, 1) for _ in range(n_steps)]
    return problem, trace, emit_prm_record(problem, trace, labels)


class TestRoundtrip:
    def test_serialize_parse_serialize_is_identity(self):
        rng = random.Random(9)
        for i in range(200):
            _, _, record = random_record(rng, i)
            line = line_of(record)
            again = line_of(parse_record_line(line))
            assert again == line

    def test_truncated_line_is_parse_error(self):
        rng = random.Random(11)
        _, _, record = random_record(rng, 0)
        line = line_of(record)
        with pytest.raises(DataError) as err:
            parse_record_line(line[: len(line) // 2], lineno=3)
        assert err.value.line == 3
        assert err.value.offset is not None

    def test_target_count_mismatch_is_parse_error(self):
        rng = random.Random(12)
        _, _, record = random_record(rng, 0)
        obj = json.loads(line_of(record))
        obj["targets"] = obj["targets"][:-1] + ["POS", "NEG"]
        with pytest.raises(DataError):
            parse_record_line(json.dumps(obj))

    def test_orm_roundtrip(self):
        record = emit_orm_record(make_problem(), make_trace(steps=["r1", "r2"], correct=True))
        line = line_of(record)
        parsed = parse_record_line(line)
        assert line_of(parsed) == line
        assert parsed["target"] == "POS"


class TestShards:
    def test_shard_naming_and_content(self, tmp_path):
        rng = random.Random(13)
        records = [random_record(rng, i)[2] for i in range(25)]
        paths = write_shards(records, tmp_path, "train", records_per_shard=10)
        assert [p.name for p in paths] == ["train-00000.jsonl", "train-00001.jsonl", "train-00002.jsonl"]
        loaded = [r for p in paths for r in read_records(p)]
        assert [line_of(r) for r in loaded] == [line_of(r) for r in records]
        assert [p.read_text(encoding="utf-8") for p in paths] == [
            "".join(line_of(r) + "\n" for r in records[i : i + 10]) for i in range(0, 25, 10)
        ]

    def test_balance_report_matches_targets(self, tmp_path):
        rng = random.Random(14)
        records = [random_record(rng, i)[2] for i in range(40)]
        balance = label_balance(records)
        expected_pos = sum(r["targets"].count("POS") for r in records)
        expected_neg = sum(r["targets"].count("NEG") for r in records)
        assert balance["POS"] == expected_pos
        assert balance["NEG"] == expected_neg

    def test_balance_counts_one_target_per_outcome_record(self):
        records = [
            emit_orm_record(make_problem(), make_trace(trace_id=f"t{i}", steps=["r1", "r2"], correct=i % 3 == 0))
            for i in range(7)
        ]
        assert label_balance(records) == {"POS": 3, "NEG": 4}

    def test_reserved_symbols_are_distinct(self):
        assert len({STEP_MARKER, POSITIVE_SYMBOL, NEGATIVE_SYMBOL}) == 3
