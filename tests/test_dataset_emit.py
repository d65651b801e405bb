import json
import random

import pytest

from helpers import make_problem, make_trace, parse_record_line, read_records
from steplab.dataset_emit import (
    NEGATIVE_SYMBOL,
    POSITIVE_SYMBOL,
    STEP_MARKER,
    RecordLines,
    emit_orm_record,
    emit_prm_record,
    label_balance,
    trace_fragment,
    write_shards,
)
from steplab.errors import DataError, ReservedSymbolError
from steplab.ioutil import encode_json


def prm_line(problem, trace, labels):
    return emit_prm_record(trace_fragment(problem, trace), labels)


def orm_line(problem, trace):
    return emit_orm_record(trace_fragment(problem, trace), trace.correct)


def reference_record(problem, trace, labels=None):
    """The record a line must encode, built as a dict: a PRM record with
    ``labels``, else the trace's ORM record."""
    segments = [{"text": problem.question, "is_target": False}]
    for i, step in enumerate(trace.steps):
        segments.append({"text": step, "is_target": False})
        segments.append({"text": STEP_MARKER, "is_target": labels is not None or i == len(trace.steps) - 1})
    record = {"problem_id": problem.id, "trace_id": trace.trace_id, "segments": segments}
    if labels is None:
        record["target"] = "POS" if trace.correct else "NEG"
    else:
        record["targets"] = ["POS" if label == 1 else "NEG" for label in labels]
    return record


# Characters JSON escapes or passes through unescaped: quotes, backslashes,
# control characters, U+2028/U+2029, lone surrogates, and non-ASCII text.
TRICKY = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800", "\udfff", "é", "漢", "😀"]


def random_text(rng):
    chars = (rng.choice(TRICKY) if rng.random() < 0.4 else chr(rng.randint(32, 126)) for _ in range(rng.randint(1, 12)))
    return "".join(chars)


class TestLineBuilders:
    def test_lines_equal_the_compact_json_of_their_records(self):
        rng = random.Random(23)
        for i in range(500):
            problem = make_problem(pid=random_text(rng), question=random_text(rng))
            steps = [random_text(rng) for _ in range(rng.randint(1, 5))]
            correct = rng.random() < 0.5
            trace = make_trace(problem_id=problem.id, trace_id=random_text(rng), steps=steps, correct=correct)
            labels = [[0] * len(steps), [1] * len(steps), [rng.randint(0, 1) for _ in steps]][i % 3]
            assert prm_line(problem, trace, labels) == encode_json(reference_record(problem, trace, labels)) + "\n"
            assert orm_line(problem, trace) == encode_json(reference_record(problem, trace)) + "\n"


class TestEmitPrm:
    def test_two_step_record(self):
        problem = make_problem()
        record = parse_record_line(prm_line(problem, make_trace(steps=["r1", "r2"]), [1, 0]))
        assert list(record) == ["problem_id", "trace_id", "segments", "targets"]
        assert record["targets"] == ["POS", "NEG"]
        texts = [s["text"] for s in record["segments"]]
        assert texts == [problem.question, "r1", STEP_MARKER, "r2", STEP_MARKER]
        targets = [s for s in record["segments"] if s["is_target"]]
        assert len(targets) == 2
        assert record["segments"][0]["is_target"] is False

    def test_single_step(self):
        record = parse_record_line(prm_line(make_problem(), make_trace(steps=["only"]), [1]))
        assert record["targets"] == ["POS"]
        assert sum(s["is_target"] for s in record["segments"]) == 1

    def test_reserved_symbol_in_step_rejected(self):
        trace = make_trace(steps=["fine", f"sneaky {STEP_MARKER} here"])
        with pytest.raises(ReservedSymbolError) as err:
            trace_fragment(make_problem(), trace)
        assert err.value.reason_code == "reserved_symbol_in_step"

    def test_reserved_symbol_in_question_rejected(self):
        problem = make_problem(question=f"what is {POSITIVE_SYMBOL}?")
        with pytest.raises(ReservedSymbolError) as err:
            trace_fragment(problem, make_trace(steps=["r1"]))
        assert err.value.reason_code == "reserved_symbol_in_question"


class TestEmitOrm:
    def test_correct_trace_gets_pos(self):
        record = parse_record_line(orm_line(make_problem(), make_trace(steps=["r1", "r2"], correct=True)))
        assert list(record) == ["problem_id", "trace_id", "segments", "target"]
        assert record["target"] == "POS"

    def test_incorrect_trace_gets_neg(self):
        record = parse_record_line(orm_line(make_problem(), make_trace(steps=["r1"], correct=False)))
        assert record["target"] == "NEG"

    def test_single_trailing_target(self):
        record = parse_record_line(orm_line(make_problem(), make_trace(steps=["r1", "r2", "r3"], correct=True)))
        assert sum(s["is_target"] for s in record["segments"]) == 1
        assert record["segments"][-1]["is_target"]
        assert record["segments"][-1]["text"] == STEP_MARKER


def random_record(rng, i):
    """A random PRM record's problem, trace, labels and line."""
    problem = make_problem(pid=f"p{i}", question=f"question {rng.randint(0, 10**6)}?")
    n_steps = rng.randint(1, 6)
    steps = [f"step {j} text {rng.randint(0, 999)}" for j in range(n_steps)]
    trace = make_trace(problem_id=problem.id, trace_id=f"p{i}-t0", steps=steps)
    labels = [rng.randint(0, 1) for _ in range(n_steps)]
    return problem, trace, labels, prm_line(problem, trace, labels)


class TestRoundtrip:
    def test_serialize_parse_serialize_is_identity(self):
        rng = random.Random(9)
        for i in range(200):
            line = random_record(rng, i)[3]
            assert encode_json(parse_record_line(line)) + "\n" == line

    def test_truncated_line_is_parse_error(self):
        line = random_record(random.Random(11), 0)[3]
        with pytest.raises(DataError) as err:
            parse_record_line(line[: len(line) // 2], lineno=3)
        assert str(err.value).startswith("line 3: invalid JSON: ")

    def test_target_count_mismatch_is_parse_error(self):
        obj = json.loads(random_record(random.Random(12), 0)[3])
        obj["targets"] = obj["targets"][:-1] + ["POS", "NEG"]
        with pytest.raises(DataError):
            parse_record_line(json.dumps(obj))

    def test_orm_roundtrip(self):
        line = orm_line(make_problem(), make_trace(steps=["r1", "r2"], correct=True))
        parsed = parse_record_line(line)
        assert encode_json(parsed) + "\n" == line
        assert parsed["target"] == "POS"


class TestShards:
    def test_shard_naming_and_content(self, tmp_path):
        rng = random.Random(13)
        lines = [random_record(rng, i)[3] for i in range(25)]
        paths = write_shards(lines, tmp_path, "train", records_per_shard=10)
        assert [p.name for p in paths] == ["train-00000.jsonl", "train-00001.jsonl", "train-00002.jsonl"]
        loaded = [r for p in paths for r in read_records(p)]
        assert [encode_json(r) + "\n" for r in loaded] == lines
        assert [p.read_text(encoding="utf-8") for p in paths] == ["".join(lines[i : i + 10]) for i in range(0, 25, 10)]

    def test_lines_of_a_generator_are_written_as_they_come(self, tmp_path):
        """Each shard is on disk before a line of the next is asked for, and
        an empty generator makes no shard."""
        rng = random.Random(13)
        lines = [random_record(rng, i)[3] for i in range(25)]
        on_disk = []  # the shards written when each line is asked for

        def generated():
            for line in lines:
                on_disk.append(len(list(tmp_path.glob("*.jsonl"))))
                yield line

        paths = write_shards(generated(), tmp_path, "train", records_per_shard=10)
        assert [len(read_records(p)) for p in paths] == [10, 10, 5]
        assert "".join(p.read_text(encoding="utf-8") for p in paths) == "".join(lines)
        assert on_disk == [0] * 10 + [1] * 10 + [2] * 5
        assert write_shards(iter(()), tmp_path / "empty", "train", records_per_shard=10) == []
        assert list((tmp_path / "empty").iterdir()) == []

    def test_record_lines_are_counted_before_and_built_as_read(self):
        built = []

        def build(fragment, target):
            built.append(target)
            return f"{fragment}:{target}\n"

        lines = RecordLines(build, [("a", 1), ("b", 0)])
        assert len(lines) == 2 and built == []
        assert list(lines) == ["a:1\n", "b:0\n"] and built == [1, 0]

    def test_balance_report_matches_targets(self):
        rng = random.Random(14)
        built = [random_record(rng, i) for i in range(40)]
        records = [parse_record_line(line) for *_, line in built]
        balance = label_balance([label for _, _, labels, _ in built for label in labels])
        assert balance["POS"] == sum(r["targets"].count("POS") for r in records)
        assert balance["NEG"] == sum(r["targets"].count("NEG") for r in records)

    def test_balance_counts_one_target_per_outcome_record(self):
        assert label_balance([i % 3 == 0 for i in range(7)]) == {"POS": 3, "NEG": 4}

    def test_reserved_symbols_are_distinct(self):
        assert len({STEP_MARKER, POSITIVE_SYMBOL, NEGATIVE_SYMBOL}) == 3
