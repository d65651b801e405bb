import json
import random

import pytest

from helpers import make_problem, make_trace
from steplab.errors import ValidatorError
from steplab.trace_model import (
    STEP_DELIMITER,
    build_answer_pool,
    extract_answer,
    filter_and_subsample,
    normalize_answer,
    parse_trace,
)
from steplab.validators import ValidatorSpec, make_validator


class TestParseTrace:
    def test_delimited_trace_with_math_answer(self):
        trace = parse_trace("A [STEP] B [STEP] The answer is $42$", "math")
        assert trace.steps == ["A", "B", "The answer is $42$"]
        assert trace.final_answer == "42"
        assert trace.parse_ok

    def test_no_delimiter_no_answer(self):
        trace = parse_trace("only text, no delimiter, no answer", "math")
        assert trace.steps == ["only text, no delimiter, no answer"]
        assert trace.final_answer is None
        assert not trace.parse_ok

    def test_fenced_sql_answer(self):
        trace = parse_trace("plan [STEP] write ```sql\nSELECT 1\n```", "sql")
        assert trace.steps == ["plan", "write ```sql\nSELECT 1\n```"]
        assert trace.final_answer == "SELECT 1"
        assert trace.parse_ok

    def test_empty_raw_is_a_hard_error(self):
        with pytest.raises(ValueError):
            parse_trace("", "math")
        with pytest.raises(ValueError):
            parse_trace(" [STEP]  ", "math")

    def test_roundtrip_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            steps = [
                "".join(rng.choice("abc XY.") for _ in range(rng.randint(1, 12))).strip() or "x"
                for _ in range(rng.randint(1, 6))
            ]
            reparsed = parse_trace(f" {STEP_DELIMITER} ".join(steps), "math")
            assert reparsed.steps == steps


class TestExtractAnswer:
    def test_last_dollar_span_wins(self):
        assert extract_answer("so $x=3$, thus $7$", "math") == "7"

    def test_fence_with_language_tag(self):
        assert extract_answer("```python\nreturn 1\n```", "python") == "return 1"

    def test_absent(self):
        assert extract_answer("no spans here", "math") is None

    def test_empty_span_is_absent(self):
        assert extract_answer("empty $$ span", "math") is None

    def test_other_domain_accepts_either_wrapper(self):
        assert extract_answer("first $1$ then ```2```", "other") == "2"


class TestNormalizeAnswer:
    def test_math_canonicalizes_rationals(self):
        assert normalize_answer("0.5", "math") == normalize_answer("1/2", "math")

    def test_whitespace_collapse(self):
        assert normalize_answer("  a   b ", "qa") == "a b"

    def test_non_numeric_math_left_alone(self):
        assert normalize_answer("x+1", "math") == "x+1"


class TestReasoningTrace:
    def test_empty_answer_rejected(self):
        with pytest.raises(ValueError, match="final_answer"):
            make_trace(final_answer="")


class TestBuildAnswerPool:
    def test_direct_partition(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id=f"t{i}", final_answer=ans)
            for i, ans in enumerate(["4", "5", "6"])
        ]
        pool = build_answer_pool(problem, traces, lambda a: 1 if a == "4" else 0)
        assert len(pool.correct) == 1
        assert len(pool.wrong) == 2

    def test_all_correct(self):
        problem = make_problem()
        traces = [make_trace(trace_id=f"t{i}", final_answer="4") for i in range(8)]
        pool = build_answer_pool(problem, traces, lambda a: 1)
        assert pool.correct == ["4"]
        assert pool.wrong == []
        assert pool.multiplicity["4"] == 8

    def test_normalization_equal_answers_deduplicate(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id="t1", final_answer="0.5"),
            make_trace(trace_id="t2", final_answer="1/2"),
        ]
        calls = []

        def validator(answer):
            calls.append(answer)
            return 1

        pool = build_answer_pool(problem, traces, validator)
        assert pool.correct == ["0.5"]
        assert calls == ["0.5"]
        assert pool.multiplicity["0.5"] == 2

    @pytest.mark.parametrize("case", ["raises", "sql-fixture-fails-to-build", "sql-gold-query-fails"])
    def test_validator_crash_goes_to_wrong_with_flag(self, sql_fixture, tmp_path, case):
        gold_query, fixture = "SELECT 1", tmp_path / "broken.sql"
        fixture.write_text("CREATE TABLE t (x INTEGER);\nTHIS IS NOT SQL;\n")
        if case == "sql-gold-query-fails":
            gold_query, fixture = "SELECT nothing FROM nowhere", sql_fixture
        spec = ValidatorSpec(kind="sql_execution", payload={"fixture": str(fixture), "gold_query": gold_query})
        problem = make_problem(domain="sql", gold="unused", validator=spec)
        traces = [make_trace(final_answer="4")]

        def validator(answer):
            raise ValidatorError("fixture exploded")

        pool = build_answer_pool(problem, traces, validator if case == "raises" else make_validator(problem))
        assert pool.correct == []
        assert pool.wrong == ["4"]
        expected = {
            "raises": "fixture exploded",
            "sql-fixture-fails-to-build": f"failed to build fixture from {fixture}",
            "sql-gold-query-fails": "gold query failed on fixture",
        }[case]
        assert pool.diagnostics["4"].startswith(f"validator_error: {expected}")

    def test_unparsed_traces_contribute_nothing(self):
        problem = make_problem()
        traces = [make_trace(trace_id="t1", final_answer=None, steps=["stuck"])]
        pool = build_answer_pool(problem, traces, lambda a: 1)
        assert pool.correct == [] and pool.wrong == []

    def test_partition_matches_validator_outcome(self):
        rng = random.Random(21)
        problem = make_problem(domain="qa")
        for _ in range(50):
            answers = [f"ans{rng.randint(0, 9)}" for _ in range(rng.randint(1, 12))]
            traces = [
                make_trace(trace_id=f"t{i}", final_answer=a) for i, a in enumerate(answers)
            ]
            outcome = {a: rng.randint(0, 1) for a in set(answers)}
            pool = build_answer_pool(problem, traces, lambda a: outcome[a])
            for answer in pool.correct:
                assert outcome[answer] == 1
            for answer in pool.wrong:
                assert outcome[answer] == 0
            assert set(pool.correct).isdisjoint(pool.wrong)


def _synthetic_problem_set(rng, n_problems):
    problems = []
    traces_by_problem = {}
    for i in range(n_problems):
        problem = make_problem(pid=f"p{i}")
        n = rng.randint(1, 14)
        n_correct = rng.choice([0, 1, rng.randint(0, n)])
        traces = []
        for t in range(n):
            correct = t < n_correct
            parse_ok = rng.random() > 0.1
            traces.append(
                make_trace(
                    problem_id=problem.id,
                    trace_id=f"p{i}-t{t}",
                    final_answer="4" if parse_ok else None,
                    steps=["s1", "s2"],
                    correct=correct if parse_ok else None,
                )
            )
        problems.append(problem)
        traces_by_problem[problem.id] = traces
    return problems, traces_by_problem


def _workset_bytes(kept: list) -> bytes:
    payload = [
        (problem.id, [t.trace_id for t in traces]) for problem, traces in kept
    ]
    return json.dumps(payload).encode()


class TestFilterAndSubsample:
    def test_keeps_eight_with_at_least_one_correct(self):
        problem = make_problem()
        traces = [
            make_trace(trace_id=f"t{i}", correct=i < 2) for i in range(10)
        ]
        result, _ = filter_and_subsample([problem], {problem.id: traces}, k=8, seed=1)
        (_, kept) = result[0]
        assert len(kept) == 8
        assert any(t.correct for t in kept)

    def test_all_correct_problem_removed(self):
        problem = make_problem()
        traces = [make_trace(trace_id=f"t{i}", correct=True) for i in range(8)]
        kept, dropped = filter_and_subsample([problem], {problem.id: traces}, k=8, seed=1)
        assert kept == []
        assert dropped[problem.id] == "all_correct"

    def test_fewer_traces_than_k_all_incorrect(self):
        problem = make_problem()
        traces = [make_trace(trace_id=f"t{i}", correct=False) for i in range(3)]
        result, _ = filter_and_subsample([problem], {problem.id: traces}, k=8, seed=1)
        (_, kept) = result[0]
        assert len(kept) == 3
        assert all(not t.correct for t in kept)

    def test_zero_parsed_traces_dropped_with_reason(self):
        problem = make_problem()
        traces = [make_trace(trace_id="t0", final_answer=None, steps=["s"])]
        _, dropped = filter_and_subsample([problem], {problem.id: traces}, k=8, seed=1)
        assert dropped[problem.id] == "no_parsed_traces"

    def test_deterministic_across_runs_and_order(self):
        rng = random.Random(11)
        problems, traces_by_problem = _synthetic_problem_set(rng, 40)
        first, _ = filter_and_subsample(problems, traces_by_problem, k=8, seed=5)
        second, _ = filter_and_subsample(problems, traces_by_problem, k=8, seed=5)
        assert _workset_bytes(first) == _workset_bytes(second)
        # Per-problem choice does not depend on dataset order.
        shuffled = list(problems)
        random.Random(0).shuffle(shuffled)
        third, _ = filter_and_subsample(shuffled, traces_by_problem, k=8, seed=5)
        kept_of = {p.id: [t.trace_id for t in ts] for p, ts in third}
        for problem, traces in first:
            assert kept_of[problem.id] == [t.trace_id for t in traces]

    def test_subsample_size_and_correct_presence_invariants(self):
        rng = random.Random(3)
        problems, traces_by_problem = _synthetic_problem_set(rng, 60)
        result, _ = filter_and_subsample(problems, traces_by_problem, k=8, seed=9)
        for problem, kept in result:
            parsed = [t for t in traces_by_problem[problem.id] if t.parse_ok]
            assert len(kept) == min(8, len(parsed))
            assert not all(t.correct for t in parsed)
            if any(t.correct for t in parsed):
                assert any(t.correct for t in kept)
