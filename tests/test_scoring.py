import hashlib
import json
import math
import logging
import os
import resource
import signal
import socket
import sqlite3
import struct
import subprocess
import sys
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from statistics import fmean

import pytest

from helpers import CountingBackend, information, make_problem, make_trace, scored_profile
from steplab import scoring
from steplab.analysis import ComplexityParams, tokens_mcnig
from steplab.errors import BackendError, ConfigError, DataError, exit_code
from steplab.fixtures import build_demo_corpus
from steplab.pipeline import RunConfig, run_pipeline, summarize_run
from steplab.scoring import (
    CachingBackend,
    HttpBackend,
    ReferenceModel,
    ScoreCache,
    ScoringRequest,
    TokenLogprobs,
    build_context,
    information_profile,
    prefix_contexts,
    profile_requests,
    score_traces,
    trace_key,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def cache_rows(cache_dir):
    with sqlite3.connect(cache_dir / ScoreCache.FILENAME) as db:
        count = db.execute("SELECT count(*) FROM profiles").fetchone()[0]
    db.close()
    return count


def stored_blobs(cache_dir):
    with sqlite3.connect(cache_dir / ScoreCache.FILENAME) as db:
        blobs = [blob for (blob,) in db.execute("SELECT totals FROM profiles")]
    db.close()
    return blobs


def job(question, steps, answers, trace_id="t1"):
    """A score-stage job: (problem, trace, answers)."""
    return make_problem(question=question), make_trace(trace_id=trace_id, steps=steps, final_answer=answers[0]), answers


def score_from_threads(model, requests, threads=4):
    """Score ``requests`` with ``model.score`` from several threads at once,
    as the loopback scoring server's handler threads do: (totals, errors)."""
    totals, errors = {}, []

    def work(share):
        for request in share:
            try:
                totals[request] = model.score(request).total()
            except DataError as exc:
                errors.append(exc)

    workers = [threading.Thread(target=work, args=(requests[i::threads],)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    return totals, errors


@pytest.fixture()
def two_token_model():
    return ReferenceModel(table={"q": {"4": 0.5}, "q4": {"2": 0.25}}, fallback_prob=0.01)


@pytest.fixture()
def info_problem_model():
    problem = make_problem(question="What?", gold="a")
    model = ReferenceModel(
        table={"What?": {"a": 0.5, "b": 0.4}, "What?\nr1": {"a": 0.8, "b": 0.1}},
        fallback_prob=0.01,
    )
    return problem, model


class TestReferenceModel:
    def test_hand_computed_two_token_continuation(self, two_token_model):
        result = two_token_model.score(ScoringRequest("q", "42"))
        assert result.tokens == ["4", "2"]
        assert result.logprobs == pytest.approx([math.log(0.5), math.log(0.25)], abs=1e-12)
        assert result.total() == pytest.approx(-0.6931 + -1.3863, abs=1e-3)

    def test_fallback_prob_used_for_unknown_keys(self):
        model = ReferenceModel(table={}, fallback_prob=0.1)
        result = model.score(ScoringRequest("anything", "xy"))
        assert result.total() == pytest.approx(2 * math.log(0.1))

    def test_tiny_probabilities_clamp_to_floor(self):
        model = ReferenceModel(table={"q": {"a": 1e-60}}, fallback_prob=0.5)
        result = model.score(ScoringRequest("q", "a"))
        assert result.logprobs == [-100.0]

    def test_edge_probabilities(self):
        model = ReferenceModel(table={"q": {"a": 1.0}, "qa": {"b": 1e-60}}, fallback_prob=0.05)
        result = model.score(ScoringRequest("q", "abc"))
        assert result.tokens == ["a", "b", "c"]
        assert result.logprobs == [0.0, -100.0, math.log(0.05)]
        assert math.copysign(1.0, result.logprobs[0]) == 1.0

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            ReferenceModel(table={"q": {"a": 0.8, "b": 0.5}})
        with pytest.raises(ValueError):
            ReferenceModel(table={}, fallback_prob=1.5)

    def test_fingerprint_is_stable(self, tmp_path):
        model = ReferenceModel(table={"q": {"a": 0.5}}, fallback_prob=0.05)
        path = tmp_path / "model.json"
        model.to_file(path)
        assert ReferenceModel.from_file(path).backend_id == model.backend_id

    def test_id_is_the_hash_of_the_file_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        ReferenceModel(table={"q": {"a": 0.5}}, fallback_prob=0.05).to_file(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert ReferenceModel.from_file(path).backend_id == f"reference:{digest[:12]}"
        spaced = tmp_path / "spaced.json"
        spaced.write_bytes(path.read_bytes() + b" ")
        assert ReferenceModel.from_file(spaced).backend_id != ReferenceModel.from_file(path).backend_id
        assert ReferenceModel.from_file(spaced).score(ScoringRequest("q", "a")).logprobs == [math.log(0.5)]

    def test_id_is_taken_without_reading_the_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        ReferenceModel(table={"q": {"a": 0.5}}, fallback_prob=0.05).to_file(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()

        def refuse(self):
            raise AssertionError(f"{self} was read whole")

        monkeypatch.setattr(Path, "read_bytes", refuse)
        model = ReferenceModel.from_file(path)
        assert model.backend_id == f"reference:{digest[:12]}"
        assert not any(isinstance(value, (bytes, bytearray)) for value in vars(model).values())

    @pytest.mark.parametrize("change", ["rewritten", "removed"])
    def test_a_file_changed_before_its_first_load_is_a_data_error_naming_it(self, tmp_path, change):
        path = tmp_path / "model.json"
        ReferenceModel(table={"q": {"a": 0.5}}, fallback_prob=0.05).to_file(path)
        original = path.read_bytes()
        model = ReferenceModel.from_file(path)
        if change == "rewritten":
            ReferenceModel(table={"q": {"a": 0.25}}, fallback_prob=0.05).to_file(path)
            reason = "changed after its id was taken"
        else:
            path.unlink()
            reason = "became unreadable"
        for _ in range(2):
            with pytest.raises(DataError, match=f"model.json {reason}"):
                model.score(ScoringRequest("q", "a"))
        path.write_bytes(original)  # the failure is kept, not retried
        with pytest.raises(DataError, match=reason):
            model.score(ScoringRequest("q", "a"))

    def test_taking_the_id_of_a_large_file_holds_none_of_it(self, tmp_path):
        path = tmp_path / "large_model.json"
        with path.open("wb") as fh:
            fh.write(b'{"fallback_prob": 0.05, "table": {')
            fh.writelines(b'"context %d": {"a": 0.5}, ' % i for i in range(800_000))
            fh.write(b'"q": {"a": 0.5}}}')
        assert path.stat().st_size >= 20 << 20
        script = (
            "import sys\n"
            "from steplab.scoring import ReferenceModel\n"
            "def hwm_kib():\n"
            "    return next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
            "before = hwm_kib()\n"
            "model = ReferenceModel.from_file(sys.argv[1])\n"
            "print(hwm_kib() - before, model.backend_id)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        child = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
                               timeout=60)
        assert child.returncode == 0, child.stderr
        grown_kib, backend_id = child.stdout.split()
        with path.open("rb") as fh:
            assert backend_id == "reference:" + hashlib.file_digest(fh, "sha256").hexdigest()[:12]
        assert int(grown_kib) < 4 << 10

    def test_file_is_parsed_only_when_a_score_needs_it(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        ReferenceModel(table={"q": {"a": 0.5}}, fallback_prob=0.05).to_file(path)
        parsed = []
        original = ReferenceModel._set
        monkeypatch.setattr(ReferenceModel, "_set", lambda self, *args: parsed.append(1) or original(self, *args))
        model = ReferenceModel.from_file(path)
        assert parsed == []
        model.score(ScoringRequest("q", "a"))
        model.score(ScoringRequest("q", "ab"))
        assert parsed == [1]

    def test_concurrent_misses_parse_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        ReferenceModel(table={"q": {"a": 0.5}}, fallback_prob=0.05).to_file(path)
        parsed = []
        original = ReferenceModel._set

        def slow_set(self, *args):
            parsed.append(threading.current_thread().name)
            time.sleep(0.05)  # long enough for every worker to ask for the table
            original(self, *args)

        monkeypatch.setattr(ReferenceModel, "_set", slow_set)
        model = ReferenceModel.from_file(path)
        requests = [ScoringRequest(f"q{i}", "a") for i in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            totals, errors = score_from_threads(model, requests)
        finally:
            sys.setswitchinterval(interval)
        assert len(parsed) == 1 and errors == []
        assert totals == {r: math.log(0.05) for r in requests}

    def test_a_file_that_fails_to_load_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"fallback_prob": 0.05, "table": {"q": {"a": 1.5}}}))
        parsed = []
        original = ReferenceModel._set

        def slow_set(self, *args):
            parsed.append(threading.current_thread().name)
            time.sleep(0.05)  # long enough for every worker to ask for the table
            original(self, *args)

        monkeypatch.setattr(ReferenceModel, "_set", slow_set)
        model = ReferenceModel.from_file(path)
        requests = [ScoringRequest(f"q{i}", "a") for i in range(100)]
        totals, errors = score_from_threads(model, requests)
        assert totals == {} and len(errors) == len(requests)
        assert all(isinstance(e, DataError) and "model.json" in str(e) for e in errors)
        assert len(parsed) == 1
        with pytest.raises(DataError, match="model.json"):
            model.score(requests[0])
        assert len(parsed) == 1

    def test_missing_file_is_a_config_error_naming_it(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match="absent.json"):
            ReferenceModel.from_file(path)

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", '"model"', '{"fallback_prob": 0.1}', "{ truncated", '{"table": []}', '{"table": {"q": 1}}',
         '{"table": {}, "fallback_prob": "x"}', '{"table": {"q": {"a": 0.9, "b": 0.9}}}'],
        ids=["list", "string", "no-table", "truncated", "table-list", "row-number", "fallback-string", "sum-over-1"],
    )
    def test_invalid_model_file_is_a_data_error_on_first_score(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        model = ReferenceModel.from_file(path)
        for _ in range(2):
            with pytest.raises(DataError, match="model.json"):
                model.score(ScoringRequest("q", "a"))


class TestScoringRequest:
    def test_empty_continuation_rejected(self, two_token_model):
        with pytest.raises(ValueError):
            two_token_model.score(ScoringRequest(context="q", continuation=""))

    def test_a_request_is_the_tuple_of_its_fields(self):
        request = ScoringRequest("c", "a")
        assert request == ("c", "a") and hash(request) == hash(("c", "a"))
        assert (request.context, request.continuation) == ("c", "a")


class TestTokenLogprobs:
    def test_positive_logprob_clamps_to_zero(self):
        result = TokenLogprobs.clamped(["a"], [0.3], "b")
        assert result.logprobs == [0.0]

    def test_infinities_clamp_to_range_edges(self):
        result = TokenLogprobs.clamped(["a", "b"], [float("-inf"), float("inf")], "b")
        assert result.logprobs == [-100.0, 0.0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TokenLogprobs.clamped(["a"], [float("nan")], "b")

    def test_length_mismatch_rejected(self):
        for tokens, logprobs in ((["a", "b"], [-1.0]), ([], [])):
            with pytest.raises(ValueError):
                TokenLogprobs.clamped(tokens, logprobs, "x")


class TestCache:
    def test_second_call_is_served_from_cache(self, tmp_path, two_token_model):
        counting = CountingBackend(two_token_model)
        backend = CachingBackend(counting, ScoreCache(tmp_path / "cache"))
        jobs = [job("q", ["4"], ["42", "4"])]
        first, first_counts = score_traces(backend, jobs)
        second, second_counts = score_traces(backend, jobs)
        assert counting.calls == 4
        assert first == second
        assert (first_counts["cache_hits"], first_counts["cache_misses"], first_counts["rows_stored"]) == (0, 1, 1)
        assert (second_counts["cache_hits"], second_counts["cache_misses"], second_counts["backend_calls"]) == (1, 0, 0)

    def test_cache_persists_across_instances(self, tmp_path, two_token_model):
        cache_dir = tmp_path / "cache"
        jobs = [job("q", ["4"], ["42", "4"])]
        first, _ = score_traces(CachingBackend(CountingBackend(two_token_model), ScoreCache(cache_dir)), jobs)
        counting = CountingBackend(two_token_model)
        second, _ = score_traces(CachingBackend(counting, ScoreCache(cache_dir)), jobs)
        assert counting.calls == 0
        assert first == second

    def test_key_depends_on_every_part(self, monkeypatch):
        base = trace_key("b", "q", ["s1", "s2"], ["a", "c"])
        assert trace_key("b2", "q", ["s1", "s2"], ["a", "c"]) != base
        assert trace_key("b", "q2", ["s1", "s2"], ["a", "c"]) != base
        assert trace_key("b", "q", ["s1", "s3"], ["a", "c"]) != base
        assert trace_key("b", "q", ["s2", "s1"], ["a", "c"]) != base
        assert trace_key("b", "q", ["s1", "s2"], ["a", "d"]) != base
        assert trace_key("b", "q", ["s1", "s2"], ["c", "a"]) != base
        monkeypatch.setattr(scoring, "CONTEXT_JOINER", " ")
        assert trace_key("b", "q", ["s1", "s2"], ["a", "c"]) != base

    def test_key_tells_apart_traces_that_concatenate_alike(self):
        traces = [
            ("b", "q", ["s1", "s2"], ["a"]),
            ("b", "q", ["s1"], ["s2", "a"]),
            ("b", "q", ["s1s2"], ["a"]),
            ("b", "q\ns1", ["s2"], ["a"]),
            ("b", "q", ["s1\ns2"], ["a"]),
            ("bq", "", ["s1", "s2"], ["a"]),
            ("12", ":3", ["4"], ["5"]),
            ("1", "2:3", ["4"], ["5"]),
            ("1:", "2", ["34"], ["5"]),
            ("1", ":2", ["34"], ["5"]),
            ("2:ab", "1:c", ["d"], ["e"]),
            ("2", "ab1:c", ["d"], ["e"]),
            ("b", "q", ["s"] * 11, ["a"]),
            ("b", "q", ["s"], ["a"] * 11),
            ("b", "q", ["s"] * 11 + ["a"], []),
        ]
        assert len({trace_key(*trace) for trace in traces}) == len(traces)

    def test_key_format_is_pinned(self):
        # sha256 of "1:2:22:reference:0123456789ab1:\n16:Compute 15 + 33.11:Step 1: add2:482:49".
        key = trace_key("reference:0123456789ab", "Compute 15 + 33.", ["Step 1: add"], ["48", "49"])
        assert key == "5521beeb42965737c858fdc4f60ab1e77c819104bcc869090edd0c9cafbd0156"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: "{ truncated",
            lambda blob: -1.0,
            lambda blob: blob[:-1],
            lambda blob: blob[:-8],
            lambda blob: blob + blob[:8],
            lambda blob: struct.pack("<d", 0.5) + blob[8:],
            lambda blob: struct.pack("<d", math.inf) + blob[8:],
            lambda blob: struct.pack("<d", -math.inf) + blob[8:],
            lambda blob: blob[:8] + struct.pack("<d", math.nan) + blob[16:],
        ],
        ids=["text", "real", "short-by-a-byte", "one-total-short", "one-total-long", "positive", "inf", "-inf", "nan"],
    )
    def test_damaged_row_is_a_miss_and_is_rewritten(self, tmp_path, two_token_model, damage):
        cache_dir = tmp_path / "cache"
        jobs = [job("q", ["4"], ["42", "4"])]
        expected, _ = score_traces(CachingBackend(two_token_model, ScoreCache(cache_dir)), jobs)
        with sqlite3.connect(cache_dir / ScoreCache.FILENAME) as db:
            (blob,) = db.execute("SELECT totals FROM profiles").fetchone()
            db.execute("UPDATE profiles SET totals = ?", (damage(blob),))
        db.close()
        counting = CountingBackend(two_token_model)
        healed = CachingBackend(counting, ScoreCache(cache_dir))
        first, counts = score_traces(healed, jobs)
        assert first == expected
        assert counts["cache_misses"] == counts["cache_damaged"] == 1 and counting.calls == 4
        assert stored_blobs(cache_dir) == [blob]
        again, counts = score_traces(healed, jobs)
        assert again == expected
        assert counts["cache_hits"] == 1 and counts["cache_damaged"] == 0 and counting.calls == 4

    def test_bulk_lookup_counts_each_distinct_trace_once(self, tmp_path, two_token_model):
        cache = ScoreCache(tmp_path / "cache")
        cached, fresh = job("q", ["4"], ["42"]), job("q", ["x"], ["42"])
        backend_id = two_token_model.backend_id
        cached_key, fresh_key = (trace_key(backend_id, p.question, t.steps, a) for p, t, a in (cached, fresh))
        totals, _ = score_traces(two_token_model, [cached])
        cache.put([(cached_key, totals[0])])
        assert cache.get({cached_key: 2, fresh_key: 2}) == {cached_key: totals[0]}
        same_as_cached = job("q", ["4"], ["42"], trace_id="t2")
        _, counts = score_traces(CachingBackend(two_token_model, cache), [cached, fresh, same_as_cached, fresh])
        assert counts["cache_hits"] == 1 and counts["cache_misses"] == 1
        assert cache_rows(tmp_path / "cache") == 2

    def test_record_holds_no_context(self, tmp_path, two_token_model):
        cache_dir = tmp_path / "cache"
        jobs = [job("a long and distinctive question", ["an unusual step"], ["42"])]
        score_traces(CachingBackend(two_token_model, ScoreCache(cache_dir)), jobs)
        data = (cache_dir / ScoreCache.FILENAME).read_bytes()
        assert b"distinctive" not in data and b"unusual" not in data
        assert list(cache_dir.iterdir()) == [cache_dir / ScoreCache.FILENAME]

    def test_caches_merge_with_attach_and_insert_or_ignore(self, tmp_path, two_token_model):
        jobs = [job("q", [step], ["4", "42"]) for step in ("4", "x", "y", "z")]
        first, second = ScoreCache(tmp_path / "one"), ScoreCache(tmp_path / "two")
        score_traces(CachingBackend(two_token_model, first), jobs[:3])
        score_traces(CachingBackend(two_token_model, second), jobs[1:])
        with sqlite3.connect(first.path) as db:
            db.execute("ATTACH DATABASE ? AS other", (str(second.path),))
            db.execute("INSERT OR IGNORE INTO profiles SELECT * FROM other.profiles")
        db.close()
        counting = CountingBackend(two_token_model)
        merged, counts = score_traces(CachingBackend(counting, ScoreCache(tmp_path / "one")), jobs)
        assert counting.calls == 0 and counts["cache_hits"] == len(jobs)
        assert merged == score_traces(two_token_model, jobs)[0]
        assert cache_rows(tmp_path / "one") == len(jobs)

    def test_two_processes_writing_one_file_lose_and_corrupt_nothing(self, tmp_path):
        # Each writer stores 600 rows, 200 of them shared with the other,
        # one small transaction at a time, and looks up its own rows
        # between writes.
        script = """
import sys
from steplab.scoring import ScoreCache
cache = ScoreCache(sys.argv[1])
first = int(sys.argv[2])
for start in range(first, first + 600, 10):
    batch = [(f"key{i}", [-i / 1000, -1.0]) for i in range(start, start + 10)]
    cache.put(batch)
    assert len(cache.get({key: 2 for key, _ in batch})) == 10
"""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cache_dir = tmp_path / "cache"
        ScoreCache(cache_dir)
        writers = [
            subprocess.Popen([sys.executable, "-c", script, str(cache_dir), str(first)], env=env)
            for first in (0, 400)
        ]
        assert [w.wait(timeout=120) for w in writers] == [0, 0]
        with sqlite3.connect(cache_dir / ScoreCache.FILENAME) as db:
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        db.close()
        found = ScoreCache(cache_dir).get({f"key{i}": 2 for i in range(1000)})
        assert found == {f"key{i}": [-i / 1000, -1.0] for i in range(1000)}
        assert cache_rows(cache_dir) == 1000


class TestScoreTraces:
    def test_latency_quantiles_are_nearest_rank(self):
        latencies = [i / 1000 for i in range(100, 0, -1)]
        assert scoring._latency_ms(latencies, 0.5) == pytest.approx(50.0)
        assert scoring._latency_ms(latencies, 0.99) == pytest.approx(99.0)
        assert scoring._latency_ms(latencies, 1.0) == pytest.approx(100.0)
        assert scoring._latency_ms([], 0.5) == scoring._latency_ms([], 0.99) == 0.0

    def test_totals_equal_per_cell_scoring_and_shared_cells_are_scored_once(self, two_token_model):
        counting = CountingBackend(two_token_model)
        jobs = [job("q", [step], ["4", "42"], trace_id=step) for step in ("4", "x", "y")]
        totals, counts = score_traces(counting, jobs)
        assert totals == [sum(scored_profile(*j, two_token_model).values, []) for j in jobs]
        # The step-0 row is shared: 2 cells, then 2 more per trace.
        assert counting.calls == counts["backend_calls"] == 2 + 2 * len(jobs)
        assert counts["cache_hits"] == counts["cache_misses"] == counts["rows_stored"] == 0

    def test_cache_hits_skip_the_backend(self, tmp_path, two_token_model):
        jobs = [job("q", [step], ["4", "42"], trace_id=step) for step in ("4", "x", "y")]
        score_traces(CachingBackend(two_token_model, ScoreCache(tmp_path / "cache")), jobs[:2])
        counting = CountingBackend(two_token_model)
        backend = CachingBackend(counting, ScoreCache(tmp_path / "cache"))
        _, counts = score_traces(backend, jobs + jobs, in_flight=2)
        # The missed trace scores all four of its cells, step-0 row included.
        assert counting.calls == counts["backend_calls"] == 4
        assert counts["cache_hits"] == 2 and counts["cache_misses"] == 1 and counts["rows_stored"] == 1

    def test_warm_traces_are_timed_as_no_backend_call(self, tmp_path, two_token_model):
        backend = CachingBackend(two_token_model, ScoreCache(tmp_path / "cache"))
        jobs = [job("q", ["4"], ["4", "42"])]
        _, cold = score_traces(backend, jobs)
        assert cold["backend_p99_ms"] >= cold["backend_p50_ms"] > 0
        _, warm = score_traces(backend, jobs)
        assert warm["backend_calls"] == 0 and warm["backend_p50_ms"] == warm["backend_p99_ms"] == 0.0
        assert warm["cache_hit_rate"] == 1.0

    def test_characters_sent_and_the_linear_cost(self, tmp_path, two_token_model):
        jobs = [job("q", [step, "step 2"], ["4", "42"], trace_id=step) for step in ("4", "xyz", "4")]
        backend = CachingBackend(two_token_model, ScoreCache(tmp_path / "cache"))
        _, cold = score_traces(backend, jobs)
        cells = {cell for j in jobs for cell in profile_requests(*j)}
        assert cold["chars_sent"] == sum(len(cell.context) + len(cell.continuation) for cell in cells)
        linear = [
            tokens_mcnig(ComplexityParams(
                steps=len(trace.steps), tokens_per_step=fmean(map(len, trace.steps)),
                sampled_answers=len(answers), answer_tokens=fmean(map(len, answers)),
                question_tokens=len(problem.question),
            ))
            for problem, trace, answers in jobs
        ]
        assert cold["chars_linear"] == pytest.approx(sum(linear))
        _, warm = score_traces(backend, jobs)
        assert warm["chars_sent"] == 0 and warm["chars_linear"] == cold["chars_linear"]

    def test_failed_run_stores_only_complete_traces_and_rerun_scores_the_rest(self, tmp_path):
        model = ReferenceModel(table={}, fallback_prob=0.5)
        jobs = [
            job(f"question {p}", [f"s1 {t}", "s2"], ["a", "b"], trace_id=f"{p}-{t}") for p in range(2) for t in range(10)
        ]
        flaky = CountingBackend(model, fail_at=25)
        with pytest.raises(BackendError) as err:
            score_traces(CachingBackend(flaky, ScoreCache(tmp_path / "cache")), jobs)
        # The first trace's 6 cells, then 4 new ones for each later trace of
        # its problem: 24 calls complete 5 traces.
        assert err.value.counts == dict(backend_calls=24, retries=0, cache_hits=0, cache_misses=20, rows_stored=5)
        assert cache_rows(tmp_path / "cache") == 5
        counting = CountingBackend(model)
        totals, counts = score_traces(CachingBackend(counting, ScoreCache(tmp_path / "cache")), jobs)
        rest = {request for j in jobs[5:] for request in profile_requests(*j)}
        assert counting.calls == counts["backend_calls"] == len(rest)
        assert (counts["cache_hits"], counts["cache_misses"]) == (5, 15)
        assert totals == score_traces(model, jobs)[0]

    def test_batches_share_cells_and_store_their_rows_together(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scoring, "CACHE_BATCH", 2)
        model = ReferenceModel(table={}, fallback_prob=0.5)
        jobs = [job(f"question {p}", [f"s1 {t}", "s2"], ["a", "b"], trace_id=f"{p}-{t}") for p in "01" for t in "012"]
        cache = ScoreCache(tmp_path / "cache")
        puts = []
        monkeypatch.setattr(cache, "put", lambda rows, put=cache.put: (puts.append(len(rows)), put(rows))[1])
        counting = CountingBackend(model)
        totals, counts = score_traces(CachingBackend(counting, cache), jobs)
        assert totals == [sum(scored_profile(*j, model).values, []) for j in jobs]
        # Question 0's step-0 row is scored in the first batch and reused by
        # its third trace in the second: 6 cells, then 4 more per trace.
        cells = {request for j in jobs for request in profile_requests(*j)}
        assert counting.calls == counts["backend_calls"] == len(cells) == 2 * (6 + 2 * 4)
        assert puts == [2, 2, 2] and counts["rows_stored"] == cache_rows(tmp_path / "cache") == 6

    def test_failure_in_a_later_batch_keeps_every_complete_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scoring, "CACHE_BATCH", 2)
        model = ReferenceModel(table={}, fallback_prob=0.5)
        jobs = [job(f"question {p}", [f"s1 {t}", "s2"], ["a", "b"], trace_id=f"{p}-{t}") for p in "01" for t in "012"]
        # The last batch's trace is a prefix of the first: its cells are all
        # scored in batch 1.
        jobs.append(job("question 0", ["s1 0"], ["a", "b"], trace_id="0-prefix"))
        # Batch 1 takes 10 calls, then question 0's third trace 4 more; the
        # 15th, question 1's first cell, fails in batch 2.
        flaky = CountingBackend(model, fail_at=15)
        with pytest.raises(BackendError) as err:
            score_traces(CachingBackend(flaky, ScoreCache(tmp_path / "cache")), jobs)
        assert err.value.counts == dict(backend_calls=14, retries=0, cache_hits=0, cache_misses=7, rows_stored=4)
        keys = [trace_key(model.backend_id, p.question, t.steps, a) for p, t, a in jobs]
        stored = ScoreCache(tmp_path / "cache").get({key: (len(t.steps) + 1) * 2 for key, (_, t, _) in zip(keys, jobs)})
        assert set(stored) == {*keys[:3], keys[6]}


class TestInformation:
    def test_baseline_and_one_step(self, info_problem_model):
        problem, model = info_problem_model
        assert information(problem, [], "a", model) == pytest.approx(math.log(0.5), abs=1e-12)
        assert information(problem, ["r1"], "a", model) == pytest.approx(math.log(0.8), abs=1e-12)
        assert information(problem, [], "a", model) == pytest.approx(-0.6931, abs=1e-4)
        assert information(problem, ["r1"], "a", model) == pytest.approx(-0.2231, abs=1e-4)

    def test_sum_rule_for_two_tokens(self, two_token_model):
        problem = make_problem(question="q")
        assert information(problem, [], "42", two_token_model) == pytest.approx(
            math.log(0.125), abs=1e-12
        )

    def test_sum_consistency_with_score_continuation(self, info_problem_model):
        problem, model = info_problem_model
        request = ScoringRequest(build_context(problem.question, ["r1"]), "b")
        assert information(problem, ["r1"], "b", model) == sum(
            model.score(request).logprobs
        )


class TestInformationProfile:
    def test_shape_and_call_count(self, info_problem_model):
        problem, model = info_problem_model
        counting = CountingBackend(model)
        trace = make_trace(steps=["r1", "r2"], final_answer="a")
        profile = scored_profile(problem, trace, ["a", "b"], counting)
        assert counting.calls == 6
        assert len(profile.values) == 3
        assert all(len(row) == 2 for row in profile.values)

    def test_row_zero_matches_information(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1"], final_answer="a")
        profile = scored_profile(problem, trace, ["a", "b"], model)
        for j, answer in enumerate(["a", "b"]):
            assert profile.values[0][j] == information(problem, [], answer, model)

    def test_one_step_gain_matches_hand_computation(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1"], final_answer="a")
        profile = scored_profile(problem, trace, ["a", "b"], model)
        gain = profile.values[1][0] - profile.values[0][0]
        assert gain == pytest.approx(math.log(0.8 / 0.5), abs=1e-12)
        assert gain == pytest.approx(0.4700, abs=1e-4)

    def test_reshapes_totals_row_major(self):
        problem = make_problem(question="What?")
        trace = make_trace(steps=["r1", "r2"], final_answer="a")
        profile = information_profile(problem, trace, ["a", "b"], [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
        assert profile.values == [[-1.0, -2.0], [-3.0, -4.0], [-5.0, -6.0]]
        assert len(profile_requests(problem, trace, ["a", "b"])) == 6
        with pytest.raises(ValueError):
            information_profile(problem, trace, ["a", "b"], [-1.0, -2.0, -3.0, -4.0])

    def test_prefix_contexts_are_the_built_contexts(self):
        steps = ["s1", "s2", "s3"]
        assert prefix_contexts("Q", steps) == [build_context("Q", steps[:i]) for i in range(len(steps) + 1)]
        assert prefix_contexts("Q", []) == ["Q"]

    def test_context_rows_are_prefix_extensions(self):
        problem = make_problem(question="Q text")
        steps = ["s1", "s2", "s3"]
        contexts = [build_context(problem.question, steps[:i]) for i in range(len(steps) + 1)]
        for prev, cur in zip(contexts, contexts[1:]):
            assert cur.startswith(prev) and len(cur) > len(prev)

    def test_duplicate_answers_rejected(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1"], final_answer="a")
        with pytest.raises(ValueError):
            scored_profile(problem, trace, ["a", "a"], model)

    def test_profile_scored_in_flight_matches_per_cell(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1", "r2"], final_answer="a")
        ([totals], _) = score_traces(model, [(problem, trace, ["a", "b"])], in_flight=4)
        reference = scored_profile(problem, trace, ["a", "b"], model)
        assert information_profile(problem, trace, ["a", "b"], totals) == reference


# ---------------------------------------------------------------------------
# HTTP protocol


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without this, Nagle's algorithm
    # holds the body until the client's delayed ACK.
    disable_nagle_algorithm = True
    model: ReferenceModel = None
    # A 200 answer sent instead of the model's, when set.
    broken: dict | None = None
    # The next ``throttled`` requests get ``throttle_status`` with this
    # Retry-After header.
    throttled: int = 0
    throttle_status: int = 429
    retry_after: str | None = None
    # Where /v1/score is served, for base URLs with a path.
    prefix: str = ""
    # Close each connection after one response without saying so (no
    # "Connection: close"), releasing ``closed`` once the socket is shut.
    close_after_response: bool = False
    # Seconds each answer is held back, and a context never answered (its
    # handler sets ``arrived`` and waits for ``release``).
    hold_s: float = 0.0
    stalled: str | None = None
    # Answer bodies go out one byte every ``drip_s`` seconds; a set
    # ``claimed_length`` is sent as the Content-Length of a body never sent;
    # a ``close_delimited`` answer has no Content-Length and ends with its
    # connection.
    drip_s: float = 0.0
    claimed_length: int | None = None
    close_delimited: bool = False
    # Per fixture: one entry per accepted connection, every request path,
    # and the (start, end) times of each answer.
    connections: list
    paths: list
    spans: list
    closed: threading.Semaphore
    arrived: threading.Event
    release: threading.Event
    lock = threading.Lock()

    def setup(self):
        super().setup()
        self.connections.append(self.client_address)

    def do_POST(self):
        start = time.monotonic()
        self.paths.append(self.path)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if body.get("context") == self.stalled:
            self.arrived.set()
            self.release.wait(timeout=60)
            return
        time.sleep(self.hold_s)
        with self.lock:  # requests arrive on several connections at once
            throttle, type(self).throttled = self.throttled > 0, max(0, self.throttled - 1)
        if throttle:
            self.send_response(self.throttle_status)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.broken is not None:
            payload = self.broken
        elif self.path == self.prefix + "/v1/score":
            result = self.model.score(ScoringRequest(body["context"], body["continuation"]))
            payload = {"tokens": result.tokens, "logprobs": result.logprobs, "backend_id": "stub-llm"}
        else:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        if self.close_delimited:
            self.send_header("Connection", "close")
            self.close_connection = True
        else:
            self.send_header("Content-Length", str(self.claimed_length or len(data)))
        self.end_headers()
        if self.claimed_length:
            self.release.wait(timeout=60)
            return
        try:
            step = 1 if self.drip_s else len(data)
            for offset in range(0, len(data), step):
                self.wfile.write(data[offset : offset + step])
                time.sleep(self.drip_s)
        except OSError:  # the client gave up on a dripped answer
            return
        self.spans.append((start, time.monotonic()))
        if self.close_after_response:
            self.connection.shutdown(socket.SHUT_WR)
            self.close_connection = True
            self.closed.release()

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server(info_problem_model):
    _, model = info_problem_model
    handler = type(
        "Handler",
        (_StubHandler,),
        {
            "model": model,
            "broken": None,
            "connections": [],
            "paths": [],
            "spans": [],
            "closed": threading.Semaphore(0),
            "arrived": threading.Event(),
            "release": threading.Event(),
        },
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", handler
    handler.release.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def http_backend():
    """Builds HttpBackends and closes them after the test."""
    made = []

    def make(*args, **kwargs):
        made.append(HttpBackend(*args, **kwargs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


class TestHttpBackend:
    def test_score_matches_local_reference(self, http_backend, stub_server, info_problem_model):
        url, _ = stub_server
        _, model = info_problem_model
        backend = http_backend(url)
        request = ScoringRequest("What?", "a")
        remote = backend.score(request)
        assert remote.backend_id == "stub-llm"
        assert remote.logprobs == model.score(request).logprobs

    @pytest.mark.parametrize(
        "payload",
        [
            {"nonsense": True},
            {"tokens": ["a", "b"], "logprobs": [-1.0], "backend_id": "stub-llm"},
            {"tokens": [], "logprobs": [], "backend_id": "stub-llm"},
            {"tokens": ["a"], "logprobs": ["-0.5"], "backend_id": "stub-llm"},
            {"tokens": ["a"], "logprobs": [True], "backend_id": "stub-llm"},
            {"tokens": "ab", "logprobs": [-0.5, -0.5], "backend_id": "stub-llm"},
            {"tokens": ["a"], "logprobs": [-10**400], "backend_id": "stub-llm"},
        ],
        ids=[
            "no-fields", "unequal-lengths", "no-tokens", "logprob-as-a-string", "logprob-as-true", "tokens-as-a-string",
            "logprob-past-the-float-range",
        ],
    )
    def test_malformed_response_is_protocol_error(self, http_backend, stub_server, payload):
        url, handler = stub_server
        handler.broken = payload
        backend = http_backend(url)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "protocol"

    def test_unreachable_backend_is_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:9", timeout_s=0.2, max_retries=2, backoff_s=0.01)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("q", "a"))
        assert err.value.kind == "transport"

    @pytest.mark.parametrize(
        "retry_after", ["0", formatdate(0, usegmt=True)], ids=["delta-seconds", "past-http-date"]
    )
    def test_429_waits_retry_after_not_the_backoff(self, http_backend, stub_server, retry_after):
        url, handler = stub_server
        handler.throttled, handler.retry_after = 2, retry_after
        backend = http_backend(url, max_retries=3, backoff_s=60.0)
        start = time.monotonic()
        assert backend.score(ScoringRequest("What?", "a")).total() == math.log(0.5)
        assert time.monotonic() - start < 30.0
        assert backend.retries == 2

    def test_retry_after_is_capped(self, http_backend, stub_server, monkeypatch):
        url, handler = stub_server
        handler.throttled, handler.retry_after = 1, "3600"
        monkeypatch.setattr(scoring, "BACKOFF_CAP_S", 0.01)
        backend = http_backend(url, max_retries=2)
        start = time.monotonic()
        assert backend.score(ScoringRequest("What?", "a")).backend_id == "stub-llm"
        assert time.monotonic() - start < 30.0
        assert backend.retries == 1

    def test_429_without_retry_after_uses_backoff(self, http_backend, stub_server):
        url, handler = stub_server
        handler.throttled, handler.retry_after = 1, None
        backend = http_backend(url, max_retries=2, backoff_s=0.01)
        assert backend.score(ScoringRequest("What?", "a")).backend_id == "stub-llm"
        assert backend.retries == 1

    def test_persistent_429_exhausts_retries(self, http_backend, stub_server):
        url, handler = stub_server
        handler.throttled, handler.retry_after = 5, "0"
        backend = http_backend(url, max_retries=2)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "transport" and "429" in str(err.value)
        assert backend.retries == 1

    def test_a_status_that_is_not_retried_ends_the_score_stage(self, stub_server, tmp_path):
        url, handler = stub_server
        handler.prefix = "/elsewhere"  # so /v1/score answers 404
        corpus = build_demo_corpus(tmp_path / "corpus", 6, 4)
        out = tmp_path / "run"
        cfg = RunConfig(problems=str(corpus["problems"]), traces=str(corpus["traces"]), out_dir=str(out), backend=url)
        with pytest.raises(BackendError) as err:
            run_pipeline(cfg)
        assert (err.value.kind, exit_code(err.value), str(err.value)) == ("protocol", 4, f"{url}/v1/score returned 404")
        failed = json.loads((out / "manifest.json").read_text())["stages"][-1]
        assert (failed["name"], failed["exit_code"], failed["counts"]["retries"]) == ("score", 4, 0)
        assert handler.paths == ["/v1/score"]

    def test_sequential_scores_share_one_connection(self, http_backend, stub_server, info_problem_model):
        url, handler = stub_server
        _, model = info_problem_model
        backend = http_backend(url)
        requests = [ScoringRequest("What?" + "\nr1" * (i % 2), "ab"[i % 2]) for i in range(20)]
        for request in requests:
            assert backend.score(request).logprobs == model.score(request).logprobs
        assert len(handler.connections) == 1 and len(handler.paths) == 20

    def test_requests_in_flight_overlap_from_one_thread(
        self, http_backend, stub_server, info_problem_model, monkeypatch
    ):
        url, handler = stub_server
        _, model = info_problem_model
        handler.hold_s = 0.02
        caller, started, thread_start = threading.current_thread(), [], threading.Thread.start

        def start(thread):
            if threading.current_thread() is caller:
                started.append(thread)
            thread_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        requests = [ScoringRequest(f"context {i}", "a") for i in range(40)]
        totals = {request: result.total() for request, result, _ in http_backend(url).score_many(requests, in_flight=4)}
        assert totals == {r: model.score(r).total() for r in requests}
        assert started == []
        assert 1 <= len(handler.connections) <= 4
        overlap = max(sum(s <= start < e for s, e in handler.spans) for start, _ in handler.spans)
        assert 2 <= overlap <= 4

    def test_a_request_waiting_to_retry_lets_the_others_finish(self, http_backend, stub_server, info_problem_model):
        url, handler = stub_server
        _, model = info_problem_model
        handler.throttled, handler.throttle_status, handler.retry_after = 1, 503, None
        backend = http_backend(url, backoff_s=0.3)
        requests = [ScoringRequest(f"context {i}", "a") for i in range(8)]
        answers = list(backend.score_many(requests, 4))
        totals = {request: result.total() for request, result, _ in answers}
        assert totals == {r: model.score(r).total() for r in requests}
        *others, (_, _, retried_latency_s) = answers
        assert retried_latency_s >= 0.3 > max(latency_s for *_, latency_s in others)
        assert backend.retries == 1 and len(handler.paths) == 9

    def test_a_request_never_answered_fails_after_the_other_traces_are_cached(
        self, http_backend, stub_server, tmp_path
    ):
        url, handler = stub_server
        handler.stalled = "context 0"
        backend = CachingBackend(http_backend(url, timeout_s=0.3, max_retries=2, backoff_s=0.01), ScoreCache(tmp_path))
        jobs = [job(f"context {i}", ["s"], ["a"], trace_id=str(i)) for i in range(12)]
        with pytest.raises(BackendError) as err:
            score_traces(backend, jobs, in_flight=4)
        assert err.value.kind == "transport"
        assert cache_rows(tmp_path) == 11
        assert err.value.counts == dict(backend_calls=23, retries=1, cache_hits=0, cache_misses=12, rows_stored=11)
        assert backend.inner.retries == 1 and len(handler.paths) == 25

    def test_an_answer_dripped_past_its_deadline_is_a_transport_failure(self, http_backend, stub_server):
        url, handler = stub_server
        handler.drip_s = 0.1
        backend = http_backend(url, timeout_s=0.3, max_retries=2, backoff_s=0.01)
        start = time.monotonic()
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "transport" and time.monotonic() - start < 3.0
        assert backend.retries == 1 and len(handler.paths) == 2

    def test_an_answer_longer_than_the_cap_is_refused_unread(self, http_backend, stub_server):
        url, handler = stub_server
        handler.claimed_length = scoring.MAX_ANSWER_BYTES + 1
        backend = http_backend(url, timeout_s=5.0, max_retries=2, backoff_s=0.01)
        start = time.monotonic()
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "transport" and "exceeds" in str(err.value)
        assert time.monotonic() - start < 2.0 and backend.retries == 1

    def test_a_close_delimited_answer_is_read_to_its_end_and_capped_as_read(
        self, http_backend, stub_server, monkeypatch
    ):
        url, handler = stub_server
        handler.close_delimited = True
        backend = http_backend(url, max_retries=1)
        assert backend.score(ScoringRequest("What?", "a")).logprobs == [math.log(0.5)]
        monkeypatch.setattr(scoring, "MAX_ANSWER_BYTES", 10)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "transport" and "exceeds 10 bytes" in str(err.value)

    def test_sockets_numbered_past_1024_are_polled(self, http_backend, stub_server):
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("needs a soft RLIMIT_NOFILE of at least 1100")
        url, _ = stub_server
        backend = http_backend(url)
        held = []
        try:
            while len(held) < 1030:
                held.append(os.open(os.devnull, os.O_RDONLY))
            for _ in range(2):  # on a new connection, then on the idle one
                assert backend.score(ScoringRequest("What?", "a")).backend_id == "stub-llm"
            assert backend._idle[0].sock.fileno() >= 1024
        finally:
            for fd in held:
                os.close(fd)

    def test_every_connection_disables_nagle(self, http_backend, stub_server, monkeypatch):
        """TCP_NODELAY is set on the backend's sockets whatever http.client's
        own ``connect`` does."""
        import http.client

        url, _ = stub_server

        def connect(conn):
            conn.sock = socket.create_connection((conn.host, conn.port), conn.timeout)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
        backend = http_backend(url)
        backend.score(ScoringRequest("What?", "a"))
        [conn] = backend._idle
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_reuses_the_connection(self, http_backend, stub_server, status):
        url, handler = stub_server
        handler.throttled, handler.throttle_status, handler.retry_after = 1, status, None
        backend = http_backend(url, backoff_s=0.01)
        assert backend.score(ScoringRequest("What?", "a")).backend_id == "stub-llm"
        assert backend.retries == 1
        assert len(handler.paths) == 2 and len(handler.connections) == 1

    def test_connection_closed_by_the_server_is_replaced_without_a_retry(
        self, http_backend, stub_server, info_problem_model
    ):
        url, handler = stub_server
        _, model = info_problem_model
        handler.close_after_response = True
        backend = http_backend(url, backoff_s=0.01)
        for answer in "abab":
            request = ScoringRequest("What?", answer)
            assert backend.score(request).logprobs == model.score(request).logprobs
            assert handler.closed.acquire(timeout=10)
        assert backend.retries == 0
        assert len(handler.connections) == len(handler.paths) == 4

    def test_close_drops_idle_connections(self, http_backend, stub_server):
        url, handler = stub_server
        backend = http_backend(url)
        request = ScoringRequest("What?", "a")
        backend.score(request)
        backend.close()
        assert backend.score(request).backend_id == "stub-llm"
        assert len(handler.connections) == 2 and backend.retries == 0

    def test_base_url_path_prefixes_the_endpoint(self, http_backend, stub_server):
        url, handler = stub_server
        handler.prefix = "/api/model"
        backend = http_backend(url + "/api/model/")
        assert backend.score(ScoringRequest("What?", "a")).backend_id == "stub-llm"
        assert handler.paths == ["/api/model/v1/score"]

    def test_https_backend_speaks_tls(self, stub_server):
        url, handler = stub_server
        backend = HttpBackend(url.replace("http://", "https://"), max_retries=1)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "transport"
        assert handler.paths == []

    @pytest.mark.parametrize("url", ["http://127.0.0.1:port", "http:///v1"])
    def test_unusable_url_is_a_config_error(self, url):
        with pytest.raises(ConfigError):
            HttpBackend(url)

    @pytest.mark.parametrize(
        "env, warned",
        [
            ({"HTTP_PROXY": "http://proxy.invalid:3128"}, "HTTP_PROXY"),
            ({"all_proxy": "http://proxy.invalid:3128"}, "all_proxy"),
            ({"HTTP_PROXY": "http://proxy.invalid:3128", "NO_PROXY": "127.0.0.1"}, None),
            ({"HTTPS_PROXY": "http://proxy.invalid:3128"}, None),
            ({}, None),
        ],
        ids=["http-proxy", "all-proxy", "no-proxy-exempts", "other-scheme", "none"],
    )
    def test_environment_proxy_is_named_in_one_warning(self, monkeypatch, caplog, env, warned):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with caplog.at_level(logging.WARNING, logger="steplab.scoring"):
            HttpBackend("http://127.0.0.1:9")
        messages = [r.getMessage() for r in caplog.records]
        if warned is None:
            assert messages == []
        else:
            assert len(messages) == 1 and messages[0].startswith(f"{warned} is set but not used")

    def test_caching_wraps_http(self, http_backend, stub_server, tmp_path):
        url, handler = stub_server
        backend = CachingBackend(http_backend(url), ScoreCache(tmp_path / "cache"))
        jobs = [job("What?", ["r1"], ["a", "b"])]
        first, _ = score_traces(backend, jobs)
        second, counts = score_traces(backend, jobs)
        assert first == second
        assert counts["cache_hits"] == 1 and len(handler.paths) == 4


class TestRunsAgainstTheStub:
    """Whole runs whose score stage talks to the loopback stub."""

    @pytest.fixture()
    def corpus(self, tmp_path):
        return build_demo_corpus(tmp_path / "corpus", n_problems=6, traces_per_problem=3)

    def test_a_throttled_run_counts_its_retries_and_warns_nothing(self, stub_server, corpus, tmp_path, caplog):
        url, handler = stub_server
        handler.throttled, handler.retry_after = 2, "0"
        out = tmp_path / "run"
        run_pipeline(RunConfig(problems=str(corpus["problems"]), traces=str(corpus["traces"]), out_dir=str(out),
                               backend=url), ["ingest", "validate", "score"])
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert json.loads((out / "stages" / "score.json").read_text())["counts"]["retries"] == 2
        assert ", retries 2" in summarize_run(out).splitlines()[-1]

    def test_sigterm_in_the_score_stage_is_recorded_and_exits_143(self, stub_server, corpus, tmp_path):
        url, handler = stub_server
        out, cache = tmp_path / "run", tmp_path / "cache"
        files = ["--problems", str(corpus["problems"]), "--traces", str(corpus["traces"])]
        run_pipeline(RunConfig(problems=files[1], traces=files[3], out_dir=str(out),
                               backend=f"reference:{corpus['reference_model']}"))
        # The stub never answers the step-0 cell of the working set's last
        # problem, so the traces before it are scored and stored first.
        last = (out / "working_set.jsonl").read_text().splitlines()[-1]
        questions = {row["id"]: row["question"] for row in map(json.loads, corpus["problems"].read_text().splitlines())}
        handler.stalled = questions[json.loads(last)["problem_id"]]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        argv = [sys.executable, "-m", "steplab.cli", "--backend", url, "--cache-dir", str(cache), "run",
                "--out-dir", str(out), *files]
        with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as child:
            try:
                assert handler.arrived.wait(timeout=60)
                child.send_signal(signal.SIGTERM)
                stderr = child.communicate(timeout=60)[1]
            finally:
                child.kill()
        assert child.returncode == 143, stderr
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert [stage["name"] for stage in stages] == ["ingest", "validate", "score"]
        assert (stages[-1]["error"], stages[-1]["exit_code"]) == ("Terminated", 143)
        assert 0 < stages[-1]["counts"]["rows_stored"] == cache_rows(cache)
        report = summarize_run(out).splitlines()[1:]
        assert len(report) == 3 and report[-1].startswith("  score: failed | Terminated: terminated by SIGTERM | ")


class TestProfileFailure:
    def test_partial_failure_aborts_whole_profile(self, info_problem_model):
        problem, model = info_problem_model

        class FlakyBackend:
            backend_id = "flaky"

            def __init__(self):
                self.calls = 0

            def score(self, request):
                self.calls += 1
                if self.calls == 3:
                    raise BackendError("connection dropped")
                return model.score(request)

        trace = make_trace(steps=["r1", "r2"], final_answer="a")
        with pytest.raises(BackendError):
            scored_profile(problem, trace, ["a", "b"], FlakyBackend())
