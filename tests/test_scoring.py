import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import make_problem, make_trace
from steplab.errors import BackendError
from steplab.scoring import (
    CachingBackend,
    HttpBackend,
    ReferenceModel,
    ScoreCache,
    ScoringRequest,
    TokenLogprobs,
    build_context,
    information,
    information_profile,
)


class CountingBackend:
    """Wraps a backend and counts how many requests actually reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0

    def score(self, request):
        self.calls += 1
        return self.inner.score(request)


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


class TestScoringRequest:
    def test_empty_continuation_rejected(self):
        with pytest.raises(ValueError):
            ScoringRequest(context="q", continuation="")


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
        with pytest.raises(ValueError):
            TokenLogprobs(tokens=["a", "b"], logprobs=[-1.0], backend_id="x")


class TestCache:
    def test_second_call_is_served_from_cache(self, tmp_path, two_token_model):
        counting = CountingBackend(two_token_model)
        backend = CachingBackend(counting, ScoreCache(tmp_path / "cache"))
        request = ScoringRequest("q", "42")
        first = backend.score(request)
        second = backend.score(request)
        assert counting.calls == 1
        assert first == second
        assert backend.cache.hits == 1 and backend.cache.misses == 1

    def test_cache_persists_across_instances(self, tmp_path, two_token_model):
        cache_dir = tmp_path / "cache"
        backend1 = CachingBackend(CountingBackend(two_token_model), ScoreCache(cache_dir))
        request = ScoringRequest("q", "42")
        result1 = backend1.score(request)
        counting = CountingBackend(two_token_model)
        backend2 = CachingBackend(counting, ScoreCache(cache_dir))
        result2 = backend2.score(request)
        assert counting.calls == 0
        assert result1 == result2

    def test_key_depends_on_all_three_parts(self):
        base = ScoreCache.key("b", "ctx", "cont")
        assert ScoreCache.key("b2", "ctx", "cont") != base
        assert ScoreCache.key("b", "ctx2", "cont") != base
        assert ScoreCache.key("b", "ctx", "cont2") != base

    def test_corrupt_record_degrades_to_miss_and_heals(self, tmp_path, two_token_model):
        cache_dir = tmp_path / "cache"
        backend = CachingBackend(CountingBackend(two_token_model), ScoreCache(cache_dir))
        request = ScoringRequest("q", "42")
        expected = backend.score(request)
        record = next(cache_dir.glob("*.json"))
        record.write_text("{ truncated")
        healed = CachingBackend(CountingBackend(two_token_model), ScoreCache(cache_dir))
        assert healed.score(request) == expected
        assert healed.cache.misses == 1
        assert healed.score(request) == expected
        assert healed.cache.hits == 1


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
        profile = information_profile(problem, trace, ["a", "b"], counting)
        assert counting.calls == 6
        assert len(profile.values) == 3
        assert all(len(row) == 2 for row in profile.values)

    def test_row_zero_matches_information(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1"], final_answer="a")
        profile = information_profile(problem, trace, ["a", "b"], model)
        for j, answer in enumerate(["a", "b"]):
            assert profile.values[0][j] == information(problem, [], answer, model)

    def test_one_step_gain_matches_hand_computation(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1"], final_answer="a")
        profile = information_profile(problem, trace, ["a", "b"], model)
        gain = profile.values[1][0] - profile.values[0][0]
        assert gain == pytest.approx(math.log(0.8 / 0.5), abs=1e-12)
        assert gain == pytest.approx(0.4700, abs=1e-4)

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
            information_profile(problem, trace, ["a", "a"], model)

    def test_threaded_profile_matches_sequential(self, info_problem_model):
        problem, model = info_problem_model
        trace = make_trace(steps=["r1", "r2"], final_answer="a")
        sequential = information_profile(problem, trace, ["a", "b"], model)
        threaded = information_profile(problem, trace, ["a", "b"], model, max_workers=4)
        assert sequential.values == threaded.values


# ---------------------------------------------------------------------------
# HTTP protocol


class _StubHandler(BaseHTTPRequestHandler):
    model: ReferenceModel = None
    broken: bool = False

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if self.broken:
            payload = {"nonsense": True}
        elif self.path == "/v1/score":
            result = self.model.score(ScoringRequest(body["context"], body["continuation"]))
            payload = {"tokens": result.tokens, "logprobs": result.logprobs, "backend_id": "stub-llm"}
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server(info_problem_model):
    _, model = info_problem_model
    handler = type("Handler", (_StubHandler,), {"model": model, "broken": False})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", handler
    server.shutdown()
    thread.join(timeout=5)


class TestHttpBackend:
    def test_score_matches_local_reference(self, stub_server, info_problem_model):
        url, _ = stub_server
        _, model = info_problem_model
        backend = HttpBackend(url)
        request = ScoringRequest("What?", "a")
        remote = backend.score(request)
        assert remote.backend_id == "stub-llm"
        assert remote.logprobs == model.score(request).logprobs

    def test_malformed_response_is_protocol_error(self, stub_server):
        url, handler = stub_server
        handler.broken = True
        backend = HttpBackend(url)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("What?", "a"))
        assert err.value.kind == "protocol"
        handler.broken = False

    def test_unreachable_backend_is_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:9", timeout_s=0.2, max_retries=2, backoff_s=0.01)
        with pytest.raises(BackendError) as err:
            backend.score(ScoringRequest("q", "a"))
        assert err.value.kind == "transport"

    def test_caching_wraps_http(self, stub_server, tmp_path):
        url, _ = stub_server
        backend = CachingBackend(HttpBackend(url), ScoreCache(tmp_path / "cache"))
        request = ScoringRequest("What?", "ab")
        first = backend.score(request)
        second = backend.score(request)
        assert first == second
        assert backend.cache.hits == 1


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
            information_profile(problem, trace, ["a", "b"], FlakyBackend())
