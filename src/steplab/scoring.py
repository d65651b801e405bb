"""Log-probability scoring of answer continuations.

The scoring contract: given a context (question plus a step prefix) and a
continuation (a candidate answer, wrappers stripped), a backend returns one
natural-log probability per continuation token. Three backends exist:

* :class:`ReferenceModel`, a deterministic table-driven stand-in for an LLM,
  used for fixtures and tests;
* :class:`HttpBackend`, a client for the JSON-over-HTTP protocol
  (``POST /v1/score``);
* :class:`CachingBackend`, which wraps either with a persistent on-disk
  cache so identical requests are never recomputed.

The information value of an answer at step i is the sum of these token
log-likelihoods conditioned on the question and the first i steps; step 0
conditions on the question alone. All values are in nats.
"""

import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import requests

from .errors import BackendError, ConfigError
from .ioutil import sha256_text
from .trace_model import Problem, ReasoningTrace

log = logging.getLogger(__name__)

CONTEXT_JOINER = "\n"
LOGPROB_FLOOR = -100.0


def build_context(question: str, steps_prefix: list[str]) -> str:
    """Scoring context for a step prefix: question and steps joined by newlines.

    The context for prefix length i is a strict prefix-extension of the one
    for i-1, which keeps prefix caching effective on the backend side.
    """
    return CONTEXT_JOINER.join([question, *steps_prefix])


@dataclass(frozen=True)
class ScoringRequest:
    context: str
    continuation: str

    def __post_init__(self):
        if not self.continuation:
            raise ValueError("continuation must be non-empty")


@dataclass
class TokenLogprobs:
    """Per-token natural-log probabilities of a continuation."""

    tokens: list[str]
    logprobs: list[float]
    backend_id: str

    def __post_init__(self):
        if len(self.tokens) != len(self.logprobs) or not self.tokens:
            raise ValueError("tokens and logprobs must be equal-length and non-empty")
        for lp in self.logprobs:
            if not math.isfinite(lp) or lp > 0:
                raise ValueError(f"logprob out of range after clamping: {lp}")

    @classmethod
    def clamped(cls, tokens: list[str], logprobs: list[float], backend_id: str) -> "TokenLogprobs":
        """Construct with each logprob clamped into [LOGPROB_FLOOR, 0].

        Infinities clamp to the range edges; NaN is rejected, since a backend
        emitting NaN is broken rather than merely extreme.
        """
        safe = []
        for lp in logprobs:
            lp = float(lp)
            if math.isnan(lp):
                raise ValueError("logprob is NaN")
            if math.isinf(lp):
                lp = LOGPROB_FLOOR if lp < 0 else 0.0
            safe.append(min(0.0, max(LOGPROB_FLOOR, lp)))
        return cls(tokens=list(tokens), logprobs=safe, backend_id=backend_id)

    def total(self) -> float:
        return sum(self.logprobs)


class Backend(Protocol):
    backend_id: str

    def score(self, request: ScoringRequest) -> TokenLogprobs: ...


class ReferenceModel:
    """Deterministic, table-driven scoring backend.

    Continuations are tokenized one character per token. The probability of
    character ``ch`` is looked up in ``table[context + scored_prefix][ch]``,
    falling back to ``fallback_prob`` for unlisted entries. The fixture file
    is a JSON object ``{"fallback_prob": p, "table": {key: {token: prob}}}``.
    """

    def __init__(self, table: dict[str, dict[str, float]], fallback_prob: float = 0.01):
        if not 0 < fallback_prob < 1:
            raise ValueError("fallback_prob must lie in (0, 1)")
        for key, dist in table.items():
            total = sum(dist.values())
            if total > 1 + 1e-9 or any(not 0 < p <= 1 for p in dist.values()):
                raise ValueError(f"probabilities for context key {key[:40]!r}... are invalid")
        self.table = table
        self.fallback_prob = fallback_prob
        fingerprint = sha256_text(
            json.dumps({"fallback_prob": fallback_prob, "table": table}, sort_keys=True)
        )[:12]
        self.backend_id = f"reference:{fingerprint}"

    @classmethod
    def from_file(cls, path: str | Path) -> "ReferenceModel":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(table=obj["table"], fallback_prob=obj.get("fallback_prob", 0.01))

    def to_file(self, path: str | Path) -> None:
        payload = {"fallback_prob": self.fallback_prob, "table": self.table}
        Path(path).write_text(json.dumps(payload, ensure_ascii=False, indent=1), encoding="utf-8")

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        logprobs = []
        for idx, ch in enumerate(request.continuation):
            key = request.context + request.continuation[:idx]
            prob = self.table.get(key, {}).get(ch, self.fallback_prob)
            logprobs.append(math.log(prob))
        return TokenLogprobs.clamped(list(request.continuation), logprobs, self.backend_id)


class HttpBackend:
    """Client for a remote scoring server speaking the JSON protocol.

    ``POST {base}/v1/score`` with ``{"context", "continuation"}`` must return
    ``{"tokens", "logprobs", "backend_id"}``. Transport failures are retried
    with backoff and surface as :class:`BackendError` (kind "transport");
    malformed responses as kind "protocol".
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.backend_id = self.base_url
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._session = session or requests.Session()

    def _post(self, endpoint: str, payload: dict) -> dict:
        url = f"{self.base_url}{endpoint}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                response = self._session.post(url, json=payload, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff_s * 2**attempt)
                continue
            if response.status_code >= 500:
                last_error = BackendError(f"{url} returned {response.status_code}")
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff_s * 2**attempt)
                continue
            if response.status_code != 200:
                raise BackendError(f"{url} returned {response.status_code}", kind="protocol")
            try:
                return response.json()
            except ValueError as exc:
                raise BackendError(f"{url} returned non-JSON body", kind="protocol") from exc
        raise BackendError(f"backend unreachable after {self.max_retries} attempts: {last_error}")

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        obj = self._post("/v1/score", {"context": request.context, "continuation": request.continuation})
        try:
            return TokenLogprobs.clamped(obj["tokens"], obj["logprobs"], str(obj["backend_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed score response: {exc}", kind="protocol") from exc


class ScoreCache:
    """Append-only store of scoring results, one JSON file per record.

    Records are named by the content hash of (backend id, context,
    continuation), which makes caches from different runs mergeable by
    copying files. Appends are serialized; reads are lock-free apart from
    the index lookup.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index = {p.stem for p in self.directory.glob("*.json")}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(backend_id: str, context: str, continuation: str) -> str:
        return sha256_text(json.dumps([backend_id, context, continuation]))

    def get(self, backend_id: str, context: str, continuation: str) -> TokenLogprobs | None:
        key = self.key(backend_id, context, continuation)
        path = self.directory / f"{key}.json"
        with self._lock:
            present = key in self._index
        result = None
        if present:
            try:
                obj = json.loads(path.read_text(encoding="utf-8"))
                result = TokenLogprobs(
                    tokens=obj["tokens"], logprobs=obj["logprobs"], backend_id=obj["backend_id"]
                )
            except (ValueError, KeyError, OSError) as exc:
                # A damaged record degrades to a miss and gets rewritten.
                log.warning("discarding unreadable cache record %s: %s", key[:12], exc)
                with self._lock:
                    self._index.discard(key)
                path.unlink(missing_ok=True)
        with self._lock:
            if result is not None:
                self.hits += 1
            else:
                self.misses += 1
        return result

    def put(self, backend_id: str, context: str, continuation: str, result: TokenLogprobs) -> None:
        key = self.key(backend_id, context, continuation)
        record = {
            "key_backend_id": backend_id,
            "context": context,
            "continuation": continuation,
            "tokens": result.tokens,
            "logprobs": result.logprobs,
            "backend_id": result.backend_id,
        }
        path = self.directory / f"{key}.json"
        tmp = self.directory / f"{key}.json.tmp"
        with self._lock:
            if key in self._index:
                return
            tmp.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
            tmp.replace(path)
            self._index.add(key)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachingBackend:
    """Backend wrapper that serves repeats from a :class:`ScoreCache`."""

    def __init__(self, inner: Backend, cache: ScoreCache):
        self.inner = inner
        self.cache = cache
        self.backend_id = inner.backend_id

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        cached = self.cache.get(self.backend_id, request.context, request.continuation)
        if cached is not None:
            return cached
        result = self.inner.score(request)
        self.cache.put(self.backend_id, request.context, request.continuation, result)
        return result


def information(problem: Problem, steps_prefix: list[str], answer: str, backend: Backend) -> float:
    """Total log-likelihood (nats) of ``answer`` given the question and a step
    prefix. An empty prefix gives the no-reasoning baseline."""
    request = ScoringRequest(context=build_context(problem.question, steps_prefix), continuation=answer)
    return backend.score(request).total()


@dataclass
class InformationProfile:
    """Information values for one trace: rows are step prefixes 0..N, columns
    the scored answers."""

    problem_id: str
    trace_id: str
    answers: list[str]
    values: list[list[float]] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.answers)) != len(self.answers):
            raise ValueError("profile answers must be unique")
        for row in self.values:
            if len(row) != len(self.answers):
                raise ValueError("profile row width does not match the answer list")
            if any(not math.isfinite(v) for v in row):
                raise ValueError("profile entries must be finite")

    def column(self, answer: str) -> int:
        try:
            return self.answers.index(answer)
        except ValueError:
            raise KeyError(f"answer {answer!r} is not a profile column") from None

    def to_json_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "trace_id": self.trace_id,
            "answers": self.answers,
            "values": self.values,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "InformationProfile":
        return cls(
            problem_id=obj["problem_id"],
            trace_id=obj["trace_id"],
            answers=list(obj["answers"]),
            values=[list(row) for row in obj["values"]],
        )


def information_profile(
    problem: Problem,
    trace: ReasoningTrace,
    answers: list[str],
    backend: Backend,
    max_workers: int = 1,
) -> InformationProfile:
    """Score every answer against every step prefix of the trace.

    Issues exactly (N+1) * len(answers) continuation scorings. Results are
    placed by index, so the profile is identical regardless of completion
    order; any failure aborts the whole profile.
    """
    if not answers:
        raise ValueError("answers must be a non-empty list")
    if len(set(answers)) != len(answers):
        raise ValueError("answers must be unique")
    prefixes = [trace.steps[:i] for i in range(len(trace.steps) + 1)]
    values = [[0.0] * len(answers) for _ in prefixes]

    def cell(i: int, j: int) -> float:
        return information(problem, prefixes[i], answers[j], backend)

    coords = [(i, j) for i in range(len(prefixes)) for j in range(len(answers))]
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = pool.map(lambda c: cell(*c), coords)
            for (i, j), value in zip(coords, results):
                values[i][j] = value
    else:
        for i, j in coords:
            values[i][j] = cell(i, j)
    return InformationProfile(
        problem_id=problem.id,
        trace_id=trace.trace_id,
        answers=list(answers),
        values=values,
    )


def make_backend(
    backend_spec: str,
    cache_dir: str | Path | None = None,
    timeout_s: float = 30.0,
    max_retries: int = 3,
    backoff_s: float = 0.5,
) -> Backend:
    """Build a backend from its config string.

    ``reference:<fixture path>`` loads the deterministic reference model;
    anything starting with http:// or https:// becomes an HTTP client. A
    cache directory, when given, wraps the backend in a CachingBackend.
    """
    if backend_spec.startswith("reference:"):
        backend: Backend = ReferenceModel.from_file(backend_spec.split(":", 1)[1])
    elif backend_spec.startswith(("http://", "https://")):
        backend = HttpBackend(backend_spec, timeout_s=timeout_s, max_retries=max_retries, backoff_s=backoff_s)
    else:
        raise ConfigError(f"unrecognized backend spec: {backend_spec!r}")
    if cache_dir is not None:
        backend = CachingBackend(backend, ScoreCache(cache_dir))
    return backend
