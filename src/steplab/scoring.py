"""Log-probability scoring of answer continuations.

The scoring contract: given a context (question plus a step prefix) and a
continuation (a candidate answer, wrappers stripped), a backend returns one
natural-log probability per continuation token. Three backends exist:

* :class:`ReferenceModel`, a deterministic table-driven stand-in for an LLM,
  used for fixtures and tests, named by its file's bytes and parsed lazily;
* :class:`HttpBackend`, a client for the JSON-over-HTTP protocol
  (``POST /v1/score``);
* :class:`CachingBackend`, which wraps either with a persistent
  :class:`ScoreCache` so identical requests are never recomputed.

Per-token logprobs exist only at this backend boundary. The information
value of an answer at step i is their sum: the answer's total
log-likelihood given the question and the first i steps (step 0 conditions
on the question alone). Every layer above the backend holds that one total
per request. :func:`score_requests` scores a batch of requests, each
distinct one once, into totals; :class:`ScoreCache` stores totals; and
:func:`information_profile` reshapes a trace's totals into its profile.
All values are in nats.
"""

import functools
import json
import logging
import math
import os
import select
import sqlite3
import threading
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol
from urllib.parse import SplitResult, urlsplit

from .errors import BackendError, ConfigError, DataError
from .ioutil import sha256_bytes, sha256_text
from .trace_model import Problem, ReasoningTrace

log = logging.getLogger(__name__)

CONTEXT_JOINER = "\n"
LOGPROB_FLOOR = -100.0
# Longest wait between HTTP attempts, whether from backoff or Retry-After.
BACKOFF_CAP_S = 30.0
# Keys per cache lookup statement (below SQLite's bound-parameter limit)
# and totals per cache commit.
CACHE_BATCH = 500
# How long a cache call waits for another process's write lock.
CACHE_LOCK_TIMEOUT_S = 60.0


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

    def close(self) -> None:
        """Release what the backend holds open between calls."""


class ReferenceModel:
    """Deterministic, table-driven scoring backend.

    Continuations are tokenized one character per token. The probability of
    character ``ch`` is looked up in ``table[context + scored_prefix][ch]``,
    falling back to ``fallback_prob`` for unlisted entries. The fixture file
    is a JSON object ``{"fallback_prob": p, "table": {key: {token: prob}}}``.
    The id hashes the file's bytes, or for a model built in memory the bytes
    :meth:`to_file` writes. A file is parsed when a call first needs the table.
    """

    def __init__(self, table: dict[str, dict[str, float]], fallback_prob: float = 0.01):
        self._set(table, fallback_prob)
        self.backend_id = "reference:" + sha256_text(self._dump())[:12]

    def _set(self, table: dict[str, dict[str, float]], fallback_prob: float) -> None:
        if not 0 < fallback_prob < 1:
            raise ValueError("fallback_prob must lie in (0, 1)")
        for key, dist in table.items():
            total = sum(dist.values())
            if total > 1 + 1e-9 or any(not 0 < p <= 1 for p in dist.values()):
                raise ValueError(f"probabilities for context key {key[:40]!r}... are invalid")
        self.table, self.fallback_prob, self._source = table, fallback_prob, None  # _source last: see _load

    @classmethod
    def from_file(cls, path: str | Path) -> "ReferenceModel":
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError(f"reference model {path} is unreadable: {exc.strerror or exc}") from exc
        model = cls.__new__(cls)
        model._source, model._lock, model._failure = (Path(path), data), threading.Lock(), ""
        model.backend_id = "reference:" + sha256_bytes(data)[:12]
        return model

    def _load(self) -> None:
        if self._source is not None:
            with self._lock:
                if self._failure:  # the first load failed: parse no more
                    raise DataError(self._failure)
                if self._source is not None:
                    try:
                        obj = json.loads(self._source[1])
                        self._set(obj["table"], obj.get("fallback_prob", 0.01))
                    except (AttributeError, KeyError, TypeError, ValueError) as exc:
                        self._failure = f"reference model {self._source[0]} is invalid: {exc!r}"
                        raise DataError(self._failure) from exc

    def _dump(self) -> str:
        return json.dumps({"fallback_prob": self.fallback_prob, "table": self.table}, ensure_ascii=False)

    def to_file(self, path: str | Path) -> None:
        self._load()
        Path(path).write_text(self._dump(), encoding="utf-8")

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        self._load()
        logprobs = []
        for idx, ch in enumerate(request.continuation):
            key = request.context + request.continuation[:idx]
            prob = self.table.get(key, {}).get(ch, self.fallback_prob)
            logprobs.append(math.log(prob))
        return TokenLogprobs.clamped(list(request.continuation), logprobs, self.backend_id)

    def close(self) -> None:
        pass


class HttpBackend:
    """Client for a remote scoring server speaking the JSON protocol.

    ``POST {base}/v1/score`` with ``{"context", "continuation"}`` must return
    ``{"tokens", "logprobs", "backend_id"}``, over stdlib ``http.client``
    keep-alive connections. Transport failures, answers not started within
    the timeout, 5xx and HTTP 429 are retried with backoff (a 429's
    ``Retry-After`` replaces it), logged and counted in ``retries``;
    exhausted retries surface as :class:`BackendError` (kind "transport"),
    malformed responses as kind "protocol". Proxy variables are not read.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0, max_retries: int = 3, backoff_s: float = 0.5):
        # Imported here, not at module level: runs that never call a server
        # (relabelling, warm caches) skip its import cost.
        import http.client

        self.base_url = base_url.rstrip("/")
        self.backend_id = self.base_url
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        parts = urlsplit(self.base_url)
        try:
            port = parts.port
        except ValueError as exc:
            raise ConfigError(f"invalid backend URL {base_url!r}: {exc}") from exc
        if not parts.hostname:
            raise ConfigError(f"backend URL {base_url!r} names no host")
        self._url = self.base_url + "/v1/score"
        self._path = parts.path + "/v1/score"
        connection = http.client.HTTPConnection
        if parts.scheme == "https":
            import ssl

            connection = functools.partial(http.client.HTTPSConnection, context=ssl.create_default_context())
        self._open = functools.partial(connection, parts.hostname, port, timeout=timeout_s)
        self._failures = (OSError, http.client.HTTPException)
        self._idle: list = []
        self.retries = 0
        proxy_variable = _environment_proxy(parts)
        if proxy_variable is not None:
            log.warning("%s is set but not used: steplab connects to %s directly", proxy_variable, self.base_url)

    def _send(self, request: ScoringRequest):
        """POST ``request`` on an idle connection or a new one; the connection."""
        conn = self._idle.pop() if self._idle else self._open()
        # An idle socket that polls readable was closed by the server (or
        # holds bytes no request asked for): reconnect before sending.
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        try:
            if conn.sock is None:
                import socket  # loaded with http.client
                conn.connect()
                # http.client writes the headers and the body in two sends;
                # Nagle's algorithm would hold the body for the server's ACK.
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            body = json.dumps({"context": request.context, "continuation": request.continuation}).encode()
            conn.request("POST", self._path, body, {"Content-Type": "application/json"})
        except BaseException:
            conn.close()
            raise
        return conn

    def score_many(self, requests: Iterable[ScoringRequest], in_flight: int = 1):
        """Yield ``(request, logprobs, latency_s)`` for each request as its
        answer arrives, with at most ``in_flight`` requests outstanding.

        Each request sent holds one connection, and ``select`` waits for
        whichever answers first; an answer is read whole once it starts to
        arrive. A request waiting to retry keeps its place but holds no
        connection. The latency runs from a request's first send to its
        answer, retries included. After a failure nothing new is sent:
        answers already on their way are still yielded, and then the first
        failure is raised.
        """
        todo = iter(requests)
        sent: dict = {}  # socket -> (connection, request, attempt, first send, answer deadline)
        waiting: list = []  # (retry time, request, attempt, first send)
        errors: list[BackendError] = []

        def stop(error: BackendError) -> None:
            errors.append(error)
            waiting.clear()

        def retry(request, attempt, started, failure, retry_after=None) -> None:
            """Queue the request's next attempt, or stop after its last."""
            if attempt + 1 >= self.max_retries:
                stop(BackendError(f"backend unreachable after {self.max_retries} attempts: {failure}"))
            elif not errors:
                delay = min(BACKOFF_CAP_S, self.backoff_s * 2**attempt if retry_after is None else retry_after)
                self.retries += 1
                log.warning("retrying %s in %.2f s after: %s", self._url, delay, failure)
                waiting.append((time.monotonic() + delay, request, attempt + 1, started))

        try:
            while True:
                now = time.monotonic()
                due = [entry for entry in waiting if entry[0] <= now]
                waiting[:] = [entry for entry in waiting if entry[0] > now]
                while not errors and len(sent) + len(waiting) + len(due) < in_flight and (request := next(todo, None)):
                    due.append((now, request, 0, now))
                for _, request, attempt, started in due:
                    if errors:
                        break
                    try:
                        conn = self._send(request)
                    except self._failures as exc:
                        retry(request, attempt, started, exc)
                    else:
                        sent[conn.sock] = (conn, request, attempt, started, time.monotonic() + self.timeout_s)
                if not sent and not waiting:
                    break
                timeout = max(0.0, min([e[4] for e in sent.values()] + [e[0] for e in waiting]) - time.monotonic())
                if not sent:
                    time.sleep(timeout)
                    continue
                ready = select.select(list(sent), [], [], timeout)[0]
                now = time.monotonic()
                for sock, (conn, request, attempt, started, deadline) in list(sent.items()):
                    if sock not in ready and deadline > now:
                        continue
                    try:
                        if sock not in ready:
                            raise TimeoutError("timed out")
                        response = conn.getresponse()
                        data = response.read()
                    except self._failures as exc:
                        conn.close()
                        del sent[sock]
                        retry(request, attempt, started, exc)
                        continue
                    del sent[sock]
                    if response.will_close:
                        conn.close()
                    else:
                        self._idle.append(conn)
                    status = response.status
                    if status == 429 or status >= 500:
                        retry_after = _retry_after_s(response.getheader("Retry-After")) if status == 429 else None
                        retry(request, attempt, started, BackendError(f"{self._url} returned {status}"), retry_after)
                    elif status != 200:
                        stop(BackendError(f"{self._url} returned {status}", kind="protocol"))
                    else:
                        try:
                            obj = json.loads(data)
                            result = TokenLogprobs.clamped(obj["tokens"], obj["logprobs"], str(obj["backend_id"]))
                        except (KeyError, TypeError, ValueError) as exc:
                            stop(BackendError(f"malformed score response from {self._url}: {exc!r}", kind="protocol"))
                        else:
                            yield request, result, time.monotonic() - started
            if errors:
                raise errors[0]
        finally:
            for conn, *_ in sent.values():
                conn.close()

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        ((_, result, _),) = self.score_many([request])
        return result

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        while self._idle:
            self._idle.pop().close()


def _environment_proxy(url: SplitResult) -> str | None:
    """The proxy variable an environment-honouring client would route
    ``url`` through (``<scheme>_proxy`` or ``all_proxy``, either case,
    unless ``no_proxy`` exempts the host), or None."""
    for name in (f"{url.scheme}_proxy", "all_proxy"):
        for variable in (name, name.upper()):
            if os.environ.get(variable):
                from urllib.request import proxy_bypass_environment

                return None if proxy_bypass_environment(url.netloc) else variable
    return None


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a ``Retry-After`` header asks to wait (delta-seconds or an
    HTTP date), or None when it is absent or unreadable."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    from email.utils import parsedate_to_datetime  # deferred like http.client: HTTP only

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


class ScoreCache:
    """Scoring totals in one SQLite file, ``<directory>/scores.sqlite``.

    A row of table ``totals`` is keyed by the sha256 of (backend id,
    context, continuation), the first two prefixed by their lengths, and
    holds the continuation's total log-likelihood, not the context.
    :meth:`get` and :meth:`put` work in bulk, and each call opens its own
    connection, so only the calling thread touches the database. Inserts
    are ``INSERT OR IGNORE`` in one transaction per :meth:`put`: processes
    sharing the file lose no record, and caches merge the same way from an
    attached file. A row whose total is not a finite float <= 0 is deleted
    and counts as a miss, so it gets rewritten; a file SQLite cannot read
    is a :class:`ConfigError`.
    """

    FILENAME = "scores.sqlite"

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / self.FILENAME
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as db:
            db.execute("CREATE TABLE IF NOT EXISTS totals (key TEXT PRIMARY KEY, total REAL NOT NULL) WITHOUT ROWID")

    @contextmanager
    def _connect(self):
        """A connection for one call, committed when the call succeeds."""
        try:
            db = sqlite3.connect(self.path, timeout=CACHE_LOCK_TIMEOUT_S)
            try:
                with db:
                    yield db
            finally:
                db.close()
        except sqlite3.Error as exc:
            raise ConfigError(f"score cache {self.path} is unusable: {exc}") from exc

    @staticmethod
    def key(backend_id: str, context: str, continuation: str) -> str:
        return sha256_text(f"{len(backend_id)}:{backend_id}{len(context)}:{context}{continuation}")

    def get(self, backend_id: str, requests: Iterable[ScoringRequest]) -> dict[ScoringRequest, float]:
        """The cached totals among ``requests``."""
        wanted = {self.key(backend_id, r.context, r.continuation): r for r in requests}
        keys = list(wanted)
        found: dict[ScoringRequest, float] = {}
        damaged = []
        with self._connect() as db:
            for start in range(0, len(keys), CACHE_BATCH):
                chunk = keys[start : start + CACHE_BATCH]
                rows = db.execute(f"SELECT key, total FROM totals WHERE key IN ({','.join('?' * len(chunk))})", chunk)
                for key, total in rows:
                    if isinstance(total, float) and math.isfinite(total) and total <= 0:
                        found[wanted[key]] = total
                    else:
                        log.warning("discarding damaged cache record %s: total %r", key[:12], total)
                        damaged.append((key,))
            if damaged:
                db.executemany("DELETE FROM totals WHERE key = ?", damaged)
        return found

    def put(self, backend_id: str, totals: Iterable[tuple[ScoringRequest, float]]) -> None:
        """Store ``(request, total)`` pairs in one transaction; a key
        already present keeps its row."""
        rows = [(self.key(backend_id, r.context, r.continuation), total) for r, total in totals]
        with self._connect() as db:
            db.executemany("INSERT OR IGNORE INTO totals VALUES (?, ?)", rows)


class CachingBackend:
    """Backend wrapper that serves repeats from a :class:`ScoreCache`.

    :func:`score_requests` looks requests up in its cache and scores the
    misses with its inner backend; :meth:`score` returns one request's
    total that way.
    """

    def __init__(self, inner: Backend, cache: ScoreCache):
        self.inner = inner
        self.cache = cache
        self.backend_id = inner.backend_id

    def score(self, request: ScoringRequest) -> float:
        return score_requests(self, [request]).totals[request]

    def close(self) -> None:
        self.inner.close()


@dataclass
class ScoredRequests:
    """Results of :func:`score_requests`: one total per distinct request,
    and the distinct requests found in and missing from the cache (0 without one)."""

    totals: dict[ScoringRequest, float]
    backend_calls: int
    retries: int
    latencies_s: list[float]
    cache_hits: int
    cache_misses: int

    def latency_ms(self, fraction: float) -> float:
        """Nearest-rank quantile of the backend calls' latency; 0 without calls."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        return 1000.0 * ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def score_requests(backend: Backend, requests: Iterable[ScoringRequest], in_flight: int = 1) -> ScoredRequests:
    """Score each distinct request once into its total, from the calling
    thread: a backend with ``score_many`` keeps up to ``in_flight`` requests
    outstanding, any other scores one at a time.

    Through a :class:`CachingBackend`, all distinct requests are looked up
    in one bulk call, which gives the hit and miss counts, and only the
    misses reach the inner backend. Each backend call is timed and reduced
    to its total as it returns. Totals are stored in batches as they
    complete; when a scoring fails, every total completed before the error
    is stored, then the error propagates.
    """
    unique = list(dict.fromkeys(requests))
    cache = backend.cache if isinstance(backend, CachingBackend) else None
    inner = backend.inner if cache is not None else backend
    retries_before = getattr(inner, "retries", 0)
    totals = cache.get(backend.backend_id, unique) if cache is not None else {}
    cache_hits = len(totals)
    misses = [r for r in unique if r not in totals]
    latencies: list[float] = []
    results = inner.score_many(misses, in_flight) if hasattr(inner, "score_many") else _score_serially(inner, misses)
    batch: list[tuple[ScoringRequest, float]] = []
    try:
        for request, logprobs, latency_s in results:
            totals[request] = logprobs.total()
            latencies.append(latency_s)
            if cache is not None:
                batch.append((request, totals[request]))
                if len(batch) == CACHE_BATCH:
                    cache.put(backend.backend_id, batch)
                    batch = []
    finally:
        if batch:
            cache.put(backend.backend_id, batch)
    return ScoredRequests(
        totals=totals,
        backend_calls=len(misses),
        retries=getattr(inner, "retries", 0) - retries_before,
        latencies_s=latencies,
        cache_hits=cache_hits,
        cache_misses=len(misses) if cache is not None else 0,
    )


def _score_serially(backend: Backend, requests: list[ScoringRequest]):
    """Yield ``(request, logprobs, latency_s)`` for each request in turn."""
    for request in requests:
        start = time.perf_counter()
        result = backend.score(request)
        yield request, result, time.perf_counter() - start


@dataclass
class InformationProfile:
    """Information values for one trace: rows are step prefixes 0..N, columns
    the scored answers."""

    problem_id: str
    trace_id: str
    answers: list[str]
    values: list[list[float]]

    def __post_init__(self):
        if not self.values:
            raise ValueError("a profile holds at least the step-0 row")
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


def profile_requests(problem: Problem, trace: ReasoningTrace, answers: list[str]) -> list[ScoringRequest]:
    """The requests of a trace's profile in row order: each step prefix
    0..N, and within a prefix each answer."""
    contexts = [build_context(problem.question, trace.steps[:i]) for i in range(len(trace.steps) + 1)]
    return [ScoringRequest(context, answer) for context in contexts for answer in answers]


def information_profile(
    problem: Problem, trace: ReasoningTrace, answers: list[str], totals: list[float]
) -> InformationProfile:
    """The trace's profile from its totals, listed row-major in
    :func:`profile_requests` order: row i holds each answer's total given
    the first i steps."""
    rows, width = len(trace.steps) + 1, len(answers)
    if len(totals) != rows * width:
        raise ValueError(f"{len(totals)} totals do not fill {rows} rows of {width} answers")
    return InformationProfile(
        problem_id=problem.id,
        trace_id=trace.trace_id,
        answers=list(answers),
        values=[totals[i * width : (i + 1) * width] for i in range(rows)],
    )


def make_backend(
    backend_spec: str,
    cache_dir: str | Path | None = None,
    timeout_s: float = 30.0,
    max_retries: int = 3,
    backoff_s: float = 0.5,
) -> Backend:
    """Build a backend from its config string.

    ``reference:<fixture path>`` names the reference model by its file;
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
