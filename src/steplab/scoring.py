"""Log-probability scoring of answer continuations.

The scoring contract: given a context (question plus a step prefix) and a
continuation (a candidate answer, wrappers stripped), a backend returns one
natural-log probability per continuation token. Two backends exist:

* :class:`ReferenceModel`, a deterministic table-driven stand-in for an LLM,
  used for fixtures and tests, named by its file's hash and read lazily;
* :class:`HttpBackend`, a client for the JSON-over-HTTP protocol
  (``POST /v1/score``).

:class:`CachingBackend` pairs either with a persistent :class:`ScoreCache`.

Per-token logprobs exist only at this backend boundary. The information
value of an answer at step i is their sum: the answer's total
log-likelihood given the question and the first i steps (step 0 conditions
on the question alone). Every layer above the backend holds that one total
per (prefix, answer) cell, and a trace's profile is its cells' totals,
row-major. :func:`score_traces` scores the profiles of a working set: the
cache stores one row per trace, keyed by :func:`trace_key`, so a cached
trace is read whole and builds no cell. Missed traces are scored in
batches of :data:`CACHE_BATCH`, each distinct cell once, and each batch's
rows are stored together.
:func:`information_profile` reshapes a trace's totals into its profile.
All values are in nats.
"""

import functools
import json
import logging
import math
import os
import select
import struct
import threading
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple, Protocol
from urllib.parse import SplitResult, urlsplit

from .errors import BackendError, ConfigError, DataError
from .ioutil import input_file, sha256_bytes, sha256_file, sha256_text
from .trace_model import Problem, ReasoningTrace

log = logging.getLogger(__name__)

CONTEXT_JOINER = "\n"
LOGPROB_FLOOR = -100.0
# The reference model's entry for a context key its table lacks; never written.
_NO_TOKENS: dict[str, float] = {}
# Longest wait between HTTP attempts, whether from backoff or Retry-After.
BACKOFF_CAP_S = 30.0
# Longest HTTP answer body read, in bytes.
MAX_ANSWER_BYTES = 1 << 20
# Keys per cache lookup statement (below SQLite's bound-parameter limit)
# and trace rows per cache commit.
CACHE_BATCH = 500
# How long a cache call waits for another process's write lock.
CACHE_LOCK_TIMEOUT_S = 60.0


def build_context(question: str, steps_prefix: list[str]) -> str:
    """Scoring context for a step prefix: question and steps joined by newlines.

    The context for prefix length i is a strict prefix-extension of the one
    for i-1, which keeps prefix caching effective on the backend side.
    """
    return CONTEXT_JOINER.join([question, *steps_prefix])


def prefix_contexts(question: str, steps: list[str]) -> list[str]:
    """:func:`build_context` of each step prefix 0..N, each extending the last."""
    return list(accumulate(steps, lambda context, step: context + CONTEXT_JOINER + step, initial=question))


class ScoringRequest(NamedTuple):
    """One cell: a tuple, so it hashes and compares as ``(context, continuation)``."""

    context: str
    continuation: str


@dataclass
class TokenLogprobs:
    """Per-token natural-log probabilities of a continuation."""

    tokens: list[str]
    logprobs: list[float]
    backend_id: str

    @classmethod
    def clamped(cls, tokens: list[str], logprobs: list[float], backend_id: str) -> "TokenLogprobs":
        """Construct with each logprob clamped into [LOGPROB_FLOOR, 0].

        Tokens are a non-empty list as long as logprobs; each logprob is a JSON
        number, not a string or ``true``. Infinities clamp to the range edges;
        NaN is rejected, since a backend emitting NaN is broken, not extreme.
        """
        if type(tokens) is not list or len(tokens) != len(logprobs) or not tokens:
            raise ValueError("tokens must be a list as long as logprobs, and not empty")
        safe = []
        for lp in logprobs:
            if type(lp) not in (int, float) or math.isnan(lp):
                raise ValueError(f"logprob {lp!r} is not a number")
            safe.append(min(0.0, max(LOGPROB_FLOOR, float(lp))))
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
    :meth:`to_file` writes, serialized once. A file is hashed in a streaming
    read when the model is built, and read whole, checked against that hash
    and parsed only when a call first needs the table.
    """

    def __init__(self, table: dict[str, dict[str, float]], fallback_prob: float = 0.01):
        self._set(table, fallback_prob)
        self._data = self._dump()
        self.backend_id = "reference:" + sha256_bytes(self._data)[:12]

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
        path = input_file(path, "reference model")
        try:
            digest = sha256_file(path)
        except OSError as exc:
            raise ConfigError(f"reference model {path} is unreadable: {exc.strerror or exc}") from exc
        model = cls.__new__(cls)
        model._source, model._lock, model._failure, model._data = (path, digest), threading.Lock(), "", None
        model.backend_id = "reference:" + digest[:12]
        return model

    def _load(self) -> None:
        if self._source is not None:
            with self._lock:
                if self._failure:  # the first load failed: read no more
                    raise DataError(self._failure)
                if self._source is not None:
                    path, digest = self._source
                    try:
                        data = path.read_bytes()
                    except OSError as exc:
                        self._failure = f"reference model {path} became unreadable: {exc.strerror or exc}"
                        raise DataError(self._failure) from exc
                    if sha256_bytes(data) != digest:
                        self._failure = f"reference model {path} changed after its id was taken"
                        raise DataError(self._failure)
                    try:
                        obj = json.loads(data)
                        self._set(obj["table"], obj.get("fallback_prob", 0.01))
                    except (AttributeError, KeyError, TypeError, ValueError) as exc:
                        self._failure = f"reference model {path} is invalid: {exc!r}"
                        raise DataError(self._failure) from exc

    def _dump(self) -> bytes:
        return json.dumps({"fallback_prob": self.fallback_prob, "table": self.table}, ensure_ascii=False).encode()

    def to_file(self, path: str | Path) -> None:
        self._load()
        Path(path).write_bytes(self._data or self._dump())

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        self._load()
        context, continuation = request
        if not continuation:
            raise ValueError("the continuation is empty")
        table, fallback = self.table, self.fallback_prob
        # _set admits only probabilities in (0, 1]: each log is finite and <= 0.
        logprobs = [
            max(LOGPROB_FLOOR, math.log(table.get(context + continuation[:i], _NO_TOKENS).get(ch, fallback)))
            for i, ch in enumerate(continuation)
        ]
        return TokenLogprobs(list(continuation), logprobs, self.backend_id)

    def close(self) -> None:
        pass


class HttpBackend:
    """Client for a remote scoring server speaking the JSON protocol.

    ``POST {base}/v1/score`` with ``{"context", "continuation"}`` must return
    ``{"tokens", "logprobs", "backend_id"}``, over stdlib ``http.client``
    keep-alive connections. Transport failures, answers not read whole
    within the timeout of their send or longer than :data:`MAX_ANSWER_BYTES`,
    5xx and HTTP 429 are retried with backoff (a 429's ``Retry-After``
    replaces it), counted in ``retries`` and logged at DEBUG; exhausted retries
    surface as :class:`BackendError` (kind "transport"), malformed responses
    as kind "protocol". Proxy variables are not read.
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
        if conn.sock is not None:
            conn.sock.settimeout(self.timeout_s)  # the last answer's read shortened it
            # An idle socket that polls readable was closed by the server (or
            # holds bytes no request asked for): reconnect before sending.
            idle = select.poll()  # unlike select.select, takes any descriptor
            idle.register(conn.sock, select.POLLIN)
            if idle.poll(0):
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

        Each request sent holds one connection, and ``poll`` waits for
        whichever answers first; an answer is read whole once it starts to
        arrive, by the deadline its send set. A request waiting to retry
        keeps its place but holds no connection. The latency runs from a
        request's first send to its answer, retries included. After a
        failure nothing new is sent: answers already on their way are still
        yielded, and then the first failure is raised.
        """
        todo = iter(requests)
        sent: dict = {}  # descriptor -> (connection, request, attempt, first send, answer deadline)
        waiting: list = []  # (retry time, request, attempt, first send)
        errors: list[BackendError] = []
        poller = select.poll()

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
                log.debug("retrying %s in %.2f s after: %s", self._url, delay, failure)
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
                        poller.register(conn.sock, select.POLLIN)
                        sent[conn.sock.fileno()] = (conn, request, attempt, started, time.monotonic() + self.timeout_s)
                if not sent and not waiting:
                    break
                timeout = max(0.0, min([e[4] for e in sent.values()] + [e[0] for e in waiting]) - time.monotonic())
                if not sent:
                    time.sleep(timeout)
                    continue
                ready = {fd for fd, _ in poller.poll(1000 * timeout)}
                now = time.monotonic()
                for fd, (conn, request, attempt, started, deadline) in list(sent.items()):
                    if fd not in ready and deadline > now:
                        continue
                    poller.unregister(fd)
                    del sent[fd]
                    try:  # past its deadline, a socket not ready fails here
                        response, data = self._read_answer(conn, deadline)
                    except self._failures as exc:
                        conn.close()
                        retry(request, attempt, started, exc)
                        continue
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
                        except (KeyError, TypeError, ValueError, OverflowError) as exc:
                            stop(BackendError(f"malformed score response from {self._url}: {exc!r}", kind="protocol"))
                        else:
                            yield request, result, time.monotonic() - started
            if errors:
                raise errors[0]
        finally:
            for conn, *_ in sent.values():
                conn.close()

    def _read_answer(self, conn, deadline: float):
        """The response on ``conn`` and its body, read by ``deadline`` (each
        read waits only for the time left); a body, or a ``Content-Length``,
        over :data:`MAX_ANSWER_BYTES` is refused."""
        sock, body = conn.sock, bytearray()
        sock.settimeout(_time_left(deadline))
        response = conn.getresponse()
        while response.length != 0:  # None for a chunked or close-delimited body: read to b""
            if len(body) + (response.length or 0) > MAX_ANSWER_BYTES:
                raise OSError(f"answer exceeds {MAX_ANSWER_BYTES} bytes")
            sock.settimeout(_time_left(deadline))
            if not (chunk := response.read1(65536)):
                break
            body += chunk
        response.close()
        return response, body

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        ((_, result, _),) = self.score_many([request])
        return result

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        while self._idle:
            self._idle.pop().close()


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``, which must lie ahead."""
    if (left := deadline - time.monotonic()) <= 0:
        raise TimeoutError("answer not read by its deadline")
    return left


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


def trace_key(backend_id: str, question: str, steps: list[str], answers: list[str]) -> str:
    """The cache key of a trace's profile: the sha256 of the step count and
    the answer count, then the backend id, :data:`CONTEXT_JOINER`, the
    question, each step and each answer, each prefixed by its length. It
    names exactly the cells :func:`profile_requests` builds."""
    parts = [backend_id, CONTEXT_JOINER, question, *steps, *answers]
    return sha256_text(f"{len(steps)}:{len(answers)}:" + "".join(f"{len(part)}:{part}" for part in parts))


def _unpack_totals(blob, cells: int) -> list[float] | None:
    """The ``cells`` totals packed in ``blob``, or None when it is not that
    many finite totals <= 0."""
    if not isinstance(blob, bytes) or len(blob) != 8 * cells:
        return None
    totals = list(struct.unpack(f"<{cells}d", blob))
    return totals if all(-math.inf < total <= 0 for total in totals) else None


class ScoreCache:
    """Trace profiles in one SQLite file, ``<directory>/scores.sqlite``.

    A row of table ``profiles`` is keyed by :func:`trace_key` and holds the
    trace's totals, row-major, packed as little-endian float64, so they read
    back bit-exact; it holds no text of the trace. :meth:`get` and
    :meth:`put` work in bulk, and each call opens its own connection, so
    only the calling thread touches the database. Inserts are ``INSERT OR
    IGNORE`` in one transaction per :meth:`put`: processes sharing the file
    lose no row, and caches merge the same way from an attached file. A row
    that is not the expected number of finite totals <= 0 is deleted, counted
    in ``damaged`` and counts as a miss, so it gets rewritten; a file SQLite
    cannot read is a :class:`ConfigError`. Tables of earlier formats are not
    read.
    """

    FILENAME = "scores.sqlite"

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / self.FILENAME
        self.damaged = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as db:
            db.execute("CREATE TABLE IF NOT EXISTS profiles (key TEXT PRIMARY KEY, totals BLOB NOT NULL) WITHOUT ROWID")

    @contextmanager
    def _connect(self):
        """A connection for one call, committed when the call succeeds."""
        import sqlite3  # runs without --cache-dir never load it

        try:
            db = sqlite3.connect(self.path, timeout=CACHE_LOCK_TIMEOUT_S)
            try:
                with db:
                    yield db
            finally:
                db.close()
        except sqlite3.Error as exc:
            raise ConfigError(f"score cache {self.path} is unusable: {exc}") from exc

    def get(self, wanted: dict[str, int]) -> dict[str, list[float]]:
        """The stored totals of the keys in ``wanted``, which maps each key
        to its trace's number of cells."""
        keys = list(wanted)
        found: dict[str, list[float]] = {}
        damaged = []
        with self._connect() as db:
            for start in range(0, len(keys), CACHE_BATCH):
                chunk = keys[start : start + CACHE_BATCH]
                marks = ",".join("?" * len(chunk))
                for key, blob in db.execute(f"SELECT key, totals FROM profiles WHERE key IN ({marks})", chunk):
                    totals = _unpack_totals(blob, wanted[key])
                    if totals is None:
                        log.debug("discarding damaged cache record %s", key[:12])
                        damaged.append((key,))
                    else:
                        found[key] = totals
            if damaged:
                db.executemany("DELETE FROM profiles WHERE key = ?", damaged)
        self.damaged += len(damaged)
        return found

    def put(self, rows: Iterable[tuple[str, list[float]]]) -> None:
        """Store ``(key, totals)`` rows in one transaction; a key already
        present keeps its row."""
        packed = [(key, struct.pack(f"<{len(totals)}d", *totals)) for key, totals in rows]
        with self._connect() as db:
            db.executemany("INSERT OR IGNORE INTO profiles VALUES (?, ?)", packed)


class CachingBackend:
    """A backend and the :class:`ScoreCache` that :func:`score_traces`
    reads and fills for it. :meth:`score` scores through the inner backend,
    without the cache."""

    def __init__(self, inner: Backend, cache: ScoreCache):
        self.inner = inner
        self.cache = cache
        self.backend_id = inner.backend_id

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        return self.inner.score(request)

    def close(self) -> None:
        self.inner.close()


def _latency_ms(latencies_s: list[float], fraction: float) -> float:
    """Nearest-rank quantile of backend call latencies, in ms; 0 without calls."""
    ordered = sorted(latencies_s) or [0.0]
    return 1000.0 * ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _score_serially(backend: Backend, requests: list[ScoringRequest], in_flight: int = 1):
    """Yield ``(request, logprobs, latency_s)`` for each request in turn, ignoring ``in_flight``."""
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
        if type(self.problem_id) is not str or type(self.trace_id) is not str:
            raise ValueError("problem_id and trace_id must be strings")
        if len(self.values) < 2:
            raise ValueError("a profile holds the step-0 row and at least one step row")
        if len(set(self.answers)) != len(self.answers):
            raise ValueError("profile answers must be unique")
        for row in self.values:
            if len(row) != len(self.answers):
                raise ValueError("profile row width does not match the answer list")
            if not all(map(math.isfinite, row)):
                raise ValueError("profile entries must be finite")


def profile_requests(problem: Problem, trace: ReasoningTrace, answers: list[str]) -> list[ScoringRequest]:
    """The requests of a trace's profile in row order: each step prefix
    0..N, and within a prefix each answer."""
    contexts = prefix_contexts(problem.question, trace.steps)
    return [ScoringRequest(context, answer) for context in contexts for answer in answers]


def information_profile(
    problem: Problem, trace: ReasoningTrace, answers: list[str], totals: list[float]
) -> InformationProfile:
    """The trace's profile from its totals, listed row-major in
    :func:`profile_requests` order: row i holds each answer's total given
    the first i steps."""
    rows, width = len(trace.steps) + 1, len(answers)
    return InformationProfile(
        problem_id=problem.id,
        trace_id=trace.trace_id,
        answers=list(answers),
        values=[totals[i * width : (i + 1) * width] for i in range(rows)],
    )


def score_traces(
    backend: Backend, jobs: list[tuple[Problem, ReasoningTrace, list[str]]], in_flight: int = 1
) -> tuple[list[list[float]], dict]:
    """Each job's totals, row-major as :func:`information_profile` takes
    them, and the counts of the work done. A job is (problem, trace, answers).

    Through a :class:`CachingBackend`, the distinct trace keys
    (:func:`trace_key`) are looked up in one bulk call. Batches of up to
    :data:`CACHE_BATCH` missed traces, in job order, send their distinct
    cells not yet scored to the inner backend (``score_many``, up to
    ``in_flight`` at once, if it has it), so a problem's traces share their
    step-0 cells. Each batch's rows are stored in one call. When scoring
    fails, the rows of every missed trace whose cells all came back are
    stored, and the error carries the counts as ``counts``.

    The counts are ``backend_calls`` completed, ``retries``, ``cache_hits``
    and ``cache_misses`` per distinct trace (0 without a cache) and
    ``rows_stored``. On success they also hold ``cache_damaged``, the cache
    rows discarded; ``chars_sent``, the context and continuation characters
    of the cells scored; ``chars_linear``, the paper's linear cost of the
    jobs, |q| + sum|steps| + (N+1) * sum|answers| characters each; the backend
    latency quantiles and the cache hit rate.
    """
    cache, inner = (backend.cache, backend.inner) if isinstance(backend, CachingBackend) else (None, backend)
    keys = [trace_key(backend.backend_id, problem.question, trace.steps, answers) for problem, trace, answers in jobs]
    distinct = dict(zip(keys, jobs))
    counts = {"backend_calls": 0, "retries": 0, "cache_hits": 0, "cache_misses": 0, "rows_stored": 0}
    damaged = 0
    retries_before = getattr(inner, "retries", 0)
    rows: dict[str, list[float]] = {}
    done: dict[ScoringRequest, float] = {}  # every cell scored so far, and its total
    latencies: list[float] = []
    try:
        if cache is not None:
            damaged_before = cache.damaged
            rows = cache.get({key: (len(t.steps) + 1) * len(answers) for key, (_, t, answers) in distinct.items()})
            counts["cache_hits"], counts["cache_misses"] = len(rows), len(distinct) - len(rows)
            damaged = cache.damaged - damaged_before
        missed = [key for key in distinct if key not in rows]
        score_many = getattr(inner, "score_many", functools.partial(_score_serially, inner))
        for start in range(0, len(missed), CACHE_BATCH):
            cells = {key: profile_requests(*distinct[key]) for key in missed[start : start + CACHE_BATCH]}
            try:
                todo = [cell for cell in dict.fromkeys(c for cs in cells.values() for c in cs) if cell not in done]
                for request, logprobs, latency_s in score_many(todo, in_flight):
                    done[request] = logprobs.total()
                    latencies.append(latency_s)
            except BaseException:  # a later trace may have all its cells too
                cells = {key: profile_requests(*distinct[key]) for key in missed[start:]}
                raise
            finally:
                batch = [(key, [done[c] for c in cs]) for key, cs in cells.items() if all(c in done for c in cs)]
                rows.update(batch)
                if cache is not None and batch:
                    cache.put(batch)
                    counts["rows_stored"] += len(batch)
    except BaseException as exc:
        exc.counts = counts  # filled in by the finally clause below
        raise
    finally:
        counts["backend_calls"] = len(done)
        counts["retries"] = getattr(inner, "retries", 0) - retries_before
    lookups = counts["cache_hits"] + counts["cache_misses"]
    counts.update(
        cache_damaged=damaged,
        chars_sent=sum(map(len, chain.from_iterable(done))),  # a cell is (context, continuation)
        chars_linear=sum(
            len(problem.question) + sum(map(len, trace.steps)) + (len(trace.steps) + 1) * sum(map(len, answers))
            for problem, trace, answers in jobs
        ),
        backend_p50_ms=round(_latency_ms(latencies, 0.50), 3),
        backend_p99_ms=round(_latency_ms(latencies, 0.99), 3),
        cache_hit_rate=counts["cache_hits"] / lookups if lookups else 0.0,
    )
    return [rows[key] for key in keys], counts


def make_backend(backend_spec: str, cache_dir: str | Path | None = None, **http_options) -> Backend:
    """Build a backend from its config string: ``reference:<fixture path>``
    names the reference model by its file, an http:// or https:// URL an
    :class:`HttpBackend` built with ``http_options``. A cache directory, when
    given, pairs the backend with its ScoreCache in a CachingBackend."""
    if backend_spec.startswith("reference:"):
        backend: Backend = ReferenceModel.from_file(backend_spec.split(":", 1)[1])
    elif backend_spec.startswith(("http://", "https://")):
        backend = HttpBackend(backend_spec, **http_options)
    else:
        raise ConfigError(f"unrecognized backend spec: {backend_spec!r}")
    if cache_dir is not None:
        backend = CachingBackend(backend, ScoreCache(cache_dir))
    return backend
