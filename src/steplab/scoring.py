"""Log-probability scoring of answer continuations.

The scoring contract: given a context (question plus a step prefix) and a
continuation (a candidate answer, wrappers stripped), a backend returns one
natural-log probability per continuation token. Two backends exist, each a
:class:`Backend`:

* :class:`ReferenceModel`, a deterministic table-driven stand-in for an LLM,
  used for fixtures and tests, named by its file's hash and read lazily;
* :class:`HttpBackend`, a client for the JSON-over-HTTP protocol
  (``POST /v1/score``) that speaks HTTP/1.1 on its own sockets.

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

import json
import logging
import math
import os
import re
import select
import struct
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple
from urllib.parse import SplitResult, urlsplit

from .errors import BackendError, ConfigError, DataError
from .ioutil import input_digest, sha256_bytes, sha256_text
from .trace_model import Problem, ReasoningTrace

log = logging.getLogger(__name__)

CONTEXT_JOINER = "\n"
LOGPROB_FLOOR = -100.0
# The reference model's entry for a context key its table lacks; never written.
_NO_TOKENS: dict[str, float] = {}
# Longest wait between HTTP attempts, whether from backoff or Retry-After.
BACKOFF_CAP_S = 30.0
# Longest HTTP answer body read, and longest answer head, in bytes.
MAX_ANSWER_BYTES = 1 << 20
MAX_HEAD_BYTES = 1 << 16
# Most requests an HTTP connection carries at a time once it has answered a 200 (pipelining).
PIPELINE_DEPTH = 16
_STATUS_LINE = re.compile(r"HTTP/1\.([01]) ([0-9]{3})(?: .*)?")
_CHUNK_SIZE = re.compile(r"([0-9A-Fa-f]+)[ \t]*(?:;.*)?")
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


class Backend:
    """A scoring backend. A subclass defines :meth:`score` or
    :meth:`score_many`, whichever it makes natively, and gets the other."""

    backend_id: str
    retries = 0  # attempts repeated after a failure, for a backend that retries
    connections = 0  # connections opened, for a backend that opens them

    def score(self, request: ScoringRequest) -> TokenLogprobs:
        ((_, result, _),) = self.score_many([request])
        return result

    def score_many(
        self, requests: Iterable[ScoringRequest], in_flight: int = 1
    ) -> Iterator[tuple[ScoringRequest, TokenLogprobs, float]]:
        """Yield ``(request, logprobs, latency_s)`` for each request, with at
        most ``in_flight`` outstanding (for HTTP, connections); the first failure
        is raised. Here, each request in turn through :meth:`score`, ignoring
        ``in_flight``."""
        for request in requests:
            start = time.perf_counter()
            result = self.score(request)
            yield request, result, time.perf_counter() - start


class ReferenceModel(Backend):
    """Deterministic, table-driven scoring backend, built from its file by
    :meth:`from_file`.

    Continuations are tokenized one character per token. The probability of
    character ``ch`` is looked up in ``table[context + scored_prefix][ch]``,
    falling back to ``fallback_prob`` for unlisted entries. The file is a
    JSON object ``{"fallback_prob": p, "table": {key: {token: prob}}}``.
    The id hashes the file's bytes, in a streaming read when the model is
    built; the file is read whole, checked against that hash and parsed
    only when a call first needs the table.
    """

    def _set(self, table: dict[str, dict[str, float]], fallback_prob: float) -> None:
        if not 0 < fallback_prob < 1:
            raise ValueError("fallback_prob must lie in (0, 1)")
        for key, dist in table.items():
            total = 0
            for p in dist.values():  # each a JSON number in (0, 1], so not true, and a key's sum 1 at most
                if type(p) not in (int, float) or not 0 < p <= 1 or (total := total + p) > 1 + 1e-9:
                    raise ValueError(f"probabilities for context key {key[:40]!r}... are invalid")
        self.table, self.fallback_prob, self._source = table, fallback_prob, None  # _source last: see _load

    @classmethod
    def from_file(cls, path: str | Path) -> "ReferenceModel":
        digest = input_digest(path, "reference model")
        model = cls()
        model._source, model._lock, model._failure = (Path(path), digest), threading.Lock(), ""
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


class HttpBackend(Backend):
    """Client for a remote scoring server speaking the JSON protocol.

    ``POST {base}/v1/score`` with ``{"context", "continuation"}`` must return
    ``{"tokens", "logprobs", "backend_id"}``, over HTTP/1.1 keep-alive
    sockets of its own, pipelined once they have answered; each
    :meth:`score_many` call closes the sockets it opened. Transport
    failures, malformed heads, answers not read whole by their deadline or
    longer than :data:`MAX_ANSWER_BYTES`, 5xx and HTTP 429 are retried with
    backoff (a 429's ``Retry-After`` replaces it), counted in ``retries``
    and logged at DEBUG; exhausted retries surface as :class:`BackendError`
    (kind "transport"), malformed responses, and an answer naming another
    ``backend_id`` than the first, as kind "protocol". Proxy variables are
    not read.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0, max_retries: int = 3, backoff_s: float = 0.5):
        self.base_url = base_url.rstrip("/")
        self.backend_id = self.base_url
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        parts = urlsplit(self.base_url)
        host = parts.netloc.rpartition("@")[2]  # without user information
        # None of these would reach the server as written, and any may hold a secret: the message shows none.
        refused = [name for name, held in (("user information", "@" in parts.netloc), ("a fragment", "#" in base_url),
                                           ("a query", "?" in base_url.partition("#")[0])) if held]
        if refused:
            raise ConfigError(f"backend URL {parts.scheme}://{host}{parts.path} holds {' and '.join(refused)}")
        try:
            port = parts.port or (443 if parts.scheme == "https" else 80)
        except ValueError as exc:
            raise ConfigError(f"invalid backend URL {base_url!r}: {exc}") from exc
        if not parts.hostname:
            raise ConfigError(f"backend URL {base_url!r} names no host")
        self._url = self.base_url + "/v1/score"
        self._head = f"POST {parts.path}/v1/score HTTP/1.1\r\nHost: {host}\r\n".encode()
        self._head += b"Content-Type: application/json\r\n"  # Content-Length and the body follow per request
        self._address = (parts.hostname, port)
        self._tls = None
        if parts.scheme == "https":
            import ssl  # loaded for https:// backends only
            self._tls = ssl.create_default_context()
        self._pipelining = True  # until an answer times out with requests queued behind it
        self._server_id: str | None = None  # the backend_id of the first answer
        proxy_variable = _environment_proxy(parts)
        if proxy_variable is not None:
            log.warning("%s is set but not used: steplab connects to %s directly", proxy_variable, self.base_url)

    def _connect(self):
        """A new socket to the server, with Nagle's algorithm off, wrapped in TLS for https://."""
        import socket  # here, not at module level: runs that call no server skip it
        sock = socket.create_connection(self._address, self.timeout_s)
        self.connections += 1
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock

    def score_many(self, requests: Iterable[ScoringRequest], in_flight: int = 1):
        """Yield ``(request, logprobs, latency_s)`` for each request as its
        answer arrives, over at most ``in_flight`` connections (README's
        "Scoring backends" says how each carries its requests). A request
        waiting to retry keeps its place; such requests are resent in the
        order of their retry times. After a failure nothing new is sent:
        answers already queued are still yielded, then the first failure is
        raised. Every connection the call opened is closed when it ends."""
        import heapq  # here, not at module level: runs that call no server skip it

        todo = iter(requests)
        # Descriptor -> connection: its socket, whether it has answered, whether it pipelines, its requests sent
        # and not answered as (request, attempt, first send, send), its bytes not parsed, its last answer's time.
        conns: dict[int, SimpleNamespace] = {}
        ready: list = []  # (request, attempt, first send) to send now
        waiting: list = []  # heap of (retry time, request, attempt, first send)
        errors: list[BackendError] = []
        poller = select.poll()
        depth = lambda conn: PIPELINE_DEPTH if self._pipelining and conn.pipelines else 1  # noqa: E731
        deadline = lambda conn: max(conn.queue[0][3], conn.since) + self.timeout_s  # noqa: E731  of its next answer

        def stop(error: BackendError) -> None:
            errors.append(error)
            waiting.clear()
            ready.clear()

        def retry(request, attempt, started, failure, retry_after=None) -> None:
            """Queue the request's next attempt, or stop after its last."""
            if attempt + 1 >= self.max_retries:
                stop(BackendError(f"backend unreachable after {self.max_retries} attempts: {failure}"))
            elif not errors:
                delay = min(BACKOFF_CAP_S, self.backoff_s * 2**attempt if retry_after is None else retry_after)
                self.retries += 1
                log.debug("retrying %s in %.2f s after: %s", self._url, delay, failure)
                heapq.heappush(waiting, (time.monotonic() + delay, request, attempt + 1, started))

        def drop(conn: SimpleNamespace, failure: OSError | None = None) -> None:
            """Close ``conn`` and resend its queued requests at no cost; after ``failure`` the first uses an
            attempt, unless the connection had answered and then ended before that answer's first byte."""
            poller.unregister(conn.sock)
            del conns[conn.sock.fileno()]
            conn.sock.close()
            if isinstance(failure, TimeoutError) and len(conn.queue) > 1 and self._pipelining:
                self._pipelining = False
                log.warning("%s timed out with requests pipelined behind it: pipelining is off", self._url)
            if failure is not None and not (conn.answered and isinstance(failure, ConnectionError) and not conn.buf):
                retry(*conn.queue.pop(0)[:3], failure)
            ready[:0] = [entry[:3] for entry in conn.queue if not errors]
            conn.queue.clear()

        def receive(conn: SimpleNamespace):
            """Read ``conn``'s answers in order while they arrive, yielding each result."""
            if not conn.queue:
                drop(conn)  # closed by the server, or bytes no request asked for
            while conn.queue:
                request, attempt, started, _ = conn.queue[0]
                try:  # past its deadline, an answer not arrived fails here
                    status, headers, data, reusable = self._read_answer(conn.sock, conn.buf, deadline(conn))
                except OSError as exc:
                    return drop(conn, exc)
                del conn.queue[0]
                conn.answered, conn.since = True, time.monotonic()
                if status == 429 or status >= 500:
                    retry_after = _retry_after_s(headers.get("retry-after")) if status == 429 else None
                    retry(request, attempt, started, BackendError(f"{self._url} returned {status}"), retry_after)
                elif status != 200:
                    stop(BackendError(f"{self._url} returned {status}", kind="protocol"))
                else:
                    conn.pipelines |= reusable
                    try:
                        obj = json.loads(data)
                        result = TokenLogprobs.clamped(obj["tokens"], obj["logprobs"], str(obj["backend_id"]))
                    except (KeyError, TypeError, ValueError, OverflowError) as exc:
                        stop(BackendError(f"malformed score response from {self._url}: {exc!r}", kind="protocol"))
                    else:
                        first = self._server_id = result.backend_id if self._server_id is None else self._server_id
                        if result.backend_id != first:
                            stop(BackendError(f"{self._url} answered as {result.backend_id!r} after {first!r}",
                                              kind="protocol"))
                        else:
                            yield request, result, time.monotonic() - started
                # Bytes past an answer begin the next one; with none queued, they drop the connection.
                unread = conn.buf or (self._tls is not None and conn.sock.pending())
                if not reusable or (unread and not conn.queue):
                    drop(conn)
                if not unread:
                    return

        try:
            while True:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    ready.append(heapq.heappop(waiting)[1:])
                free = in_flight - len(waiting) + sum(depth(conn) - 1 - len(conn.queue) for conn in conns.values())
                while not errors and len(ready) < free and (request := next(todo, None)):
                    ready.append((request, 0, now))
                while ready:
                    if len(conns) < in_flight:
                        try:
                            sock = self._connect()
                        except OSError as exc:
                            retry(*ready.pop(0), exc)
                            continue
                        conn = conns[sock.fileno()] = SimpleNamespace(sock=sock, answered=False, pipelines=False,
                                                                      queue=[], buf=bytearray(), since=0.0)
                        poller.register(sock, select.POLLIN)
                    else:
                        conn = max(conns.values(), key=lambda c: depth(c) - len(c.queue))
                    if (room := depth(conn) - len(conn.queue)) <= 0:
                        break
                    batch, ready[:room] = ready[:room], []
                    conn.queue += [(*entry, time.monotonic()) for entry in batch]
                    bodies = [json.dumps(request._asdict()).encode() for request, *_ in batch]
                    try:  # in one send, after undoing the timeout the last answer's read shortened
                        conn.sock.settimeout(self.timeout_s)
                        conn.sock.sendall(b"".join(b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(b), b)
                                                   for b in bodies))
                    except OSError as exc:
                        drop(conn, exc)
                deadlines = [deadline(conn) for conn in conns.values() if conn.queue]
                if not deadlines and not waiting:
                    break
                # With nothing in flight, poll watches no socket and sleeps until the next retry.
                timeout = max(0.0, min(deadlines + [e[0] for e in waiting[:1]]) - time.monotonic())
                polled = {fd for fd, _ in poller.poll(1000 * timeout)}
                now = time.monotonic()
                for conn in [c for fd, c in conns.items() if fd in polled or c.queue and deadline(c) <= now]:
                    yield from receive(conn)
            if errors:
                raise errors[0]
        finally:
            for conn in conns.values():
                conn.sock.close()

    def _read_answer(self, sock, buf: bytearray, deadline: float) -> tuple[int, dict[str, str], bytearray, bool]:
        """``(status, headers, body, reusable)`` of the next answer, read from ``buf``
        and ``sock`` by ``deadline`` (each read waits for the time left), 1xx heads
        skipped, header names lower-cased; ``buf`` keeps the bytes past it, or all of
        an answer not read whole. A head over :data:`MAX_HEAD_BYTES` or not HTTP/1.x,
        or a body over :data:`MAX_ANSWER_BYTES` (by ``Content-Length``, then unread, or
        as read), is an ``OSError``. Only an HTTP/1.1 answer framed by length or
        chunks, with no ``Connection: close``, leaves ``sock`` reusable."""
        pos = 0  # bytes of buf parsed

        def fill(eof_ends: bool = False) -> bytes:
            if (left := deadline - time.monotonic()) <= 0:
                raise TimeoutError("answer not read by its deadline")
            sock.settimeout(left)
            if not (chunk := sock.recv(65536)) and not eof_ends:
                raise ConnectionError(f"the server closed the connection {'mid-answer' if buf else 'before answering'}")
            buf.extend(chunk)
            return chunk

        def take(size: int, skip: int = 0) -> bytearray:
            nonlocal pos
            while len(buf) < pos + size + skip:
                fill()
            pos += size + skip
            return buf[pos - size - skip : pos - skip]

        def line(end: bytes = b"\r\n") -> str:
            while (size := buf.find(end, pos) - pos) < 0 or size > MAX_HEAD_BYTES:
                if len(buf) - pos > MAX_HEAD_BYTES:
                    raise OSError(f"answer head exceeds {MAX_HEAD_BYTES} bytes")
                fill()
            return take(size, len(end)).decode("latin-1")

        status = 100
        while 100 <= status < 200:
            status_line, *fields = line(b"\r\n\r\n").split("\r\n")
            if not (match := _STATUS_LINE.fullmatch(status_line)) or not all(":" in field for field in fields):
                raise OSError(f"malformed answer head {status_line[:80]!r}")
            status = int(match[2])
        headers = {name.strip().lower(): value.strip() for name, _, value in (f.partition(":") for f in fields)}
        reusable = match[1] == "1" and "close" not in headers.get("connection", "").lower()
        body, length = bytearray(), headers.get("content-length")
        if headers.get("transfer-encoding", "").lower() == "chunked":
            while (match := _CHUNK_SIZE.fullmatch(size_line := line())) and (size := int(match[1], 16)):
                if len(body) + size > MAX_ANSWER_BYTES:
                    raise OSError(f"answer exceeds {MAX_ANSWER_BYTES} bytes")
                body += take(size, 2)  # and the CRLF after the chunk
            if not match:
                raise OSError(f"malformed chunk size line {size_line[:80]!r}")
            while line():  # trailer fields
                pass
        elif length is not None:
            if not (length.isascii() and length.isdigit()) or int(length) > MAX_ANSWER_BYTES:
                raise OSError(f"answer length {length[:40]!r} is malformed or exceeds {MAX_ANSWER_BYTES} bytes")
            body = take(int(length))
        elif status not in (204, 304):  # framed by the server's close
            while len(buf) - pos <= MAX_ANSWER_BYTES and fill(eof_ends=True):
                pass
            if len(buf) - pos > MAX_ANSWER_BYTES:
                raise OSError(f"answer exceeds {MAX_ANSWER_BYTES} bytes")
            body, reusable = take(len(buf) - pos), False
        del buf[:pos]
        return status, headers, body, reusable


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
    from email.utils import parsedate_to_datetime  # deferred: only a 429 with a date needs it

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
    return totals if all(map(math.isfinite, totals)) and max(totals, default=0) <= 0 else None  # checked in C


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


def _latency_ms(latencies_s: list[float], fraction: float) -> float:
    """Nearest-rank quantile of backend call latencies, in ms; 0 without calls."""
    ordered = sorted(latencies_s) or [0.0]
    return 1000.0 * ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@dataclass(slots=True)
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
        # Each a JSON number (not true), finite and <= 0, checked in C: a warm run builds every profile.
        cells = [*chain.from_iterable(self.values)]
        if not ({*map(type, cells)} <= {int, float} and all(map(math.isfinite, cells)) and max(cells, default=0) <= 0):
            raise ValueError("profile entries must be finite JSON numbers <= 0")


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
    backend: Backend | CachingBackend, jobs: list[tuple[Problem, ReasoningTrace, list[str]]], in_flight: int = 1
) -> tuple[list[list[float]], dict]:
    """Each job's totals, row-major as :func:`information_profile` takes
    them, and the counts of the work done. A job is (problem, trace, answers).

    Through a :class:`CachingBackend`, the distinct trace keys
    (:func:`trace_key`) are looked up in one bulk call. Batches of up to
    :data:`CACHE_BATCH` missed traces, in job order, send their distinct
    cells not yet scored to the inner backend's ``score_many``, up to
    ``in_flight`` at once, so a problem's traces share their
    step-0 cells. Each batch's rows are stored in one call. When scoring
    fails, the rows of every missed trace whose cells all came back are
    stored, and the error carries the counts as ``counts``.

    The counts are ``backend_calls`` completed, ``retries``, ``cache_hits``
    and ``cache_misses`` per distinct trace (0 without a cache) and
    ``rows_stored``. On success they also hold ``connections`` opened;
    ``cache_damaged``, the cache rows discarded; ``chars_sent``, the context
    and continuation characters of the cells scored; ``chars_linear``, the
    paper's linear cost of the jobs, |q| + sum|steps| + (N+1) * sum|answers|
    characters each; the backend latency quantiles and the cache hit rate.
    """
    cache, inner = (backend.cache, backend.inner) if isinstance(backend, CachingBackend) else (None, backend)
    keys = [trace_key(backend.backend_id, problem.question, trace.steps, answers) for problem, trace, answers in jobs]
    distinct = dict(zip(keys, jobs))
    counts = {"backend_calls": 0, "retries": 0, "cache_hits": 0, "cache_misses": 0, "rows_stored": 0}
    damaged = 0
    retries_before, connections_before = inner.retries, inner.connections
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
        for start in range(0, len(missed), CACHE_BATCH):
            cells = {key: profile_requests(*distinct[key]) for key in missed[start : start + CACHE_BATCH]}
            try:
                todo = [cell for cell in dict.fromkeys(c for cs in cells.values() for c in cs) if cell not in done]
                for request, logprobs, latency_s in inner.score_many(todo, in_flight):
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
        counts["retries"] = inner.retries - retries_before
    lookups = counts["cache_hits"] + counts["cache_misses"]
    counts.update(
        connections=inner.connections - connections_before,
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


def make_backend(backend_spec: str, cache_dir: str | Path | None = None, **http_options) -> Backend | CachingBackend:
    """Build a backend from its config string: ``reference:<fixture path>``
    names the reference model by its file, an http:// or https:// URL an
    :class:`HttpBackend` built with ``http_options``. A cache directory, when
    given, pairs the backend with its ScoreCache in a CachingBackend."""
    if backend_spec.startswith("reference:"):
        backend: Backend | CachingBackend = ReferenceModel.from_file(backend_spec.split(":", 1)[1])
    elif backend_spec.startswith(("http://", "https://")):
        backend = HttpBackend(backend_spec, **http_options)
    else:
        raise ConfigError(f"unrecognized backend spec: {backend_spec!r}")
    if cache_dir is not None:
        backend = CachingBackend(backend, ScoreCache(cache_dir))
    return backend
