"""Loopback scoring server for the ``cold-http`` workload.

Serves ``POST /v1/score`` from a :class:`steplab.scoring.ReferenceModel`
fixture over HTTP/1.1 keep-alive and answers every other method or path
with 404. At most ``--max-connections`` connections are served at once;
further ones wait in the listen backlog.

Control runs over the standard streams, never over HTTP:

* once listening, the server prints ``{"port": N}`` on one line;
* each ``stats`` line on stdin is answered with one JSON line of counters
  (requests, bytes_in, errors, busy_s);
* end of stdin shuts the server down and the process exits with code 0.

Usage: ``python3 bench/stub_server.py --model reference_model.json``
(with ``src`` on ``PYTHONPATH``).
"""

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from steplab.scoring import ReferenceModel, ScoringRequest

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.bytes_in = 0
        self.errors = 0
        self.busy_s = 0.0

    def add(self, bytes_in: int, status: int, busy_s: float) -> None:
        with self._lock:
            self.requests += 1
            self.bytes_in += bytes_in
            self.errors += status != 200
            self.busy_s += busy_s

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "bytes_in": self.bytes_in,
                "errors": self.errors,
                "busy_s": self.busy_s,
            }


class ScoreHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    model: ReferenceModel
    counters: Counters

    def _answer(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        # One write per response: a separate header write followed by a body
        # write stalls on Nagle's algorithm against the client's delayed ACK.
        self.wfile.write(head + body)

    def _handle(self) -> None:
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if self.command != "POST" or self.path != "/v1/score":
            status, payload = 404, {"error": f"no route for {self.command} {self.path}"}
        else:
            try:
                body = json.loads(raw)
                result = self.model.score(ScoringRequest(body["context"], body["continuation"]))
                status = 200
                payload = {
                    "tokens": result.tokens,
                    "logprobs": result.logprobs,
                    "backend_id": self.model.backend_id,
                }
            except (ValueError, KeyError, TypeError) as exc:
                status, payload = 400, {"error": str(exc)}
        self._answer(status, payload)
        self.counters.add(len(raw), status, time.perf_counter() - start)

    do_POST = do_GET = do_PUT = do_DELETE = do_PATCH = _handle

    def log_message(self, *args):
        pass


class BoundedServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler, max_connections: int):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(max_connections)

    def process_request(self, request, client_address):
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", required=True, help="reference_model.json fixture")
    parser.add_argument("--max-connections", type=int, default=2)
    args = parser.parse_args()
    handler = type(
        "Handler",
        (ScoreHandler,),
        {"model": ReferenceModel.from_file(args.model), "counters": Counters()},
    )
    server = BoundedServer(("127.0.0.1", 0), handler, args.max_connections)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(handler.counters.snapshot()), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
