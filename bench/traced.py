"""Traced child: run pipeline stages with per-layer spans and counters.

Usage: ``python3 bench/traced.py SPEC_JSON OUT_JSON`` (with ``src`` on
``PYTHONPATH``). SPEC_JSON holds ``config_file``, ``overrides`` (passed to
``steplab.pipeline.load_config``) and ``stages``. The public ``stage_*``
functions run in ``STAGES`` order, each inside a ``pipeline.<stage>`` span.
OUT_JSON receives the spans and the per-layer values.

No tracing lives in the program. Public functions are replaced where
callers look them up (``from ... import`` binds names at import time, so
``steplab.pipeline.read_jsonl`` is patched, not ``steplab.ioutil``):

* a *span* records name, start, end, parent and self time;
* a *tally* adds calls and busy time only, for calls too frequent to keep
  a record each;
* a *count* adds calls only, for leaves hot enough that reading the clock
  would distort the result (``assign_labels``).

Generators are timed over their iteration. Each thread keeps its own stack
and accumulators, because ``information_profile`` scores on executor
threads. Everything stays in memory until the run ends.
"""

import importlib
import inspect
import itertools
import json
import logging
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean
from types import SimpleNamespace

from steplab import pipeline
from steplab.analysis import ComplexityParams, tokens_mcnig
from steplab.scoring import CachingBackend


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.unique_requests: set[tuple[str, str]] = set()
        self._threads: list[SimpleNamespace] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> SimpleNamespace:
        state = getattr(self._local, "state", None)
        if state is None:
            state = SimpleNamespace(stack=[], acc=defaultdict(float), samples=defaultdict(list))
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def add(self, name: str, amount: float = 1) -> None:
        self._state().acc[name] += amount

    def timed(self, layer: str, fn, span: bool = False, note=None, latency: bool = False):
        """Wrap ``fn`` so each call adds to ``<layer>.calls`` and ``<layer>.busy_s``."""

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = None
            if span:
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            frame = [next(self._ids) if span else None, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                state.acc[layer + ".calls"] += 1
                state.acc[layer + ".busy_s"] += duration
                if latency:
                    state.samples[layer + ".latency_s"].append(duration)
                if span:
                    self.spans.append(
                        {
                            "id": frame[0],
                            "parent": parent,
                            "name": layer,
                            "thread": threading.current_thread().name,
                            "start": start,
                            "end": end,
                            "self_s": duration - frame[1],
                        }
                    )
            if inspect.isgenerator(result):
                result = self._timed_iteration(layer, result)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def _timed_iteration(self, layer: str, gen):
        while True:
            state = self._state()
            stack = state.stack
            stack.append([None, 0.0])
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                state.acc[layer + ".busy_s"] += duration
            state.acc[layer + ".records"] += 1
            yield item

    def counted(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self._state().acc[layer + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        acc: dict[str, float] = defaultdict(float)
        samples: dict[str, list[float]] = defaultdict(list)
        with self._lock:
            for state in self._threads:
                for name, value in state.acc.items():
                    acc[name] += value
                for name, values in state.samples.items():
                    samples[name].extend(values)
        return acc, samples


def _note_profile(rec: Recorder, args, result) -> None:
    problem, trace, answers = args[:3]
    params = ComplexityParams(
        steps=len(trace.steps),
        tokens_per_step=fmean(len(s) for s in trace.steps),
        sampled_answers=len(answers),
        answer_tokens=fmean(len(a) for a in answers),
        question_tokens=len(problem.question),
    )
    rec.add("scoring.mcnig_tokens", tokens_mcnig(params))


def _note_size(layer: str):
    def note(rec: Recorder, args, result) -> None:
        rec.add(layer + ".bytes", Path(args[0]).stat().st_size)

    return note


def _note_shards(rec: Recorder, args, result) -> None:
    rec.add("dataset_emit.records", len(args[0]))
    rec.add("dataset_emit.bytes", sum(p.stat().st_size for p in result))


def _note_cache_get(rec: Recorder, args, result) -> None:
    rec.add("scoring.cache.get.hits", result is not None)


def _instrument_backend(rec: Recorder, args, backend) -> None:
    """Count requests at the pipeline's backend and time the layers below it."""
    if isinstance(backend, CachingBackend):
        cache = backend.cache
        cache.get = rec.timed("scoring.cache.get", cache.get, note=_note_cache_get)
        cache.put = rec.timed("scoring.cache.put", cache.put)
        inner = backend.inner
    else:
        inner = backend
    inner.score = rec.timed("scoring.backend", inner.score, latency=True)
    outer_score = backend.score

    def score(request):
        rec.unique_requests.add((request.context, request.continuation))
        rec.add("scoring.requests")
        rec.add("scoring.chars_sent", len(request.context) + len(request.continuation))
        return outer_score(request)

    backend.score = score


# (module, attribute, layer, kind, note)
PATCHES = [
    ("steplab.pipeline", "make_backend", "scoring.make_backend", "span", _instrument_backend),
    ("steplab.scoring", "ScoreCache", "scoring.cache.open", "span", None),
    ("steplab.pipeline", "information_profile", "scoring.profile", "span", _note_profile),
    ("steplab.pipeline", "percentile_grid", "calibration.grid", "span", None),
    ("steplab.pipeline", "sweep_threshold", "calibration.sweep", "span", None),
    ("steplab.pipeline", "mcnig_signal", "infogain.signal", "tally", None),
    ("steplab.pipeline", "ig_signal", "infogain.signal", "tally", None),
    ("steplab.pipeline", "assign_labels", "infogain.assign_labels", "count", None),
    ("steplab.calibration", "assign_labels", "infogain.assign_labels", "count", None),
    ("steplab.pipeline", "emit_prm_record", "dataset_emit", "tally", None),
    ("steplab.pipeline", "emit_orm_record", "dataset_emit", "tally", None),
    ("steplab.pipeline", "write_shards", "dataset_emit", "span", _note_shards),
    ("steplab.pipeline", "label_balance", "dataset_emit", "span", None),
    ("steplab.pipeline", "best_of_k", "evaluation", "span", None),
    ("steplab.pipeline", "majority_best_of_k", "evaluation", "span", None),
    ("steplab.pipeline", "read_jsonl", "ioutil.read", "tally", None),
    ("steplab.trace_model", "read_jsonl", "ioutil.read", "tally", None),
    ("steplab.pipeline", "write_jsonl", "ioutil.write", "tally", _note_size("ioutil.write")),
    ("steplab.trace_model", "write_jsonl", "ioutil.write", "tally", _note_size("ioutil.write")),
    ("steplab.pipeline", "atomic_write_text", "ioutil.write", "tally", _note_size("ioutil.write")),
    ("steplab.pipeline", "sha256_file", "ioutil.digest", "tally", _note_size("ioutil.digest")),
    ("steplab.pipeline", "parse_trace", "trace_model.parse", "tally", None),
    ("steplab.pipeline", "filter_and_subsample", "trace_model.subsample", "span", None),
    ("steplab.pipeline", "read_problems", "trace_model.io", "span", None),
    ("steplab.pipeline", "read_traces", "trace_model.io", "span", None),
    ("steplab.pipeline", "read_raw_traces", "trace_model.io", "span", None),
    ("steplab.pipeline", "write_problems", "trace_model.io", "span", None),
    ("steplab.pipeline", "write_traces", "trace_model.io", "span", None),
    ("steplab.validators", "validate", "validators", "tally", None),
]


def install(rec: Recorder) -> None:
    for module_name, attr, layer, kind, note in PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if kind == "count":
            wrapped = rec.counted(layer, fn)
        else:
            wrapped = rec.timed(layer, fn, span=kind == "span", note=note)
        setattr(module, attr, wrapped)


def _quantile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(rec: Recorder) -> dict[str, float]:
    """Per-layer values known inside this process, by benchmark metric name."""
    acc, samples = rec.totals()
    latencies = samples["scoring.backend.latency_s"]
    requests = acc["scoring.requests"]
    values = {
        "scoring.requests": requests,
        "scoring.unique_requests": len(rec.unique_requests),
        "scoring.useful_ratio": _ratio(len(rec.unique_requests), requests),
        "scoring.backend.calls": acc["scoring.backend.calls"],
        "scoring.backend.busy_s": acc["scoring.backend.busy_s"],
        "scoring.backend.p50_ms": _quantile_ms(latencies, 0.50),
        "scoring.backend.p99_ms": _quantile_ms(latencies, 0.99),
        "scoring.chars_sent": acc["scoring.chars_sent"],
        "scoring.chars_vs_mcnig": _ratio(acc["scoring.chars_sent"], acc["scoring.mcnig_tokens"]),
        "scoring.profile.busy_s": acc["scoring.profile.busy_s"],
        "scoring.cache.get.calls": acc["scoring.cache.get.calls"],
        "scoring.cache.get.busy_s": acc["scoring.cache.get.busy_s"],
        "scoring.cache.hit_rate": _ratio(acc["scoring.cache.get.hits"], acc["scoring.cache.get.calls"]),
        "scoring.cache.open_s": acc["scoring.cache.open.busy_s"],
        "scoring.cache.put.calls": acc["scoring.cache.put.calls"],
        "scoring.cache.put.busy_s": acc["scoring.cache.put.busy_s"],
        "calibration.sweep.busy_s": acc["calibration.sweep.busy_s"],
        "calibration.grid.busy_s": acc["calibration.grid.busy_s"],
        "infogain.signal.busy_s": acc["infogain.signal.busy_s"],
        "infogain.assign_labels.calls": acc["infogain.assign_labels.calls"],
        "dataset_emit.records": acc["dataset_emit.records"],
        "dataset_emit.busy_s": acc["dataset_emit.busy_s"],
        "dataset_emit.bytes": acc["dataset_emit.bytes"],
        "evaluation.busy_s": acc["evaluation.busy_s"],
        "ioutil.read.records": acc["ioutil.read.records"],
        "ioutil.read.busy_s": acc["ioutil.read.busy_s"],
        "ioutil.write.bytes": acc["ioutil.write.bytes"],
        "ioutil.write.busy_s": acc["ioutil.write.busy_s"],
        "ioutil.digest.bytes": acc["ioutil.digest.bytes"],
        "ioutil.digest.busy_s": acc["ioutil.digest.busy_s"],
        "trace_model.parse.calls": acc["trace_model.parse.calls"],
        "trace_model.parse.busy_s": acc["trace_model.parse.busy_s"],
        "trace_model.subsample.busy_s": acc["trace_model.subsample.busy_s"],
        "trace_model.io.busy_s": acc["trace_model.io.busy_s"],
        "validators.calls": acc["validators.calls"],
        "validators.busy_s": acc["validators.busy_s"],
    }
    stage_spans = [s for s in rec.spans if s["name"].startswith("pipeline.")]
    for stage in pipeline.STAGES:
        values[f"pipeline.{stage}.s"] = sum(
            s["end"] - s["start"] for s in stage_spans if s["name"] == f"pipeline.{stage}"
        )
    values["pipeline.self_s"] = sum(s["self_s"] for s in stage_spans)
    return values


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    cfg = pipeline.load_config(config_file=spec["config_file"], overrides=spec["overrides"])
    cfg.out.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    install(rec)
    for stage in pipeline.STAGES:
        if stage in spec["stages"]:
            run_stage = rec.timed(f"pipeline.{stage}", getattr(pipeline, f"stage_{stage}"), span=True)
            run_stage(cfg)
    out = {"layers": layer_values(rec), "spans": rec.spans}
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
