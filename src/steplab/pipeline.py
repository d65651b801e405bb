"""Stage orchestration: ingest, validate, score, signals, sweep, label,
emit, eval.

Each stage reads the previous stage's JSONL artifacts from the run
directory, writes its own atomically, and records a manifest with input
digests and per-item drop reasons. A stage whose inputs and configuration
are unchanged is skipped on re-run, which makes the expensive scoring stage
idempotent. Outputs are byte-stable given identical inputs, configuration,
and seed; only manifests carry timestamps.

Every stage is one row of :data:`STAGE_TABLE`, run by :func:`run_stage`;
the CLI derives its subcommands and flags from the same table. Every
artifact is one row of :data:`ARTIFACTS`, read and written by :class:`StageIO`.
"""

import fcntl
import gc
import json
import logging
import math
import os
import shutil
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable

from . import __version__
from .calibration import percentile_grid, sweep_threshold
from .dataset_emit import (
    RecordLines, check_reserved, emit_orm_record, emit_prm_record, label_balance, trace_fragment, write_shards,
)
from .errors import ConfigError, DataError, ReservedSymbolError, Terminated, UndefinedMetricError, exit_code
from .evaluation import best_of_k, majority_best_of_k, oracle_score, random_scorer, step_product_scorer
from .infogain import AGGREGATIONS, REFERENCES, StepSignal, assign_labels, ig_signal, mcnig_signal
from .ioutil import (
    atomic_write_text, input_digest, input_file, read_jsonl, row_object, sha256_file, sha256_text, write_jsonl,
)
from .scoring import InformationProfile, information_profile, make_backend, score_traces
from .trace_model import (
    DOMAINS,
    AnswerPool,
    Problem,
    ReasoningTrace,
    build_answer_pool,
    filter_and_subsample,
    normalize_answer,
    parse_trace,
    read_problems,
    read_raw_traces,
)
from .trace_model import read_traces, write_problems, write_traces  # noqa: F401  only bench/traced.py patches these
from .validators import make_validator

log = logging.getLogger(__name__)

EVAL_SCORERS = ("step-product", "orm", "label-product", "oracle", "random", "majority")


def _option(default, *, flag=None, choices=None, least=None, env=None, key=None, fingerprint=True, file=None):
    """A RunConfig field with its option's facts as metadata: its subcommand
    ``flag``, allowed ``choices`` (of each item, for a list), lower bound
    ``least``, environment variable ``env`` and fingerprint name ``key``, if
    not the field's. A stage fingerprints each field it reads but a ``file``,
    which names that file in messages and whose bytes are digested, and one
    marked ``fingerprint=False``: a setting that does not change what it writes."""
    fingerprint = fingerprint and not file
    metadata = dict(flag=flag, choices=choices, least=least, env=env, key=key, fingerprint=fingerprint, file=file)
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    problems: str = _option("", flag="--problems", file="problems")
    traces: str = _option("", flag="--traces", file="traces")
    out_dir: str = _option("")
    backend: str = _option("", env="STEPLAB_BACKEND_URL", fingerprint=False)  # _prepare_score adds its id
    cache_dir: str = _option("", env="STEPLAB_CACHE_DIR", fingerprint=False)
    seed: int = _option(0)
    domains: list[str] = _option([], flag="--domains", choices=DOMAINS)
    method: str = _option("mcnig", flag="--method", choices=("ig", "mcnig"))
    aggregation: str = _option("max", flag="--aggregation", choices=tuple(AGGREGATIONS))
    reference: str = _option("step0", flag="--reference", choices=REFERENCES)
    k_subsample: int = _option(8, flag="--k-subsample", least=1)
    thresholds_file: str = _option("", flag="--thresholds", file="thresholds")
    concurrency_limit: int = _option(1, flag="--concurrency", least=1, fingerprint=False)
    backend_timeout_s: float = _option(30.0, fingerprint=False)
    backend_retries: int = _option(3, least=1, fingerprint=False)
    backend_backoff_s: float = _option(0.5, fingerprint=False)
    grid_size: int = _option(256, flag="--grid-size", least=1)
    eval_scorer: str = _option("label-product", flag="--scorer", choices=EVAL_SCORERS, key="scorer")
    eval_k: int = _option(8, flag="--k", least=1, key="k")
    step_scores: str = _option("", flag="--step-scores", file="step scores")
    split: str = _option("train", flag="--split")
    shard_size: int = _option(100_000, flag="--shard-size", least=1)
    force: bool = _option(False)

    def __post_init__(self):
        """The one place where configuration is validated; each value has its field's type (an int is a float)."""
        for f in fields(self):
            value, choices, least = getattr(self, f.name), f.metadata["choices"], f.metadata["least"]
            if type(value) not in ((int, float) if f.type is float else (getattr(f.type, "__origin__", f.type),)):
                raise ConfigError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
            for item in (value if isinstance(value, list) else [value]) if choices else ():
                if item not in choices:  # so each item of domains is a string
                    raise ConfigError(f"unknown {f.name}: {item!r}; choose from {choices}")
            if least is not None and value < least:
                raise ConfigError(f"{f.name} must be an integer of at least {least}, got {value!r}")
        if not 0 < self.backend_timeout_s < math.inf:  # at 0, each answer's deadline has passed when it is sent
            raise ConfigError(f"backend_timeout_s must be a finite number above 0, got {self.backend_timeout_s!r}")
        if not 0 <= self.backend_backoff_s < math.inf:
            raise ConfigError(f"backend_backoff_s must be a finite number of seconds, got {self.backend_backoff_s!r}")
        if self.eval_scorer in ("step-product", "orm") and not self.step_scores:
            raise ConfigError(f"scorer {self.eval_scorer!r} needs --step-scores with per-trace probabilities")
        if not self.split or "/" in self.split:
            raise ConfigError(f"split must be a non-empty name without '/', got {self.split!r}")
        for name in ("out_dir", "cache_dir"):  # mkdir makes each: its nearest existing path must be a directory
            path = Path(getattr(self, name))
            nearest = next(p for p in (path, *path.parents) if p.exists())
            if not nearest.is_dir():
                raise ConfigError(f"{name} {getattr(self, name)!r} cannot be a directory: {str(nearest)!r} is not one")

    @property
    def out(self) -> Path:
        if not self.out_dir:
            raise ConfigError("out_dir is not configured")
        return Path(self.out_dir)


OPTIONS = {f.name: f.metadata for f in fields(RunConfig)}  # each option's facts, by field name


def comma_list(text: str) -> list[str]:
    """Comma-separated items, stripped, empty items dropped."""
    return [part.strip() for part in text.split(",") if part.strip()]


_BOOLS = {"true": True, "false": False}
_PARSERS = {str: str, int: int, float: float, bool: lambda text: _BOOLS[text.lower()], list[str]: comma_list}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    """The value of option ``key`` given as text, parsed by its field's type."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    try:
        return _PARSERS[_FIELD_TYPES[key]](text)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: cannot read {text!r} as {_FIELD_TYPES[key].__name__}") from None


def parse_config_file(path: str | Path) -> dict:
    """Flat key = value config format with # comments.

    Quotes around a value are optional; each value is parsed by its
    option's type (:func:`_parse_value`)."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = (part.strip() for part in line.partition("="))
        if len(raw) >= 2 and raw[0] == raw[-1] == '"':
            raw = raw[1:-1]
        values[key] = _parse_value(key, raw)
    return values


def load_config(config_file: str | None = None, overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Merge config sources: file, then environment, then explicit overrides.

    Each text value is parsed by its field's type; a non-text override, from
    Python code, is taken as it is. A None override leaves the field alone."""
    env = os.environ if env is None else env
    values: dict = {}
    if config_file:
        values.update(parse_config_file(input_file(config_file, "config")))
    from_env = {name: env.get(option["env"]) or None for name, option in OPTIONS.items() if option["env"]}
    for key, value in [*from_env.items(), *(overrides or {}).items()]:
        if value is not None:
            values[key] = _parse_value(key, value) if isinstance(value, str) else value
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Stage inputs, entries and artifacts


def _require(paths: list[Path], stage: str) -> None:
    """Each need of ``stage`` must be a regular file (:func:`input_file`): a FIFO can block a read."""
    for path in paths:
        if not path.exists():
            raise ConfigError(f"stage {stage!r} needs {path}; run the upstream stage first")
        input_file(path, f"stage {stage!r} input")


def _files(paths: list[Path]) -> list[Path]:
    """The paths, with each directory replaced by its sorted JSONL files."""
    return [child for p in paths for child in (sorted(p.glob("*.jsonl")) if p.is_dir() else [p])]


def _write_json(path: Path, obj: Any) -> None:
    """The one writer of a JSON artifact or stage entry: indented, to be read by eye."""
    atomic_write_text(path, json.dumps(obj, ensure_ascii=False, indent=1))


def _fingerprint(digests: list[str], config_keys: dict) -> str:
    """Hash of the input digests, in input order, and the config: not of the
    input paths, so a moved or renamed run directory stays up to date."""
    return sha256_text(json.dumps({"inputs": digests, "config": config_keys}, sort_keys=True))


def _stage_manifest_path(out: Path, stage: str) -> Path:
    return out / "stages" / f"{stage}.json"


def _maybe_skip(out: Path, stage: str, fingerprint: str) -> dict | None:
    """The stage's stored entry when the stage is up to date, else None. A
    damaged one (:func:`_stage_entry`) is out of date, so the stage reruns."""
    try:
        stored = _stage_entry(json.loads(_stage_manifest_path(out, stage).read_text(encoding="utf-8")))
    except (FileNotFoundError, ValueError):
        return None
    if (stored["name"], stored["fingerprint"]) != (stage, fingerprint):
        return None
    if not all((out / o).exists() for o in stored["outputs"]):
        return None
    stored["skipped"] = True
    log.info("stage %s is up to date, skipped", stage)
    return stored


def _fits(value: Any, spec: Any) -> bool:
    """Whether a JSON ``value`` fits ``spec``: its exact type (``true`` is a
    bool, not an int), a check, or a dict of the specs of an object's fields."""
    if type(spec) is dict:
        return type(value) is dict and all(_fits(value.get(name), field) for name, field in spec.items())
    return type(value) is spec if type(spec) is type else spec(value)


def _counts(counts: Any) -> bool:
    """Whether ``counts`` holds every count of each report part whose first count it holds."""
    return type(counts) is dict and all(_fits(counts, spec) for spec, _ in _REPORT if next(iter(spec)) in counts)


_NUM = lambda value: type(value) in (int, float)  # noqa: E731
_DATASET = lambda counts: _counts(counts) and "records" in counts  # noqa: E731  the counts of prm or orm
_DROPS = lambda reasons: reasons and "dropped " + ", ".join(f"{r}={reasons[r]}" for r in sorted(reasons))  # noqa: E731
# The parts of a stage's report line, in order: (the counts a part reads, with
# their specs; its text, from their values). A part prints when its first count
# is present and its text is not empty, 0 or {}. A text that begins ", "
# extends the part before it, whose first count it reads.
_REPORT = (
    ({"records": int}, "records {}".format),  # of a dataset
    ({"problems_in": int, "problems_out": int}, "problems {} -> {}".format),
    ({"dropped_by_reason": dict}, _DROPS),
    ({"validator_errors": int}, lambda errors: errors and f"validator errors {errors}"),
    ({"prm": _DATASET}, lambda prm: "prm " + ", ".join(_report_parts(prm))),
    ({"orm": _DATASET}, lambda orm: "orm " + ", ".join(_report_parts(orm))),
    ({"backend_calls": int, "requests": int, "retries": int}, "requests {1}, backend calls {0}, retries {2}".format),
    ({"connections": int, "backend_calls": int}, lambda connections, _: connections and f", connections {connections}"),
    ({"backend_p50_ms": _NUM, "backend_p99_ms": _NUM, "backend_calls": int},
     ", backend p50 {:.2f} ms, p99 {:.2f} ms".format),
    ({"chars_sent": int, "chars_linear": int},
     lambda sent, linear: f"chars sent {sent}" + (f" ({sent / linear:.1f}x the linear cost)" if linear else "")),
    ({"cache_hit_rate": _NUM}, "cache hit rate {:.1%}".format),
    ({"cache_damaged": int, "cache_hit_rate": _NUM}, lambda damaged, _: damaged and f", damaged rows {damaged}"),
    ({"accuracy": _NUM}, "accuracy {:.4f}".format),
    ({"unscored_candidates": int, "candidates": int}, "candidates {1} ({0} unscored)".format),
)
# A stage's entry as run_stage writes it, and as run_pipeline records a failed stage.
_FINISHED = {
    "name": str, "fingerprint": str, "inputs": dict, "counts": _counts, "wall_s": _NUM, "skipped": bool,
    "outputs": lambda paths: type(paths) is list and all(type(p) is str for p in paths),
}
_FAILED = {"name": str, "error": str, "message": str, "exit_code": int, "counts": dict}


def _stage_entry(entry: Any, failed_too: bool = False) -> dict:
    """``entry`` if it is one stage's entry as :func:`run_stage` writes it or,
    with ``failed_too``, as :func:`run_pipeline` records a failed stage, whose
    counts are ``{}`` when it has none; else ValueError."""
    failed = type(entry) is dict and "error" in entry
    checked = {"counts": {}, **entry} if failed else entry
    if (failed and not failed_too) or not _fits(checked, _FAILED if failed else _FINISHED):
        raise ValueError(f"a stage entry lacks a field, or holds one of another type: {entry!r:.120}")
    return checked


def _report_parts(counts: dict) -> list[str]:
    """The parts of a report line from ``counts``, which :func:`_counts` accepts."""
    parts: list[str] = []
    for spec, text in _REPORT:
        if next(iter(spec)) in counts and (part := text(*(counts[name] for name in spec))):
            parts += [parts.pop() + part] if part.startswith(", ") else [part]
    return parts


def _step_labels_row(obj: dict) -> tuple[str, str, list[int]]:
    """A ``step_labels.jsonl`` row as (problem id, trace id, labels): one label
    per step, so at least one, each the integer 0 or 1 (not JSON ``true``)."""
    labels = obj["labels"]
    if type(labels) is not list or not labels or not all(type(l) is int and l in (0, 1) for l in labels):
        raise ValueError(f"labels must be a non-empty list of 0 and 1, got {labels!r}")
    return obj["problem_id"], obj["trace_id"], labels


def _working_set_row(obj: dict) -> tuple[str, list[str]]:
    """A ``working_set.jsonl`` row as (problem id, trace ids), each trace once."""
    trace_ids = obj["trace_ids"]
    if type(trace_ids) is not list or len(set(trace_ids)) != len(trace_ids):
        raise ValueError(f"trace_ids must be a list of distinct trace ids, got {trace_ids!r}")
    return obj["problem_id"], trace_ids


@dataclass(frozen=True)
class Artifact:
    """A run artifact's ``file`` (emit's are shard directories) and, for JSONL,
    its row builder ``make``, the ``key`` it holds one row per, how ``collect``
    gathers rows, how ``encode`` makes a row its line's object and, where a
    line holds more than its row, how ``kept`` makes the row of such an object."""

    file: str
    make: Callable[[dict], Any] | None = None
    key: Callable | None = None
    collect: Callable = list
    encode: Callable[[Any], dict] = row_object
    kept: Callable[[dict], Any] | None = None


# Every run artifact, by its name in the stage table.
_TRACE_KEY = attrgetter("problem_id", "trace_id")
ARTIFACTS = {
    "problems": Artifact("problems.jsonl", Problem.from_json_dict, attrgetter("id"), encode=Problem.to_json_dict),
    "parsed_traces": Artifact("parsed_traces.jsonl", lambda obj: ReasoningTrace(**obj), _TRACE_KEY),
    "pools": Artifact("pools.jsonl", lambda obj: AnswerPool(**obj), attrgetter("problem_id"),
                      collect=lambda pools: {p.problem_id: p for p in pools}),
    "working_set": Artifact("working_set.jsonl", _working_set_row, itemgetter(0),
                            encode=lambda row: {"problem_id": row[0], "trace_ids": row[1]}),
    "profiles": Artifact("profiles.jsonl", lambda obj: InformationProfile(**obj), _TRACE_KEY),
    "signals": Artifact("signals.jsonl", lambda obj: StepSignal(**obj), _TRACE_KEY),
    # A line holds its signal's fields and threshold too, which no stage reads.
    "step_labels": Artifact("step_labels.jsonl", _step_labels_row, itemgetter(0, 1),
                            encode=dict, kept=itemgetter("problem_id", "trace_id", "labels")),
    "sweep": Artifact("sweep.json"),
    "thresholds": Artifact("thresholds.json"),
    "prm_dir": Artifact("prm"),
    "orm_dir": Artifact("orm"),
    "emit_report": Artifact("emit_report.json"),
    "eval_report": Artifact("eval_report.json"),
    "manifest": Artifact("manifest.json"),
}


def artifact_paths(out: Path) -> dict[str, Path]:
    return {name: out / artifact.file for name, artifact in ARTIFACTS.items()}


@dataclass
class StageIO:
    """A stage body's artifact paths, and the rows of its JSONL artifacts, read
    and written through :data:`ARTIFACTS`. ``digests`` maps each input's path,
    relative to the run directory, to the sha256 its fingerprint took. Rows are
    memoized in ``memo`` under (artifact, digest), so stages sharing one memo
    parse each artifact's bytes once, and none that :meth:`write` wrote. Rows
    are shared: never change them, unless read with ``keep=False``, which takes
    them: popped from the memo, or parsed from the file as the caller iterates."""

    paths: dict[str, Path]
    digests: dict[str, str]
    memo: dict

    def digest(self, key: str) -> str:
        return self.digests[self.paths[key].name]  # each artifact is a file in the run directory

    def rows(self, name: str, keep: bool = True):
        memo_key, artifact = (name, self.digest(name)), ARTIFACTS[name]
        if memo_key not in self.memo:
            rows = read_jsonl(self.paths[name], artifact.make, key=artifact.key)
            if not keep:  # parsed as the caller iterates
                return rows
            self.memo[memo_key] = artifact.collect(rows)
        return self.memo[memo_key] if keep else self.memo.pop(memo_key)

    def write(self, name: str, rows: list) -> None:
        """Write ``rows`` atomically as the JSONL artifact ``name``; hand them on as its reader builds them."""
        artifact = ARTIFACTS[name]
        digest = write_jsonl(self.paths[name], map(artifact.encode, rows))
        self.memo[(name, digest)] = artifact.collect(map(artifact.kept, rows) if artifact.kept else rows)

    @cached_property
    def judged(self) -> dict[tuple[str, str], ReasoningTrace]:
        """The parsed traces, taken from here, by (problem id, trace id), with
        ``correct`` set on each parseable one: its normalized final answer is
        among its answer pool's normalized correct answers. Each (problem,
        final answer) pair is normalized once, and the table is memoized on
        the digests of its three inputs, so stages sharing a memo judge once."""
        paths = self.paths
        memo_key = ("judged", *(self.digest(key) for key in ("problems", "parsed_traces", "pools")))
        if memo_key in self.memo:
            return self.memo[memo_key]
        domain_of = {p.id: p.domain for p in self.rows("problems")}
        pools = self.rows("pools")
        for pid in pools:
            if pid not in domain_of:
                raise DataError(f"{paths['pools']}: pool of problem {pid!r}, which is not in {paths['problems']}")
        correct_keys = {pid: {normalize_answer(a, domain_of[pid]) for a in pool.correct} for pid, pool in pools.items()}
        verdicts: dict[tuple[str, str], bool] = {}
        judged = {(t.problem_id, t.trace_id): t for t in self.rows("parsed_traces", keep=False)}
        for t in judged.values():
            if t.parse_ok:
                key = (t.problem_id, t.final_answer)
                if key not in verdicts:
                    if t.problem_id not in correct_keys:
                        raise DataError(f"{paths['pools']}: no answer pool for problem {t.problem_id!r}")
                    answer = normalize_answer(t.final_answer, domain_of[t.problem_id])
                    verdicts[key] = answer in correct_keys[t.problem_id]
                t.correct = verdicts[key]
        self.memo[memo_key] = judged
        return judged


# ---------------------------------------------------------------------------
# Stage bodies. A body takes the config, its StageIO, and the state its
# stage's prepare hook returned, writes the stage's outputs, and returns the
# counts for the stage manifest.


def _ingest(cfg: RunConfig, io: StageIO, state) -> dict:
    if not (cfg.problems and cfg.traces):
        raise ConfigError("ingest needs --problems and --traces")
    problems = read_problems(cfg.problems)
    domain_of = {p.id: p.domain for p in problems}
    dropped = {pid: "domain_excluded" for pid, domain in domain_of.items() if cfg.domains and domain not in cfg.domains}
    kept = [p for p in problems if p.id not in dropped]

    parsed = []
    traces_in = domain_excluded = parse_failures = 0
    for obj in read_raw_traces(cfg.traces):
        traces_in += 1
        pid = obj["problem_id"]
        if pid not in domain_of:
            where = f"{cfg.traces}: trace {obj['trace_id']!r} names problem {pid!r}"
            raise DataError(f"{where}, which is not in {cfg.problems}")
        if pid in dropped:
            domain_excluded += 1
            continue
        try:
            trace = parse_trace(obj["raw_text"], domain_of[pid], problem_id=pid, trace_id=obj["trace_id"])
        except ValueError as exc:
            raise DataError(f"{cfg.traces}: trace {obj['trace_id']!r}: {exc}") from exc
        if not trace.parse_ok:
            parse_failures += 1
        parsed.append(trace)
    io.write("problems", kept)
    io.write("parsed_traces", parsed)
    return {
        **_drop_counts("problems", len(problems), dropped),
        "traces_in": traces_in,
        "traces_out": len(parsed),
        "traces_domain_excluded": domain_excluded,
        "parse_failures": parse_failures,
    }


def _validate(cfg: RunConfig, io: StageIO, state) -> dict:
    problems = io.rows("problems")
    traces = io.rows("parsed_traces")
    by_problem = _by_problem(traces)

    pools = [build_answer_pool(p, by_problem.get(p.id, []), make_validator(p)) for p in problems]
    io.write("pools", pools)
    return {
        "problems_in": len(problems),
        "problems_out": len(problems),
        "traces_validated": sum(t.parse_ok for t in traces),
        "validator_errors": sum(len(pool.diagnostics) for pool in pools),
    }


def _trace_of(io: StageIO, source: str, problem_id: str, trace_id: str, steps: int | None = None) -> ReasoningTrace:
    """The one check that a per-trace row fits its trace: the parseable judged
    trace a row of the artifact ``source`` names, with ``steps`` steps when
    given, else a DataError naming the row's file and trace. The trace's
    problem has a row in problems.jsonl and a pool (:attr:`StageIO.judged`)."""
    trace = io.judged.get((problem_id, trace_id))
    if trace is not None and trace.parse_ok and steps in (None, len(trace.steps)):
        return trace
    where = f"{io.paths[source]}: trace {trace_id!r} of problem {problem_id!r}"
    if trace is None or not trace.parse_ok:
        raise DataError(f"{where} is not a parseable trace of {io.paths['parsed_traces']}")
    raise DataError(f"{where} has entries for {steps} steps, but the trace has {len(trace.steps)}")


def _prepare_score(cfg: RunConfig):
    """Build the backend: its id is part of the fingerprint."""
    if not cfg.backend:
        raise ConfigError("no scoring backend configured (use --backend or the env override)")
    backend = make_backend(
        cfg.backend, cfg.cache_dir or None,
        timeout_s=cfg.backend_timeout_s, max_retries=cfg.backend_retries, backoff_s=cfg.backend_backoff_s,
    )
    return backend, {"backend": backend.backend_id}


def _score(cfg: RunConfig, io: StageIO, backend) -> dict:
    problems = io.rows("problems")
    pools = io.rows("pools")
    traces = io.judged.values()
    kept, dropped = filter_and_subsample(problems, _by_problem(traces), k=cfg.k_subsample, seed=cfg.seed)
    working = []
    jobs = []
    for problem, kept_traces in kept:
        pool = pools[problem.id]
        answers = list(dict.fromkeys(pool.correct + pool.wrong + [problem.gold_answer]))
        working.append((problem.id, [t.trace_id for t in kept_traces]))
        jobs.extend((problem, trace, answers) for trace in kept_traces)
    totals, counts = score_traces(backend, jobs, in_flight=cfg.concurrency_limit)
    profiles = [information_profile(*job, job_totals) for job, job_totals in zip(jobs, totals)]
    io.write("working_set", working)
    io.write("profiles", profiles)
    return {
        **_drop_counts("problems", len(problems), dropped),
        "traces_scored": len(profiles),
        "requests": sum(map(len, totals)),
        **counts,
    }


def _signals(cfg: RunConfig, io: StageIO, state) -> dict:
    paths = io.paths
    problems = {p.id: p for p in io.rows("problems")}
    pools = io.rows("pools")
    signals = []
    dropped: dict[str, str] = {}
    profile_problems: set[str] = set()
    for profile in io.rows("profiles", keep=False):  # no later stage reads profiles
        profile_problems.add(profile.problem_id)
        _trace_of(io, "profiles", profile.problem_id, profile.trace_id, len(profile.values) - 1)
        if cfg.method == "mcnig":
            pool = pools[profile.problem_id]
            if not pool.correct:
                dropped[profile.problem_id] = "no_correct_answers_in_pool"
                continue
            if not pool.wrong:
                raise DataError(
                    f"{paths['pools']}: trace {profile.trace_id!r} of problem {profile.problem_id!r}"
                    " has no wrong answer in its pool"
                )
            _require_columns(paths["profiles"], profile, pool.correct + pool.wrong)
            signals.append(mcnig_signal(profile, pool, cfg.aggregation, cfg.reference))
        else:
            gold = problems[profile.problem_id].gold_answer
            _require_columns(paths["profiles"], profile, [gold])
            signals.append(ig_signal(profile, gold))
    io.write("signals", signals)
    return {**_drop_counts("problems", len(profile_problems), dropped), "traces_signaled": len(signals)}


def _sweep(cfg: RunConfig, io: StageIO, state) -> dict:
    problems = {p.id: p for p in io.rows("problems")}
    by_domain: dict[str, tuple[list[StepSignal], list[int]]] = {}
    for signal in io.rows("signals"):
        trace = _trace_of(io, "signals", signal.problem_id, signal.trace_id, len(signal.values))
        signals, truths = by_domain.setdefault(problems[signal.problem_id].domain, ([], []))
        signals.append(signal)
        truths.append(int(trace.correct))

    reports = []
    thresholds: dict[str, float] = {}
    for domain in sorted(by_domain):
        signals, truths = by_domain[domain]
        pooled = [v for s in signals for v in s.values]
        grid = percentile_grid(pooled, cfg.grid_size)
        try:
            sweep = sweep_threshold(signals, truths, grid, domain=domain)
        except UndefinedMetricError as exc:
            log.warning("sweep skipped for domain %s: %s", domain, exc)
            reports.append({"domain": domain, "skipped": True, "reason": str(exc)})
            continue
        reports.append(sweep)
        thresholds[domain] = sweep["best_threshold"]
    _write_json(io.paths["sweep"], {"domains": reports})
    _write_json(io.paths["thresholds"], thresholds)
    swept = len(thresholds)
    return {"domains_swept": swept, "domains_skipped": len(reports) - swept, "best_thresholds": thresholds}


def _thresholds(source: Path) -> dict:
    """The threshold table in ``source``: a JSON object of finite numbers naming no domain twice."""

    def one_value_per_key(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise DataError(f"thresholds file {source} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        thresholds = json.loads(source.read_text(encoding="utf-8"), object_pairs_hook=one_value_per_key)
    except ValueError as exc:
        raise DataError(f"thresholds file {source} is not JSON: {exc}") from exc
    if not isinstance(thresholds, dict) or not all(
        type(tau) in (int, float) and abs(tau) < math.inf for tau in thresholds.values()
    ):
        raise DataError(f"thresholds file {source} must be a JSON object of finite numbers, one per domain")
    return thresholds


def _label(cfg: RunConfig, io: StageIO, state) -> dict:
    """Label each signal's steps at its domain's threshold, from ``--thresholds``, else the
    sweep's ``thresholds.json``; a domain the table does not name gets 0.0."""
    source = Path(cfg.thresholds_file) if cfg.thresholds_file else io.paths["thresholds"]
    thresholds = _thresholds(source)
    domain_of = {p.id: p.domain for p in io.rows("problems")}
    records = []
    for signal in io.rows("signals"):
        _trace_of(io, "signals", signal.problem_id, signal.trace_id, len(signal.values))
        tau = thresholds.get(domain_of[signal.problem_id], 0.0)
        records.append({**row_object(signal), "labels": assign_labels(signal, tau), "threshold": tau})
    io.write("step_labels", records)
    return {"traces_labeled": len(records), "thresholds_source": cfg.thresholds_file or source.name}


def _emit(cfg: RunConfig, io: StageIO, state) -> dict:
    """Both training datasets from one read of their inputs: a PRM record per
    labeled trace and an ORM record per working-set trace. Every row is
    checked before either dataset is written, and each line is built from its
    trace as its shard is written (:class:`RecordLines`)."""
    problems = {p.id: p for p in io.rows("problems")}
    # A job is (problem id, trace id, step labels); an ORM job has no labels.
    jobs = {
        "prm": ("step_labels", io.rows("step_labels")),
        "orm": ("working_set", [(pid, tid, None) for pid, trace_ids in io.rows("working_set") for tid in trace_ids]),
    }
    checked = {}
    for which, (source, dataset_jobs) in jobs.items():
        records, targets, dropped = [], [], {}  # a record is (problem, trace, its step labels or its verdict)
        for pid, trace_id, labels in dataset_jobs:
            trace = _trace_of(io, source, pid, trace_id, None if labels is None else len(labels))
            try:
                check_reserved(problems[pid], trace)
            except ReservedSymbolError as exc:
                dropped.setdefault(pid, {})[trace_id] = exc.reason_code
                continue
            records.append((problems[pid], trace, trace.correct if labels is None else labels))
            targets.extend([trace.correct] if labels is None else labels)
        checked[which] = records, targets, dropped, len(dataset_jobs)
    counts = {}
    for which, (records, targets, dropped, count_in) in checked.items():
        build = emit_prm_record if which == "prm" else emit_orm_record
        lines = RecordLines(lambda problem, trace, target: build(trace_fragment(problem, trace), target), records)
        out_dir = io.paths[f"{which}_dir"]
        tmp_dir = out_dir.with_name(out_dir.name + ".tmp")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        write_shards(lines, tmp_dir, cfg.split, cfg.shard_size)
        shutil.rmtree(out_dir, ignore_errors=True)
        tmp_dir.rename(out_dir)
        counts[which] = {
            "records": len(lines), **_drop_counts("traces", count_in, dropped), "balance": label_balance(targets),
        }
    _write_json(io.paths["emit_report"], {which: c["balance"] for which, c in counts.items()})
    return counts


def _step_scores_row(obj: dict, traces: dict) -> tuple[tuple[str, str], list[float]]:
    """A ``--step-scores`` row as ((problem id, trace id), step probabilities):
    one per step, so at least one and, for a trace of ``traces``, its step
    count; each a JSON number in [0, 1] (NaN and ``true`` are not)."""
    probs = obj["step_probs"]
    if type(probs) is not list or not probs or not all(type(p) in (int, float) and 0 <= p <= 1 for p in probs):
        raise ValueError(f"step_probs must be a non-empty list of probabilities in [0, 1], got {probs!r}")
    key = (obj["problem_id"], obj["trace_id"])
    steps = len(traces[key].steps) if key in traces else len(probs)
    if len(probs) != steps:
        raise ValueError(f"trace {key[1]!r} of problem {key[0]!r} has {len(probs)} probabilities for {steps} steps")
    return key, probs


def _build_scorer(cfg: RunConfig, io: StageIO):
    if cfg.eval_scorer == "oracle":
        return oracle_score
    if cfg.eval_scorer == "random":
        return random_scorer(cfg.seed)
    if cfg.eval_scorer == "label-product":
        # This toolkit's own binary labels, as 0/1 step probabilities.
        rows = io.rows("step_labels")
        for pid, tid, labels in rows:
            _trace_of(io, "step_labels", pid, tid, len(labels))
        return step_product_scorer({(pid, tid): labels for pid, tid, labels in rows})
    # step-product and orm: external per-step probabilities from --step-scores
    rows = read_jsonl(cfg.step_scores, partial(_step_scores_row, traces=io.judged), key=itemgetter(0))
    return step_product_scorer(dict(rows))


def _eval(cfg: RunConfig, io: StageIO, state) -> dict:
    # Each judged trace carries the verdict of the validate stage's answer
    # pools, which decides success: no validator runs here.
    candidates = _by_problem(io.judged.values())
    problems = [p for p in io.rows("problems") if candidates.get(p.id)]
    if cfg.eval_scorer == "majority":
        report, considered, unscored = majority_best_of_k(problems, candidates, cfg.eval_k)
    else:
        scorer_id = f"random:{cfg.seed}" if cfg.eval_scorer == "random" else cfg.eval_scorer
        report, considered, unscored = best_of_k(problems, candidates, _build_scorer(cfg, io), cfg.eval_k, scorer_id)
    _write_json(io.paths["eval_report"], report)
    return {
        "problems_in": len(problems),
        "problems_out": len(problems),
        "K": report["K"],
        "scorer": report["scorer_id"],
        "accuracy": report["accuracy"],
        "candidates": considered,
        "unscored_candidates": unscored,
    }


def _require_columns(source: Path, profile: InformationProfile, answers: list[str]) -> None:
    """A ``source`` profile must have a column for each answer its signal reads."""
    for answer in answers:
        if answer not in profile.answers:
            raise DataError(
                f"{source}: trace {profile.trace_id!r} of problem {profile.problem_id!r}"
                f" has no column for answer {answer!r}"
            )


def _by_problem(traces: Iterable) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for t in traces:
        grouped.setdefault(t.problem_id, []).append(t)
    return grouped


def _drop_counts(unit: str, count_in: int, dropped: dict) -> dict:
    """A stage's one record of what it dropped, for its manifest: of
    ``count_in`` items of ``unit``, those in ``dropped``, which maps each
    dropped item's id to its reason, or a problem id to such a map of its
    traces (trace ids repeat across problems)."""
    reasons = Counter(r for v in dropped.values() for r in (v.values() if isinstance(v, dict) else [v]))
    return {
        f"{unit}_in": count_in,
        f"{unit}_out": count_in - reasons.total(),
        "dropped_by_reason": dict(reasons),
        "dropped": dropped,
    }


# ---------------------------------------------------------------------------
# The stage table


@dataclass(frozen=True)
class Stage:
    """One stage: what it needs and writes, which config it reads, its body.

    ``needs`` and ``writes`` name artifacts (keys of :data:`ARTIFACTS`).
    A need in ``when`` is required and digested only when its condition on
    the config holds; such needs come last, so other digests keep their order.
    ``reads`` lists the RunConfig fields the stage uses; they also give its
    CLI flags, its fingerprint (:func:`_fingerprinted`) and the named files
    run_stage checks and digests. ``prepare(cfg)``, when set, builds what
    the fingerprint needs before the up-to-date check, which is score's
    backend, and returns the state handed to ``body`` and extra fingerprint
    entries. ``command`` is the CLI subcommand that runs the stages in
    ``runs_first`` and then this one.
    ``format`` numbers the stage's output layout; above 0 it is part of the
    fingerprint, so raising it re-runs the stage in existing run directories.
    """

    name: str
    needs: tuple[str, ...]
    writes: tuple[str, ...]
    reads: tuple[str, ...]
    body: Callable[[RunConfig, StageIO, Any], dict]
    when: dict[str, Callable[[RunConfig], bool]] = field(default_factory=dict)
    prepare: Callable[[RunConfig], tuple[Any, dict]] | None = None
    command: str = ""
    help: str = ""
    runs_first: tuple[str, ...] = ()
    format: int = 0


STAGE_TABLE = {
    stage.name: stage
    for stage in (
        Stage(
            "ingest", needs=(), writes=("problems", "parsed_traces"),
            reads=("problems", "traces", "domains"), body=_ingest,
            command="ingest", help="parse raw traces into steps and answers",
        ),
        Stage(
            "validate", needs=("problems", "parsed_traces"), writes=("pools",),
            reads=(), body=_validate,
            command="validate", help="validate answers and build answer pools",
        ),
        Stage(
            "score", needs=("problems", "parsed_traces", "pools"), writes=("working_set", "profiles"),
            reads=("backend", "cache_dir", "backend_timeout_s", "backend_retries", "backend_backoff_s",
                   "k_subsample", "seed", "concurrency_limit"), body=_score, prepare=_prepare_score,
            command="score", help="filter, subsample, and score information profiles",
        ),
        Stage(
            "signals", needs=("problems", "profiles", "parsed_traces", "pools"), writes=("signals",),
            reads=("method", "aggregation", "reference"), body=_signals,
        ),
        # label and sweep both need the signal values, so their subcommands
        # compute them first (a no-op when signals are up to date).
        Stage(
            "sweep", needs=("problems", "signals", "parsed_traces", "pools"), writes=("sweep", "thresholds"),
            reads=("grid_size",), body=_sweep,
            command="sweep", help="calibrate per-domain thresholds by balanced accuracy",
            runs_first=("signals",),
        ),
        Stage(
            "label", needs=("problems", "signals", "parsed_traces", "pools", "thresholds"), writes=("step_labels",),
            reads=("thresholds_file",), body=_label, when={"thresholds": lambda cfg: not cfg.thresholds_file},
            command="label", help="compute step signals and thresholded labels",
            runs_first=("signals",),
        ),
        Stage(
            "emit", needs=("problems", "parsed_traces", "pools", "working_set", "step_labels"),
            writes=("prm_dir", "orm_dir", "emit_report"),
            reads=("split", "shard_size"), body=_emit,
            command="emit", help="write the prm and orm training records",
        ),
        Stage(
            "eval", needs=("problems", "parsed_traces", "pools", "step_labels"), writes=("eval_report",),
            reads=("eval_scorer", "eval_k", "step_scores", "seed"), body=_eval,
            when={"step_labels": lambda cfg: cfg.eval_scorer == "label-product"},
            command="eval-bok", help="best-of-K evaluation",
        ),
    )
}

# Signals are computed once; the sweep calibrates thresholds from them and
# labeling then consumes the thresholds file, and fails without one, so
# emitted datasets always use calibrated labels.
STAGES = tuple(STAGE_TABLE)


def _fingerprinted(stage: Stage) -> list[str]:
    """The fields of ``stage.reads`` fingerprinted by value, so no file: a change to one re-runs the stage."""
    return [name for name in stage.reads if OPTIONS[name]["fingerprint"]]


def run_stage(name: str, cfg: RunConfig, memo: dict | None = None) -> dict:
    """Run one stage of the table, or skip it when it is up to date. Stages
    run with one ``memo`` share their parsed inputs (:class:`StageIO`)."""
    stage = STAGE_TABLE[name]
    paths = artifact_paths(cfg.out)
    if (entry_path := _stage_manifest_path(cfg.out, name)).exists():  # a FIFO blocks a read, a directory a write
        input_file(entry_path, f"stage {name!r} entry")
    needs = [paths[n] for n in stage.needs if n not in stage.when or stage.when[n](cfg)]
    _require(needs, name)
    named = [(getattr(cfg, f), OPTIONS[f]["file"]) for f in stage.reads if OPTIONS[f]["file"] and getattr(cfg, f)]
    files = {os.path.abspath(path): input_digest(path, what) for path, what in named}
    state, extra_config = stage.prepare(cfg) if stage.prepare else (None, {})
    # Each need's sha256 by its path in the run directory, then the named files': each fingerprint stays as it was.
    inputs = {str(p.relative_to(cfg.out)): sha256_file(p) for p in needs}
    config = {OPTIONS[f]["key"] or f: getattr(cfg, f) for f in _fingerprinted(stage)}
    if stage.format:  # format 0 adds nothing, so fingerprints made before formats stay valid
        config["format"] = stage.format
    fingerprint = _fingerprint([*inputs.values(), *files.values()], {**config, **extra_config})
    if not cfg.force and (stored := _maybe_skip(cfg.out, name, fingerprint)):
        return stored
    start = time.perf_counter()
    counts = stage.body(cfg, StageIO(paths, inputs, {} if memo is None else memo), state)
    wall_s = round(time.perf_counter() - start, 3)
    outputs = [str(p.relative_to(cfg.out)) for p in _files([paths[n] for n in stage.writes])]
    inputs.update(files)
    entry = dict(
        name=name, fingerprint=fingerprint, inputs=inputs, outputs=outputs, counts=counts, wall_s=wall_s, skipped=False
    )
    _write_json(_stage_manifest_path(cfg.out, name), entry)
    return entry


stage_ingest = partial(run_stage, "ingest")
stage_validate = partial(run_stage, "validate")
stage_score = partial(run_stage, "score")
stage_signals = partial(run_stage, "signals")
stage_sweep = partial(run_stage, "sweep")
stage_label = partial(run_stage, "label")
stage_emit = partial(run_stage, "emit")
stage_eval = partial(run_stage, "eval")


def run_pipeline(cfg: RunConfig, stages: list[str] | None = None) -> dict:
    """Execute the requested stages in order and write the run manifest.

    With no explicit stage list the full sequence runs: thresholds are
    calibrated from the signals before labels are assigned, so emitted
    datasets use calibrated labels. Re-running with identical inputs and
    config skips up-to-date stages. A stage that fails or is interrupted
    (by ``KeyboardInterrupt``, or :class:`Terminated` on SIGTERM) comes last
    in the manifest, with its error, its exit code and the ``counts`` its
    error carries, and runs again next time; an unknown stage name fails as
    itself before any stage runs. Python's cyclic garbage
    collector is paused while the stages run (their rows hold no reference
    cycles), and the caller's setting restored after. A run holds an
    exclusive ``flock`` on the run directory until its manifest is written;
    a second run there fails at once with a ConfigError, manifest untouched.
    The stages share one memo of parsed rows (:class:`StageIO`); after each
    stage, the rows of every artifact that no later stage of the sequence
    needs, conditionally or not, are dropped.
    """
    sequence = list(stages) if stages else list(STAGES)
    cfg.out.mkdir(parents=True, exist_ok=True)
    if (manifest_path := artifact_paths(cfg.out)["manifest"]).exists():  # checked before any stage runs
        input_file(manifest_path, "run manifest")
    lock = os.open(cfg.out, os.O_RDONLY)  # the directory's own descriptor: no lock file
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(lock)
        raise ConfigError(f"run directory {cfg.out} is in use") if isinstance(exc, BlockingIOError) else exc
    reports = []
    memo: dict = {}
    gc_was_enabled = gc.isenabled()
    try:
        gc.disable()
        for name in sequence:  # every name is checked before any stage runs
            if name not in STAGES:
                raise ConfigError(f"unknown stage {name!r}; choose from {STAGES}")
        for i, name in enumerate(sequence):
            log.info("running stage %s", name)
            reports.append(run_stage(name, cfg, memo))
            # Drop the rows no later stage needs; the judged table goes with its parsed traces.
            later = {need for stage in sequence[i + 1 :] for need in STAGE_TABLE[stage].needs}
            for key in [key for key in memo if ("parsed_traces" if key[0] == "judged" else key[0]) not in later]:
                del memo[key]
    except (Exception, KeyboardInterrupt, Terminated) as exc:  # ``name`` is the stage that raised
        failed = {"name": name, "error": type(exc).__name__, "message": str(exc), "exit_code": exit_code(exc)}
        if hasattr(exc, "counts"):  # the work a failed stage did before it raised
            failed["counts"] = exc.counts
        reports.append(failed)
        raise
    finally:
        try:
            manifest = dict(toolkit_version=__version__, created_unix=time.time(), config=asdict(cfg), stages=reports)
            _write_json(artifact_paths(cfg.out)["manifest"], manifest)
        finally:
            os.close(lock)
            if gc_was_enabled:
                gc.enable()
    return manifest


def summarize_run(out_dir: str | Path) -> str:
    """Human-readable accounting of the last run in ``out_dir``, failed or not."""
    manifest_path = artifact_paths(Path(out_dir))["manifest"]
    if not manifest_path.exists():
        raise ConfigError(f"no run manifest under {out_dir}")
    input_file(manifest_path, "run manifest")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not _fits(manifest, {"toolkit_version": str, "stages": list}):
            raise ValueError("it needs a toolkit_version and a list of stages")
        entries = [_stage_entry(entry, failed_too=True) for entry in manifest["stages"]]
    except ValueError as exc:
        raise DataError(f"run manifest {manifest_path} is damaged: {exc}") from exc
    lines = [f"run of steplab {manifest['toolkit_version']}"]
    for entry in entries:
        if "error" in entry:
            counts = ", ".join(f"{key.replace('_', ' ')} {value}" for key, value in entry["counts"].items())
            parts = [f"failed | {entry['error']}: {entry['message']}", *([counts] if counts else [])]
        else:
            parts = ["skipped" if entry["skipped"] else f"ran | wall {entry['wall_s']:.3f} s"]
            parts += _report_parts(entry["counts"])
        lines.append(f"  {entry['name']}: " + " | ".join(parts))
    return "\n".join(lines)
