"""The steplab benchmark: end-to-end and per-layer metrics on three workloads.

Usage, from the repository root::

    python3 bench/run.py --workload cold-http --seed 20240801 --seconds 25 --trace 0

Every input is built by ``steplab.fixtures.build_demo_corpus`` from
``--seed``. Each timed phase is a fresh child process running the public
CLI entry point ``steplab.cli.main`` (``bench/child.py``), with its log
captured to a file. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` sets up ``SETUPS`` times, each set-up followed by one timed
run, and repeats timed runs on the last set-up until the timed runs and
their host-speed probes add up to ``--seconds``. It reports medians:
``wall_s``, ``traces_per_s`` (working-set traces over ``wall_s``),
``setup_s``, ``peak_rss_mb`` (the child's own ``VmHWM``) and ``disk_mb``
(run directory plus score cache).

Times are reported in seconds at a reference host speed. The benchmark was
defined on a 2-vCPU VM whose speed, with other tenants on the host, moved
by up to 1.8x within seconds: the same relabel run took 1.04 to 2.11 s, in
stretches of fast and slow runs a minute long, so medians of raw wall time
over a 20-s run spread by up to 0.47 of their median across seeds. Each
set-up and timed run is therefore bracketed by ``bench/calibrate.py``, a
fixed steplab-free Python workload in its own process, and its raw wall
time is scaled by ``CALIBRATION_REFERENCE_S`` over the mean of the two
probe times. The program cannot change the probe, so a change that makes
the program faster lowers the scaled time in the same proportion as the
raw one; the raw times and the probe factor are logged to standard error.

``--trace 1`` sets up once, makes one untraced timed run and one traced
run (``bench/traced.py``), and reports the per-layer metrics of the traced
run plus ``trace.overhead_ratio``, its scaled time over the untraced
one's, minus 1. Metrics of a layer a workload bypasses read 0.

Workloads (why each exists, and what it exercises and bypasses):

* ``cold-http``: a user's first labeling run. A full ``run`` into a fresh
  run directory with an empty ``--cache-dir``, scoring over HTTP against
  ``bench/stub_server.py`` (a loopback server in its own process wrapping
  the corpus's ``ReferenceModel``) with ``concurrency_limit = 2`` set via
  ``--config``. Exercises backend calls and cache writes, which block here;
  bypasses cache reads (every lookup misses).
* ``warm-rerun``: the "never rescore" promise. A full ``run`` into a fresh
  run directory on a cache primed by an identical run during set-up.
  Exercises ``ScoreCache`` reads and the whole downstream pipeline at a
  larger size; bypasses the backend and cache writes.
* ``relabel``: what a user does after changing method, aggregation or
  grid. ``run --stages signals,sweep,label,emit,eval --force`` on a run
  directory scored during set-up (no cache). Exercises calibration,
  infogain, dataset_emit, evaluation and ioutil; bypasses all of scoring.

Every timed or traced run is checked, and any mismatch fails that run's
stage and the command (exit code 1):

* the artifacts ROADMAP promises stay byte-stable (``STABLE_ARTIFACTS``)
  must equal, for ``cold-http``, those of an in-process run with the
  reference backend; for ``warm-rerun``, those of the priming run, with a
  cache hit rate of 1.0 and no misses (so no backend call); for
  ``relabel``, those of the set-up run;
* with the default seed they must also equal ``bench/expected_digests.json``;
* the stub must have answered no request with an error.

``attempted`` counts the pipeline stages run by timed and traced runs;
``failed`` counts those whose child exited with an error, whose stub
answered with an error, or whose artifacts failed a check.
"""

import argparse
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED_DIGESTS = BENCH / "expected_digests.json"

DEFAULT_SEED = 20240801
SETUPS = 3
# Median wall time of one ``bench/calibrate.py`` process on the machine the
# benchmark was defined on (2-vCPU VM, Python 3.11).
CALIBRATION_REFERENCE_S = 0.75
# Equals nproc on the 2-core machine the benchmark was defined on. It is
# also the stub's connection cap, so no client connection waits on the cap.
CONCURRENCY = 2
CHILD_TIMEOUT_S = 150

FULL_RUN = ("ingest", "validate", "score", "signals", "sweep", "label", "emit", "eval")
RELABEL_RUN = ("signals", "sweep", "label", "emit", "eval")

# Artifacts that stay byte-stable across ROADMAP items, and the stage writing each.
STABLE_ARTIFACTS = {
    "working_set.jsonl": "score",
    "profiles.jsonl": "score",
    "signals.jsonl": "signals",
    "sweep.json": "sweep",
    "thresholds.json": "sweep",
    "step_labels.jsonl": "label",
    "prm": "emit",
    "orm": "emit",
}


@dataclass(frozen=True)
class Workload:
    name: str
    problems: int
    traces_per_problem: int
    stages: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-http", 12, 16, FULL_RUN),
        Workload("warm-rerun", 80, 16, FULL_RUN),
        Workload("relabel", 200, 16, RELABEL_RUN),
    )
}

log = logging.getLogger("bench")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEPLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def tree_bytes(path: Path) -> int:
    """Space allocated on disk for the files under ``path``."""
    return sum(p.stat().st_blocks * 512 for p in path.rglob("*") if p.is_file())


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(run_dir: Path) -> dict[str, str]:
    digests = {}
    for name in STABLE_ARTIFACTS:
        path = run_dir / name
        if path.is_dir():
            combined = hashlib.sha256()
            for shard in sorted(path.iterdir()):
                combined.update(f"{shard.name} {file_digest(shard)}\n".encode())
            digests[name] = combined.hexdigest()
        elif path.exists():
            digests[name] = file_digest(path)
        else:
            digests[name] = "missing"
    return digests


def working_set_traces(run_dir: Path) -> int:
    lines = (run_dir / "working_set.jsonl").read_text(encoding="utf-8").splitlines()
    return sum(len(json.loads(line)["trace_ids"]) for line in lines if line.strip())


def calibrate() -> float:
    """Wall time of one host-speed probe process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibrate.py")], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


class HostClock:
    """Scales raw phase times to the reference host speed.

    A probe runs before the first phase and after each one; a phase is
    scaled by the mean of the probes on either side of it.
    """

    def __init__(self):
        self._probe_s = calibrate()

    def scaled(self, raw_s: float) -> float:
        before, self._probe_s = self._probe_s, calibrate()
        factor = (before + self._probe_s) / 2 / CALIBRATION_REFERENCE_S
        log.info("raw %.3f s, host slowdown %.3f, scaled %.3f s", raw_s, factor, raw_s / factor)
        return raw_s / factor


class Stub:
    """The loopback scoring server process and its control channel."""

    def __init__(self, model_path: Path, log_path: Path):
        with open(log_path, "w") as log_file:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "stub_server.py"), "--model", str(model_path),
                 "--max-connections", str(CONCURRENCY)],
                env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log_file, text=True,
            )
        try:
            line = self.proc.stdout.readline()
            self.url = f"http://127.0.0.1:{json.loads(line)['port']}"
        except (ValueError, KeyError):
            self.close()
            raise RuntimeError(f"stub server failed to start, see {log_path}") from None

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Prepared:
    """State one set-up leaves for the timed runs."""

    directory: Path
    corpus: dict[str, Path]
    backend: str | None = None
    config_file: Path | None = None
    cache_dir: Path | None = None
    run_dir: Path | None = None
    expected: dict[str, str] | None = None
    stub: Stub | None = None

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


@dataclass
class Outcome:
    """One timed or traced run: its wall time, checks and measurements."""

    wall_s: float
    failed_stages: set[str]
    run_dir: Path
    cache_dir: Path | None
    log_path: Path
    vm_hwm_kb: int = 0
    http: dict | None = None
    scaled_s: float = 0.0


def run_options(prep: Prepared, stages: tuple[str, ...], out_dir: Path, cache_dir: Path | None) -> dict:
    """The steplab config of a run, as ``load_config`` overrides."""
    opts = {
        "out_dir": str(out_dir),
        "problems": str(prep.corpus["problems"]),
        "traces": str(prep.corpus["traces"]),
    }
    if prep.backend:
        opts["backend"] = prep.backend
    if cache_dir is not None:
        opts["cache_dir"] = str(cache_dir)
    if stages != FULL_RUN:
        opts["force"] = True
    return opts


def cli_args(stages: tuple[str, ...], config_file: Path | None, opts: dict) -> list[str]:
    args = ["--config", str(config_file)] if config_file else []
    if "backend" in opts:
        args += ["--backend", opts["backend"]]
    if "cache_dir" in opts:
        args += ["--cache-dir", opts["cache_dir"]]
    args += ["run", "--out-dir", opts["out_dir"], "--problems", opts["problems"], "--traces", opts["traces"]]
    if stages != FULL_RUN:
        args += ["--stages", ",".join(stages), "--force"]
    return args


def run_cli(cli: list[str], directory: Path) -> tuple[float, int, int, Path]:
    """Run ``steplab.cli.main`` in a fresh child; return wall, exit code, VmHWM, log path."""
    directory.mkdir(parents=True, exist_ok=True)
    result_path = directory / "child.json"
    log_path = directory / "child.log"
    with open(log_path, "w") as log_file:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(result_path), "--", *cli],
            env=child_env(), stdout=log_file, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
    hwm = json.loads(result_path.read_text())["vm_hwm_kb"] if result_path.exists() else 0
    return wall, proc.returncode, hwm, log_path


def setup(workload: Workload, seed: int, directory: Path) -> Prepared:
    from steplab.fixtures import build_demo_corpus

    corpus = build_demo_corpus(directory / "corpus", workload.problems, workload.traces_per_problem, seed)
    prep = Prepared(directory=directory, corpus=corpus)
    if workload.name == "cold-http":
        prep.stub = Stub(corpus["reference_model"], directory / "stub.log")
        prep.backend = prep.stub.url
        prep.config_file = directory / "bench.conf"
        prep.config_file.write_text(f"concurrency_limit = {CONCURRENCY}\n")
        return prep
    prep.backend = f"reference:{corpus['reference_model']}"
    if workload.name == "warm-rerun":
        prep.cache_dir = directory / "cache"
        run_dir = directory / "prime"
    else:
        run_dir = directory / "scored"
    opts = run_options(prep, FULL_RUN, run_dir, prep.cache_dir)
    _, code, _, log_path = run_cli(cli_args(FULL_RUN, None, opts), directory / "setup")
    if code != 0:
        raise RuntimeError(f"{workload.name} set-up run exited with {code}, see {log_path}")
    prep.run_dir = run_dir
    prep.expected = artifact_digests(run_dir)
    return prep


def reference_digests(workload: Workload, seed: int, directory: Path) -> dict[str, str]:
    """Artifacts of an in-process run on the reference backend, for ``cold-http``."""
    from steplab.fixtures import build_demo_corpus
    from steplab.pipeline import load_config, run_pipeline

    corpus = build_demo_corpus(directory / "corpus", workload.problems, workload.traces_per_problem, seed)
    cfg = load_config(
        overrides={
            "backend": f"reference:{corpus['reference_model']}",
            "out_dir": str(directory / "run"),
            "problems": str(corpus["problems"]),
            "traces": str(corpus["traces"]),
        },
        env={},
    )
    run_pipeline(cfg)
    return artifact_digests(directory / "run")


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.outcomes: list[Outcome] = []
        self.setup_s: list[float] = []
        self._reps = 0
        self._expected_default = None
        if seed == DEFAULT_SEED:
            self._expected_default = json.loads(EXPECTED_DIGESTS.read_text())[workload.name]
        self._reference = None
        if workload.name == "cold-http":
            self._reference = reference_digests(workload, seed, work / "reference")
        self.clock = HostClock()

    def prepare(self, index: int) -> Prepared:
        start = time.perf_counter()
        prep = setup(self.workload, self.seed, self.work / f"setup-{index}")
        self.setup_s.append(self.clock.scaled(time.perf_counter() - start))
        return prep

    def _rep_paths(self, prep: Prepared) -> tuple[Path, Path, Path | None]:
        self._reps += 1
        rep_dir = self.work / f"rep-{self._reps}"
        if self.workload.name == "cold-http":
            cache_dir = rep_dir / "cache"
            cache_dir.mkdir(parents=True)
            return rep_dir, rep_dir / "run", cache_dir
        if self.workload.name == "warm-rerun":
            return rep_dir, rep_dir / "run", prep.cache_dir
        return rep_dir, prep.run_dir, None

    def timed_run(self, prep: Prepared) -> Outcome:
        rep_dir, out_dir, cache_dir = self._rep_paths(prep)
        opts = run_options(prep, self.workload.stages, out_dir, cache_dir)
        before = prep.stub.stats() if prep.stub else None
        wall, code, hwm, log_path = run_cli(cli_args(self.workload.stages, prep.config_file, opts), rep_dir)
        outcome = Outcome(wall, set(), out_dir, cache_dir, log_path, hwm)
        self._check(prep, outcome, code, before)
        outcome.scaled_s = self.clock.scaled(wall)
        return outcome

    def traced_run(self, prep: Prepared) -> tuple[Outcome, dict]:
        rep_dir, out_dir, cache_dir = self._rep_paths(prep)
        spec = {
            "config_file": str(prep.config_file) if prep.config_file else None,
            "overrides": run_options(prep, self.workload.stages, out_dir, cache_dir),
            "stages": list(self.workload.stages),
        }
        rep_dir.mkdir(parents=True, exist_ok=True)
        spec_path = rep_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        trace_path = rep_dir / "trace.json"
        log_path = rep_dir / "traced.log"
        before = prep.stub.stats() if prep.stub else None
        with open(log_path, "w") as log_file:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "traced.py"), str(spec_path), str(trace_path)],
                env=child_env(), stdout=log_file, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
        outcome = Outcome(wall, set(), out_dir, cache_dir, log_path)
        self._check(prep, outcome, proc.returncode, before)
        outcome.scaled_s = self.clock.scaled(wall)
        if proc.returncode != 0:
            raise RuntimeError("traced run failed")
        return outcome, json.loads(trace_path.read_text())["layers"]

    def _check(self, prep: Prepared, outcome: Outcome, code: int, stub_before: dict | None) -> None:
        failed = outcome.failed_stages
        if code != 0:
            tail = outcome.log_path.read_text().splitlines()[-20:]
            log.error("child exited with %s:\n%s", code, "\n".join(tail))
            failed.update(self.workload.stages)
        if prep.stub is not None:
            after = prep.stub.stats()
            outcome.http = {k: after[k] - stub_before[k] for k in after}
            if outcome.http["errors"]:
                log.error("stub answered %s requests with an error", outcome.http["errors"])
                failed.add("score")
        digests = artifact_digests(outcome.run_dir)
        references = [("set-up", prep.expected or self._reference)]
        if self._expected_default is not None:
            references.append(("default-seed", self._expected_default))
        for label, expected in references:
            for name, digest in digests.items():
                if digest != expected[name]:
                    log.error("%s: %s is %s, %s digest is %s", outcome.run_dir, name, digest, label, expected[name])
                    failed.add(STABLE_ARTIFACTS[name])
        if self.workload.name == "warm-rerun":
            counts = json.loads((outcome.run_dir / "stages" / "score.json").read_text())["counts"]
            if counts["cache_hit_rate"] != 1.0 or counts["cache_misses"] != 0:
                log.error("warm rerun missed the cache: %s", counts)
                failed.add("score")
        self.outcomes.append(outcome)

    def summary(self, declared: list[dict], values: dict[str, float]) -> dict:
        """The result line: every declared metric, by name and unit."""
        failed = sum(len(o.failed_stages) for o in self.outcomes)
        return {
            "correct": failed == 0,
            "attempted": len(self.outcomes) * len(self.workload.stages),
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        }


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    rows = []
    measured_s = 0.0
    for index in range(SETUPS):
        prep = bench.prepare(index)
        start = time.perf_counter()
        try:
            while True:
                outcome = bench.timed_run(prep)
                disk = tree_bytes(outcome.run_dir)
                if outcome.cache_dir is not None:
                    disk += tree_bytes(outcome.cache_dir)
                rows.append(
                    (
                        outcome.scaled_s,
                        working_set_traces(outcome.run_dir) / outcome.scaled_s,
                        outcome.vm_hwm_kb / 1024,
                        disk / 1e6,
                    )
                )
                log.info("%s run %d: %.3f s", bench.workload.name, len(rows), outcome.scaled_s)
                shutil.rmtree(outcome.log_path.parent)
                if index < SETUPS - 1 or measured_s + time.perf_counter() - start >= seconds:
                    break
        finally:
            prep.close()
        measured_s += time.perf_counter() - start
        shutil.rmtree(prep.directory)
    wall_s, traces_per_s, peak_rss_mb, disk_mb = (statistics.median(column) for column in zip(*rows))
    return {
        "wall_s": wall_s,
        "traces_per_s": traces_per_s,
        "setup_s": statistics.median(bench.setup_s),
        "peak_rss_mb": peak_rss_mb,
        "disk_mb": disk_mb,
    }


def measure_per_layer(bench: Bench) -> dict[str, float]:
    prep = bench.prepare(0)
    try:
        untraced = bench.timed_run(prep)
        traced, layers = bench.traced_run(prep)
    finally:
        prep.close()
    http = traced.http or {"requests": 0, "bytes_in": 0, "errors": 0, "busy_s": 0.0}
    layers.update(
        {
            "scoring.http.requests": http["requests"],
            "scoring.http.bytes_in": http["bytes_in"],
            "scoring.http.errors": http["errors"],
            "scoring.http.server_busy_s": http["busy_s"],
            "scoring.cache.files": (
                sum(1 for _ in traced.cache_dir.glob("*.json")) if traced.cache_dir else 0
            ),
            "evaluation.scorer_failures": traced.log_path.read_text().count("scorer failed"),
            "trace.overhead_ratio": traced.scaled_s / untraced.scaled_s - 1,
        }
    )
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description="steplab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "steplab" / "cli.py").is_file():
        print(f"steplab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    logging.basicConfig(level=logging.INFO, format="%(name)s %(levelname)s %(message)s",
                        handlers=[logging.StreamHandler(sys.stderr)])
    # The in-process reference run logs one line per trace; keep those off stderr.
    logging.getLogger("steplab").setLevel(logging.ERROR)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            result = bench.summary(declared["per_layer"], measure_per_layer(bench))
        else:
            result = bench.summary(declared["end_to_end"], measure_end_to_end(bench, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
