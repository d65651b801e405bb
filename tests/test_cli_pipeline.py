import copy
import fcntl
import gc
import hashlib
import json
import logging
import math
import os
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from helpers import CountingBackend
from steplab import __version__, pipeline
from steplab.dataset_emit import STEP_MARKER
from steplab.cli import build_parser, main
from steplab.errors import ConfigError, DataError, exit_code
from steplab.fixtures import build_demo_corpus
from steplab.ioutil import encode_json, read_jsonl, sha256_file
from steplab.pipeline import (
    ARTIFACTS,
    OPTIONS,
    STAGE_TABLE,
    STAGES,
    RunConfig,
    StageIO,
    _fingerprinted,
    _parse_value,
    artifact_paths,
    load_config,
    parse_config_file,
    run_pipeline,
    run_stage,
    stage_score,
    summarize_run,
)


SRC = Path(__file__).resolve().parents[1] / "src"
JSONL = [name for name, artifact in ARTIFACTS.items() if artifact.make]  # the run's JSONL artifacts, in table order

# The keys analyze-bias prints, in order.
ANALYZE_BIAS_KEYS = ["pool_size", "pool_max", "s", "replicates", "bias", "variance", "exact"]
# A stage's entry as run_stage writes it, with no inputs, outputs or counts.
EMPTY_ENTRY = dict(name="score", fingerprint="", inputs={}, outputs=[], counts={}, wall_s=0.0, skipped=False)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return build_demo_corpus(root, n_problems=8, traces_per_problem=4)


def profile_requests_of(out):
    """Every (context, answer) request behind a run's profiles, row-major."""
    from steplab.scoring import ScoringRequest, build_context

    paths = artifact_paths(out)
    questions = {obj["id"]: obj["question"] for obj in read_jsonl(paths["problems"])}
    steps = {obj["trace_id"]: obj["steps"] for obj in read_jsonl(paths["parsed_traces"])}
    return [
        ScoringRequest(build_context(questions[profile["problem_id"]], steps[profile["trace_id"]][:i]), answer)
        for profile in read_jsonl(paths["profiles"])
        for i in range(len(steps[profile["trace_id"]]) + 1)
        for answer in profile["answers"]
    ]


def distinct_traces_of(out):
    """The distinct (question, steps, answers) behind a run's profiles."""
    paths = artifact_paths(out)
    questions = {obj["id"]: obj["question"] for obj in read_jsonl(paths["problems"])}
    steps = {obj["trace_id"]: tuple(obj["steps"]) for obj in read_jsonl(paths["parsed_traces"])}
    return {
        (questions[profile["problem_id"]], steps[profile["trace_id"]], tuple(profile["answers"]))
        for profile in read_jsonl(paths["profiles"])
    }


def cache_tables(cache_dir):
    """Row count of each table in a cache file."""
    with sqlite3.connect(Path(cache_dir) / "scores.sqlite") as db:
        names = [name for (name,) in db.execute("SELECT name FROM sqlite_master WHERE type = 'table'")]
        tables = {name: db.execute(f"SELECT count(*) FROM {name}").fetchone()[0] for name in names}
    db.close()
    return tables


def config_for(small_corpus, tmp_path, out="run", **kw):
    values = dict(
        problems=str(small_corpus["problems"]),
        traces=str(small_corpus["traces"]),
        out_dir=str(tmp_path / out),
        backend=f"reference:{small_corpus['reference_model']}",
        cache_dir=str(tmp_path / "cache"),
        seed=3,
    )
    values.update(kw)
    return RunConfig(**values)


class TestConfig:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            'backend = "reference:model.json"\n'
            "seed = 11\n"
            "k_subsample = 4\n"
            "domains = math, sql\n"
            "force = true\n"
        )
        values = parse_config_file(path)
        assert values == {
            "backend": "reference:model.json",
            "seed": 11,
            "k_subsample": 4,
            "domains": ["math", "sql"],
            "force": True,
        }
        path.write_text(
            'domains = "math, qa"\n'
            'seed = "11"\n'
            "backend_timeout_s = 5\n"
            "split = 2024\n"
        )
        values = parse_config_file(path)
        assert values == {"domains": ["math", "qa"], "seed": 11, "backend_timeout_s": 5.0, "split": "2024"}
        assert type(values["backend_timeout_s"]) is float

    def test_every_field_default_parses_back_from_its_text(self):
        for f in fields(RunConfig):
            default = getattr(RunConfig(), f.name)
            text = ",".join(default) if isinstance(default, list) else str(default)
            assert _parse_value(f.name, text) == default, f.name

    def test_env_and_override_text_is_typed(self):
        env = {"STEPLAB_BACKEND_URL": "http://from-env:8000", "STEPLAB_CACHE_DIR": "env-cache"}
        cfg = load_config(env=env, overrides={"seed": "5", "k_subsample": None, "force": True})
        assert (cfg.backend, cfg.cache_dir, cfg.seed, cfg.k_subsample, cfg.force) == (
            "http://from-env:8000", "env-cache", 5, 8, True
        )

    def test_env_overrides_file_and_cli_overrides_env(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text('backend = "reference:from-file.json"\ncache_dir = "file-cache"\n')
        env = {"STEPLAB_BACKEND_URL": "http://from-env:8000"}
        cfg = load_config(config_file=str(path), env=env)
        assert cfg.backend == "http://from-env:8000"
        assert cfg.cache_dir == "file-cache"
        cfg = load_config(config_file=str(path), env=env, overrides={"backend": "http://cli:1"})
        assert cfg.backend == "http://cli:1"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_option = 1\n")
        with pytest.raises(ConfigError):
            load_config(config_file=str(path))

    def test_bad_enum_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(method="guess")
        with pytest.raises(ConfigError):
            RunConfig(aggregation="median")
        with pytest.raises(ConfigError):
            RunConfig(reference="next")
        with pytest.raises(ConfigError):
            RunConfig(eval_scorer="bogus")

    @pytest.mark.parametrize(
        "key", ["k_subsample", "eval_k", "grid_size", "shard_size", "backend_retries", "concurrency_limit"]
    )
    def test_counts_below_one_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: 0})

    # load_config takes a value that is not text, as Python code passes it, as it is.
    @pytest.mark.parametrize("key, value", [
        ("k_subsample", True), ("grid_size", True), ("backend_timeout_s", True), ("seed", 1.5),
        ("force", 1), ("split", 5), ("domains", "math"), ("domains", ["math", 1]),
    ], ids=[
        "k-subsample-true", "grid-size-true", "timeout-true", "seed-float", "force-int", "split-int",
        "domains-a-string", "domains-item-int",
    ])
    def test_a_value_of_another_type_is_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    def test_an_int_is_a_float(self):
        assert load_config(overrides={"backend_timeout_s": 2}, env={}).backend_timeout_s == 2


# Each stage's fingerprint of a default run of the 6x4 demo corpus. Signals
# and label took theirs when each began to digest the traces and pools its
# rows are checked against.
DEMO_FINGERPRINTS = {
    "ingest": "08465d316b550c38956acbc12fc9c4957c72360bb03d540076273264ecd587a7",
    "validate": "437ace455bf22a0aa8d815632172e15e881eedd55542ebc60f197bfae13b1614",
    "score": "3b961d9d5654eaf5dbdca13d5ef115782bdd901d90e3ed79ae2dbc8f501c2b63",
    "signals": "42c6fcf3cb7229f77a1027451be661294bb7914b36532ff9e2846f57e240bb68",
    "sweep": "fc38a022e3182ed558064d0fc56cfe5111e9c4480741fbaba1e7332b87a82edb",
    "label": "afe8f12ffb06a8dae700ab02d1bff022dd6cb4e5cff8031cd5298caac6f1fc3c",
    "emit": "bb1f7ba4f2b0527441ad06411daa7caa910a441caab704a8b1fe2e0a99c2ad2e",
    "eval": "eb1d69f5480cc6dc1fb8f68b22bdead9e464ca562e58a053c04484b8a666be24",
}

# The fingerprints of the same run, but labelled at a --thresholds file and
# evaluated by label-product with a --step-scores file too, recorded before
# run_stage checked and digested each file option: each file is digested in
# the order it was, so such a run directory is still up to date.
FILE_OPTION_FINGERPRINTS = {
    **DEMO_FINGERPRINTS,
    "label": "a429f3a744988631d5115421b8b2c626ee5bcae3a6f6f3a071293439479356d7",
    "emit": "e6b20bb261b0a4f61e9aec3651a0c5eddd40858ac6c1cffbbd3f66ee42b694de",
    "eval": "5efa537a8fb766137c7e1e5aea8c5053658a95ca806b7b03d49e2edd1ea6b4e3",
}


class TestStageTable:
    def test_rows_name_known_artifacts_and_fields(self):
        artifacts = set(artifact_paths(Path("run")))
        config_fields = {f.name for f in fields(RunConfig)}
        for stage in STAGE_TABLE.values():
            assert set(stage.needs) | set(stage.writes) <= artifacts, stage.name
            assert set(stage.reads) <= config_fields, stage.name
            # Conditional needs come last, so the digests of the others keep their order.
            assert set(stage.needs[len(stage.needs) - len(stage.when):]) == set(stage.when), stage.name

    def test_fingerprinted_fields_are_the_hand_written_lists_they_replace(self):
        assert {name: _fingerprinted(stage) for name, stage in STAGE_TABLE.items()} == {
            "ingest": ["domains"],
            "validate": [],
            "score": ["k_subsample", "seed"],
            "signals": ["method", "aggregation", "reference"],
            "sweep": ["grid_size"],
            "label": [],
            "emit": ["split", "shard_size"],
            "eval": ["eval_scorer", "eval_k", "seed"],
        }

    def test_default_demo_run_fingerprints_are_unchanged(self, tmp_path):
        # Recorded before each option's facts moved onto its RunConfig field:
        # a run directory made before then is still up to date.
        corpus = build_demo_corpus(tmp_path / "corpus", 6, 4)
        cfg = RunConfig(
            problems=str(corpus["problems"]), traces=str(corpus["traces"]), out_dir=str(tmp_path / "run"),
            backend=f"reference:{corpus['reference_model']}",
        )
        assert {s["name"]: s["fingerprint"] for s in run_pipeline(cfg)["stages"]} == DEMO_FINGERPRINTS

    def test_file_option_fingerprints_are_unchanged(self, tmp_path):
        assert [name for name, option in OPTIONS.items() if option["file"]] == [
            "problems", "traces", "thresholds_file", "step_scores",
        ]
        corpus = build_demo_corpus(tmp_path / "corpus", 6, 4)
        thresholds, step_scores = tmp_path / "thresholds.json", tmp_path / "step_scores.jsonl"
        thresholds.write_text('{"math": 0.25, "qa": -0.5}\n')
        step_scores.write_text('{"problem_id": "p0", "trace_id": "t0", "step_probs": [0.5]}\n')
        cfg = RunConfig(
            problems=str(corpus["problems"]), traces=str(corpus["traces"]), out_dir=str(tmp_path / "run"),
            backend=f"reference:{corpus['reference_model']}", thresholds_file=str(thresholds),
            step_scores=str(step_scores),
        )
        first = run_pipeline(cfg)["stages"]
        assert {s["name"]: s["fingerprint"] for s in first} == FILE_OPTION_FINGERPRINTS
        label, evaluation = first[STAGES.index("label")], first[STAGES.index("eval")]
        assert str(thresholds) in label["inputs"] and label["counts"]["thresholds_source"] == str(thresholds)
        assert {"step_labels.jsonl", str(step_scores)} <= set(evaluation["inputs"])
        again = run_pipeline(cfg)["stages"]
        assert [(s["name"], s["fingerprint"], s["skipped"]) for s in again] == [
            (s["name"], s["fingerprint"], True) for s in first
        ]

    def test_readme_option_table_names_each_field_and_its_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Configuration"):readme.index("## Scoring backends")]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        for name, option in OPTIONS.items():
            row = next((r for r in rows if f"`{name}`" in r.split(" | ")[0]), None)
            assert row is not None, name
            if option["flag"]:
                assert f"`{option['flag']}`" in row or f" {option['flag']}`" in row, name


class TestStageIsolation:
    def test_score_without_upstream_artifacts(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path)
        with pytest.raises(ConfigError, match="upstream"):
            stage_score(cfg)

    def test_stage_rerun_from_persisted_artifacts(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path)
        run_pipeline(cfg, stages=["ingest", "validate", "score", "signals"])
        # sweep alone, then label alone, from what is on disk.
        sweep_report = run_pipeline(cfg, stages=["sweep"])["stages"][0]
        assert not sweep_report["skipped"]
        label_report = run_pipeline(cfg, stages=["label"])["stages"][0]
        assert not label_report["skipped"]
        assert artifact_paths(cfg.out)["step_labels"].exists()

    def test_unknown_stage_rejected(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path)
        with pytest.raises(ConfigError):
            run_pipeline(cfg, stages=["fly"])


class TestPipeline:
    def test_full_run_emits_everything(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path)
        manifest = run_pipeline(cfg)
        paths = artifact_paths(cfg.out)
        for name in ("signals", "step_labels", "sweep", "thresholds", "eval_report"):
            assert paths[name].exists()
        assert list(paths["prm_dir"].glob("train-*.jsonl"))
        assert list(paths["orm_dir"].glob("train-*.jsonl"))
        stage_names = [s["name"] for s in manifest["stages"]]
        assert stage_names == ["ingest", "validate", "score", "signals", "sweep", "label", "emit", "eval"]

    def test_manifest_accounting_identity(self, small_corpus, tmp_path):
        """Every item a stage takes in is kept or dropped with a reason: in a
        plain run, in one with a domain excluded, and in one whose trace ids
        repeat across problems, with a reserved symbol in every trace t1."""
        repeated = tmp_path / "repeated-ids.jsonl"
        rows = []
        for row in read_jsonl(small_corpus["traces"]):
            trace_id = row["trace_id"].rsplit("-", 1)[1]  # t0, t1, ... in every problem
            marker = f"{STEP_MARKER} " if trace_id == "t1" else ""
            rows.append({**row, "trace_id": trace_id, "raw_text": marker + row["raw_text"]})
        repeated.write_text(_jsonl(rows))
        runs = {
            "plain": config_for(small_corpus, tmp_path),
            "math-only": config_for(small_corpus, tmp_path, out="math", domains=["math"]),
            "repeated-ids": config_for(small_corpus, tmp_path, out="repeated", traces=str(repeated)),
        }
        for run, cfg in runs.items():
            stages = {stage["name"]: stage["counts"] for stage in run_pipeline(cfg)["stages"]}
            for name, counts in stages.items():
                if "problems_in" in counts and "dropped_by_reason" in counts:
                    dropped_total = sum(counts["dropped_by_reason"].values())
                    assert counts["problems_in"] == counts["problems_out"] + dropped_total, (run, name)
            ingest = stages["ingest"]
            assert ingest["traces_in"] == ingest["traces_out"] + ingest["traces_domain_excluded"], run
            assert (ingest["traces_domain_excluded"] > 0) == (run == "math-only")
            for which in ("prm", "orm"):
                emit = stages["emit"][which]
                dropped_total = sum(emit["dropped_by_reason"].values())
                assert emit["records"] + dropped_total == emit["traces_in"], (run, which)
                assert dropped_total == sum(map(len, emit["dropped"].values())), (run, which)
                if run == "repeated-ids":
                    assert len(emit["dropped"]) > 1
                    assert all(traces == {"t1": "reserved_symbol_in_step"} for traces in emit["dropped"].values())

    def test_rerun_same_dir_skips_all_stages(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path)
        run_pipeline(cfg)
        again = run_pipeline(cfg)
        assert all(s["skipped"] for s in again["stages"])

    @pytest.mark.parametrize(
        "stage, damage",
        [
            ("ingest", lambda stored: '{"fingerprint": '),
            ("validate", lambda stored: "[]"),
            ("score", lambda stored: json.dumps({**stored, "outputs": [1]})),
            ("emit", lambda stored: json.dumps({k: v for k, v in stored.items() if k != "outputs"})),
            ("label", lambda stored: json.dumps({**stored, "error": "BackendError"})),
        ],
        ids=["truncated", "a-list", "an-output-not-a-path", "no-outputs", "an-error"],
    )
    def test_a_damaged_stage_manifest_reruns_its_stage(self, small_corpus, tmp_path, stage, damage):
        cfg = config_for(small_corpus, tmp_path)
        run_pipeline(cfg)
        path = cfg.out / "stages" / f"{stage}.json"
        stored = json.loads(path.read_text())
        path.write_text(damage(stored))
        again = run_pipeline(cfg)
        assert [s["name"] for s in again["stages"] if not s["skipped"]] == [stage]
        assert json.loads(path.read_text())["fingerprint"] == stored["fingerprint"]

    def test_moved_run_directory_stays_up_to_date(self, small_corpus, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_pipeline(config_for(small_corpus, tmp_path, out_dir="mv-run"))
        absolute = run_pipeline(config_for(small_corpus, tmp_path, out="mv-run"))
        assert all(s["skipped"] for s in absolute["stages"])
        (tmp_path / "mv-run").rename(tmp_path / "moved")
        moved = run_pipeline(config_for(small_corpus, tmp_path, out="moved"))
        assert all(s["skipped"] for s in moved["stages"])

    def test_a_missing_output_reruns_its_stage_byte_for_byte(self, run_6x4, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        shard = sorted((run / "orm").glob("*.jsonl"))[0]
        before = shard.read_bytes()
        shard.unlink()
        assert main([*_run_6x4_argv(run_6x4), "--out-dir", str(run)]) == 0
        stages = json.loads((run / "manifest.json").read_text())["stages"]
        assert [s["name"] for s in stages if not s["skipped"]] == ["emit"]
        assert shard.read_bytes() == before

    def test_a_copied_run_names_the_old_directory_in_no_count(self, run_6x4, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(run_6x4, run)
        assert main([*_run_6x4_argv(run_6x4), "--out-dir", str(run)]) == 0
        assert all(s["skipped"] for s in json.loads((run / "manifest.json").read_text())["stages"])
        for name in STAGES:
            entry = json.loads((run / "stages" / f"{name}.json").read_text())
            assert str(run_6x4) not in json.dumps([entry["counts"], entry["inputs"]]), name
        # Inputs in the run directory are named relative to it, a named file by its absolute path.
        corpus = run_6x4.parent / "corpus"
        assert list(json.loads((run / "stages" / "ingest.json").read_text())["inputs"]) == [
            str(corpus / "problems.jsonl"), str(corpus / "traces.jsonl"),
        ]
        assert list(json.loads((run / "stages" / "signals.json").read_text())["inputs"]) == [
            "problems.jsonl", "profiles.jsonl", "parsed_traces.jsonl", "pools.jsonl",
        ]
        assert json.loads((run / "stages" / "label.json").read_text())["counts"]["thresholds_source"] == "thresholds.json"

    def test_a_named_file_and_a_run_file_of_one_name_are_both_inputs(self, run_6x4, tmp_path, monkeypatch):
        # A named file is keyed by its absolute path, so it cannot take a run file's relative key.
        shutil.copytree(run_6x4, tmp_path / "run")
        monkeypatch.chdir(tmp_path)
        Path("step_labels.jsonl").write_text('{"problem_id": "p0", "trace_id": "t0", "step_probs": [0.5]}\n')
        argv = ["eval-bok", "--out-dir", "run", "--scorer", "label-product", "--step-scores", "step_labels.jsonl"]
        assert main(argv) == 0
        inputs = json.loads(Path("run/stages/eval.json").read_text())["inputs"]
        named = os.path.abspath("step_labels.jsonl")
        assert list(inputs) == ["problems.jsonl", "parsed_traces.jsonl", "pools.jsonl", "step_labels.jsonl", named]
        assert inputs["step_labels.jsonl"] == sha256_file("run/step_labels.jsonl")
        assert inputs[named] == sha256_file(named)

    def test_an_up_to_date_label_is_skipped_without_reading_its_thresholds(self, run_6x4, tmp_path, monkeypatch):
        # The label body reads the table; the up-to-date check only digests the file.
        run, pinned = tmp_path / "run", tmp_path / "pinned.json"
        shutil.copytree(run_6x4, run)
        pinned.write_text('{"math": 0.25, "qa": -0.5}\n')
        argv = ["label", "--out-dir", str(run), "--thresholds", str(pinned)]
        assert main(argv) == 0
        read_text, read = Path.read_text, []

        def recorded(path, *args, **kwargs):
            read.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recorded)
        assert main(argv) == 0
        assert json.loads((run / "manifest.json").read_text())["stages"][-1]["skipped"] is True
        assert pinned not in read

    def test_fresh_dir_reproduces_every_artifact_byte_for_byte(self, small_corpus, tmp_path):
        cfg1 = config_for(small_corpus, tmp_path, out="byte1")
        cfg2 = config_for(small_corpus, tmp_path, out="byte2")
        run_pipeline(cfg1)
        run_pipeline(cfg2)
        p1, p2 = artifact_paths(cfg1.out), artifact_paths(cfg2.out)
        for name in (
            "problems", "parsed_traces", "pools",
            "working_set", "profiles", "signals", "step_labels",
            "sweep", "thresholds", "eval_report",
        ):
            assert p1[name].read_bytes() == p2[name].read_bytes(), name
        # Verdicts are derived from the answer pools, never copied into a file.
        assert not (cfg1.out / "validated_traces.jsonl").exists()

    def test_concurrent_scoring_matches_sequential(self, small_corpus, tmp_path):
        sequential = config_for(small_corpus, tmp_path, out="seq")
        concurrent = config_for(small_corpus, tmp_path, out="par", concurrency_limit=4)
        run_pipeline(sequential)
        run_pipeline(concurrent)
        p1, p2 = artifact_paths(sequential.out), artifact_paths(concurrent.out)
        for name in ("profiles", "signals", "step_labels"):
            assert p1[name].read_bytes() == p2[name].read_bytes(), name

    @pytest.mark.parametrize("cached, workers", [(False, 1), (True, 4)], ids=["no-cache", "cache-4-workers"])
    def test_backend_calls_equal_distinct_requests(self, demo_corpus, tmp_path, monkeypatch, cached, workers):
        from steplab import pipeline
        from steplab.scoring import CachingBackend, ReferenceModel, ScoreCache

        counting = None

        def counting_backend(spec, cache_dir, **kwargs):
            nonlocal counting
            counting = CountingBackend(ReferenceModel.from_file(spec.split(":", 1)[1]))
            return CachingBackend(counting, ScoreCache(cache_dir)) if cache_dir else counting

        monkeypatch.setattr(pipeline, "make_backend", counting_backend)
        cfg = RunConfig(
            problems=str(demo_corpus["problems"]),
            traces=str(demo_corpus["traces"]),
            out_dir=str(tmp_path / "run"),
            backend=f"reference:{demo_corpus['reference_model']}",
            cache_dir=str(tmp_path / "cache") if cached else "",
            concurrency_limit=workers,
        )
        run_pipeline(cfg, stages=["ingest", "validate", "score"])
        requests = profile_requests_of(cfg.out)
        pairs = set(requests)
        counts = json.loads((cfg.out / "stages" / "score.json").read_text())["counts"]
        assert counting.calls == len(pairs) == counts["backend_calls"]
        assert counts["requests"] == len(requests) > len(pairs)
        traces = len(distinct_traces_of(cfg.out))
        assert counts["cache_misses"] == counts["rows_stored"] == (traces if cached else 0)

    def test_warm_cache_totals_are_bit_equal_to_token_sums(self, demo_corpus, tmp_path):
        from steplab.scoring import ReferenceModel, ScoreCache, ScoringRequest, build_context, trace_key

        cfg = config_for(demo_corpus, tmp_path)
        run_pipeline(cfg, stages=["ingest", "validate", "score"])
        model = ReferenceModel.from_file(demo_corpus["reference_model"])
        traces = {trace_key(model.backend_id, q, list(steps), list(answers)): (q, steps, answers)
                  for q, steps, answers in distinct_traces_of(cfg.out)}
        warm = ScoreCache(tmp_path / "cache").get(
            {key: (len(steps) + 1) * len(answers) for key, (_, steps, answers) in traces.items()}
        )
        assert len(warm) == len(traces)
        for key, (question, steps, answers) in traces.items():
            cells = [ScoringRequest(build_context(question, list(steps[:i])), a)
                     for i in range(len(steps) + 1) for a in answers]
            assert [total.hex() for total in warm[key]] == [model.score(cell).total().hex() for cell in cells]

    def test_profile_requests_are_built_once_per_distinct_scored_trace(self, small_corpus, tmp_path, monkeypatch):
        from steplab import scoring

        built = []
        original = scoring.profile_requests

        def counting_profile_requests(problem, trace, answers):
            built.append(trace.trace_id)
            return original(problem, trace, answers)

        monkeypatch.setattr(scoring, "profile_requests", counting_profile_requests)
        cfg = config_for(small_corpus, tmp_path, cache_dir="")
        run_pipeline(cfg, stages=["ingest", "validate", "score"])
        counts = json.loads((cfg.out / "stages" / "score.json").read_text())["counts"]
        assert len(built) == len(set(built)) == len(distinct_traces_of(cfg.out)) > 0
        assert len(built) <= counts["traces_scored"]

    def test_cache_holds_one_row_per_distinct_scored_trace(self, small_corpus, tmp_path):
        # The corpus plus a copy of one trace under another id: two
        # working-set traces, one profile row.
        traces = [json.loads(line) for line in Path(small_corpus["traces"]).read_text().splitlines()]
        copied = tmp_path / "traces.jsonl"
        copied.write_text("".join(json.dumps(t) + "\n" for t in [*traces, {**traces[0], "trace_id": "copy"}]))
        cfg = config_for(small_corpus, tmp_path, traces=str(copied))
        run_pipeline(cfg, stages=["ingest", "validate", "score"])
        counts = json.loads((cfg.out / "stages" / "score.json").read_text())["counts"]
        rows = len(distinct_traces_of(cfg.out))
        assert counts["traces_scored"] == rows + 1
        assert counts["cache_misses"] == counts["rows_stored"] == rows
        assert cache_tables(tmp_path / "cache") == {"profiles": rows}

    def test_force_reruns(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path)
        run_pipeline(cfg)
        forced = config_for(small_corpus, tmp_path, force=True)
        again = run_pipeline(forced)
        assert not any(s["skipped"] for s in again["stages"])

    def test_unreachable_backend_fails_without_partial_labels(self, small_corpus, tmp_path):
        cfg = config_for(small_corpus, tmp_path, backend="http://127.0.0.1:9")
        from steplab.errors import BackendError

        with pytest.raises(BackendError):
            run_pipeline(cfg)
        paths = artifact_paths(cfg.out)
        assert not paths["profiles"].exists()
        assert not paths["signals"].exists()
        assert not paths["step_labels"].exists()

    def test_threshold_file_override(self, small_corpus, tmp_path):
        thresholds = tmp_path / "my_thresholds.json"
        thresholds.write_text(json.dumps({"math": 99.0, "qa": 99.0}))
        cfg = config_for(small_corpus, tmp_path, thresholds_file=str(thresholds))
        run_pipeline(cfg, stages=["ingest", "validate", "score", "signals", "label"])
        rows = [
            json.loads(line)
            for line in artifact_paths(cfg.out)["step_labels"].read_text().splitlines()
        ]
        assert all(row["threshold"] == 99.0 for row in rows)
        assert all(l == 0 for row in rows for l in row["labels"])


class TestCli:
    def test_stage_subcommands_chain(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "cli-run"
        base = ["--backend", f"reference:{small_corpus['reference_model']}", "--cache-dir", str(tmp_path / "cache")]
        assert main(base + [
            "ingest", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        assert main(base + ["validate", "--out-dir", str(out)]) == 0
        assert main(base + ["score", "--out-dir", str(out)]) == 0
        assert main(base + ["sweep", "--out-dir", str(out)]) == 0
        assert main(base + ["label", "--out-dir", str(out)]) == 0
        assert main(base + ["emit", "--out-dir", str(out), "--split", "dev", "--shard-size", "5"]) == 0
        assert main(base + ["eval-bok", "--out-dir", str(out), "--scorer", "oracle", "--k", "4"]) == 0
        assert (out / "eval_report.json").exists()
        assert len(list((out / "prm").glob("dev-*.jsonl"))) > 1
        # The chain labels at the thresholds the sweep calibrated, as run does.
        assert main(base + [
            "run", "--out-dir", str(tmp_path / "one-run"),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        assert (out / "step_labels.jsonl").read_bytes() == (tmp_path / "one-run" / "step_labels.jsonl").read_bytes()

    def test_emit_is_one_stage_that_reads_the_traces_once(self, small_corpus, tmp_path, parses, capsys):
        out = tmp_path / "run"
        base = ["--backend", f"reference:{small_corpus['reference_model']}", "--cache-dir", str(tmp_path / "cache")]
        assert main(base + [
            "run", "--out-dir", str(out), "--stages", "ingest,validate,score,signals,sweep,label",
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        parses.clear()
        capsys.readouterr()
        assert main(["emit", "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and printed[1].startswith("  emit: ran | ")
        assert parses[artifact_paths(out)["parsed_traces"]] == 1
        assert list((out / "prm").glob("train-*.jsonl")) and list((out / "orm").glob("train-*.jsonl"))
        report = json.loads((out / "emit_report.json").read_text())
        counts = json.loads((out / "stages" / "emit.json").read_text())["counts"]
        assert report == {which: counts[which]["balance"] for which in ("prm", "orm")}
        assert not (out / "stages" / "emit_prm.json").exists()
        assert not (out / "stages" / "emit_orm.json").exists()
        assert main(["emit", "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and printed[1].startswith("  emit: skipped | ")

    def test_run_and_report(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "cli-full"
        run = [
            "--backend", f"reference:{small_corpus['reference_model']}",
            "--cache-dir", str(tmp_path / "cache"),
            "run", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]
        assert main(run) == 0
        assert main(["report", "--out-dir", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "cache hit rate" in captured
        counts = json.loads((out / "stages" / "score.json").read_text())["counts"]
        assert (
            f"requests {counts['requests']}, backend calls {counts['backend_calls']}, retries 0, "
            f"backend p50 {counts['backend_p50_ms']:.2f} ms, p99 {counts['backend_p99_ms']:.2f} ms"
        ) in captured
        assert counts["backend_p99_ms"] >= counts["backend_p50_ms"] > 0
        evals = json.loads((out / "stages" / "eval.json").read_text())["counts"]
        assert f"candidates {evals['candidates']} ({evals['unscored_candidates']} unscored)" in captured
        emitted = json.loads((out / "stages" / "emit.json").read_text())["counts"]
        assert emitted["prm"]["records"] > 0 and emitted["orm"]["records"] > 0
        assert f"prm records {emitted['prm']['records']} | orm records {emitted['orm']['records']}" in captured
        # Each stage that ran shows its wall time; a skipped stage shows none.
        for stage in STAGE_TABLE:
            wall_s = json.loads((out / "stages" / f"{stage}.json").read_text())["wall_s"]
            assert f"  {stage}: ran | wall {wall_s:.3f} s" in captured
        assert main(run) == 0
        rerun = capsys.readouterr().out
        assert rerun.count(": skipped") == len(STAGE_TABLE) and "wall" not in rerun

    def test_cache_file_that_is_not_a_database_exits_2(self, small_corpus, tmp_path, caplog):
        cache_file = tmp_path / "cache" / "scores.sqlite"
        cache_file.parent.mkdir()
        cache_file.write_bytes(b"not a database\n" * 200)
        code = main([
            "--backend", f"reference:{small_corpus['reference_model']}",
            "--cache-dir", str(cache_file.parent),
            "run", "--out-dir", str(tmp_path / "run"),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ])
        assert code == 2
        assert any("ConfigError" in r.message and str(cache_file) in r.message for r in caplog.records)

    def test_missing_model_file_exits_2_naming_it(self, small_corpus, tmp_path, caplog):
        missing = tmp_path / "absent_model.json"
        code = main([
            "--backend", f"reference:{missing}",
            "run", "--out-dir", str(tmp_path / "run"),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ])
        assert code == 2
        assert any("ConfigError" in r.message and str(missing) in r.message for r in caplog.records)

    def test_unrecognized_backend_spec_exits_2(self, small_corpus, tmp_path, caplog):
        code = main([
            "--backend", "ftp://x",
            "run", "--out-dir", str(tmp_path / "run"),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ])
        assert code == 2
        assert any("ConfigError: unrecognized backend spec: 'ftp://x'" in r.message for r in caplog.records)

    @pytest.mark.parametrize("workers", ["1", "4"])
    @pytest.mark.parametrize("damage", ["not-an-object", "no-table", "invalid-probabilities", "probability-true"])
    def test_invalid_model_file_exits_3_when_a_miss_loads_it(self, small_corpus, tmp_path, caplog, damage, workers):
        model = json.loads(Path(small_corpus["reference_model"]).read_text())
        if damage == "not-an-object":
            model = [model]
        elif damage == "no-table":
            del model["table"]
        elif damage == "invalid-probabilities":
            model["table"][next(iter(model["table"]))] = {"a": 0.9, "b": 0.9}
        else:  # a JSON true is no probability, not even 1
            model["table"][next(iter(model["table"]))] = {"a": True}
        path = tmp_path / "damaged_model.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "run"
        code = main([
            "--backend", f"reference:{path}",
            "run", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
            "--concurrency", workers,
        ])
        assert code == 3
        assert any("DataError" in r.message and str(path) in r.message for r in caplog.records)
        assert not artifact_paths(out)["profiles"].exists()

    def test_warm_or_skipped_score_stage_never_parses_the_model(self, small_corpus, tmp_path, monkeypatch, capsys):
        from steplab import scoring
        from steplab.scoring import ReferenceModel

        out = tmp_path / "run"
        base = [
            "--backend", f"reference:{small_corpus['reference_model']}",
            "--cache-dir", str(tmp_path / "cache"),
            "run", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]
        assert main(base) == 0

        def refuse(*args):
            raise AssertionError("the reference model was parsed or a request was built")

        read_bytes = Path.read_bytes

        def refuse_the_model(path):
            if path == Path(small_corpus["reference_model"]):
                raise AssertionError(f"{path} was read whole")
            return read_bytes(path)

        monkeypatch.setattr(ReferenceModel, "_load", refuse)
        # Its id comes from a streaming hash: the file is never read whole.
        monkeypatch.setattr(Path, "read_bytes", refuse_the_model)
        # A fully warm score stage builds no (prefix, answer) request.
        monkeypatch.setattr(scoring, "profile_requests", refuse)
        capsys.readouterr()
        assert main(base) == 0
        assert "score: skipped" in capsys.readouterr().out
        assert main(base + ["--stages", "score", "--force"]) == 0
        counts = json.loads((out / "stages" / "score.json").read_text())["counts"]
        assert counts["cache_hits"] == len(distinct_traces_of(out)) > 0
        assert counts["backend_calls"] == counts["cache_misses"] == counts["rows_stored"] == 0

    @pytest.mark.parametrize("table", ["scores", "totals"])
    def test_cache_with_only_an_old_table_is_read_as_empty(self, small_corpus, tmp_path, table):
        def run(cache_dir, out):
            return main([
                "--backend", f"reference:{small_corpus['reference_model']}",
                "--cache-dir", str(cache_dir),
                "run", "--out-dir", str(tmp_path / out),
                "--problems", str(small_corpus["problems"]),
                "--traces", str(small_corpus["traces"]),
            ])

        assert run(tmp_path / "new", "primed") == 0
        # A cache in a former format, holding a row under the per-cell key
        # of every (prefix, answer) cell the primed run scored: `scores`
        # held tokens, logprobs and a backend id as JSON, `totals` the total.
        from steplab.scoring import ReferenceModel

        backend_id = ReferenceModel.from_file(small_corpus["reference_model"]).backend_id
        keys = [
            (hashlib.sha256(f"{len(backend_id)}:{backend_id}{len(r.context)}:{r.context}{r.continuation}".encode())
             .hexdigest(),)
            for r in set(profile_requests_of(tmp_path / "primed"))
        ]
        old = tmp_path / "old" / "scores.sqlite"
        old.parent.mkdir()
        with sqlite3.connect(old) as db:
            if table == "scores":
                db.execute(
                    "CREATE TABLE scores (key TEXT PRIMARY KEY, tokens TEXT NOT NULL,"
                    " logprobs TEXT NOT NULL, backend_id TEXT NOT NULL) WITHOUT ROWID"
                )
                db.executemany("INSERT INTO scores VALUES (?, '[\"a\"]', '[-1.0]', 'x')", keys)
            else:
                db.execute("CREATE TABLE totals (key TEXT PRIMARY KEY, total REAL NOT NULL) WITHOUT ROWID")
                db.executemany("INSERT INTO totals VALUES (?, -1.0)", keys)
        db.close()
        assert run(old.parent, "run") == 0
        counts = json.loads((tmp_path / "run" / "stages" / "score.json").read_text())["counts"]
        assert counts["cache_hits"] == 0
        assert counts["cache_misses"] == counts["rows_stored"] == len(distinct_traces_of(tmp_path / "run")) > 0
        assert counts["backend_calls"] == len(keys)
        assert cache_tables(old.parent) == {table: len(keys), "profiles": counts["rows_stored"]}
        assert (tmp_path / "run" / "profiles.jsonl").read_bytes() == (tmp_path / "primed" / "profiles.jsonl").read_bytes()

    def test_backend_error_exit_code(self, small_corpus, tmp_path):
        out = tmp_path / "cli-bad"
        main([
            "score", "--out-dir", str(out),
        ])  # missing artifacts: config error
        code = main([
            "--backend", "http://127.0.0.1:9",
            "run", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ])
        assert code == 4

    def test_config_error_exit_code(self, tmp_path):
        assert main(["score", "--out-dir", str(tmp_path / "nowhere")]) == 2

    @pytest.mark.parametrize(
        "config_text, flags, key",
        [
            ("eval_scorer = bogus\n", [], "eval_scorer"),
            ("", ["--k", "0"], "eval_k"),
            ("", ["--grid-size", "0"], "grid_size"),
            ("k_subsample = 0\n", [], "k_subsample"),
            ("backend_timeout_s = soon\n", [], "backend_timeout_s"),
            ("force = yes\n", [], "force"),
            ("backend_retries = true\n", [], "backend_retries"),
            ("seed = 7.0\n", [], "seed"),
            ("", ["--k-subsample", "abc"], "k_subsample"),
            ("backend_timeout_s = nan\n", [], "backend_timeout_s"),
            ("backend_timeout_s = 0\n", [], "backend_timeout_s"),
            ("backend_backoff_s = -1\n", [], "backend_backoff_s"),
            ("", ["--domains", "maths"], "'maths'"),
            ("domains = math, sql, Math\n", [], "'Math'"),
            ("split = ../escape\n", [], "'../escape'"),
            ("", ["--split", "a/b"], "'a/b'"),
            ('split = ""\n', [], "split"),
            ("", ["--method", "guess"], "method"),
            ("k_subsample 4\n", [], "run.cfg:1: expected key = value"),
            ("", ["--scorer", "step-product"], "needs --step-scores"),
        ],
        ids=[
            "eval-scorer-bogus", "k-0", "grid-size-0", "k-subsample-0", "timeout-soon", "force-yes",
            "retries-true", "seed-float", "k-subsample-abc", "timeout-nan", "timeout-0", "backoff-negative",
            "domain-unknown", "domain-capitalized", "split-escaping", "split-with-a-slash", "split-empty",
            "method-flag-guess", "line-without-equals", "step-product-without-step-scores",
        ],
    )
    def test_bad_config_fails_before_any_stage(self, small_corpus, tmp_path, caplog, config_text, flags, key):
        config = tmp_path / "run.cfg"
        config.write_text(config_text)
        out = tmp_path / "cli-bad-config"
        code = main([
            "--config", str(config),
            "--backend", f"reference:{small_corpus['reference_model']}",
            "run", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
            *flags,
        ])
        assert code == 2
        assert not (out / "stages").exists()
        assert any("ConfigError" in r.message and key in r.message for r in caplog.records)

    @pytest.mark.parametrize("flag", ["--out-dir", "--cache-dir"])
    @pytest.mark.parametrize("below", [False, True], ids=["the-file", "below-the-file"])
    def test_directory_naming_a_file_exits_2(self, small_corpus, tmp_path, caplog, flag, below):
        plain = tmp_path / "plain-file"
        plain.write_text("")
        value = str(plain / "sub" if below else plain)
        dirs = {"--out-dir": str(tmp_path / "run"), "--cache-dir": str(tmp_path / "cache"), flag: value}
        assert main([
            "--backend", f"reference:{small_corpus['reference_model']}", "--cache-dir", dirs["--cache-dir"],
            "run", "--out-dir", dirs["--out-dir"],
            "--problems", str(small_corpus["problems"]), "--traces", str(small_corpus["traces"]),
        ]) == 2
        assert any("ConfigError" in r.message and repr(value) in r.message for r in caplog.records)
        assert not (tmp_path / "run").exists()

    def test_seed_flag_is_read_as_an_integer(self, tmp_path):
        pool = tmp_path / "pool.txt"
        pool.write_text("1\n2\n3\n")
        analyze = ["analyze-bias", "--pool-file", str(pool), "--s", "2", "--replicates", "10"]
        assert main(["--seed", "7", *analyze]) == 0
        assert main(["--seed", "7.0", *analyze]) == 2

    def test_domains_flag_and_config_line_give_the_same_config(self, tmp_path, monkeypatch):
        from steplab import pipeline

        seen = []
        stub = lambda name, cfg, memo: seen.append(cfg.domains) or {**EMPTY_ENTRY, "name": name}  # noqa: E731
        monkeypatch.setattr(pipeline, "run_stage", stub)
        out = ["ingest", "--out-dir", str(tmp_path / "run")]
        assert main([*out, "--domains", "math, qa"]) == 0
        for line in ("domains = math, qa", 'domains = "math, qa"'):
            config = tmp_path / "run.cfg"
            config.write_text(line + "\n")
            assert main(["--config", str(config), *out]) == 0
        assert seen == [["math", "qa"]] * 3

    def test_sweep_takes_the_signal_flags_of_label(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "cli-ig"
        base = ["--backend", f"reference:{small_corpus['reference_model']}"]
        assert main(base + [
            "ingest", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        assert main(base + ["validate", "--out-dir", str(out)]) == 0
        assert main(base + ["score", "--out-dir", str(out)]) == 0
        assert main(base + ["sweep", "--out-dir", str(out), "--method", "ig"]) == 0
        capsys.readouterr()
        assert main(base + ["label", "--out-dir", str(out), "--method", "ig"]) == 0
        assert "  signals: skipped | " in capsys.readouterr().out
        rows = [json.loads(line) for line in (out / "signals.jsonl").read_text().splitlines()]
        assert rows and all(row["method"] == "IG" for row in rows)

    def test_sweep_rejects_a_non_finite_signal(self, small_corpus, tmp_path, caplog):
        out = tmp_path / "cli-nan"
        base = ["--backend", f"reference:{small_corpus['reference_model']}"]
        assert main(base + [
            "run", "--out-dir", str(out), "--stages", "ingest,validate,score,signals",
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        signals = out / "signals.jsonl"
        rows = [json.loads(line) for line in signals.read_text().splitlines()]
        rows[0]["values"][0] = float("nan")
        signals.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(base + ["sweep", "--out-dir", str(out)]) == 3
        assert any("DataError" in r.message and f"{signals}:1:" in r.message for r in caplog.records)
        assert not (out / "sweep.json").exists()
        assert not (out / "thresholds.json").exists()

    def test_domains_flag_drops_the_problems_of_other_domains(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "math-only"
        assert main([
            "ingest", "--out-dir", str(out), "--domains", "math",
            "--problems", str(small_corpus["problems"]), "--traces", str(small_corpus["traces"]),
        ]) == 0
        domain_of = {row["id"]: row["domain"] for row in read_jsonl(small_corpus["problems"])}
        others = [pid for pid, domain in domain_of.items() if domain != "math"]
        counts = json.loads((out / "stages" / "ingest.json").read_text())["counts"]
        assert others and counts["dropped"] == dict.fromkeys(others, "domain_excluded")
        assert counts["traces_in"] == len(list(read_jsonl(small_corpus["traces"])))
        assert [row["id"] for row in read_jsonl(out / "problems.jsonl")] == [p for p in domain_of if p not in others]
        parsed = [row["problem_id"] for row in read_jsonl(out / "parsed_traces.jsonl")]
        assert parsed and {domain_of[pid] for pid in parsed} == {"math"} and len(parsed) == counts["traces_out"]
        assert f"dropped domain_excluded={len(others)}" in capsys.readouterr().out

    def test_run_help_lists_every_stage_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = capsys.readouterr().out
        for flag in ("--concurrency", "--thresholds", "--split", "--shard-size", "--step-scores"):
            assert flag in help_text

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("ingest", ["--problems", "--traces", "--domains"]),
            ("validate", []),
            ("score", ["--k-subsample", "--concurrency"]),
            ("label", ["--method", "--aggregation", "--reference", "--thresholds"]),
            ("sweep", ["--grid-size"]),
            ("emit", ["--split", "--shard-size"]),
            ("eval-bok", ["--scorer", "--k", "--step-scores"]),
            ("run", ["--problems", "--traces", "--domains", "--k-subsample", "--method", "--aggregation",
                     "--reference", "--grid-size", "--scorer", "--k", "--stages"]),
        ],
    )
    def test_subcommands_keep_their_flags(self, command, flags):
        values = {"--method": "ig", "--aggregation": "mean", "--reference": "previous", "--scorer": "oracle"}
        argv = [command, "--out-dir", "run", "--force"]
        for flag in flags:
            argv += [flag, values.get(flag, "1")]
        build_parser().parse_args(argv)

    def test_analyze_complexity_output(self, capsys):
        code = main([
            "analyze-complexity", "--n", "100", "--s-bar", "30", "--m", "8",
            "--big-s", "16", "--t", "20", "--q-len", "60",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tokens"]["mathshepherd"] == 1_188_000
        assert report["tokens"]["mcnig"] == 35_380
        assert abs(report["tokens"]["omegaprm"] - 79_726.27) < 0.1

    def test_analyze_complexity_out_writes_the_json_it_prints(self, tmp_path, capsys):
        out = tmp_path / "reports" / "complexity.json"
        assert main(["analyze-complexity", "--n", "100", "--s-bar", "30", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") + "\n" == printed and json.loads(printed)["tokens"]
        assert [p.name for p in out.parent.iterdir()] == ["complexity.json"]

    def test_analyze_bias_exhaustive(self, tmp_path, capsys):
        pool_file = tmp_path / "pool.json"
        pool_file.write_text("[1, 2, 3]")
        code = main(["analyze-bias", "--pool-file", str(pool_file), "--s", "2", "--exhaustive"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ANALYZE_BIAS_KEYS
        assert (report["pool_size"], report["pool_max"], report["s"], report["replicates"]) == (3, 3.0, 2, 0)
        assert report["bias"] == pytest.approx(-1 / 3)
        assert report["variance"] == pytest.approx(2 / 9)
        assert report["exact"] is True

    def test_analyze_bias_monte_carlo(self, tmp_path, capsys):
        pool_file = tmp_path / "pool.txt"
        pool_file.write_text("1\n2\n3\n")
        code = main([
            "--seed", "7",
            "analyze-bias", "--pool-file", str(pool_file), "--s", "2", "--replicates", "4000",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ANALYZE_BIAS_KEYS
        assert (report["pool_size"], report["pool_max"], report["s"], report["replicates"]) == (3, 3.0, 2, 4000)
        assert report["exact"] is False
        assert abs(report["bias"] - (-1 / 3)) < 0.05

    @pytest.mark.parametrize(
        "text, mode",
        [
            ("[1, NaN, 3]", ["--replicates", "50"]),
            ("[1, Infinity, 3]", ["--exhaustive"]),
            ("[1, true, 3]", ["--exhaustive"]),
            ('[1, "2", 3]', ["--exhaustive"]),
            ("[1, 1" + "0" * 400 + ", 3]", ["--exhaustive"]),
            ("1\ninf\n3\n", ["--exhaustive"]),
            ("1\nnan\n3\n", ["--replicates", "50"]),
        ],
        ids=["json-nan", "json-infinity", "json-true", "json-string", "json-huge-integer", "line-inf", "line-nan"],
    )
    def test_analyze_bias_pool_of_non_finite_numbers_exits_3_naming_it(self, tmp_path, caplog, text, mode):
        pool_file = tmp_path / "pool.txt"
        pool_file.write_text(text)
        assert main(["analyze-bias", "--pool-file", str(pool_file), "--s", "2", *mode]) == 3
        assert f"DataError: pool file {pool_file}" in caplog.text

    @pytest.mark.parametrize(
        "argv",
        [["analyze-complexity", "--n", "10", "--s-bar", "30"], ["analyze-bias", "--pool-file", "absent", "--s", "2"]],
        ids=["complexity", "bias"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["a-directory", "below-a-file"])
    def test_analyze_out_that_cannot_be_a_file_exits_2_before_computing(self, tmp_path, capsys, caplog, argv, below):
        # The bias pool file does not exist: the --out check comes first.
        (tmp_path / "plain-file").write_text("")
        out = tmp_path / "plain-file" / "report.json" if below else tmp_path
        assert main([*argv, "--out", str(out)]) == 2
        assert f"ConfigError: --out {out} is a directory or below a file" in caplog.text
        assert capsys.readouterr().out == "" and [p.name for p in tmp_path.iterdir()] == ["plain-file"]

    @pytest.mark.parametrize("flag", ["--s-bar", "--t", "--q-len"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_analyze_complexity_non_finite_token_count_exits_3(self, caplog, flag, value):
        argv = ["analyze-complexity", "--n", "10", "--s-bar", "30", flag, value]
        assert main(argv) == 3
        assert "token counts must be finite and non-negative" in caplog.text

    def test_eval_bok_with_external_step_scores(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "cli-scores"
        base = [
            "--backend", f"reference:{small_corpus['reference_model']}",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        for cmd in (["ingest", "--out-dir", str(out),
                     "--problems", str(small_corpus["problems"]),
                     "--traces", str(small_corpus["traces"])],
                    ["validate", "--out-dir", str(out)]):
            assert main(base + cmd) == 0
        # External per-step probabilities: favorable for every trace.
        rows = []
        for line in (out / "parsed_traces.jsonl").read_text().splitlines():
            obj = json.loads(line)
            rows.append(
                json.dumps(
                    {
                        "problem_id": obj["problem_id"],
                        "trace_id": obj["trace_id"],
                        "step_probs": [0.9] * len(obj["steps"]),
                    }
                )
            )
        scores_file = tmp_path / "step_scores.jsonl"
        scores_file.write_text("\n".join(rows) + "\n")
        code = main(base + [
            "eval-bok", "--out-dir", str(out),
            "--scorer", "step-product", "--k", "4", "--step-scores", str(scores_file),
        ])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["scorer_id"] == "step-product"
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_step_probability_out_of_range_exits_3_without_a_report(self, small_corpus, tmp_path):
        out = tmp_path / "cli-bad-scores"
        base = ["--backend", f"reference:{small_corpus['reference_model']}"]
        assert main(base + [
            "ingest", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        assert main(base + ["validate", "--out-dir", str(out)]) == 0
        rows = [
            {"problem_id": obj["problem_id"], "trace_id": obj["trace_id"], "step_probs": [0.5, 1.5]}
            for obj in read_jsonl(out / "parsed_traces.jsonl")
        ]
        scores_file = tmp_path / "step_scores.jsonl"
        scores_file.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code = main(base + [
            "eval-bok", "--out-dir", str(out), "--scorer", "step-product", "--step-scores", str(scores_file),
        ])
        assert code == 3
        assert not (out / "eval_report.json").exists()


def _masked(report: str) -> str:
    """A report with its timings, each stage's wall time and the backend latencies, as ``*``."""
    return re.sub(r"(wall|p50|p99) \d+\.\d+", r"\1 *", report)


_SCORED = "problems 6 -> 4 | dropped all_correct=1, no_parsed_traces=1 | requests 169"
_COLD = f"{_SCORED}, backend calls 136, retries 0, backend p50 * ms, p99 * ms | chars sent 17007 (6.0x the linear cost)"
_WARM = f"{_SCORED}, backend calls 0, retries 0, backend p50 * ms, p99 * ms | chars sent 0 (0.0x the linear cost)"
_AFTER_SCORE = [
    "  signals: {} | problems 4 -> 4",
    "  sweep: {}",
    "  label: {}",
    "  emit: {} | prm records 16 | orm records 16",
    "  eval: {} | problems 6 -> 6 | accuracy 0.8333 | candidates 24 (8 unscored)",
]
_RAN, _SKIPPED = "ran | wall * s", "skipped"
# The whole report of four runs of the 6x4 demo corpus, timings masked: a run,
# its all-skipped rerun, a warm run on a primed cache, and a run whose score
# stage failed at its 25th backend call.
GOLDEN_REPORTS = {
    "run": [
        f"  ingest: {_RAN} | problems 6 -> 6", f"  validate: {_RAN} | problems 6 -> 6",
        f"  score: {_RAN} | {_COLD} | cache hit rate 0.0%", *(line.format(_RAN) for line in _AFTER_SCORE),
    ],
    "rerun": [
        f"  ingest: {_SKIPPED} | problems 6 -> 6", f"  validate: {_SKIPPED} | problems 6 -> 6",
        f"  score: {_SKIPPED} | {_COLD} | cache hit rate 0.0%", *(line.format(_SKIPPED) for line in _AFTER_SCORE),
    ],
    "warm": [
        f"  ingest: {_RAN} | problems 6 -> 6", f"  validate: {_RAN} | problems 6 -> 6",
        f"  score: {_RAN} | {_WARM} | cache hit rate 100.0%", *(line.format(_RAN) for line in _AFTER_SCORE),
    ],
    "failed": [
        f"  ingest: {_RAN} | problems 6 -> 6", f"  validate: {_RAN} | problems 6 -> 6",
        "  score: failed | BackendError: connection dropped"
        " | backend calls 24, retries 0, cache hits 0, cache misses 16, rows stored 2",
    ],
}


class TestRunReport:
    """Every invocation that runs stages, failed ones too, leaves the
    manifest that ``report`` reads, naming that invocation's stages."""

    def report(self, out, capsys) -> list[str]:
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out)]) == 0
        return capsys.readouterr().out.splitlines()[1:]

    def test_run_against_a_refused_port_reports_the_failed_stage(self, small_corpus, tmp_path, capsys):
        config = tmp_path / "fast.cfg"
        config.write_text("backend_backoff_s = 0\n")
        out = tmp_path / "run"
        assert main([
            "--config", str(config), "--backend", "http://127.0.0.1:9",
            "run", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 4
        lines = self.report(out, capsys)
        assert [line.split(":")[0].strip() for line in lines] == ["ingest", "validate", "score"]
        assert lines[-1].startswith("  score: failed | BackendError: ")
        failed = json.loads((out / "manifest.json").read_text())["stages"][-1]
        assert (failed["name"], failed["error"], failed["exit_code"]) == ("score", "BackendError", 4)
        # The failed entry keeps the stage's counts so far: every attempt was
        # refused, so no backend call completed and each retry is counted.
        counts = failed["counts"]
        assert counts["retries"] >= 1 and counts["backend_calls"] == counts["rows_stored"] == 0
        assert lines[-1].endswith(
            f" | backend calls 0, retries {counts['retries']}, cache hits 0,"
            f" cache misses {counts['cache_misses']}, rows stored 0"
        )
        # The failed stage leaves no stage manifest, so it runs again next time.
        assert not (out / "stages" / "score.json").exists()

    def test_four_reports_are_pinned_whole(self, run_6x4, failed_6x4, tmp_path):
        argv = _run_6x4_argv(run_6x4)
        shutil.copytree(run_6x4, tmp_path / "rerun")
        assert main([*argv, "--out-dir", str(tmp_path / "rerun")]) == 0
        for out in ("cold", "warm"):
            assert main(["--cache-dir", str(tmp_path / "cache"), *argv, "--out-dir", str(tmp_path / out)]) == 0
        runs = {"run": run_6x4, "rerun": tmp_path / "rerun", "warm": tmp_path / "warm", "failed": failed_6x4}
        reports = {name: _masked(summarize_run(out)).splitlines() for name, out in runs.items()}
        assert reports == {name: [f"run of steplab {__version__}", *lines] for name, lines in GOLDEN_REPORTS.items()}

    def test_failed_score_stage_records_the_rows_it_stored(self, small_corpus, tmp_path, monkeypatch, capsys):
        from steplab import pipeline
        from steplab.errors import BackendError
        from steplab.scoring import CachingBackend, ReferenceModel, ScoreCache

        model = ReferenceModel.from_file(small_corpus["reference_model"])
        flaky = CountingBackend(model, fail_at=25)
        monkeypatch.setattr(
            pipeline, "make_backend", lambda spec, cache_dir, **kw: CachingBackend(flaky, ScoreCache(cache_dir))
        )
        cfg = config_for(small_corpus, tmp_path)
        with pytest.raises(BackendError):
            run_pipeline(cfg)
        failed = json.loads((cfg.out / "manifest.json").read_text())["stages"][-1]
        assert (failed["name"], failed["exit_code"]) == ("score", 4)
        assert failed["counts"]["backend_calls"] == 24
        assert 0 < failed["counts"]["rows_stored"] == cache_tables(tmp_path / "cache")["profiles"]
        assert f"rows stored {failed['counts']['rows_stored']}" in self.report(cfg.out, capsys)[-1]

    def test_cold_and_warm_runs_report_the_characters_sent(self, small_corpus, tmp_path, capsys):
        run_pipeline(config_for(small_corpus, tmp_path, out="cold"))
        run_pipeline(config_for(small_corpus, tmp_path, out="warm"))
        cold, warm = (
            json.loads((tmp_path / out / "stages" / "score.json").read_text())["counts"] for out in ("cold", "warm")
        )
        assert cold["chars_sent"] > cold["chars_linear"] == warm["chars_linear"] > 0 == warm["chars_sent"]
        ratio = f"{cold['chars_sent'] / cold['chars_linear']:.1f}x"
        line = self.report(tmp_path / "cold", capsys)[2]
        assert f"| chars sent {cold['chars_sent']} ({ratio} the linear cost) |" in line
        assert "| chars sent 0 (0.0x the linear cost) |" in self.report(tmp_path / "warm", capsys)[2]

    def test_damaged_cache_rows_are_counted_not_warned(self, small_corpus, tmp_path, capsys, caplog):
        run_pipeline(config_for(small_corpus, tmp_path, out="cold"))
        with sqlite3.connect(tmp_path / "cache" / "scores.sqlite") as db:
            db.execute("UPDATE profiles SET totals = x'00' WHERE key IN (SELECT key FROM profiles LIMIT 2)")
        db.close()
        caplog.clear()
        run_pipeline(config_for(small_corpus, tmp_path, out="warm"))
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        counts = json.loads((tmp_path / "warm" / "stages" / "score.json").read_text())["counts"]
        assert counts["cache_damaged"] == counts["cache_misses"] == counts["rows_stored"] == 2
        assert "| cache hit rate " in (line := self.report(tmp_path / "warm", capsys)[2])
        assert line.endswith(", damaged rows 2")
        assert "damaged" not in self.report(tmp_path / "cold", capsys)[2]

    def test_validator_errors_are_counted_not_warned(self, small_corpus, tmp_path, capsys, caplog):
        rows = [json.loads(line) for line in small_corpus["problems"].read_text().splitlines()]
        rows[0]["validator"] = {"kind": "external_command", "command": "definitely-not-a-command-9f2 {candidate}"}
        problems = tmp_path / "problems.jsonl"
        problems.write_text(_jsonl(rows))
        cfg = config_for(small_corpus, tmp_path, problems=str(problems))
        run_pipeline(cfg, ["ingest", "validate"])
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        errors = json.loads((cfg.out / "stages" / "validate.json").read_text())["counts"]["validator_errors"]
        assert errors > 0
        assert self.report(cfg.out, capsys)[-1].endswith(f" | validator errors {errors}")
        run_pipeline(config_for(small_corpus, tmp_path, out="clean"), ["ingest", "validate"])
        assert "validator errors" not in self.report(tmp_path / "clean", capsys)[-1]

    def test_unknown_stage_is_recorded_as_failed_before_any_stage_runs(self, run_6x4, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        assert main(["run", "--out-dir", str(run), "--stages", "signals,bogus"]) == 2
        assert self.report(run, capsys) == [
            f"  bogus: failed | ConfigError: unknown stage 'bogus'; choose from {STAGES}"
        ]

    def test_interrupted_stage_is_recorded_with_exit_code_130(self, small_corpus, tmp_path, monkeypatch, capsys):
        from steplab import pipeline
        from steplab.scoring import CachingBackend, ReferenceModel, ScoreCache

        model = ReferenceModel.from_file(small_corpus["reference_model"])
        interrupted = CountingBackend(model, fail_at=40, fail_with=KeyboardInterrupt)
        monkeypatch.setattr(
            pipeline, "make_backend", lambda spec, cache_dir, **kw: CachingBackend(interrupted, ScoreCache(cache_dir))
        )
        cfg = config_for(small_corpus, tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg)
        failed = json.loads((cfg.out / "manifest.json").read_text())["stages"][-1]
        assert (failed["name"], failed["error"], failed["exit_code"]) == ("score", "KeyboardInterrupt", 130)
        assert failed["counts"]["backend_calls"] == 39
        assert failed["counts"]["rows_stored"] == cache_tables(tmp_path / "cache")["profiles"] > 0
        assert self.report(cfg.out, capsys)[-1].startswith("  score: failed | KeyboardInterrupt: connection dropped | ")

    def test_stage_subcommands_each_leave_a_manifest(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "ingest", "--out-dir", str(out),
            "--problems", str(small_corpus["problems"]),
            "--traces", str(small_corpus["traces"]),
        ]) == 0
        assert main(["validate", "--out-dir", str(out)]) == 0
        assert [line.split(":")[0].strip() for line in self.report(out, capsys)] == ["validate"]

    def test_lone_emit_on_a_labelled_run_reports_only_emit(self, run_6x4, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        assert main(["emit", "--out-dir", str(run)]) == 0
        lines = self.report(run, capsys)
        assert len(lines) == 1 and lines[0].startswith("  emit: skipped | prm records ")

    def test_label_without_thresholds_exits_2(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        run_pipeline(config_for(small_corpus, tmp_path), ["ingest", "validate", "score"])
        assert main(["label", "--out-dir", str(out)]) == 2
        assert not artifact_paths(out)["step_labels"].exists()
        lines = self.report(out, capsys)
        assert lines[0].startswith("  signals: ran | ")
        assert lines[1] == (
            f"  label: failed | ConfigError: stage 'label' needs {out / 'thresholds.json'};"
            " run the upstream stage first"
        )

    def test_eval_with_a_missing_step_scores_file_names_it(self, run_6x4, tmp_path, capsys):
        run, missing = tmp_path / "run", tmp_path / "nope.jsonl"
        shutil.copytree(run_6x4, run)
        argv = ["eval-bok", "--out-dir", str(run), "--scorer", "step-product", "--step-scores", str(missing)]
        assert main(argv) == 2
        assert self.report(run, capsys)[-1] == f"  eval: failed | ConfigError: step scores file not found: {missing}"

    def test_sigterm_is_handled_only_while_a_main_thread_command_runs(self, run_6x4, monkeypatch):
        from steplab import cli

        seen = []
        monkeypatch.setattr(cli, "summarize_run", lambda out: seen.append(signal.getsignal(signal.SIGTERM)) or "")
        before = signal.getsignal(signal.SIGTERM)
        assert main(["report", "--out-dir", str(run_6x4)]) == 0
        assert seen == [cli._terminate] and signal.getsignal(signal.SIGTERM) is before
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(["report", "--out-dir", str(run_6x4)])))
        worker.start()
        worker.join(timeout=60)
        assert codes == [0] and seen[-1] is before

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_report_into_a_closed_pipe_exits_141_and_says_nothing(self, run_6x4, unbuffered):
        """``steplab report | head``, when head has gone: with stdout buffered
        or not, no traceback and no second failure at the interpreter's exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        try:
            child = subprocess.run(
                [sys.executable, "-m", "steplab.cli", "report", "--out-dir", str(run_6x4)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b"")


@pytest.fixture(scope="module")
def small_run(small_corpus, tmp_path_factory):
    """A finished run of the small corpus, to copy and damage."""
    out = tmp_path_factory.mktemp("small-run") / "run"
    run_pipeline(load_config(overrides=dict(
        problems=str(small_corpus["problems"]),
        traces=str(small_corpus["traces"]),
        out_dir=str(out),
        backend=f"reference:{small_corpus['reference_model']}",
    ), env={}))
    return out


def _jsonl(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


# Each case: the user file it damages, and its damaged text from the small
# corpus and its finished run.
def _step_scores(run, damage):
    """A step-scores file for every parsed trace of ``run``, each step 0.5,
    with the first trace's probabilities passed through ``damage``."""
    rows = [
        {"problem_id": row["problem_id"], "trace_id": row["trace_id"], "step_probs": [0.5] * len(row["steps"])}
        for row in read_jsonl(run / "parsed_traces.jsonl")
    ]
    rows[0]["step_probs"] = damage(rows[0]["step_probs"])
    return _jsonl(rows)


def _first_trace_repeated(traces: Path) -> str:
    """The traces file, then its first trace's ids again with the second trace's text."""
    rows = list(read_jsonl(traces))
    return _jsonl([*rows, {**rows[0], "raw_text": rows[1]["raw_text"]}])


MALFORMED_USER_FILES = {
    "problem-without-gold-answer": (
        "problems",
        lambda c, r: _jsonl([{k: v for k, v in row.items() if k != "gold_answer"} for row in read_jsonl(c["problems"])]),
    ),
    "problem-line-not-an-object": ("problems", lambda c, r: c["problems"].read_text() + "[1, 2]\n"),
    "problem-id-repeated": (
        "problems",
        lambda c, r: c["problems"].read_text() + c["problems"].read_text().splitlines(keepends=True)[0],
    ),
    "problem-validator-not-an-object": (
        "problems",
        lambda c, r: _jsonl([{**row, "validator": "numeric"} for row in read_jsonl(c["problems"])]),
    ),
    "problem-validator-without-kind": (
        "problems",
        lambda c, r: _jsonl([{**row, "validator": {"rel_tol": 0.01}} for row in read_jsonl(c["problems"])]),
    ),
    "problem-validator-of-unknown-kind": (
        "problems",
        lambda c, r: _jsonl([{**row, "validator": {"kind": "quantum"}} for row in read_jsonl(c["problems"])]),
    ),
    "problem-sql-validator-without-gold-query": (
        "problems",
        lambda c, r: _jsonl([
            {**row, "validator": {"kind": "sql_execution", "fixture": "f.sql"}} for row in read_jsonl(c["problems"])
        ]),
    ),
    "problem-command-validator-without-placeholder": (
        "problems",
        lambda c, r: _jsonl([
            {**row, "validator": {"kind": "external_command", "command": "true"}} for row in read_jsonl(c["problems"])
        ]),
    ),
    "problem-validator-timeout-not-positive": (
        "problems",
        lambda c, r: _jsonl([
            {**row, "validator": {"kind": "external_command", "command": "test {candidate}", "timeout_s": 0}}
            for row in read_jsonl(c["problems"])
        ]),
    ),
    **{
        f"problem-validator-{case}": ("problems", lambda c, r, validator=validator: _jsonl([
            {**row, "validator": validator} for row in read_jsonl(c["problems"])
        ]))
        for case, validator in {
            "rel-tol-text": {"kind": "numeric_equivalence", "rel_tol": "x"},
            "rel-tol-negative": {"kind": "numeric_equivalence", "rel_tol": -1},
            "rel-tol-a-bool": {"kind": "numeric_equivalence", "rel_tol": True},
            "rel-tol-infinite": {"kind": "numeric_equivalence", "rel_tol": math.inf},
            "numeric-gold-a-number": {"kind": "numeric_equivalence", "gold": 5},
            "exact-gold-a-number": {"kind": "normalized_exact", "gold": 5},
            "sql-fixture-a-number": {"kind": "sql_execution", "fixture": 5, "gold_query": "SELECT 1"},
            "sql-gold-query-a-list": {"kind": "sql_execution", "fixture": "f.sql", "gold_query": ["SELECT 1"]},
            "command-a-list": {"kind": "external_command", "command": ["test", "{candidate}"]},
            "timeout-a-bool": {"kind": "external_command", "command": "test {candidate}", "timeout_s": True},
            "timeout-text": {"kind": "external_command", "command": "test {candidate}", "timeout_s": "5"},
        }.items()
    },
    "problem-gold-answer-a-number": (
        "problems",
        lambda c, r: _jsonl([{**row, "gold_answer": 4} for row in read_jsonl(c["problems"])]),
    ),
    "trace-without-raw-text": (
        "traces",
        lambda c, r: _jsonl([{k: v for k, v in row.items() if k != "raw_text"} for row in read_jsonl(c["traces"])]),
    ),
    "trace-raw-text-blank": (
        "traces",
        lambda c, r: _jsonl([{**row, "raw_text": "   "} for row in read_jsonl(c["traces"])]),
    ),
    "trace-raw-text-not-a-string": (
        "traces",
        lambda c, r: _jsonl([{**row, "raw_text": ["step", "$4$"]} for row in read_jsonl(c["traces"])]),
    ),
    "trace-id-repeated": ("traces", lambda c, r: _first_trace_repeated(c["traces"])),
    "trace-of-an-unknown-problem": (
        "traces",
        lambda c, r: c["traces"].read_text() + _jsonl([{"problem_id": "nowhere", "trace_id": "t0", "raw_text": "$4$"}]),
    ),
    # JSON's escape of a lone surrogate decodes, but UTF-8 cannot encode it into an artifact
    "trace-raw-text-lone-surrogate": (
        "traces",
        lambda c, r: _jsonl([{**row, "raw_text": row["raw_text"] + " \ud800"} for row in read_jsonl(c["traces"])]),
    ),
    "problem-question-lone-surrogate": (
        "problems",
        lambda c, r: _jsonl([{**row, "question": row["question"] + " \ud800"} for row in read_jsonl(c["problems"])]),
    ),
    "problem-validator-lone-surrogate": (
        "problems",
        lambda c, r: _jsonl([
            {**row, "validator": {**row["validator"], "note": "\ud800"}} for row in read_jsonl(c["problems"])
        ]),
    ),
    "step-scores-without-step-probs": (
        "step_scores",
        lambda c, r: _jsonl(
            {"problem_id": row["problem_id"], "trace_id": row["trace_id"]}
            for row in read_jsonl(r / "parsed_traces.jsonl")
        ),
    ),
    "step-scores-probability-above-1": (
        "step_scores",
        lambda c, r: _step_scores(r, lambda probs: [*probs[:-1], 1.5]),
    ),
    "step-scores-nan": (
        "step_scores",
        lambda c, r: _step_scores(r, lambda probs: [math.nan, *probs[1:]]),
    ),
    "step-scores-a-string": ("step_scores", lambda c, r: _step_scores(r, lambda probs: "1" * len(probs))),
    "step-scores-bools": ("step_scores", lambda c, r: _step_scores(r, lambda probs: [True] * len(probs))),
    "step-scores-numeric-strings": ("step_scores", lambda c, r: _step_scores(r, lambda probs: ["0.5"] * len(probs))),
    "step-scores-empty": ("step_scores", lambda c, r: _step_scores(r, lambda probs: [])),
    "step-scores-longer-than-its-trace": ("step_scores", lambda c, r: _step_scores(r, lambda probs: [*probs, 0.5])),
    "step-scores-trace-repeated": (
        "step_scores",
        lambda c, r: _step_scores(r, list) + _step_scores(r, list).splitlines(keepends=True)[0],
    ),
    "thresholds-a-list": ("thresholds", lambda c, r: "[0.5]"),
    "thresholds-not-numbers": ("thresholds", lambda c, r: '{"math": "high"}'),
    "thresholds-nan": ("thresholds", lambda c, r: '{"math": NaN}'),
    "thresholds-infinite": ("thresholds", lambda c, r: '{"math": 0.1, "qa": -Infinity}'),
    "thresholds-not-json": ("thresholds", lambda c, r: '{"math": 0.1'),
    "thresholds-domain-repeated": ("thresholds", lambda c, r: '{"math": 99, "math": -99, "qa": 0}'),
}


class TestMalformedUserFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_USER_FILES))
    def test_malformed_user_file_exits_3_naming_it(self, small_corpus, small_run, tmp_path, caplog, case):
        kind, damage = MALFORMED_USER_FILES[case]
        damaged = tmp_path / f"damaged-{kind}.json"
        damaged.write_text(damage(small_corpus, small_run))
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        backend = ["--backend", f"reference:{small_corpus['reference_model']}"]
        if kind in ("problems", "traces"):
            inputs = {"problems": small_corpus["problems"], "traces": small_corpus["traces"], kind: damaged}
            argv = [*backend, "run", "--out-dir", str(tmp_path / "fresh"),
                    "--problems", str(inputs["problems"]), "--traces", str(inputs["traces"])]
        elif kind == "step_scores":
            argv = ["eval-bok", "--out-dir", str(run), "--scorer", "step-product", "--step-scores", str(damaged)]
        else:
            argv = [*backend, "label", "--out-dir", str(run), "--thresholds", str(damaged)]
        assert main(argv) == 3
        assert any("DataError" in r.message and str(damaged) in r.message for r in caplog.records)


# eval_report.json of the demo corpus's default run, re-evaluated with each
# scorer (step-product and orm read :func:`_fixed_step_scores`). The first
# two were recorded from an eval stage that ran the validators itself, the
# rest from one that passed each verdict to best-of-K as a callable: taking
# the verdict from the judged trace must not change a byte.
DEMO_EVAL_REPORTS = {
    "label-product": "e8f8a367f84e65652ade006b072334a4a435183738f18a157eb68f09952df89a",
    "oracle": "75a39b9ca54c9d98d6715558363420b5d856c380e0618295bd1d36e80ae43c2b",
    "random": "1e38f4d41737e85f6c0fe718098d73cd8fcc86627e94015ff6bdd0097db3b493",
    "majority": "5093294538eabfc166a575e041517d63344d09073b09d1b4b3094ad82cb94de0",
    "step-product": "21e7b5443db0528ad1e72878a833de5740096fc70af308e9734b9765deedab86",
    "orm": "51be12782235d7993fdc144831fcbdd151748b0f7c7d4bc6a0b2408a5ea8ee9c",
}


def _fixed_step_scores(run: Path) -> Path:
    """A step-scores file for ``run``: every fifth parsed trace has no row,
    and each step of the others a probability set by its position."""
    rows = [
        {
            "problem_id": obj["problem_id"],
            "trace_id": obj["trace_id"],
            "step_probs": [((n + j) % 10 + 1) / 10 for j in range(len(obj["steps"]))],
        }
        for n, obj in enumerate(read_jsonl(run / "parsed_traces.jsonl"))
        if n % 5 != 4
    ]
    path = run.parent / "step_scores.jsonl"
    path.write_text(_jsonl(rows))
    return path


class TestEvalVerdicts:
    @pytest.fixture()
    def demo_run(self, demo_corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("STEPLAB_BACKEND_URL", raising=False)
        monkeypatch.delenv("STEPLAB_CACHE_DIR", raising=False)
        out = tmp_path / "demo"
        assert main([
            "--backend", f"reference:{demo_corpus['reference_model']}",
            "run", "--out-dir", str(out),
            "--problems", str(demo_corpus["problems"]),
            "--traces", str(demo_corpus["traces"]),
        ]) == 0
        return out

    @pytest.mark.parametrize("scorer", sorted(DEMO_EVAL_REPORTS))
    def test_eval_runs_no_validator(self, demo_run, monkeypatch, scorer):
        from steplab import validators

        def refuse(*args):
            raise AssertionError("the eval stage called a validator")

        monkeypatch.setattr(validators, "validate", refuse)
        report = demo_run / "eval_report.json"
        report.unlink()
        scores = ["--step-scores", str(_fixed_step_scores(demo_run))] if scorer in ("step-product", "orm") else []
        assert main(["eval-bok", "--out-dir", str(demo_run), "--scorer", scorer, *scores, "--force"]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == DEMO_EVAL_REPORTS[scorer]

    def test_unscored_candidates_match_a_brute_force_count(self, demo_run):
        counts = json.loads((demo_run / "stages" / "eval.json").read_text())["counts"]
        labeled = {(obj["problem_id"], obj["trace_id"]) for obj in read_jsonl(demo_run / "step_labels.jsonl")}
        window: dict[str, list] = {}
        for obj in read_jsonl(demo_run / "parsed_traces.jsonl"):
            window.setdefault(obj["problem_id"], []).append(obj["trace_id"])
        considered = [(pid, tid) for pid, tids in window.items() for tid in tids[: counts["K"]]]
        unscored = sum(key not in labeled for key in considered)
        assert counts["scorer"] == "label-product"
        assert (counts["candidates"], counts["unscored_candidates"]) == (len(considered), unscored)
        assert 0 < unscored < len(considered)

    def test_signal_of_a_trace_not_in_the_run_exits_3(self, demo_run, caplog):
        path = demo_run / "profiles.jsonl"
        rows = list(read_jsonl(path))
        rows[0]["trace_id"] = "no-such-trace"
        path.write_text(_jsonl(rows))
        assert main(["sweep", "--out-dir", str(demo_run)]) == 3
        assert any("DataError" in r.message and "no-such-trace" in r.message for r in caplog.records)

    def test_parseable_trace_without_a_verdict_exits_3(self, demo_run, caplog):
        path = demo_run / "pools.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        assert main(["eval-bok", "--out-dir", str(demo_run), "--force"]) == 3
        assert any("DataError" in r.message and str(path) in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def run_6x4(tmp_path_factory):
    """A finished run of a 6x4 demo corpus, to copy and damage."""
    root = tmp_path_factory.mktemp("run-6x4")
    corpus = build_demo_corpus(root / "corpus", n_problems=6, traces_per_problem=4)
    assert main([
        "--backend", f"reference:{corpus['reference_model']}",
        "run", "--out-dir", str(root / "run"),
        "--problems", str(corpus["problems"]),
        "--traces", str(corpus["traces"]),
    ]) == 0
    return root / "run"


def _run_6x4_argv(run_6x4: Path) -> list[str]:
    """The arguments of ``run`` on the corpus of ``run_6x4``, but its --out-dir."""
    corpus = run_6x4.parent / "corpus"
    return [
        "--backend", f"reference:{corpus / 'reference_model.json'}", "run",
        "--problems", str(corpus / "problems.jsonl"), "--traces", str(corpus / "traces.jsonl"),
    ]


@pytest.fixture(scope="module")
def failed_6x4(run_6x4, tmp_path_factory):
    """A run of the 6x4 demo corpus whose score stage failed at its 25th
    backend call, with the counts of the work it did."""
    from steplab import pipeline
    from steplab.scoring import CachingBackend, ReferenceModel, ScoreCache

    root = tmp_path_factory.mktemp("failed-6x4")
    flaky = CountingBackend(ReferenceModel.from_file(run_6x4.parent / "corpus" / "reference_model.json"), fail_at=25)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            pipeline, "make_backend", lambda spec, cache_dir, **kw: CachingBackend(flaky, ScoreCache(cache_dir))
        )
        argv = ["--cache-dir", str(root / "cache"), *_run_6x4_argv(run_6x4), "--out-dir", str(root / "run")]
        assert main(argv) == 4
    return root / "run"


# Each case: a command's arguments, in which {dir} is a directory, {fifo} a
# FIFO nothing writes to, {missing} a path to nothing, {empty} an empty file,
# {corpus} the corpus of run_6x4, {run} a copy of run_6x4 and {new} a fresh
# run directory; the text stderr names; and the stage whose failed entry the
# manifest ends with. The command runs with no backend in its environment.
_CORPUS = "--problems {corpus}/problems.jsonl --traces {corpus}/traces.jsonl"
NAMED_FILE_CASES = {
    "problems-directory": ("ingest --out-dir {new} --problems {dir} --traces {corpus}/traces.jsonl", "{dir}", "ingest"),
    "traces-directory": ("ingest --out-dir {new} --problems {corpus}/problems.jsonl --traces {dir}", "{dir}", "ingest"),
    "thresholds-directory": ("label --out-dir {run} --thresholds {dir}", "{dir}", "label"),
    "step-scores-directory": ("eval-bok --out-dir {run} --scorer step-product --step-scores {dir}", "{dir}", "eval"),
    "config-directory": ("--config {dir} ingest --out-dir {new} " + _CORPUS, "{dir}", None),
    "pool-file-directory": ("analyze-bias --pool-file {dir} --s 2", "{dir}", None),
    "pool-file-missing": ("analyze-bias --pool-file {missing} --s 2", "{missing}", None),
    "problems-fifo": ("ingest --out-dir {new} --problems {fifo} --traces {corpus}/traces.jsonl", "{fifo}", "ingest"),
    "config-fifo": ("--config {fifo} ingest --out-dir {new} " + _CORPUS, "{fifo}", None),
    "reference-model-fifo": ("--backend reference:{fifo} score --out-dir {run}", "{fifo}", "score"),
    "ingest-without-problems": ("ingest --out-dir {new} --traces {corpus}/traces.jsonl", "--problems", "ingest"),
    "score-without-backend": ("score --out-dir {run}", "--backend", "score"),
    "pool-file-empty": ("analyze-bias --pool-file {empty} --s 2", "{empty}", None),
}


class TestNamedFiles:
    """Every file a user names is checked before anything opens it."""

    @pytest.mark.parametrize("case", NAMED_FILE_CASES)
    def test_a_file_that_is_not_a_regular_one_exits_2_naming_it(self, run_6x4, tmp_path, case):
        argv, named, stage = NAMED_FILE_CASES[case]
        places = dict(
            dir=tmp_path / "a-directory", fifo=tmp_path / "a-fifo", missing=tmp_path / "absent",
            empty=tmp_path / "empty", corpus=run_6x4.parent / "corpus", run=tmp_path / "run", new=tmp_path / "new",
        )
        places["dir"].mkdir()
        os.mkfifo(places["fifo"])
        places["empty"].touch()
        shutil.copytree(run_6x4, places["run"])
        env = {name: value for name, value in os.environ.items() if name != "STEPLAB_BACKEND_URL"}
        child = subprocess.run(
            [sys.executable, "-m", "steplab.cli", *argv.format(**places).split()],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(SRC)}, timeout=20,
        )
        assert child.returncode == 2, child.stderr
        assert "ConfigError" in child.stderr and named.format(**places) in child.stderr
        assert "Traceback" not in child.stderr
        if stage:
            out = places["new" if "{new}" in argv else "run"]
            failed = json.loads((out / "manifest.json").read_text())["stages"][-1]
            assert (failed["name"], failed["exit_code"]) == (stage, 2)
            assert named.format(**places) in failed["message"]

    # Each case: what the file becomes, its path in the run directory, the
    # command run there ({argv} is the arguments of the run that made it),
    # and what the message calls the file.
    @pytest.mark.parametrize("kind, file, command, what", [
        ("directory", "profiles.jsonl", "run --stages signals --force", "stage 'signals' input"),
        ("fifo", "signals.jsonl", "run --stages sweep --force", "stage 'sweep' input"),
        ("fifo", "stages/sweep.json", "{argv}", "stage 'sweep' entry"),
        ("directory", "stages/sweep.json", "run --stages sweep --force", "stage 'sweep' entry"),
        ("fifo", "manifest.json", "report", "run manifest"),
        ("directory", "manifest.json", "report", "run manifest"),
        ("directory", "manifest.json", "{argv}", "run manifest"),
    ], ids=[
        "directory", "fifo", "entry-fifo", "entry-directory-forced",
        "manifest-fifo-report", "manifest-directory-report", "manifest-directory-run",
    ])
    def test_a_run_directory_input_that_is_not_a_regular_file_exits_2_naming_it(
        self, run_6x4, tmp_path, kind, file, command, what
    ):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        path = run / file
        path.unlink()
        path.mkdir() if kind == "directory" else os.mkfifo(path)
        argv = command.format(argv=" ".join(_run_6x4_argv(run_6x4))).split()
        child = subprocess.run(  # in a child with a timeout: a read of the FIFO would block for ever
            [sys.executable, "-m", "steplab.cli", *argv, "--out-dir", str(run)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=20,
        )
        assert child.returncode == 2, child.stderr
        assert f"ConfigError: {what} file is not a regular file: {path}" in child.stderr
        assert "Traceback" not in child.stderr

    # Each case: a command's arguments, in which {file} is the unreadable
    # file, the name messages give that file, and the stage that reads it.
    @pytest.mark.parametrize("argv, what, stage", [
        ("ingest --problems {file} --traces {corpus}/traces.jsonl", "problems", "ingest"),
        ("label --thresholds {file}", "thresholds", "label"),
        ("eval-bok --scorer step-product --step-scores {file}", "step scores", "eval"),
        ("--backend reference:{file} score --force", "reference model", "score"),
    ], ids=["problems", "thresholds", "step-scores", "reference-model"])
    def test_an_unreadable_file_exits_2_naming_it(self, run_6x4, tmp_path, monkeypatch, caplog, argv, what, stage):
        # Root reads a file whatever its permission bits, so the digest refuses it instead.
        from steplab import ioutil

        run, unreadable = tmp_path / "run", tmp_path / "unreadable"
        shutil.copytree(run_6x4, run)
        unreadable.write_text("{}\n")
        sha256_file = ioutil.sha256_file

        def refuse(path):
            if Path(path) == unreadable:
                raise PermissionError(13, "Permission denied", str(path))
            return sha256_file(path)

        monkeypatch.setattr(ioutil, "sha256_file", refuse)
        args = argv.format(file=unreadable, corpus=run_6x4.parent / "corpus").split()
        assert main([*args, "--out-dir", str(run)]) == 2
        message = f"ConfigError: {what} file is unreadable: {unreadable}"
        assert any(message in r.message for r in caplog.records)
        failed = json.loads((run / "manifest.json").read_text())["stages"][-1]
        assert (failed["name"], failed["exit_code"]) == (stage, 2) and message.endswith(failed["message"])


class TestEmitInputs:
    @pytest.mark.parametrize("artifact", ["working_set", "step_labels"])
    def test_row_naming_an_unknown_trace_exits_3(self, run_6x4, tmp_path, caplog, artifact):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        path = artifact_paths(run)[artifact]
        rows = list(read_jsonl(path))
        if artifact == "working_set":
            rows[0]["trace_ids"][0] = "no-such-trace"
        else:
            rows[0]["trace_id"] = "no-such-trace"
        path.write_text(_jsonl(rows))
        datasets = {name: (run / name).stat().st_ino for name in ("prm", "orm")}
        assert main(["emit", "--out-dir", str(run)]) == 3
        assert any(
            "DataError" in r.message and str(path) in r.message and "no-such-trace" in r.message
            for r in caplog.records
        )
        # Every record is checked before either dataset is replaced.
        assert {name: (run / name).stat().st_ino for name in datasets} == datasets

    def test_label_count_unlike_the_step_count_exits_3(self, run_6x4, tmp_path, caplog):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        path = artifact_paths(run)["step_labels"]
        rows = list(read_jsonl(path))
        rows[-1]["labels"].append(0)
        path.write_text(_jsonl(rows))
        datasets = {name: (run / name).stat().st_ino for name in ("prm", "orm")}
        assert main(["emit", "--out-dir", str(run)]) == 3
        assert any(
            "DataError" in r.message and str(path) in r.message and repr(rows[-1]["trace_id"]) in r.message
            for r in caplog.records
        )
        assert {name: (run / name).stat().st_ino for name in datasets} == datasets

    def test_repeated_step_labels_row_exits_3(self, run_6x4, tmp_path, caplog):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        path = artifact_paths(run)["step_labels"]
        rows = list(read_jsonl(path))
        path.write_text(_jsonl([*rows, rows[0]]))
        datasets = {name: (run / name).stat().st_ino for name in ("prm", "orm")}
        assert main(["emit", "--out-dir", str(run)]) == 3
        assert any(
            "DataError" in r.message and f"{path}:{len(rows) + 1}:" in r.message
            and repr(rows[0]["trace_id"]) in r.message and repr(rows[0]["problem_id"]) in r.message
            for r in caplog.records
        )
        assert {name: (run / name).stat().st_ino for name in datasets} == datasets

    def test_working_set_trace_without_a_verdict_exits_3(self, run_6x4, tmp_path, caplog):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        paths = artifact_paths(run)
        trace_id = next(read_jsonl(paths["working_set"]))["trace_ids"][0]
        rows = [
            {**row, "final_answer": None, "parse_ok": False, "correct": None} if row["trace_id"] == trace_id else row
            for row in read_jsonl(paths["parsed_traces"])
        ]
        paths["parsed_traces"].write_text(_jsonl(rows))
        # emit checks the step labels first: the trace has none, so the working set names it
        labels = [row for row in read_jsonl(paths["step_labels"]) if row["trace_id"] != trace_id]
        paths["step_labels"].write_text(_jsonl(labels))
        assert main(["emit", "--out-dir", str(run)]) == 3
        assert any(
            "DataError" in r.message and str(paths["working_set"]) in r.message and repr(trace_id) in r.message
            for r in caplog.records
        )

    @pytest.mark.parametrize("place, reason", [
        ("step", "reserved_symbol_in_step"), ("question", "reserved_symbol_in_question"),
    ], ids=["step", "question"])
    def test_reserved_symbol_drops_the_trace_from_both_datasets(self, run_6x4, tmp_path, place, reason):
        """A marker in a trace's last step drops that trace; one in its
        problem's question drops every working-set trace of the problem."""
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        paths = artifact_paths(run)
        first = next(read_jsonl(paths["step_labels"]))
        problem_id, trace_id = first["problem_id"], first["trace_id"]
        if place == "step":
            rows, trace_ids = list(read_jsonl(paths["parsed_traces"])), [trace_id]
            for row in rows:
                if row["trace_id"] == trace_id:
                    row["steps"][-1] += f" {STEP_MARKER}"
            paths["parsed_traces"].write_text(_jsonl(rows))
        else:
            rows = list(read_jsonl(paths["problems"]))
            for row in rows:
                if row["id"] == problem_id:
                    row["question"] += f" {STEP_MARKER}"
            paths["problems"].write_text(_jsonl(rows))
            trace_ids = next(r["trace_ids"] for r in read_jsonl(paths["working_set"]) if r["problem_id"] == problem_id)
            assert len(trace_ids) > 1
        before = json.loads((run / "stages" / "emit.json").read_text())["counts"]
        assert main(["emit", "--out-dir", str(run)]) == 0
        entry = json.loads((run / "stages" / "emit.json").read_text())
        counts = entry["counts"]
        for which in ("prm", "orm"):
            assert counts[which]["dropped"] == {problem_id: dict.fromkeys(trace_ids, reason)}
            assert counts[which]["dropped_by_reason"] == {reason: len(trace_ids)}
            assert counts[which]["records"] == before[which]["records"] - len(trace_ids)
            shards = [run / p for p in entry["outputs"] if p.startswith(f"{which}/")]
            emitted = {(obj["problem_id"], obj["trace_id"]) for p in shards for obj in read_jsonl(p)}
            assert shards and emitted.isdisjoint((problem_id, tid) for tid in trace_ids)

    def test_no_fragment_is_built_before_its_line_is_read(self, run_6x4, tmp_path, monkeypatch):
        """The check pass encodes no trace: each line encodes its own as its shard is written."""
        from steplab import pipeline

        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        trace_fragment, write_shards = pipeline.trace_fragment, pipeline.write_shards
        built, at_first_write = [], []

        def counted(problem, trace):
            built.append(trace.trace_id)
            return trace_fragment(problem, trace)

        def noting(lines, *args):
            if not at_first_write:
                at_first_write.append(len(built))
            return write_shards(lines, *args)

        monkeypatch.setattr(pipeline, "trace_fragment", counted)
        monkeypatch.setattr(pipeline, "write_shards", noting)
        assert main(["emit", "--out-dir", str(run), "--force"]) == 0
        counts = json.loads((run / "stages" / "emit.json").read_text())["counts"]
        assert at_first_write == [0]
        assert len(built) == counts["prm"]["records"] + counts["orm"]["records"]


class TestStageFormat:
    """A stage's output format is part of its fingerprint once above 0."""

    def rerun(self, run: Path, corpus: Path) -> dict[str, bool]:
        """Each stage of a full run of ``corpus`` in ``run``, and whether it was skipped."""
        manifest = run_pipeline(load_config(overrides=dict(
            problems=str(corpus / "problems.jsonl"),
            traces=str(corpus / "traces.jsonl"),
            out_dir=str(run),
            backend=f"reference:{corpus / 'reference_model.json'}",
        ), env={}))
        return {report["name"]: report["skipped"] for report in manifest["stages"]}

    def test_with_every_format_at_0_nothing_reruns(self, run_6x4, tmp_path):
        assert {stage.format for stage in STAGE_TABLE.values()} == {0}
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        assert self.rerun(run, run_6x4.parent / "corpus") == dict.fromkeys(STAGES, True)

    def test_a_raised_format_reruns_only_its_stage(self, run_6x4, tmp_path, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        monkeypatch.setitem(STAGE_TABLE, "emit", replace(STAGE_TABLE["emit"], format=1))
        corpus = run_6x4.parent / "corpus"
        assert self.rerun(run, corpus) == {**dict.fromkeys(STAGES, True), "emit": False}
        assert self.rerun(run, corpus) == dict.fromkeys(STAGES, True)


def _drop_column(profile: dict, answer: str) -> None:
    """Take ``answer``'s column out of a profile row."""
    col = profile["answers"].index(answer)
    del profile["answers"][col]
    for row in profile["values"]:
        del row[col]


class TestProfilesThatCannotBeSignalled:
    """The signals stage checks that each profile can be signalled before it
    computes: a profile without a column its method reads, or a pool without
    a wrong answer, is a data error naming the file and the trace."""

    @pytest.fixture()
    def run(self, run_6x4, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        return run

    @staticmethod
    def rows(run):
        """The profile rows, the pool rows by problem id, and the first
        profile whose pool has a correct answer."""
        paths = artifact_paths(run)
        profiles = list(read_jsonl(paths["profiles"]))
        pools = {row["problem_id"]: row for row in read_jsonl(paths["pools"])}
        return profiles, pools, next(p for p in profiles if pools[p["problem_id"]]["correct"])

    @pytest.mark.parametrize("method", ["mcnig", "ig"])
    def test_profile_without_the_column_of_an_answer_exits_3(self, run, caplog, method):
        paths = artifact_paths(run)
        profiles, pools, profile = self.rows(run)
        gold = {row["id"]: row["gold_answer"] for row in read_jsonl(paths["problems"])}[profile["problem_id"]]
        answer = pools[profile["problem_id"]]["wrong"][0] if method == "mcnig" else gold
        _drop_column(profile, answer)
        paths["profiles"].write_text(_jsonl(profiles))
        assert main(["label", "--method", method, "--out-dir", str(run)]) == 3
        assert any(
            "DataError" in r.message and str(paths["profiles"]) in r.message
            and repr(profile["trace_id"]) in r.message and repr(answer) in r.message
            for r in caplog.records
        )

    def test_pool_without_a_wrong_answer_exits_3(self, run, caplog):
        paths = artifact_paths(run)
        _, pools, profile = self.rows(run)
        pools[profile["problem_id"]]["wrong"] = []
        paths["pools"].write_text(_jsonl(pools.values()))
        assert main(["label", "--out-dir", str(run)]) == 3
        assert any(
            "DataError" in r.message and str(paths["pools"]) in r.message and repr(profile["trace_id"]) in r.message
            for r in caplog.records
        )

    def test_pool_without_a_correct_answer_drops_its_problem(self, run):
        paths = artifact_paths(run)
        _, pools, profile = self.rows(run)
        pools[profile["problem_id"]]["correct"] = []
        paths["pools"].write_text(_jsonl(pools.values()))
        assert main(["label", "--out-dir", str(run)]) == 0
        counts = json.loads((run / "stages" / "signals.json").read_text())["counts"]
        assert counts["dropped"][profile["problem_id"]] == "no_correct_answers_in_pool"
        assert profile["problem_id"] not in {row["problem_id"] for row in read_jsonl(paths["signals"])}


@pytest.fixture(scope="module")
def run_t0_t3(tmp_path_factory):
    """A finished run of a 6x4 demo corpus whose traces are t0-t3 in each
    problem, so that a trace id alone names no trace."""
    root = tmp_path_factory.mktemp("run-t0-t3")
    corpus = build_demo_corpus(root / "corpus", n_problems=6, traces_per_problem=4)
    rows = [{**row, "trace_id": row["trace_id"].rsplit("-", 1)[1]} for row in read_jsonl(corpus["traces"])]
    corpus["traces"].write_text(_jsonl(rows))
    assert main([
        "--backend", f"reference:{corpus['reference_model']}",
        "run", "--out-dir", str(root / "run"),
        "--problems", str(corpus["problems"]),
        "--traces", str(corpus["traces"]),
    ]) == 0
    return root / "run"


class TestErrorsNameProblemAndTrace:
    """Where trace ids repeat across problems, a data error about one trace
    names its problem too."""

    @pytest.fixture()
    def run(self, run_t0_t3, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_t0_t3, run)
        return run

    @staticmethod
    def named(caplog, profile) -> bool:
        where = f"trace {profile['trace_id']!r} of problem {profile['problem_id']!r}"
        return any("DataError" in r.message and where in r.message for r in caplog.records)

    def signalled_profile(self, run):
        profiles, pools, profile = TestProfilesThatCannotBeSignalled.rows(run)
        assert profile["trace_id"] in {"t0", "t1", "t2", "t3"}
        return profiles, pools, profile

    def test_profile_without_a_column(self, run, caplog):
        profiles, pools, profile = self.signalled_profile(run)
        _drop_column(profile, pools[profile["problem_id"]]["wrong"][0])
        artifact_paths(run)["profiles"].write_text(_jsonl(profiles))
        assert main(["label", "--out-dir", str(run)]) == 3
        assert self.named(caplog, profile)

    def test_pool_without_a_wrong_answer(self, run, caplog):
        _, pools, profile = self.signalled_profile(run)
        pools[profile["problem_id"]]["wrong"] = []
        artifact_paths(run)["pools"].write_text(_jsonl(pools.values()))
        assert main(["label", "--out-dir", str(run)]) == 3
        assert self.named(caplog, profile)

    def test_step_scores_of_the_wrong_length(self, run, tmp_path, caplog):
        step_scores = tmp_path / "step_scores.jsonl"
        step_scores.write_text(_step_scores(run, lambda probs: probs + [0.5]))
        first = next(read_jsonl(step_scores))
        argv = ["eval-bok", "--out-dir", str(run), "--scorer", "step-product", "--step-scores", str(step_scores)]
        assert main(argv) == 3
        assert self.named(caplog, first)


class TestSweepOfOneClass:
    def test_domain_of_one_class_is_skipped_and_labelled_at_0(self, run_6x4, tmp_path):
        from steplab.trace_model import normalize_answer

        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        paths = artifact_paths(run)
        domain_of = {row["id"]: row["domain"] for row in read_jsonl(paths["problems"])}
        correct = {
            row["problem_id"]: {normalize_answer(a, domain_of[row["problem_id"]]) for a in row["correct"]}
            for row in read_jsonl(paths["pools"])
        }
        correct_qa_traces = {
            (row["problem_id"], row["trace_id"])
            for row in read_jsonl(paths["parsed_traces"])
            if domain_of[row["problem_id"]] == "qa" and row["parse_ok"]
            and normalize_answer(row["final_answer"], "qa") in correct[row["problem_id"]]
        }
        signals = list(read_jsonl(paths["signals"]))
        kept = [row for row in signals if (row["problem_id"], row["trace_id"]) not in correct_qa_traces]
        qa = [row for row in kept if domain_of[row["problem_id"]] == "qa"]
        assert qa and len(kept) < len(signals)
        paths["signals"].write_text(_jsonl(kept))

        assert main(["sweep", "--out-dir", str(run)]) == 0
        sweep = {report["domain"]: report for report in json.loads(paths["sweep"].read_text())["domains"]}
        assert sweep["qa"]["skipped"] is True and "balanced accuracy" in sweep["qa"]["reason"]
        assert "skipped" not in sweep["math"]
        thresholds = json.loads(paths["thresholds"].read_text())
        assert list(thresholds) == ["math"]

        assert main(["label", "--out-dir", str(run)]) == 0
        labels = {(row["problem_id"], row["trace_id"]): row for row in read_jsonl(paths["step_labels"])}
        for row in qa:
            labelled = labels[(row["problem_id"], row["trace_id"])]
            assert labelled["threshold"] == 0.0
            assert labelled["labels"] == [int(v > 0.0) for v in row["values"]]
        assert {row["threshold"] for row in labels.values() if domain_of[row["problem_id"]] == "math"} == {
            thresholds["math"]
        }


class TestSignalAndLabelInputs:
    # (artifact with the damaged row, the table its problem is missing from);
    # profiles are read by the signals stage, signals by the label stage. A
    # row whose problem is not in problems.jsonl names no parseable trace of
    # parsed_traces.jsonl; a parseable trace whose problem has no pool is an
    # error of pools.jsonl, naming the problem.
    @pytest.mark.parametrize("artifact, table", [("profiles", "problems"), ("profiles", "pools"), ("signals", "problems")])
    def test_row_naming_an_unknown_problem_exits_3(self, run_6x4, tmp_path, caplog, artifact, table):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        # The copy is up to date, so only the damage makes a stage run again.
        paths = artifact_paths(run)
        rows = list(read_jsonl(paths[artifact]))
        if table == "pools":
            pools = [pool for pool in read_jsonl(paths["pools"]) if pool["problem_id"] != rows[0]["problem_id"]]
            paths["pools"].write_text(_jsonl(pools))
            named = [str(paths["pools"]), repr(rows[0]["problem_id"])]
        else:
            rows[0]["problem_id"] = "no-such"
            paths[artifact].write_text(_jsonl(rows))
            named = [str(paths[artifact]), str(paths["parsed_traces"]), repr(rows[0]["trace_id"])]
        assert main(["label", "--out-dir", str(run)]) == 3
        assert any("DataError" in r.message and all(n in r.message for n in named) for r in caplog.records)


class TestRowsFitTheirTraces:
    """A per-trace row fits its trace where it is read: it names a parseable
    trace of parsed_traces.jsonl and has one entry per step of it."""

    @pytest.fixture()
    def run(self, run_6x4, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        (tmp_path / "thresholds.json").write_text('{"math": 0.25, "qa": -0.5}\n')
        return run

    @staticmethod
    def relabel(run, *stages):
        thresholds = str(run.parent / "thresholds.json")
        return main(["run", "--stages", ",".join(stages), "--thresholds", thresholds, "--force", "--out-dir", str(run)])

    @staticmethod
    def damage_first_row(path, damage) -> dict:
        rows = list(read_jsonl(path))
        rows[0] = damage(rows[0])
        path.write_text(_jsonl(rows))
        return rows[0]

    @staticmethod
    def failed_in(run, stage, path, row, caplog) -> bool:
        failed = json.loads((run / "manifest.json").read_text())["stages"][-1]
        where = f"{path}: trace {row['trace_id']!r} of problem {row['problem_id']!r}"
        return (failed["name"], failed["exit_code"]) == (stage, 3) and where in failed["message"] and any(
            "DataError" in r.message and where in r.message for r in caplog.records
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row: {**row, "values": [*row["values"], row["values"][-1]]},
            lambda row: {**row, "trace_id": "no-such"},
        ],
        ids=["a-row-too-many", "an-unknown-trace"],
    )
    def test_a_profile_that_fits_no_trace_fails_signals(self, run, caplog, damage):
        paths = artifact_paths(run)
        before = {name: paths[name].read_bytes() for name in ("signals", "step_labels")}
        row = self.damage_first_row(paths["profiles"], damage)
        assert self.relabel(run, "signals", "label", "eval") == 3
        assert self.failed_in(run, "signals", paths["profiles"], row, caplog)
        assert {name: paths[name].read_bytes() for name in before} == before

    def test_a_signal_with_a_value_too_many_fails_label(self, run, caplog):
        paths = artifact_paths(run)
        before = paths["step_labels"].read_bytes()
        row = self.damage_first_row(paths["signals"], lambda row: {**row, "values": [*row["values"], 0.0]})
        assert self.relabel(run, "label", "eval") == 3
        assert self.failed_in(run, "label", paths["signals"], row, caplog)
        assert paths["step_labels"].read_bytes() == before

    def test_step_labels_with_a_label_too_many_fail_label_product_eval(self, run, caplog):
        paths = artifact_paths(run)
        row = self.damage_first_row(paths["step_labels"], lambda row: {**row, "labels": [*row["labels"], 0]})
        assert main(["eval-bok", "--scorer", "label-product", "--out-dir", str(run)]) == 3
        assert self.failed_in(run, "eval", paths["step_labels"], row, caplog)


def _without(key):
    return lambda row: {k: v for k, v in row.items() if k != key}


# Each case: the run artifact whose first row it damages, the damage (a row,
# or rows to put in its place, the last of them the one reported), and the
# command that reads the artifact. A row's builder names its line; a check
# against another artifact (the cases in CROSS_ARTIFACT_CASES) names its trace.
CROSS_ARTIFACT_CASES = {"signal-with-a-value-too-few"}
MALFORMED_RUN_ARTIFACTS = {
    "parsed-trace-without-steps": ("parsed_traces", _without("steps"), ["validate"]),
    "parsed-trace-with-steps-as-one-string": ("parsed_traces", lambda row: {**row, "steps": " ".join(row["steps"])}, ["validate"]),
    "parsed-trace-with-a-numeric-answer": ("parsed_traces", lambda row: {**row, "final_answer": 4, "parse_ok": True}, ["validate"]),
    "parsed-trace-row-repeated": ("parsed_traces", lambda row: [row, row], ["validate"]),
    "parsed-trace-unparseable-with-a-verdict": (
        "parsed_traces", lambda row: {**row, "final_answer": None, "parse_ok": False, "correct": True}, ["validate"],
    ),
    "pool-with-an-unknown-key": ("pools", lambda row: {**row, "verdict": True}, ["eval-bok"]),
    "pool-with-correct-as-a-string": ("pools", lambda row: {**row, "correct": "".join(row["correct"])}, ["eval-bok"]),
    "pool-with-wrong-as-a-number": ("pools", lambda row: {**row, "wrong": 7}, ["eval-bok"]),
    "pool-row-repeated": ("pools", lambda row: [row, row], ["eval-bok"]),
    "profile-without-values": ("profiles", _without("values"), ["label"]),
    "profile-with-no-rows": ("profiles", lambda row: {**row, "values": []}, ["label"]),
    "profile-with-only-the-step-0-row": ("profiles", lambda row: {**row, "values": row["values"][:1]}, ["label"]),
    "profile-row-repeated": ("profiles", lambda row: [row, row], ["label"]),
    "profile-with-an-infinite-entry": (
        "profiles", lambda row: {**row, "values": [[math.inf] * len(row["answers"]), *row["values"][1:]]}, ["label"],
    ),
    "profile-with-a-true-entry": (
        "profiles", lambda row: {**row, "values": [[True, *row["values"][0][1:]], *row["values"][1:]]}, ["label"],
    ),
    "profile-with-a-positive-entry": (
        "profiles", lambda row: {**row, "values": [[5.0, *row["values"][0][1:]], *row["values"][1:]]}, ["label"],
    ),
    "profile-with-a-null-trace-id": ("profiles", lambda row: {**row, "trace_id": None}, ["label"]),
    "signal-without-method": ("signals", _without("method"), ["run", "--stages", "label"]),
    "signal-with-no-values": ("signals", lambda row: {**row, "values": []}, ["run", "--stages", "label"]),
    "signal-row-repeated": ("signals", lambda row: [row, row], ["run", "--stages", "label"]),
    "signal-with-a-null-problem-id": ("signals", lambda row: {**row, "problem_id": None}, ["run", "--stages", "label"]),
    "signal-with-a-value-too-few": ("signals", lambda row: {**row, "values": row["values"][:-1]}, ["sweep"]),
    "step-labels-without-labels": ("step_labels", _without("labels"), ["emit"]),
    "step-labels-as-a-string": ("step_labels", lambda row: {**row, "labels": "10"}, ["emit"]),
    "step-labels-out-of-0-and-1": ("step_labels", lambda row: {**row, "labels": [7] * len(row["labels"])}, ["emit"]),
    "step-labels-as-booleans": ("step_labels", lambda row: {**row, "labels": [True] * len(row["labels"])}, ["emit"]),
    "step-labels-row-repeated": ("step_labels", lambda row: [row, row], ["emit"]),
    # eval's label-product scorer reads step labels through emit's row check
    "step-labels-as-booleans-in-eval": (
        "step_labels", lambda row: {**row, "labels": [True] * len(row["labels"])}, ["eval-bok"],
    ),
    "step-labels-of-one-half-in-eval": (
        "step_labels", lambda row: {**row, "labels": [0.5] * len(row["labels"])}, ["eval-bok"],
    ),
    "step-labels-empty-in-eval": ("step_labels", lambda row: {**row, "labels": []}, ["eval-bok"]),
    "working-set-without-trace-ids": ("working_set", _without("trace_ids"), ["emit"]),
    "working-set-row-repeated": ("working_set", lambda row: [row, row], ["emit"]),
    "working-set-trace-id-repeated": (
        "working_set", lambda row: {**row, "trace_ids": [*row["trace_ids"], row["trace_ids"][0]]}, ["emit"],
    ),
}


class TestMalformedRunArtifacts:
    @pytest.mark.parametrize("case", sorted(MALFORMED_RUN_ARTIFACTS))
    def test_malformed_row_exits_3_naming_file_and_line(self, run_6x4, tmp_path, caplog, case):
        artifact, damage, command = MALFORMED_RUN_ARTIFACTS[case]
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        path = artifact_paths(run)[artifact]
        rows = list(read_jsonl(path))
        damaged = damage(rows[0])
        damaged = damaged if isinstance(damaged, list) else [damaged]
        path.write_text(_jsonl([*damaged, *rows[1:]]))
        assert main([*command, "--out-dir", str(run)]) == 3
        where = f"{path}:{len(damaged)}:"
        if case in CROSS_ARTIFACT_CASES:
            where = f"{path}: trace {damaged[-1]['trace_id']!r} of problem {damaged[-1]['problem_id']!r}"
        assert any("DataError" in r.message and where in r.message for r in caplog.records)


def _mutations(row: dict):
    """``(field, value)`` for each field of ``row`` set to null, to the empty
    value of its type, and, for a list of strings, to ``[""]``."""
    for name, value in row.items():
        values = [None, type(value)()]
        if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
            values.append([""])
        unchanged = json.dumps(value)
        for text in dict.fromkeys(map(json.dumps, values)):
            if text != unchanged:
                yield name, json.loads(text)


USER_FILES = ("user_problems", "user_traces")  # the two files ingest reads


class TestFieldMutations:
    """A run whose first row of one artifact has one field nulled or emptied
    succeeds, or fails with a DataError that names a file of the run: never
    another error, nor one that names no file."""

    @pytest.mark.parametrize("artifact", [*JSONL, *USER_FILES])
    def test_each_field_mutation_succeeds_or_names_a_file(self, run_6x4, tmp_path, artifact):
        corpus = run_6x4.parent / "corpus"
        inputs = {"user_problems": corpus / "problems.jsonl", "user_traces": corpus / "traces.jsonl"}
        source = inputs.get(artifact) or artifact_paths(run_6x4)[artifact]
        rows = list(read_jsonl(source))
        first = next(i for i, row in enumerate(rows) if artifact != "parsed_traces" or row["parse_ok"])
        writer = next((name for name, stage in STAGE_TABLE.items() if artifact in stage.writes), None)
        stages = list(STAGES[STAGES.index(writer) + 1:] if writer else STAGES)
        failures = []
        for n, (name, value) in enumerate(_mutations(rows[first])):
            run = tmp_path / f"run-{n}"
            shutil.copytree(run_6x4, run)
            damaged = {**inputs, **({artifact: tmp_path / f"{artifact}-{n}.jsonl"} if artifact in USER_FILES else {})}
            target = damaged.get(artifact) or artifact_paths(run)[artifact]
            target.write_text(_jsonl([*rows[:first], {**rows[first], name: value}, *rows[first + 1:]]))
            cfg = load_config(overrides=dict(
                problems=str(damaged["user_problems"]), traces=str(damaged["user_traces"]), out_dir=str(run),
                backend=f"reference:{corpus / 'reference_model.json'}", force=True,
            ), env={})
            try:
                run_pipeline(cfg, stages)
            except Exception as exc:  # noqa: BLE001  every error is checked below
                files = [str(target), *(str(p) for p in artifact_paths(run).values())]
                if not isinstance(exc, DataError) or not any(f in str(exc) for f in files):
                    failures.append(f"{name}={value!r}: {type(exc).__name__}: {exc}")
        assert n > 0 and not failures


DELETE = object()
# Values of other JSON types, for a value of each type: every number is also
# tried as true, which Python takes for 1.
OTHER_TYPES = {str: [1], int: ["1", True], float: ["1.5", True], bool: [1], list: [{}], dict: [[]]}
# The counts a finished stage's report line prints, in stages/*.json and in
# manifest.json: one of another type, or null, damages its entry.
PRINTED_COUNTS = {
    "problems_in", "problems_out", "dropped_by_reason", "validator_errors", "prm", "orm", "records", "requests",
    "backend_calls", "retries", "backend_p50_ms", "backend_p99_ms", "chars_sent", "chars_linear", "cache_hit_rate",
    "cache_damaged", "accuracy", "candidates", "unscored_candidates",
}


def _entry_mutations(entry: dict):
    """``(path, value)`` for each field of a stage entry, of its counts and of
    the counts of its prm and orm datasets: null, each of OTHER_TYPES for the
    field's type, and DELETE."""
    counts = entry.get("counts") or {}
    paths = [(name,) for name in entry] + [("counts", key) for key in counts]
    paths += [("counts", which, key) for which in ("prm", "orm") if which in counts for key in counts[which]]
    for path in paths:
        value = entry
        for key in path:
            value = value[key]
        for other in [None, *OTHER_TYPES[type(value)], DELETE]:
            yield path, other


def _mutated(entry: dict, path: tuple, value) -> dict:
    """A copy of ``entry`` with the field at ``path`` set to ``value``, or deleted."""
    copy = json.loads(json.dumps(entry))
    *parents, name = path
    target = copy
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[name]
    else:
        target[name] = value
    return copy


def _damages(path: tuple, value) -> bool:
    """Whether this mutation of a finished stage's entry must damage it: a
    field of the entry set to null or another type, or deleted, or a count
    its report prints set to null or another type."""
    return len(path) == 1 or (path[-1] in PRINTED_COUNTS and value is not DELETE)


class TestManifestMutations:
    """Each field of a stage entry, of its counts and of its datasets' counts
    is set to null, to another JSON type, and deleted. ``run`` exits 0, and
    reruns the stage when that damages its ``stages/*.json``; ``report``
    exits 0, or 3 naming ``manifest.json`` without a traceback."""

    def test_each_stage_manifest_mutation_reruns_or_is_reported(self, run_6x4, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        failures = []
        for stage in STAGES:
            path = run / "stages" / f"{stage}.json"
            stored = json.loads(path.read_text())
            for field_path, value in _entry_mutations(stored):
                path.write_text(json.dumps(_mutated(stored, field_path, value)))
                code = main([*_run_6x4_argv(run_6x4), "--out-dir", str(run), "--stages", stage])
                (entry,) = json.loads((run / "manifest.json").read_text())["stages"]
                if code != 0 or (_damages(field_path, value) and entry["skipped"]):
                    failures.append(f"{stage} {field_path}={value!r}: exit {code}, skipped {entry['skipped']}")
                elif not entry["skipped"]:  # rerun: the stage wrote its manifest afresh
                    rewritten = json.loads(path.read_text())
                    assert all(rewritten[key] == stored[key] for key in ("fingerprint", "outputs"))
            path.write_text(json.dumps(stored))
        assert not failures

    def test_each_run_manifest_mutation_is_reported_or_names_the_file(self, run_6x4, failed_6x4, tmp_path, caplog):
        path = tmp_path / "manifest.json"
        failures = []
        for source in (run_6x4, failed_6x4):
            manifest = json.loads((source / "manifest.json").read_text())
            stages = manifest["stages"]
            for i, entry in enumerate(stages):
                for field_path, value in _entry_mutations(entry):
                    damaged = _mutated(entry, field_path, value)
                    path.write_text(json.dumps({**manifest, "stages": [*stages[:i], damaged, *stages[i + 1:]]}))
                    caplog.clear()
                    code = main(["report", "--out-dir", str(tmp_path)])
                    named = str(path) in caplog.text and not any(r.exc_info for r in caplog.records)
                    must_fail = "error" not in entry and _damages(field_path, value)
                    if code not in ((3,) if must_fail else (0, 3)) or (code == 3 and not named):
                        failures.append(f"{entry['name']} {field_path}={value!r}: exit {code}")
        assert not failures


@pytest.fixture()
def parses(monkeypatch):
    """Counts of JSONL parses by path, through every reader the pipeline
    calls."""
    from steplab import pipeline, trace_model

    counts = Counter()
    for module in (pipeline, trace_model):
        def counted(path, make=None, key=None, read=module.read_jsonl):
            counts[Path(path)] += 1
            return read(path, make, key)

        monkeypatch.setattr(module, "read_jsonl", counted)
    return counts


RELABEL = ["signals", "sweep", "label", "emit", "eval"]


class TestEachArtifactParsedOnce:
    def test_relabel_parses_each_artifact_at_most_once(self, run_6x4, tmp_path, parses):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        run_pipeline(load_config(overrides={"out_dir": str(run), "force": True}, env={}), RELABEL)
        paths = artifact_paths(run)
        assert parses and max(parses.values()) == 1
        assert parses[paths["signals"]] == parses[paths["step_labels"]] == 0

    def test_a_relabel_drops_each_artifacts_rows_after_their_last_reader(self, run_6x4, tmp_path, monkeypatch):
        """The artifacts whose rows the memo holds as each stage starts, and at
        the end: the judged table stands for its parsed traces."""
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        held, memos = {}, []

        def spy(name, cfg, memo):
            held[name], memos[:] = {key[0] for key in memo}, [memo]
            return run_stage(name, cfg, memo)

        monkeypatch.setattr(pipeline, "run_stage", spy)
        run_pipeline(load_config(overrides={"out_dir": str(run), "force": True}, env={}), RELABEL)
        assert held["label"] == {"problems", "pools", "judged", "signals"}
        assert held["emit"] == held["eval"] == {"problems", "pools", "judged", "step_labels"}
        assert memos == [{}]

    def test_the_label_command_hands_its_signals_on(self, run_6x4, tmp_path, parses):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        before = (run / "step_labels.jsonl").read_bytes()
        assert main(["label", "--out-dir", str(run), "--force"]) == 0
        assert parses[artifact_paths(run)["signals"]] == 0
        assert (run / "step_labels.jsonl").read_bytes() == before

    def test_an_artifact_edited_between_calls_is_read_fresh(self, run_6x4, tmp_path, parses):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        cfg = load_config(overrides={"out_dir": str(run), "force": True}, env={})
        run_pipeline(cfg, RELABEL)
        path = artifact_paths(run)["pools"]
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        parses.clear()
        with pytest.raises(DataError, match=str(path)):
            run_pipeline(cfg, ["eval"])
        assert parses[path] == 1

    def test_rerun_ingest_hands_its_new_rows_to_validate(self, small_corpus, tmp_path, parses):
        traces = tmp_path / "traces.jsonl"
        lines = small_corpus["traces"].read_text().splitlines(keepends=True)
        traces.write_text("".join(lines))
        cfg = config_for(small_corpus, tmp_path, traces=str(traces))
        run_pipeline(cfg, ["ingest", "validate"])
        traces.write_text("".join(lines[:-1]))
        parses.clear()
        run_pipeline(cfg, ["ingest", "validate"])
        assert set(parses) == {small_corpus["problems"], traces}
        fresh = config_for(small_corpus, tmp_path, out="fresh", traces=str(traces))
        run_pipeline(fresh, ["ingest", "validate"])
        assert (cfg.out / "pools.jsonl").read_bytes() == (fresh.out / "pools.jsonl").read_bytes()


@pytest.fixture(scope="module")
def memo_run(small_corpus, tmp_path_factory):
    """A full run whose stages share one memo, and every memo entry seen
    after a stage, copied then: a later stage may take an entry's rows and
    change them."""
    root = tmp_path_factory.mktemp("memo-run")
    cfg = config_for(small_corpus, root)
    cfg.out.mkdir()
    memo: dict = {}
    seen: dict = {}
    for name in STAGES:
        run_stage(name, cfg, memo)
        seen.update(copy.deepcopy(memo))
    return cfg.out, seen


class TestHandedOnRows:
    @pytest.mark.parametrize("key", sorted(JSONL))
    def test_rows_handed_on_equal_a_fresh_parse(self, memo_run, key):
        out, memo = memo_run
        path = artifact_paths(out)[key]
        fresh = StageIO(artifact_paths(out), {path.name: sha256_file(path)}, {})
        assert memo[(key, sha256_file(path))] == fresh.rows(key)

    @pytest.mark.parametrize("scorer", ["label-product", "step-product"])
    def test_a_full_run_never_parses_its_own_artifacts(self, small_corpus, tmp_path, parses, scorer):
        inputs, step_scores = {small_corpus["problems"], small_corpus["traces"]}, {}
        if scorer == "step-product":  # its step counts come from the judged traces
            run_pipeline(config_for(small_corpus, tmp_path, out="ingested"), ["ingest"])
            step_scores["step_scores"] = str(_fixed_step_scores(tmp_path / "ingested"))
            inputs.add(Path(step_scores["step_scores"]))
            parses.clear()
        run_pipeline(config_for(small_corpus, tmp_path, eval_scorer=scorer, **step_scores))
        assert set(parses) == inputs

    @pytest.mark.parametrize("name", JSONL)
    def test_each_line_is_its_row_encoded(self, run_6x4, name):
        """The inverse pair StageIO.write relies on: each line, built into its
        row by the artifact's row builder and encoded back, is the line. A step
        label line holds more than its row: it encodes back whole, and its row
        holds the ids and labels the line holds, as its written record's does."""
        artifact = ARTIFACTS[name]
        lines = artifact_paths(run_6x4)[name].read_text(encoding="utf-8").splitlines(keepends=True)
        for line in lines:
            obj = json.loads(line)
            row = artifact.make(obj)
            if artifact.kept:
                assert row == artifact.kept(obj) == (obj["problem_id"], obj["trace_id"], obj["labels"])
                row = obj
            assert encode_json(artifact.encode(row)) + "\n" == line
        assert lines

    def test_memoized_parsed_traces_carry_no_verdict(self, memo_run):
        out, memo = memo_run
        traces = memo[("parsed_traces", sha256_file(artifact_paths(out)["parsed_traces"]))]
        assert traces and all(t.correct is None for t in traces)
        judged = next(rows for key, rows in memo.items() if key[0] == "judged")
        assert {t.correct for t in judged.values() if t.parse_ok} == {True, False}


def _one_entry(**fields) -> str:
    """A one-line run manifest of EMPTY_ENTRY with ``fields``."""
    return json.dumps({"toolkit_version": "0", "stages": [{**EMPTY_ENTRY, **fields}]})


class TestSummarize:
    def test_missing_manifest_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            summarize_run(tmp_path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"toolkit_version": "0", "stages": [',
            '{"stages": [{"name": "x"}]}',
            '{"toolkit_version": "0"}',
            '{"toolkit_version": "0", "stages": [{"skipped": true}]}',
            '{"toolkit_version": "0", "stages": ["ingest"]}',
            "[]",
            '{"toolkit_version": "0", "stages": [{"name": "score", "error": "BackendError"}]}',
            _one_entry(counts=[]),
            _one_entry(name="emit", counts={"prm": []}),
            _one_entry(counts={"backend_calls": 3}),
            _one_entry(wall_s="fast"),
            _one_entry(name="eval", counts={"accuracy": "high"}),
        ],
        ids=[
            "truncated", "no-version", "no-stages", "a-stage-without-name", "a-stage-not-an-object", "a-list",
            "a-failed-stage-without-message", "counts-as-a-list", "a-dataset-as-a-list",
            "backend-calls-without-requests", "wall-time-as-a-string", "accuracy-as-a-string",
        ],
    )
    def test_a_damaged_manifest_is_a_data_error_naming_it(self, tmp_path, caplog, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(DataError, match=f"run manifest {path} "):
            summarize_run(tmp_path)
        assert main(["report", "--out-dir", str(tmp_path)]) == 3
        assert f"DataError: run manifest {path} " in caplog.text

    def test_emit_line_shows_each_dataset_and_its_drops(self, tmp_path):
        dataset = {"records": 5, "dropped_by_reason": {"reserved_symbol_in_step": 2, "reserved_symbol_in_question": 1}}
        emit = {**EMPTY_ENTRY, "name": "emit", "counts": {"prm": dataset, "orm": {**dataset, "records": 7}}}
        (tmp_path / "manifest.json").write_text(json.dumps({"toolkit_version": "0", "stages": [emit]}))
        assert summarize_run(tmp_path).splitlines()[1] == (
            "  emit: ran | wall 0.000 s"
            " | prm records 5, dropped reserved_symbol_in_question=1, reserved_symbol_in_step=2"
            " | orm records 7, dropped reserved_symbol_in_question=1, reserved_symbol_in_step=2"
        )


def _python(code: str, *args: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter, with ``src`` on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestImports:
    @pytest.fixture(scope="class")
    def loaded_by_the_cli(self):
        return set(json.loads(_python("import json, sys, steplab.cli; print(json.dumps(list(sys.modules)))")))

    # Each is used only by some backends, validators or commands.
    @pytest.mark.parametrize("module", ["http.client", "sqlite3", "subprocess", "uuid", "steplab.analysis"])
    def test_importing_the_cli_does_not_load(self, loaded_by_the_cli, module):
        assert module not in loaded_by_the_cli

    def test_a_relabel_loads_neither_sqlite3_nor_subprocess(self, run_6x4, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        code = (
            "import json, sys; from steplab.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, 'sqlite3' in sys.modules, 'subprocess' in sys.modules]))"
        )
        out = _python(code, "run", "--out-dir", str(run), "--stages", "signals,sweep,label,emit,eval", "--force")
        assert json.loads(out.splitlines()[-1]) == [0, False, False]


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_before(request):
    """Python's cyclic collector switched on or off for the test, then reset."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    def test_stages_run_paused_and_the_callers_setting_comes_back(self, run_6x4, tmp_path, monkeypatch, gc_before):
        from steplab import pipeline

        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        during = []
        write = pipeline.write_jsonl

        def recording_write(*args):
            during.append(gc.isenabled())
            return write(*args)

        monkeypatch.setattr(pipeline, "write_jsonl", recording_write)
        run_pipeline(load_config(overrides={"out_dir": str(run), "force": True}), ["signals", "label", "emit"])
        assert during == [False, False]
        assert gc.isenabled() is gc_before

    def test_a_failed_stage_gives_back_the_callers_setting(self, small_corpus, tmp_path, gc_before):
        from steplab.errors import BackendError

        cfg = config_for(small_corpus, tmp_path, backend="http://127.0.0.1:9", backend_backoff_s=0.0)
        with pytest.raises(BackendError):
            run_pipeline(cfg)
        assert gc.isenabled() is gc_before

    @pytest.mark.parametrize("gc_before", [False], indirect=True)
    def test_a_run_leaves_as_many_cycles_at_any_corpus_size(self, tmp_path, gc_before):
        """Per-row work builds no reference cycles, so pausing the collector
        holds back no more garbage on a bigger corpus."""
        left = {}
        for n_problems in (6, 24):
            corpus = build_demo_corpus(tmp_path / f"corpus-{n_problems}", n_problems=n_problems, traces_per_problem=4)
            cfg = RunConfig(
                problems=str(corpus["problems"]),
                traces=str(corpus["traces"]),
                out_dir=str(tmp_path / f"run-{n_problems}"),
                backend=f"reference:{corpus['reference_model']}",
            )
            gc.collect()
            run_pipeline(cfg)
            left[n_problems] = gc.collect()
        assert left[6] == left[24]


@pytest.fixture()
def held_lock():
    """Takes a run directory's exclusive ``flock`` on a descriptor of this
    test's own, as another run would; released after the test."""
    held = []

    def hold(run: Path) -> int:
        held.append(os.open(run, os.O_RDONLY))
        fcntl.flock(held[-1], fcntl.LOCK_EX | fcntl.LOCK_NB)
        return held[-1]

    yield hold
    for fd in held:
        os.close(fd)


class TestOneWriterPerRunDirectory:
    RELABEL = ["signals", "sweep", "label", "emit", "eval"]

    def test_a_second_run_fails_with_exit_2_and_leaves_the_manifest(self, run_6x4, tmp_path, held_lock):
        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        manifest = (run / "manifest.json").read_bytes()
        cfg = load_config(overrides={"out_dir": str(run), "force": True}, env={})
        lock = held_lock(run)
        with pytest.raises(ConfigError) as err:
            run_pipeline(cfg, self.RELABEL)
        assert str(run) in str(err.value) and exit_code(err.value) == 2
        assert main(["run", "--out-dir", str(run), "--stages", ",".join(self.RELABEL), "--force"]) == 2
        assert (run / "manifest.json").read_bytes() == manifest
        assert main(["report", "--out-dir", str(run)]) == 0  # takes no lock
        fcntl.flock(lock, fcntl.LOCK_UN)
        reports = run_pipeline(cfg, self.RELABEL)["stages"]
        assert [(r["name"], r["skipped"]) for r in reports] == [(name, False) for name in self.RELABEL]
        assert (run / "manifest.json").read_bytes() != manifest

    def test_the_lock_is_held_until_the_manifest_is_written(self, run_6x4, tmp_path, held_lock, monkeypatch):
        from steplab import pipeline

        run = tmp_path / "run"
        shutil.copytree(run_6x4, run)
        attempts = []
        write = pipeline.atomic_write_text

        def try_lock_then_write(path, text):
            if Path(path).name == "manifest.json":
                with pytest.raises(BlockingIOError):
                    held_lock(run)
                attempts.append(path)
            return write(path, text)

        monkeypatch.setattr(pipeline, "atomic_write_text", try_lock_then_write)
        run_pipeline(load_config(overrides={"out_dir": str(run)}, env={}), ["signals"])
        assert len(attempts) == 1
        held_lock(run)  # released once the run returns


def test_a_math_answer_too_long_to_print_is_a_wrong_answer(tmp_path):
    """A 6x4 run whose one math trace answers $1e5000$ runs to its end: the
    answer parses as no number, so its pool files it as wrong."""
    corpus = build_demo_corpus(tmp_path / "corpus", n_problems=6, traces_per_problem=4)
    rows = list(read_jsonl(corpus["traces"]))
    rows[0]["raw_text"] = rows[0]["raw_text"].rsplit("$", 2)[0] + "$1e5000$"
    corpus["traces"].write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "run"
    argv = ["--problems", str(corpus["problems"]), "--traces", str(corpus["traces"]), "--out-dir", str(out)]
    assert main(["--backend", f"reference:{corpus['reference_model']}", "run", *argv]) == 0
    problem = next(p for p in read_jsonl(corpus["problems"]) if p["id"] == rows[0]["problem_id"])
    pool = next(p for p in read_jsonl(out / "pools.jsonl") if p["problem_id"] == problem["id"])
    assert problem["domain"] == "math" and "1e5000" in pool["wrong"] and not pool["diagnostics"]
