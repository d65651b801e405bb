"""``bench/traced.py`` replaces program functions where callers look them
up, by module and name. A renamed or removed patch point must fail here,
not only in the traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from helpers import reference_model
from steplab import pipeline
from steplab.scoring import CachingBackend, ScoreCache, score_traces

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def load_traced():
    """The traced child's module, loaded without running its ``main``."""
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    traced = load_traced()
    missing = [(name, attr) for name, attr, *_ in traced.PATCHES if not hasattr(importlib.import_module(name), attr)]
    assert traced.PATCHES and missing == []


def test_every_stage_has_the_name_it_is_run_by():
    """The traced child runs stage ``s`` as ``pipeline.stage_<s>``."""
    missing = [stage for stage in pipeline.STAGES if not callable(getattr(pipeline, f"stage_{stage}", None))]
    assert missing == []


def test_the_scoring_layers_it_wraps_exist(tmp_path):
    assert load_traced().CachingBackend is CachingBackend
    backend = CachingBackend(reference_model(tmp_path / "model.json", {}, 0.5), ScoreCache(tmp_path))
    for layer in (backend.inner.score, backend.cache.get, backend.cache.put, backend.score):
        assert callable(layer)
    assert list(inspect.signature(pipeline.information_profile).parameters) == ["problem", "trace", "answers", "totals"]
    assert list(inspect.signature(score_traces).parameters) == ["backend", "jobs", "in_flight"]
