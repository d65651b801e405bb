"""Golden run: the bundled demo corpus must reproduce these exact artifacts.

The digests were recorded from a full run of the pipeline before the stage
table replaced the per-stage code, with the reference backend, no score
cache and the default seed. Any change to a byte-stable artifact fails here,
and so does any change to the files ``build_demo_corpus`` writes.
"""

import hashlib

import pytest

from steplab.cli import main
from steplab.fixtures import build_demo_corpus

GOLDEN = {
    "problems.jsonl": "ee603f7fed7d7bdc870673e212463326bb70f23c9f0eaf5784659f0c1b4262a6",
    "parsed_traces.jsonl": "78dd1e78a13439f7150fe9d715d2e8688cc9a295398ce24520619baec6c1d5ef",
    "pools.jsonl": "660b5339632b84c3069879ae4e10af77d4ea761460ac76785ae2e7ee4d803a9c",
    "working_set.jsonl": "2eb1d58e1b5e7723940e7b9a71170ff168f0389a1277282a8c3b8ca8aac55f13",
    "profiles.jsonl": "1282c8bf2b8debe97a5d9e7a787a781582220657dae6bfb740d51e99929fe08f",
    "signals.jsonl": "6f26ee31de3fb9f2bf024b503f39809f03069438c7dbbf90d3f4bc50b85004c4",
    "sweep.json": "b196cac45d9b6f73e30328edf01b474a8f3c1c606a87ead3410b09706599c126",
    "thresholds.json": "833114cae198473448cfbe4b17b1fda259efea1820bad0b3a92ff4db0928e52a",
    "step_labels.jsonl": "0a93eedb1e5eecc84828008b9548d03d2c86063691bb5609249c76a9ddaa4277",
    "prm/train-00000.jsonl": "88ccdf13e1019b1541f6df8d20be8350e8e6e122ab291cc0370e529b638a9c75",
    "orm/train-00000.jsonl": "293302378c0ec7717622875fd6a2fb414341df0bf4db8147e22d02a031ba8a68",
    "emit_report.json": "d31c5b4971001257ec15c690d9113a97b631f6e8ab924edaa208d79ce9102c4b",
}
EVAL_REPORT = {
    "label-product": "e8f8a367f84e65652ade006b072334a4a435183738f18a157eb68f09952df89a",
    "majority": "5093294538eabfc166a575e041517d63344d09073b09d1b4b3094ad82cb94de0",
}
# sha256 of each file of a 6x4 demo corpus, by seed.
DEMO_CORPUS = {
    20240801: {
        "problems": "c8c5a02ebb443a91eb9b383eecb5ed61e4ad957e533f3d17a59c4b67c51e4e86",
        "traces": "2da68f602ffeb686b9108489d29da76f483631b6101ce2951d8e83c83362bb98",
        "reference_model": "51b166761f048475f2ef25fd0c460b6ab07e4282f0e17f4e72be3dd8f67b17e0",
    },
    7: {
        "problems": "7258133b8224607ae21693aa48912b2ccfdd1c5478681ba0ed907f894880d4fd",
        "traces": "0e2ffd6fb771914a272eac550d27e77a4fd43b17ce2bfe41fe8e2f05c3feb333",
        "reference_model": "8c8d04a496342d77aea535b45365147f67eb2b1b54956e9fd789f107c51f5cbf",
    },
}


@pytest.mark.parametrize("seed", sorted(DEMO_CORPUS))
def test_demo_corpus_rebuilds_byte_identically(tmp_path, seed):
    paths = build_demo_corpus(tmp_path, n_problems=6, traces_per_problem=4, seed=seed)
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()} == DEMO_CORPUS[seed]


def digests(run_dir):
    """sha256 of every run artifact except the manifests, which hold paths and times."""
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json" and p.parent.name != "stages"
    }


@pytest.fixture()
def no_env(monkeypatch):
    monkeypatch.delenv("STEPLAB_BACKEND_URL", raising=False)
    monkeypatch.delenv("STEPLAB_CACHE_DIR", raising=False)


@pytest.mark.usefixtures("no_env")
def test_demo_run_reproduces_golden_artifacts(demo_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    base = [
        "--backend", f"reference:{demo_corpus['reference_model']}",
        "run", "--out-dir", str(out),
        "--problems", str(demo_corpus["problems"]),
        "--traces", str(demo_corpus["traces"]),
    ]
    assert main(base) == 0
    assert digests(out) == {**GOLDEN, "eval_report.json": EVAL_REPORT["label-product"]}

    capsys.readouterr()
    assert main(base + ["--scorer", "majority"]) == 0
    assert digests(out) == {**GOLDEN, "eval_report.json": EVAL_REPORT["majority"]}
    summary = capsys.readouterr().out
    assert summary.count(": skipped") == 7 and "eval: ran" in summary
