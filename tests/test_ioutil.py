import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from steplab import ioutil
from steplab.errors import DataError
from steplab.ioutil import atomic_write_text, encode_json, read_jsonl, sha256_file, stable_seed, write_jsonl

SRC = Path(__file__).resolve().parents[1] / "src"

# Values whose text json.dumps spells in a way of its own.
JSON_VALUES = [
    "naïve ∑ 数学 \U0001f600",
    "\x00\x1f\t\n\r\x7f\u2028",
    'a "quoted" \\ backslash /',
    [0.1, -0.0, 1e300, 1e-7, float("inf"), float("-inf"), float("nan"), 123456789012345678901234567890],
    [True, False, None],
    {"empty": [[], {}, [[]], [{}]], "": {"nested": {"deeper": []}}},
    {"x": 1, "ü": [1.5, "two", None], "1": True},
    [],
    {},
]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"a": 1}, {"b": [1, 2]}, {"c": "x"}]
        write_jsonl(path, rows)
        assert list(read_jsonl(path)) == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"broken": \n')
        with pytest.raises(DataError) as err:
            list(read_jsonl(path))
        assert str(err.value).startswith(f"{path}:2: invalid JSON: ")

    def test_each_line_decodes_as_json_loads_does(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        lines = [json.dumps(value, ensure_ascii=False) for value in JSON_VALUES] + [' \t{"a": [1 , 2]} \r', "7"]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        # Compared as JSON text: NaN is unequal to itself.
        assert [json.dumps(obj) for obj in read_jsonl(path)] == [json.dumps(json.loads(line)) for line in lines]

    @pytest.mark.parametrize(
        "line", ['{"a": 1} {"b": 2}', '{"a": 1}]', "\ufeff{}", "[1, 2", "nul", '{"a": 1}x', '"\\ud800'],
    )
    def test_an_invalid_line_reports_the_error_of_json_loads(self, tmp_path, line):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            list(read_jsonl(path))
        assert str(err.value) == f"{path}:2: invalid JSON: {expected.value.msg}"

    def test_a_repeated_key_names_its_line_and_the_first(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "a"}\n{"id": "b"}\n\n{"id": "a"}\n')
        rows = read_jsonl(path, dict, key=lambda row: row["id"])
        assert next(rows) == {"id": "a"} and next(rows) == {"id": "b"}
        with pytest.raises(DataError) as err:
            next(rows)
        assert str(err.value) == f"{path}:4: repeats the key 'a' of line 1"

    def test_a_key_that_cannot_be_hashed_is_a_malformed_record(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": ["a"]}\n')
        with pytest.raises(DataError, match=f"{path}:1: malformed record: TypeError"):
            list(read_jsonl(path, dict, key=lambda row: row["id"]))


class TestEncodeJson:
    @pytest.fixture(params=["c", "python"])
    def encode(self, request, monkeypatch):
        """The module's encoder, and one built where json has no C encoder."""
        if request.param == "c":
            assert json.encoder.c_make_encoder is not None
            return ioutil.encode_json
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        return ioutil._json_encoder()

    @pytest.mark.parametrize("value", JSON_VALUES, ids=range(len(JSON_VALUES)))
    def test_bytes_equal_json_dumps(self, encode, value):
        assert encode(value) == json.dumps(value, ensure_ascii=False)

    def test_an_unserializable_value_is_a_type_error(self, encode):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode({"rows": [1, {2}]})


class TestAtomicWrite:
    def test_concurrent_writers_of_one_path(self, tmp_path):
        path = tmp_path / "shared.json"
        texts = [f"writer {i}\n" * 2000 for i in range(8)]
        start = threading.Barrier(len(texts))
        errors = []

        def write(text):
            start.wait()
            try:
                for _ in range(30):
                    atomic_write_text(path, text)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,)) for text in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert path.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\udcff")
        assert list(tmp_path.iterdir()) == []


# Rows whose lines run past the writer's 64-KiB chunks, some of them non-ASCII.
LONG_ROWS = [{"id": i, "text": ("naïve ∑ 数学 \U0001f600 " if i % 3 else "plain ") * 40} for i in range(400)]


class TestStreamedWrite:
    @pytest.mark.parametrize(
        "rows", [[], [{"a": 1}], LONG_ROWS, [{"text": value} for value in JSON_VALUES]],
        ids=["none", "one", "past-a-chunk", "non-ascii"],
    )
    def test_bytes_and_digest_equal_those_of_the_joined_text(self, tmp_path, rows):
        path = tmp_path / "rows.jsonl"
        digest = write_jsonl(path, iter(rows))
        assert path.read_bytes() == "".join(encode_json(r) + "\n" for r in rows).encode("utf-8")
        assert digest == sha256_file(path)

    def test_a_row_that_fails_after_a_chunk_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("old\n")
        written = []

        def rows():
            yield from LONG_ROWS
            written.extend(tmp.stat().st_size for tmp in tmp_path.glob("*.tmp"))
            yield {"bad": {1}}

        with pytest.raises(TypeError, match="not JSON serializable"):
            write_jsonl(path, rows())
        assert written and written[0] > 0  # a chunk was in the temp file
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM of Linux's /proc")
    def test_peak_memory_grows_by_far_less_than_the_file(self, tmp_path):
        # Measured in a fresh process: VmHWM is its own peak resident size.
        code = (
            "import sys; from pathlib import Path; from steplab.ioutil import write_jsonl\n"
            "status = Path('/proc/self/status')\n"
            "def hwm(): return next(int(l.split()[1]) for l in status.read_text().splitlines() if l[:6] == 'VmHWM:')\n"
            "before = hwm()\n"
            "write_jsonl(sys.argv[1], ({'id': i, 'text': 'x' * 1000} for i in range(20_000)))\n"
            "print(1024 * (hwm() - before))\n"
        )
        path = tmp_path / "big.jsonl"
        argv, env = [sys.executable, "-c", code, str(path)], {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        size = path.stat().st_size
        assert size > 20_000_000 and int(out.stdout) < size / 2


class TestHashing:
    def test_sha256_file_stable(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("content")
        assert sha256_file(path) == sha256_file(path)

    def test_stable_seed_is_deterministic_and_sensitive(self):
        assert stable_seed(1, "p1") == stable_seed(1, "p1")
        assert stable_seed(1, "p1") != stable_seed(2, "p1")
        assert stable_seed(1, "p1") != stable_seed(1, "p2")
        # Joined parts must not be confusable ("ab","c" vs "a","bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")
